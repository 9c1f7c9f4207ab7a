//! The repository benchmark: the four kernel × core workloads, their
//! set-up pipeline (kernel build → DAE slicing → trace generation →
//! system build), an untraced timing run through `SystemBuilder`, and a
//! traced run through a system the benchmark assembles itself, with every
//! `CoreTile` wrapped in [`TimedTile`] so host time can be attributed to
//! the tile's trait methods.
//!
//! Every run is checked against the simulated output pinned in
//! `expected/<workload>.txt`.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mosaic_core::{
    dae_channel, dae_memory, record_trace, xeon_memory, Interleaver, SimReport, SystemBuilder,
};
use mosaic_ir::{FuncId, MemImage, Module, TileProgram};
use mosaic_kernels::{build_parboil, projection, Prepared};
use mosaic_mem::{HierarchyConfig, MemoryHierarchy, PrefetchConfig, ReqId};
use mosaic_obs::{IrProfile, ObsLevel, StatValue, StatsRegistry, Timeline};
use mosaic_passes::{slice_dae, DaeQueues};
use mosaic_tile::{
    ChannelConfig, ChannelSet, CoreConfig, CoreTile, Horizon, NoAccel, Tile, TileCtx, TileError,
    TileStallInfo, TileStats,
};
use mosaic_trace::KernelTrace;

/// The benchmark workloads (see `README.md` for why each was chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SGEMM on one out-of-order tile: compute-bound.
    SgemmOoo,
    /// LBM on one in-order tile, prefetcher off: a DRAM-stall stream.
    LbmInoNopf,
    /// BFS on four out-of-order tiles sharing the LLC, `ObsLevel::Stats`.
    Bfs4tStats,
    /// Graph projection sliced into four access/execute pairs.
    Dae4p,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SgemmOoo,
        Workload::LbmInoNopf,
        Workload::Bfs4tStats,
        Workload::Dae4p,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SgemmOoo => "sgemm-ooo",
            Workload::LbmInoNopf => "lbm-ino-nopf",
            Workload::Bfs4tStats => "bfs-4t-stats",
            Workload::Dae4p => "dae-4p",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The observability level the workload runs at.
    pub fn obs(self) -> ObsLevel {
        match self {
            Workload::Bfs4tStats => ObsLevel::Stats,
            _ => ObsLevel::Off,
        }
    }

    /// The pinned simulated output (see [`check_expected`]).
    pub fn expected(self) -> &'static str {
        match self {
            Workload::SgemmOoo => include_str!("../expected/sgemm-ooo.txt"),
            Workload::LbmInoNopf => include_str!("../expected/lbm-ino-nopf.txt"),
            Workload::Bfs4tStats => include_str!("../expected/bfs-4t-stats.txt"),
            Workload::Dae4p => include_str!("../expected/dae-4p.txt"),
        }
    }
}

/// One core tile of a workload's system.
#[derive(Debug, Clone)]
pub struct TileSpec {
    /// Core configuration.
    pub config: CoreConfig,
    /// Kernel function the tile runs.
    pub func: FuncId,
    /// Trace tile the core replays.
    pub trace_tile: usize,
}

/// Host seconds of the set-up stages that precede the system build.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Kernel IR and input construction (`mosaic-kernels`).
    pub kernels_build_s: f64,
    /// DAE slicing (`mosaic-passes`); 0 for workloads that do not slice.
    pub passes_dae_slice_s: f64,
    /// Trace generation by the IR interpreter.
    pub interp_trace_s: f64,
}

/// A workload ready to simulate: module, trace and system description.
pub struct Prepped {
    /// The workload.
    pub workload: Workload,
    /// The kernel module.
    pub module: Arc<Module>,
    /// The recorded kernel trace.
    pub trace: Arc<KernelTrace>,
    /// The tiles, in memory-slot order.
    pub tiles: Vec<TileSpec>,
    /// Memory hierarchy configuration.
    pub memory: HierarchyConfig,
    /// Default channel configuration.
    pub channel: ChannelConfig,
    /// How long each set-up stage took.
    pub times: SetupTimes,
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs the trace generator for `programs`, timing it into `times`.
fn trace(
    module: &Module,
    mem: MemImage,
    programs: &[TileProgram],
    times: &mut SetupTimes,
) -> KernelTrace {
    let t = Instant::now();
    let (trace, _) = record_trace(module, mem, programs).expect("workload traces without error");
    times.interp_trace_s = secs_since(t);
    trace
}

/// Builds, slices and traces `workload`: every set-up stage except the
/// system build.
pub fn prepare(workload: Workload) -> Prepped {
    let mut times = SetupTimes::default();
    let spmd = |kernel: &str,
                scale: u32,
                tiles: usize,
                core: CoreConfig,
                memory,
                times: &mut SetupTimes| {
        let t = Instant::now();
        let Prepared {
            module,
            func,
            args,
            mem,
            ..
        } = build_parboil(kernel, scale);
        times.kernels_build_s = secs_since(t);
        let trace = trace(&module, mem, &TileProgram::spmd(func, args, tiles), times);
        let tiles = (0..tiles)
            .map(|i| TileSpec {
                config: core.clone(),
                func,
                trace_tile: i,
            })
            .collect();
        (module, trace, tiles, memory, ChannelConfig::default())
    };
    let (module, trace, tiles, memory, channel) = match workload {
        Workload::SgemmOoo => spmd(
            "sgemm",
            1,
            1,
            CoreConfig::out_of_order(),
            xeon_memory(),
            &mut times,
        ),
        Workload::LbmInoNopf => {
            let memory = HierarchyConfig {
                prefetch: PrefetchConfig::disabled(),
                ..xeon_memory()
            };
            spmd("lbm", 2, 1, CoreConfig::in_order(), memory, &mut times)
        }
        Workload::Bfs4tStats => spmd(
            "bfs",
            4,
            4,
            CoreConfig::out_of_order(),
            xeon_memory(),
            &mut times,
        ),
        Workload::Dae4p => {
            const PAIRS: usize = 4;
            let t = Instant::now();
            let mut p = projection::build(2);
            times.kernels_build_s = secs_since(t);
            let t = Instant::now();
            let slices =
                slice_dae(&mut p.module, p.func, DaeQueues::default()).expect("projection slices");
            times.passes_dae_slice_s = secs_since(t);
            let mut programs = Vec::new();
            let mut tiles = Vec::new();
            for pair in 0..PAIRS {
                // Each pair gets a private queue namespace.
                let offset = 1000 * pair as u32;
                for (func, config) in [
                    (
                        slices.access,
                        CoreConfig::dae_access().with_name(&format!("access#{pair}")),
                    ),
                    (
                        slices.execute,
                        CoreConfig::in_order().with_name(&format!("execute#{pair}")),
                    ),
                ] {
                    let mut prog =
                        TileProgram::single(func, p.args.clone()).with_queue_offset(offset);
                    prog.tile_id = pair as i64;
                    prog.num_tiles = PAIRS as i64;
                    programs.push(prog);
                    tiles.push(TileSpec {
                        config: config.with_queue_offset(offset),
                        func,
                        trace_tile: tiles.len(),
                    });
                }
            }
            let trace = trace(&p.module, p.mem, &programs, &mut times);
            let module = p.module;
            (module, trace, tiles, dae_memory(), dae_channel())
        }
    };
    Prepped {
        workload,
        module: Arc::new(module),
        trace: Arc::new(trace),
        tiles,
        memory,
        channel,
        times,
    }
}

impl Prepped {
    /// The system as a `SystemBuilder` — the path users take.
    pub fn builder(&self, obs: ObsLevel) -> SystemBuilder {
        self.tiles.iter().fold(
            SystemBuilder::new(self.module.clone(), self.trace.clone())
                .memory(self.memory.clone())
                .channels(self.channel)
                .observe(obs),
            |b, t| b.core(t.config.clone(), t.func, t.trace_tile),
        )
    }

    /// The same system assembled from its parts, as `SystemBuilder::build`
    /// does it but without the lint gate, with every tile wrapped in a
    /// [`TimedTile`] reporting to `probe`.
    pub fn traced_interleaver(&self, obs: ObsLevel, probe: &Rc<Probe>) -> Interleaver {
        let mut mem = MemoryHierarchy::new(self.memory.clone(), self.tiles.len().max(1));
        mem.reset_stats();
        let tiles: Vec<Box<dyn Tile>> = self
            .tiles
            .iter()
            .enumerate()
            .map(|(slot, spec)| {
                let trace = Arc::new(self.trace.tile(spec.trace_tile).clone());
                let inner = CoreTile::new(
                    spec.config.clone(),
                    self.module.clone(),
                    spec.func,
                    trace,
                    slot,
                );
                Box::new(TimedTile {
                    inner,
                    probe: probe.clone(),
                }) as Box<dyn Tile>
            })
            .collect();
        let mut il = Interleaver::new(tiles, mem, ChannelSet::new(self.channel), Box::new(NoAccel));
        il.set_observe(obs);
        il
    }

    /// Host seconds of `StaticDdg::build` over every tile's function, the
    /// DDG construction `CoreTile::new` performs.
    pub fn time_ddg_build(&self) -> f64 {
        let t = Instant::now();
        for spec in &self.tiles {
            std::hint::black_box(mosaic_ddg::StaticDdg::build(
                self.module.function(spec.func),
            ));
        }
        secs_since(t)
    }
}

/// The registry `SystemBuilder::run` reports for a finished run: tile and
/// memory counters, `sim.cycles`/`sim.retired`/`sim.ipc` and the
/// `sim.ff.*` scheduler diagnostics.
fn report_registry(il: &Interleaver, cycles: u64) -> StatsRegistry {
    let mut reg = StatsRegistry::new();
    let mut retired = 0;
    for (slot, tile) in il.tiles().iter().enumerate() {
        tile.stats().register_into(&mut reg, slot);
        retired += tile.stats().retired;
    }
    il.memory().register_into(&mut reg);
    reg.set_counter("sim.cycles", cycles);
    reg.set_counter("sim.retired", retired);
    if cycles > 0 {
        reg.set_gauge("sim.ipc", retired as f64 / cycles as f64);
    }
    reg.set_counter("sim.ff.steps_executed", il.steps_executed());
    reg.set_counter("sim.ff.cycles_skipped", il.cycles_skipped());
    reg.set_counter("sim.ff.skips_taken", il.skips_taken());
    reg
}

/// Channel traffic summed over every queue: `(sends, recvs)`.
fn channel_traffic(il: &Interleaver) -> (u64, u64) {
    il.channels()
        .iter()
        .fold((0, 0), |(s, r), (_, c)| (s + c.sends(), r + c.recvs()))
}

/// Result of one untraced run.
pub struct PlainRun {
    /// Host seconds of `SystemBuilder::build` (validation, lint gate,
    /// `CoreTile::new`, per-tile trace copy).
    pub core_build_s: f64,
    /// Host seconds of `Interleaver::run`.
    pub run_s: f64,
    /// The run's registry.
    pub registry: StatsRegistry,
    /// Channel `(sends, recvs)`.
    pub channels: (u64, u64),
}

/// Builds the system through `SystemBuilder::build` and runs it untraced.
pub fn run_plain(p: &Prepped, obs: ObsLevel) -> PlainRun {
    let t = Instant::now();
    let mut il = p.builder(obs).build().expect("workload system builds");
    let core_build_s = secs_since(t);
    let t = Instant::now();
    let cycles = il.run().expect("workload simulates to completion");
    let run_s = secs_since(t);
    PlainRun {
        core_build_s,
        run_s,
        registry: report_registry(&il, cycles),
        channels: channel_traffic(&il),
    }
}

/// Result of one traced run.
pub struct TracedRun {
    /// Host seconds of `Interleaver::run` with every tile wrapped.
    pub run_s: f64,
    /// Host time per wrapped tile method, summed over tiles.
    pub probe: Probe,
    /// The run's registry.
    pub registry: StatsRegistry,
}

/// Assembles the wrapped system and runs it.
pub fn run_traced(p: &Prepped, obs: ObsLevel) -> TracedRun {
    let probe = Rc::new(Probe::default());
    let mut il = p.traced_interleaver(obs, &probe);
    let t = Instant::now();
    let cycles = il.run().expect("workload simulates to completion");
    let run_s = secs_since(t);
    let registry = report_registry(&il, cycles);
    drop(il);
    let probe = Rc::try_unwrap(probe).expect("the interleaver and its tiles are gone");
    TracedRun {
        run_s,
        probe,
        registry,
    }
}

/// Runs the system through `SystemBuilder::run`, the reference the traced
/// assembly is tested against.
pub fn run_reference(p: &Prepped) -> SimReport {
    p.builder(p.workload.obs())
        .run()
        .expect("workload simulates to completion")
}

/// Accumulated host time and call count of one wrapped method.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Total host time inside the method.
    pub time: Duration,
    /// Number of calls.
    pub calls: u64,
}

/// Host time per wrapped `Tile` method, shared by every [`TimedTile`] of
/// one system.
#[derive(Debug, Default)]
pub struct Probe {
    /// `Tile::step` (includes the `mem.request` calls made from issue).
    pub step: Cell<Span>,
    /// `Tile::next_event`, the fast-forward survey.
    pub next_event: Cell<Span>,
    /// `Tile::on_cycles_skipped`, the fast-forward stall credit.
    pub skip_credit: Cell<Span>,
    /// `Tile::on_mem_completion`.
    pub mem_completion: Cell<Span>,
}

fn timed<R>(span: &Cell<Span>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    let mut s = span.get();
    s.time += t.elapsed();
    s.calls += 1;
    span.set(s);
    r
}

/// A `CoreTile` that forwards every `Tile` method and times the four that
/// do the work: `step`, `next_event`, `on_cycles_skipped` and
/// `on_mem_completion`. The accessors the Interleaver calls around them
/// (`is_done`, `clock_divisor`, `progress_mark`, …) are forwarded
/// untimed; their cost lands in the Interleaver's self time.
pub struct TimedTile {
    inner: CoreTile,
    probe: Rc<Probe>,
}

impl Tile for TimedTile {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn clock_divisor(&self) -> u64 {
        self.inner.clock_divisor()
    }
    fn on_mem_completion(&mut self, id: ReqId, now: u64) {
        timed(&self.probe.mem_completion, || {
            self.inner.on_mem_completion(id, now)
        })
    }
    fn step(&mut self, ctx: &mut TileCtx<'_>) -> Result<(), TileError> {
        timed(&self.probe.step, || self.inner.step(ctx))
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn stats(&self) -> &TileStats {
        self.inner.stats()
    }
    fn next_event(&self, now: u64, channels: &ChannelSet) -> Horizon {
        timed(&self.probe.next_event, || {
            self.inner.next_event(now, channels)
        })
    }
    fn on_cycles_skipped(&mut self, now: u64, aligned_cycles: u64, channels: &ChannelSet) {
        timed(&self.probe.skip_credit, || {
            self.inner.on_cycles_skipped(now, aligned_cycles, channels)
        })
    }
    fn progress_mark(&self) -> u64 {
        self.inner.progress_mark()
    }
    fn stall_info(&self, now: u64, channels: &ChannelSet) -> TileStallInfo {
        self.inner.stall_info(now, channels)
    }
    fn set_observe(&mut self, level: ObsLevel) {
        self.inner.set_observe(level)
    }
    fn take_timeline(&mut self, slot: usize) -> Timeline {
        self.inner.take_timeline(slot)
    }
    fn take_profile(&mut self) -> IrProfile {
        self.inner.take_profile()
    }
    fn save_state(&self, enc: &mut mosaic_ckpt::Enc) {
        self.inner.save_state(enc)
    }
    fn restore_state(
        &mut self,
        dec: &mut mosaic_ckpt::Dec<'_>,
    ) -> Result<(), mosaic_ckpt::CkptError> {
        self.inner.restore_state(dec)
    }
}

/// Whether `path` is pinned by the correctness gate: everything except
/// the `sim.ff.*` scheduler diagnostics, which later scheduler work may
/// legitimately change.
fn pinned(path: &str) -> bool {
    !path.starts_with("sim.ff.")
}

/// Renders the pinned part of `reg` in the `expected/*.txt` format:
/// the kernel data seed, then one `c <path> <u64>` line per counter and
/// one `g <path> <f64>` line per gauge (shortest round-trip form).
/// Histograms are sampled only at `ObsLevel::Stats` and are not pinned.
pub fn render_expected(reg: &StatsRegistry) -> String {
    let mut out = format!("seed {:#x}\n", mosaic_kernels::data::SEED);
    for (path, value) in reg.iter().filter(|(p, _)| pinned(p)) {
        match value {
            StatValue::Counter(c) => out.push_str(&format!("c {path} {c}\n")),
            StatValue::Gauge(g) => out.push_str(&format!("g {path} {g:?}\n")),
            StatValue::Histogram(_) => {}
        }
    }
    out
}

/// Checks `reg` against the workload's pinned output. Gauges compare bit
/// for bit. Fails on a kernel data seed other than the one the output was
/// recorded with, since the pinned values then describe other inputs.
///
/// # Errors
///
/// Describes the seed mismatch, or the number of differing paths and the
/// first few of them.
pub fn check_expected(workload: Workload, reg: &StatsRegistry) -> Result<(), String> {
    let expected = workload.expected();
    let got = render_expected(reg);
    let (exp_seed, got_seed) = (expected.lines().next(), got.lines().next());
    if exp_seed != got_seed {
        return Err(format!(
            "kernel data {} differs from the pinned {}",
            got_seed.unwrap_or("seed ?"),
            exp_seed.unwrap_or("seed ?")
        ));
    }
    if expected == got {
        return Ok(());
    }
    let key = |l: &str| {
        l.rsplit_once(' ')
            .map_or(l.to_string(), |(k, _)| k.to_string())
    };
    let exp: std::collections::BTreeMap<String, &str> =
        expected.lines().map(|l| (key(l), l)).collect();
    let now: std::collections::BTreeMap<String, &str> = got.lines().map(|l| (key(l), l)).collect();
    let diffs: Vec<String> = exp
        .keys()
        .chain(now.keys())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .filter(|k| exp.get(*k) != now.get(*k))
        .map(|k| {
            let show = |v: Option<&&str>| v.map_or("(absent)".to_string(), |l| l.to_string());
            format!("{} -> {}", show(exp.get(k)), show(now.get(k)))
        })
        .collect();
    Err(format!(
        "{} simulated outputs differ from the pinned values, first: {}",
        diffs.len(),
        diffs.iter().take(3).cloned().collect::<Vec<_>>().join("; ")
    ))
}
