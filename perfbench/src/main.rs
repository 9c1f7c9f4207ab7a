//! One benchmark simulation per process, reported as one JSON line on
//! stdout. `run.py` drives it; run it by hand as
//!
//! ```text
//! mosaic-perfbench plain    <workload> [--obs off|stats]  # untraced: setup + timing run
//! mosaic-perfbench traced   <workload>                    # per-layer host time
//! mosaic-perfbench expected <workload>                    # print the pinned output
//! ```

use std::process::ExitCode;
use std::time::Instant;

use mosaic_obs::json::escape;
use mosaic_obs::{ObsLevel, StatsRegistry};
use mosaic_perfbench::{
    check_expected, prepare, render_expected, run_plain, run_reference, run_traced, Span, Workload,
};

/// Registry counters reported as they are.
const SIM_COUNTERS: [&str; 19] = [
    "sim.cycles",
    "sim.retired",
    "sim.ff.steps_executed",
    "sim.ff.cycles_skipped",
    "sim.ff.skips_taken",
    "mem.l1.hits",
    "mem.l1.misses",
    "mem.l2.hits",
    "mem.l2.misses",
    "mem.llc.hits",
    "mem.llc.misses",
    "mem.dram.reads",
    "mem.dram.writebacks",
    "mem.dram.throttled_cycles",
    "mem.l1.mshr.coalesced",
    "mem.l1.mshr.full_stalls",
    "mem.llc.mshr.coalesced",
    "mem.llc.mshr.full_stalls",
    "mem.prefetches",
];

/// Per-tile registry counters (`tile.<slot>.<field>`), reported summed
/// over tiles as `tile.<field>`.
const TILE_COUNTERS: [&str; 9] = [
    "retired",
    "issued",
    "dbbs_launched",
    "mispredicts",
    "stall.window",
    "stall.fu",
    "stall.mem",
    "stall.send",
    "stall.recv",
];

/// A flat JSON object under construction.
#[derive(Default)]
struct Obj(Vec<String>);

impl Obj {
    fn num(&mut self, key: &str, v: f64) {
        assert!(v.is_finite(), "{key} is not finite");
        self.0.push(format!("\"{key}\": {v:?}"));
    }
    fn int(&mut self, key: &str, v: u64) {
        self.0.push(format!("\"{key}\": {v}"));
    }
    fn str(&mut self, key: &str, v: &str) {
        self.0.push(format!("\"{key}\": \"{}\"", escape(v)));
    }
    fn span(&mut self, layer: &str, span: Span) {
        self.num(&format!("{layer}_s"), span.time.as_secs_f64());
        self.int(&format!("{layer}_calls"), span.calls);
    }
    fn counts(&mut self, reg: &StatsRegistry) {
        for path in SIM_COUNTERS {
            self.int(path, reg.counter(path));
        }
        for field in TILE_COUNTERS {
            let sum = reg
                .iter()
                .filter(|(p, _)| {
                    p.strip_prefix("tile.")
                        .and_then(|rest| rest.split_once('.'))
                        .is_some_and(|(slot, f)| f == field && slot.parse::<usize>().is_ok())
                })
                .map(|(p, _)| reg.counter(p))
                .sum();
            self.int(&format!("tile.{field}"), sum);
        }
    }
    fn check(&mut self, result: Result<(), String>) {
        self.str("error", result.err().as_deref().unwrap_or(""));
    }
    fn print(self) {
        println!("{{{}}}", self.0.join(", "));
    }
}

fn obs_name(level: ObsLevel) -> &'static str {
    match level {
        ObsLevel::Off => "off",
        ObsLevel::Stats => "stats",
        ObsLevel::Trace => "trace",
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mosaic-perfbench <plain|traced|expected> <workload> [--obs off|stats]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(mode), Some(workload)) = (args.first(), args.get(1).and_then(|w| Workload::parse(w)))
    else {
        return usage();
    };
    let obs = match args.get(2..).unwrap_or_default() {
        [] => workload.obs(),
        [flag, level] if flag == "--obs" && level == "off" => ObsLevel::Off,
        [flag, level] if flag == "--obs" && level == "stats" => ObsLevel::Stats,
        _ => return usage(),
    };
    let mut out = Obj::default();
    out.str("workload", workload.name());
    out.str("mode", mode);
    out.str("obs", obs_name(obs));
    out.str("data_seed", &format!("{:#x}", mosaic_kernels::data::SEED));
    match mode.as_str() {
        "plain" => {
            let t = Instant::now();
            let p = prepare(workload);
            let prepare_s = t.elapsed().as_secs_f64();
            let run = run_plain(&p, obs);
            out.num("setup_s", prepare_s + run.core_build_s);
            out.num("run_s", run.run_s);
            out.num("kernels.build_s", p.times.kernels_build_s);
            out.num("passes.dae_slice_s", p.times.passes_dae_slice_s);
            out.num("interp.trace_s", p.times.interp_trace_s);
            out.num("core.build_s", run.core_build_s);
            out.num("ddg.build_s", p.time_ddg_build());
            out.int("channel.sends", run.channels.0);
            out.int("channel.recvs", run.channels.1);
            out.counts(&run.registry);
            out.check(check_expected(workload, &run.registry));
        }
        "traced" => {
            let p = prepare(workload);
            let run = run_traced(&p, obs);
            out.num("run_s", run.run_s);
            out.span("tile.step", run.probe.step.get());
            out.span("tile.next_event", run.probe.next_event.get());
            out.span("tile.skip_credit", run.probe.skip_credit.get());
            out.span("tile.mem_completion", run.probe.mem_completion.get());
            out.counts(&run.registry);
            out.check(check_expected(workload, &run.registry));
        }
        "expected" => {
            print!(
                "{}",
                render_expected(&run_reference(&prepare(workload)).registry)
            );
            return ExitCode::SUCCESS;
        }
        _ => return usage(),
    }
    out.print();
    ExitCode::SUCCESS
}
