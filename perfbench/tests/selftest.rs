//! Self-tests of the benchmark's own machinery: the traced system it
//! assembles must simulate exactly what `SystemBuilder` builds, and the
//! correctness gate must reject any change to the pinned output.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mosaic_obs::StatsRegistry;
use mosaic_perfbench::{check_expected, prepare, run_plain, run_reference, run_traced, Workload};

fn assert_same(what: &str, a: &StatsRegistry, b: &StatsRegistry) {
    let diff = a.diff(b);
    assert!(
        diff.is_empty(),
        "{what}: registries differ in {} paths: {diff:?}",
        diff.len()
    );
}

#[test]
fn traced_assembly_matches_system_builder_on_every_workload() {
    for w in Workload::ALL {
        let p = prepare(w);
        let reference = run_reference(&p);
        assert_eq!(reference.registry.counter("sim.cycles"), reference.cycles);
        check_expected(w, &reference.registry)
            .unwrap_or_else(|e| panic!("{}: reference run: {e}", w.name()));

        // `sim.ff.*` included: the same scheduler must take the same skips.
        let traced = run_traced(&p, w.obs());
        assert_same(
            &format!("{} traced", w.name()),
            &reference.registry,
            &traced.registry,
        );
        let plain = run_plain(&p, w.obs());
        assert_same(
            &format!("{} plain", w.name()),
            &reference.registry,
            &plain.registry,
        );

        let probe = &traced.probe;
        let timed = [
            &probe.step,
            &probe.next_event,
            &probe.skip_credit,
            &probe.mem_completion,
        ]
        .iter()
        .map(|s| s.get().time.as_secs_f64())
        .sum::<f64>();
        assert!(
            timed <= traced.run_s,
            "{}: tile time {timed} > run {}",
            w.name(),
            traced.run_s
        );
        assert!(
            probe.step.get().calls >= reference.registry.counter("sim.ff.steps_executed"),
            "{}: every executed cycle steps at least one tile",
            w.name()
        );
    }
}

#[test]
fn gate_rejects_changed_output_but_not_scheduler_diagnostics() {
    let w = Workload::SgemmOoo;
    let mut reg = run_reference(&prepare(w)).registry;
    reg.set_counter("sim.ff.skips_taken", 0);
    check_expected(w, &reg).expect("sim.ff.* is not pinned");

    let mut changed = reg.clone();
    changed.set_counter("sim.cycles", reg.counter("sim.cycles") + 1);
    let err = check_expected(w, &changed).expect_err("a changed cycle count fails");
    assert!(err.contains("sim.cycles"), "{err}");

    let mut added = reg.clone();
    added.set_counter("mem.new_counter", 1);
    assert!(
        check_expected(w, &added).is_err(),
        "an unpinned counter fails"
    );

    let mut gauge = reg;
    gauge.set_gauge(
        "sim.ipc",
        f64::from_bits(gauge.gauge("sim.ipc").to_bits() + 1),
    );
    assert!(
        check_expected(w, &gauge).is_err(),
        "gauges compare bit for bit"
    );
}
