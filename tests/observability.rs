//! Integration tests for the `scream-obs` layer: same instance + seed must
//! yield byte-identical metrics snapshots and slot-clock traces across
//! schedulers and churn runs, and a disabled (or zero-capacity) sink must
//! leave every schedule and report byte-identical to the uninstrumented run.

use scream::obs;
use scream::prelude::*;
use scream_bench::{PaperScenario, RecoveryExperiment, ScenarioInstance};

/// The 16-node paper grid at 2000 nodes/km² — the same world the unit tests
/// and `trace_schedule` exercise, small enough to schedule in milliseconds.
fn paper_instance(seed: u64) -> ScenarioInstance {
    PaperScenario::grid(2_000.0)
        .with_node_count(16)
        .instantiate(seed)
}

/// Run `work` with the sink installed and hand back its output together
/// with everything the instrumentation saw.
fn observed<T>(work: impl FnOnce() -> T) -> (T, obs::ObsReport) {
    assert!(
        !obs::is_installed(),
        "tests must not leak an installed sink"
    );
    obs::install();
    let out = work();
    let report = obs::uninstall().expect("the sink was installed above");
    (out, report)
}

/// Every rendering of two reports must match byte-for-byte: the structured
/// snapshot (PartialEq), the Debug renderings, the JSONL trace export and
/// the snapshot JSON.
fn assert_byte_identical(a: &obs::ObsReport, b: &obs::ObsReport) {
    assert_eq!(a.snapshot, b.snapshot, "metrics snapshots diverged");
    assert_eq!(a, b, "trace rings or drop counts diverged");
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "Debug renderings diverged"
    );
    assert_eq!(a.trace_jsonl(), b.trace_jsonl(), "JSONL exports diverged");
    assert_eq!(
        a.snapshot.to_json(),
        b.snapshot.to_json(),
        "snapshot JSON diverged"
    );
}

#[test]
fn greedy_tracing_is_deterministic() {
    let instance = paper_instance(7);
    let (schedule_a, report_a) = observed(|| instance.run_centralized());
    let (schedule_b, report_b) = observed(|| instance.run_centralized());
    assert_eq!(
        schedule_a, schedule_b,
        "the schedule itself is deterministic"
    );
    assert_byte_identical(&report_a, &report_b);
    // The run must actually have been instrumented, or the comparison above
    // proves nothing.
    assert!(report_a.snapshot.counter("greedy.links") > 0);
    assert!(!report_a.trace.is_empty());
    assert_eq!(
        report_a.dropped_events, 0,
        "the default ring holds this run"
    );
}

#[test]
fn fdd_tracing_is_deterministic() {
    let instance = paper_instance(11);
    let (run_a, report_a) = observed(|| instance.run_protocol(ProtocolKind::Fdd));
    let (run_b, report_b) = observed(|| instance.run_protocol(ProtocolKind::Fdd));
    assert_eq!(run_a.schedule, run_b.schedule);
    assert_eq!(run_a.stats, run_b.stats);
    assert_byte_identical(&report_a, &report_b);
    assert!(!report_a.snapshot.counters.is_empty());
}

#[test]
fn churn_tracing_is_deterministic() {
    let instance = paper_instance(3);
    let experiment = RecoveryExperiment::from_instance(&instance);
    let f0 = experiment.initial_frame_slots(0.7);
    let trace = FaultPlan::new()
        .link_down(experiment.failed_link(), 5 * f0)
        .build();
    let run = || {
        experiment
            .harness(0.7)
            .run(&trace, 20 * f0, 3)
            .expect("the churn run completes")
    };
    let (resilience_a, report_a) = observed(run);
    let (resilience_b, report_b) = observed(run);
    assert_eq!(resilience_a, resilience_b, "resilience reports diverged");
    assert_byte_identical(&report_a, &report_b);
    assert!(
        report_a.snapshot.counter("resilience.epochs") > 0
            || !report_a.snapshot.counters.is_empty(),
        "the churn run must emit into the sink"
    );
}

/// With no sink installed, emission is a no-op: the schedules and reports
/// produced are byte-identical to the instrumented ones, so observability
/// can never change a verdict.
#[test]
fn a_disabled_sink_changes_nothing() {
    let instance = paper_instance(7);

    assert!(!obs::is_installed());
    let plain_schedule = instance.run_centralized();
    let (traced_schedule, _) = observed(|| instance.run_centralized());
    assert_eq!(plain_schedule, traced_schedule);
    assert_eq!(
        format!("{plain_schedule:?}"),
        format!("{traced_schedule:?}"),
        "Debug renderings diverged"
    );

    let experiment = RecoveryExperiment::from_instance(&instance);
    let f0 = experiment.initial_frame_slots(0.7);
    let trace = FaultPlan::new()
        .link_down(experiment.failed_link(), 5 * f0)
        .build();
    let run = || {
        experiment
            .harness(0.7)
            .run(&trace, 20 * f0, 7)
            .expect("the churn run completes")
    };
    assert!(!obs::is_installed());
    let plain_report = run();
    let (traced_report, _) = observed(run);
    assert_eq!(plain_report, traced_report);
    assert_eq!(
        format!("{plain_report:?}"),
        format!("{traced_report:?}"),
        "Debug renderings diverged"
    );
}

/// A zero-capacity ring keeps the registry but retains no events: same
/// snapshot as a full-capacity run, empty trace, every event counted as
/// dropped — the O(1)-memory mode `bench_summary` profiles with.
#[test]
fn a_zero_capacity_ring_drops_events_but_keeps_the_registry() {
    let instance = paper_instance(7);

    let (_, full) = observed(|| instance.run_centralized());

    assert!(!obs::is_installed());
    obs::install_with_capacity(0);
    let schedule = instance.run_centralized();
    let lean = obs::uninstall().expect("the sink was installed above");

    assert_eq!(schedule, instance.run_centralized());
    assert_eq!(
        full.snapshot, lean.snapshot,
        "the registry is ring-independent"
    );
    assert!(lean.trace.is_empty(), "capacity 0 retains nothing");
    assert_eq!(
        lean.dropped_events,
        full.trace.len() as u64 + full.dropped_events,
        "every event the full ring saw is counted as dropped"
    );
}

/// Every ledger probe ends in exactly one `ledger.outcome.*` counter, so the
/// outcomes sum to `ledger.probe.accept + ledger.probe.reject` — on the
/// exact ledgers a small greedy run uses and on a forced-pruned ledger fed
/// every ordered node pair (self-links included).
#[test]
fn every_probe_has_exactly_one_outcome() {
    let instance = paper_instance(7);
    let (_, greedy) = observed(|| instance.run_centralized());
    let (_, pruned) = observed(|| {
        let mut ledger = SlotLedger::pruned(&instance.env);
        let nodes = instance.deployment.len() as u32;
        for head in 0..nodes {
            for tail in 0..nodes {
                let link = Link::new(NodeId::new(head), NodeId::new(tail));
                if ledger.can_add(link) {
                    ledger.assign(link);
                }
            }
        }
    });
    for report in [&greedy, &pruned] {
        let snapshot = &report.snapshot;
        let probes =
            snapshot.counter("ledger.probe.accept") + snapshot.counter("ledger.probe.reject");
        let outcomes: u64 = snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("ledger.outcome."))
            .map(|(_, &count)| count)
            .sum();
        assert!(probes > 0, "the run must probe the ledger");
        assert_eq!(outcomes, probes, "{:?}", snapshot.counters);
        assert_eq!(
            snapshot.counter("ledger.outcome.accept"),
            snapshot.counter("ledger.probe.accept")
        );
    }
    // The pruned stream reaches the scan and tight-set stages.
    let stages = &pruned.snapshot;
    assert!(stages.counter("ledger.outcome.endpoint") > 0);
    assert!(
        stages.counter("ledger.farfield.skip_existing")
            + stages.counter("ledger.exact.fallback_existing")
            > 0
    );
}

/// A `TrafficEngine` run is one session segment, so it emits the segment
/// counters: they must equal the report's own totals, and two same-seed
/// runs must leave equal snapshots.
#[test]
fn engine_runs_emit_the_segment_counters() {
    let instance = paper_instance(5);
    let schedule = instance.run_centralized();
    let run = || instance.run_traffic(&schedule, 0.9, 30);
    let (report_a, obs_a) = observed(run);
    let (report_b, obs_b) = observed(run);
    assert_eq!(report_a, report_b);
    assert_eq!(report_a, run(), "the sink must not change the report");
    assert_eq!(obs_a.snapshot, obs_b.snapshot, "metrics snapshots diverged");

    let snapshot = &obs_a.snapshot;
    assert!(report_a.delivered > 0, "the run must carry traffic");
    assert_eq!(snapshot.counter("traffic.injected"), report_a.injected);
    assert_eq!(snapshot.counter("traffic.delivered"), report_a.delivered);
    assert_eq!(snapshot.counter("traffic.dropped"), 0);
    assert_eq!(
        snapshot.gauges.get("traffic.backlog").copied(),
        Some(report_a.final_backlog)
    );
}
