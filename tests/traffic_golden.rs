//! Golden digests of traffic and resilience reports: each case hashes a
//! report's `{:?}` rendering with 64-bit FNV-1a, fixing every field —
//! counts, delay percentiles, per-link loads, verdicts — to the last bit. A
//! change that keeps the packet simulator's behavior leaves them all alone;
//! one that changes it re-pins them and says why.

use scream::prelude::*;
use scream_bench::{heavy_demand_instance, LargeScaleScenario, PaperScenario, RecoveryExperiment};

/// One `case digest` line: 64-bit FNV-1a over the `Debug` rendering.
fn pin(case: &str, report: &impl std::fmt::Debug) -> String {
    let digest = format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        });
    format!("{case} {digest:016x}\n")
}

fn run(frame: &Schedule, flows: FlowSet, config: TrafficConfig) -> TrafficReport {
    TrafficEngine::on_schedule(frame, flows, config)
        .unwrap()
        .run()
}

/// The named arrival process at mean rate `rate`.
fn arrival(name: &str, rate: f64) -> ArrivalProcess {
    match name {
        "deterministic" => ArrivalProcess::deterministic(rate),
        "poisson" => ArrivalProcess::poisson(rate),
        _ => ArrivalProcess::on_off(2.0 * rate, 8.0, 8.0),
    }
}

/// Single-hop flows loading every demanded link to `load` of its share.
fn single_hop_at(demands: &LinkDemands, frame_slots: u64, load: f64) -> FlowSet {
    FlowSet::single_hop(demands.demanded_links().map(|(link, demand)| {
        let share = demand as f64 / frame_slots as f64;
        (link, ArrivalProcess::deterministic(load * share))
    }))
}

#[test]
fn paper_grid_traffic_reports_are_pinned() {
    let instance = PaperScenario::grid(2_000.0).instantiate(1);
    let pins = |frame: &Schedule| {
        let mut pins = String::new();
        for rho in [0.6, 0.9, 1.5] {
            let per_demand = rho / frame.length() as f64;
            for name in ["deterministic", "poisson", "on_off"] {
                let flows = FlowSet::along_forest_with(
                    &instance.forest,
                    &instance.demands,
                    per_demand,
                    |_, rate| arrival(name, rate),
                );
                let config = TrafficConfig::new(20).with_seed(instance.seed);
                pins += &pin(&format!("rho{rho}/{name}"), &run(frame, flows, config));
            }
        }
        pins
    };
    assert_eq!(pins(&instance.run_centralized()), PAPER_GRID_PINS);
    // FDD builds the centralized frame (Theorem 4), so it carries the same
    // traffic to the bit.
    let fdd = instance.run_protocol(ProtocolKind::Fdd).schedule;
    assert_eq!(pins(&fdd), PAPER_GRID_PINS);
}

#[test]
fn single_hop_traffic_reports_are_pinned() {
    // The 64-link heavy-demand frame and a ~10³-link large-scale lattice,
    // every link at 90% load.
    let (env, demands) = heavy_demand_instance(100);
    let frame = GreedyPhysical::paper_baseline().schedule(&env, &demands);
    let flows = single_hop_at(&demands, frame.length() as u64, 0.9);
    let mut pins = pin(
        "heavy_demand_64",
        &run(&frame, flows, TrafficConfig::new(50)),
    );
    let (env, demands) = LargeScaleScenario::with_target_links(1_000).instantiate();
    let frame = GreedyPhysical::paper_baseline().schedule(&env, &demands);
    let flows = single_hop_at(&demands, frame.length() as u64, 0.9);
    let config = TrafficConfig::new(5).with_seed(3);
    pins += &pin("large_scale_1k", &run(&frame, flows, config));

    // A million-slot frame serving one link in its first 100k slots.
    let link = Link::new(NodeId::new(1), NodeId::new(0));
    let mut frame = Schedule::new();
    frame.push_slot_run(vec![link], 100_000);
    frame.push_slot_run(vec![], 900_000);
    let flows = FlowSet::single_hop(vec![(link, ArrivalProcess::deterministic(0.05))]);
    pins += &pin(
        "million_slot_frame",
        &run(&frame, flows, TrafficConfig::new(1)),
    );
    assert_eq!(pins, SINGLE_HOP_PINS);
}

#[test]
fn resilience_reports_are_pinned() {
    let instance = PaperScenario::grid(2_000.0).instantiate(1);
    let experiment = RecoveryExperiment::from_instance(&instance);

    // Both arms of the busiest-uplink outage at load 0.8, as
    // `RecoveryExperiment::single_link_outage` runs them.
    let rho = 0.8;
    let horizon = 12 * experiment.initial_frame_slots(rho);
    let trace = FaultPlan::new()
        .link_down(experiment.failed_link(), horizon / 4)
        .build();
    let harness = experiment.harness(rho);
    let repaired = harness.run(&trace, horizon, instance.seed).unwrap();
    let harness = harness.with_config(ReschedulerConfig::baseline());
    let baseline = harness.run(&trace, horizon, instance.seed).unwrap();
    let point = experiment.single_link_outage(rho, 12);
    let mut pins = pin("outage/repaired", &repaired) + &pin("outage/baseline", &baseline);
    pins += &pin("outage/point", &point);

    // One seeded random-churn run on the same world.
    let graph = instance.env.communication_graph();
    let links: Vec<Link> = graph.edges().map(|(u, v)| Link::new(u, v)).collect();
    let nodes: Vec<NodeId> = (0..instance.deployment.len() as u32)
        .map(NodeId::new)
        .filter(|&v| !instance.forest.is_gateway(v))
        .collect();
    let config = ChurnConfig {
        horizon_slots: horizon,
        link_failures: 2,
        node_failures: 1,
        flow_churns: 1,
        fades: 1,
        mean_outage_slots: 60.0,
        fade_sigma_db: 2.0,
    };
    let churn = FaultPlan::new()
        .random_churn(config, &links, &nodes, 17)
        .build();
    let report = experiment.harness(0.7).run(&churn, horizon, 5).unwrap();
    pins += &pin("random_churn", &report);
    assert_eq!(pins, RESILIENCE_PINS);
}

const PAPER_GRID_PINS: &str = "\
rho0.6/deterministic cde323d6fad9027e
rho0.6/poisson 0e124629bd231238
rho0.6/on_off 4c4bf6587705db21
rho0.9/deterministic eefa1d067bdf336e
rho0.9/poisson 6e2914bd013ec34c
rho0.9/on_off 20b4e0446d079562
rho1.5/deterministic fb22e9f5c440ef62
rho1.5/poisson 56d98df34a46e4e2
rho1.5/on_off 47e10b0a038209a4
";

const SINGLE_HOP_PINS: &str = "\
heavy_demand_64 3c0f396f99ffb51f
large_scale_1k 22130ba1607a49ab
million_slot_frame 0bacace111c6a93f
";

const RESILIENCE_PINS: &str = "\
outage/repaired b1c2036422d7dd25
outage/baseline 93fd14d207086cdf
outage/point a64ef988be855fd5
random_churn 1c7b82323e9636be
";
