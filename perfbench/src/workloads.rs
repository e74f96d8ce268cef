//! The three seeded workloads: their inputs (drawn from `--seed` only) and
//! one pass of the public pipeline over them, with every output checked.

use std::panic::AssertUnwindSafe;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scream_bench::{LargeScaleScenario, PaperScenario, RecoveryExperiment, ScenarioInstance};
use scream_core::{DistributedScheduler, ProtocolKind};
use scream_netsim::{PropagationModel, RadioConfig, RadioEnvironment};
use scream_scheduling::{
    repair_schedule, verify_schedule, FrameService, GreedyPhysical, RepairOutcome, Schedule,
};
use scream_topology::{
    Deployment, DeploymentKind, GridDeployment, Link, LinkDemands, NodeId, NodeInfo, Point2, Rect,
};
use scream_traffic::{ArrivalProcess, FlowSet, TrafficConfig, TrafficEngine, TrafficReport};

use crate::host::Stopwatch;
use crate::trace::Tracer;

/// Links in the `grid_10k` and `uniform_10k` instances.
const LARGE_LINKS: usize = 10_000;
/// Independent `uniform_10k` placements per run; passes cycle through them,
/// so a run's medians are not set by one draw's densest cluster.
const UNIFORM_PLACEMENTS: u64 = 3;
/// Seeded single-link failures per large pass, repaired one after another.
const LARGE_FAILURES: usize = 4;
/// Offered load of the large workloads' single-hop traffic.
const LARGE_LOAD: f64 = 0.9;
/// Frame repetitions the large workloads' traffic runs for.
const LARGE_TRAFFIC_FRAMES: u64 = 40;
/// Instances per `mesh64` pass: with at least 100, the p90 has at least ten
/// samples beyond it.
const MESH_INSTANCES: u64 = 100;
/// The paper's planned-grid density (nodes/km²).
const MESH_DENSITY: f64 = 2_000.0;
/// Offered load of the `mesh64` traffic and recovery runs.
const MESH_LOAD: f64 = 0.8;
/// Frame repetitions of the `mesh64` traffic run.
const MESH_TRAFFIC_FRAMES: u64 = 200;
/// Frame repetitions of the `mesh64` recovery session (fault at a quarter).
const MESH_RECOVERY_FRAMES: u64 = 40;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Grid10k,
    Uniform10k,
    Mesh64,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "grid_10k" => Some(Self::Grid10k),
            "uniform_10k" => Some(Self::Uniform10k),
            "mesh64" => Some(Self::Mesh64),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Grid10k => "grid_10k",
            Self::Uniform10k => "uniform_10k",
            Self::Mesh64 => "mesh64",
        }
    }

    /// Set-up repetitions per run (`setup_s` is their median).
    pub fn setup_reps(self) -> usize {
        match self {
            Self::Grid10k | Self::Uniform10k => 101,
            Self::Mesh64 => 9,
        }
    }

    /// Builds the workload's inputs from `seed`. Records the
    /// `topology.instantiate` and `netsim.env_build` spans.
    pub fn setup(self, seed: u64, tracer: &mut Tracer, checks: &mut Checks) -> Vec<Input> {
        match self {
            Self::Grid10k => vec![Input::Large(Box::new(grid_instance(seed, tracer)))],
            Self::Uniform10k => (0..UNIFORM_PLACEMENTS)
                .map(|placement| Input::Large(Box::new(uniform_instance(seed, placement, tracer))))
                .collect(),
            Self::Mesh64 => vec![Input::Mesh(mesh_instances(seed, tracer, checks))],
        }
    }

    /// Checks generated inputs against the repository's own generators
    /// (outside the timed set-up).
    pub fn check_inputs(self, inputs: &[Input], checks: &mut Checks) {
        if let (Self::Grid10k, [Input::Large(instance)]) = (self, inputs) {
            let reference = LargeScaleScenario::with_target_links(LARGE_LINKS).instantiate();
            checks.check(
                instance.env == reference.0 && instance.demands == reference.1,
                || "grid_10k differs from LargeScaleScenario::instantiate".to_string(),
            );
        }
    }
}

/// Output checks, counted against attempts instead of aborting the run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("# check failed: {}", what());
            }
        }
    }
}

/// One generated input of a workload; a pass runs the pipeline over one.
pub enum Input {
    Large(Box<LargeInstance>),
    Mesh(Vec<ScenarioInstance>),
}

/// One 10⁴-link instance plus its seeded failures.
pub struct LargeInstance {
    env: RadioEnvironment,
    demands: LinkDemands,
    /// `(failed link, link its demand moves to)`, applied in order.
    failures: Vec<(Link, Link)>,
}

/// The outputs of one pass, for metrics and for run-to-run comparison.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Nominal-speed wall time of the pass.
    pub wall_s: f64,
    /// Its wall time as measured (without probes), and the mean probe time.
    pub raw_wall_s: f64,
    pub probe_ns: f64,
    /// Built instance(s) to verified schedule(s).
    pub schedule_s: f64,
    pub repair_ms: Vec<f64>,
    pub instance_ms: Vec<f64>,
    /// Wall time inside `TrafficEngine::run`, and the packets it delivered.
    pub traffic_s: f64,
    pub delivered: u64,
    pub schedule_len_slots: u64,
    pub post_recovery_delivery_pct: f64,
    pub protocol_sim_s: f64,
    /// FNV-1a digest of every schedule the pass produced.
    pub digest: u64,
}

impl PassResult {
    /// The deterministic part of the result (everything but wall times).
    pub fn exact(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.schedule_len_slots,
            self.post_recovery_delivery_pct.to_bits(),
            self.protocol_sim_s.to_bits(),
            self.delivered,
            self.digest,
        )
    }
}

/// Runs one pass of the workload's pipeline over `input`.
pub fn run_pass(input: &Input, seed: u64, tracer: &mut Tracer, checks: &mut Checks) -> PassResult {
    let start = Stopwatch::start();
    tracer.enter("pass");
    let mut result = match input {
        Input::Large(instance) => large_pass(instance, tracer, checks),
        Input::Mesh(instances) => mesh_pass(instances, seed, tracer, checks),
    };
    tracer.exit();
    result.wall_s = start.nominal_s();
    (result.raw_wall_s, result.probe_ns) = start.wall_and_probe();
    result
}

fn streamed_env(deployment: &Deployment) -> RadioEnvironment {
    RadioEnvironment::builder()
        .propagation(PropagationModel::log_distance(3.0))
        .config(RadioConfig::mesh_default())
        .streamed_gains()
        .build(deployment)
}

/// A seeded generator for one purpose (`stream`) of one seed.
fn rng_for(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Draws `count` cumulative failures: each fails a still-live link and
/// moves its demand onto another still-live link.
fn draw_failures(demands: &LinkDemands, count: usize, rng: &mut ChaCha8Rng) -> Vec<(Link, Link)> {
    let mut live: Vec<Link> = demands.demanded_links().map(|(link, _)| link).collect();
    let mut failures = Vec::with_capacity(count);
    for _ in 0..count.min(live.len().saturating_sub(1)) {
        let dead = live.swap_remove(rng.gen_range(0..live.len()));
        let heir = live[rng.gen_range(0..live.len())];
        failures.push((dead, heir));
    }
    failures
}

/// `demands` with `dead` removed and its demand added to `heir`.
fn fail_link(demands: &LinkDemands, node_count: usize, dead: Link, heir: Link) -> LinkDemands {
    let moved: u64 = demands
        .demanded_links()
        .find(|&(link, _)| link == dead)
        .map_or(0, |(_, demand)| demand);
    let links: Vec<(Link, u64)> = demands
        .demanded_links()
        .filter(|&(link, _)| link != dead)
        .map(|(link, demand)| (link, if link == heir { demand + moved } else { demand }))
        .collect();
    LinkDemands::from_links(node_count, &links)
        .expect("a failure keeps links distinct and in range")
}

/// `grid_10k`: the repository's `large_scale` lattice at 10⁴ links, built
/// in two calls so set-up splits between the layers (checked against
/// `LargeScaleScenario::instantiate` by [`Workload::check_inputs`]).
fn grid_instance(seed: u64, tracer: &mut Tracer) -> LargeInstance {
    let scenario = LargeScaleScenario::with_target_links(LARGE_LINKS);
    let (columns, rows) = scenario.grid_dimensions();
    let deployment = tracer.span("topology.instantiate", || {
        GridDeployment::new(columns, rows, scenario.step_m)
            .tx_power_dbm(scenario.tx_power_dbm)
            .build()
    });
    let env = tracer.span("netsim.env_build", || streamed_env(&deployment));
    // One link per disjoint column pair, right node to left, row by row.
    let links: Vec<(Link, u64)> = (0..rows)
        .flat_map(|row| {
            (0..columns / 2).map(move |pair| {
                let tail = (row * columns + 2 * pair) as u32;
                (Link::new(NodeId::new(tail + 1), NodeId::new(tail)), 1)
            })
        })
        .take(LARGE_LINKS)
        .collect();
    let demands =
        LinkDemands::from_links(deployment.len(), &links).expect("links are distinct and in range");
    let failures = draw_failures(&demands, LARGE_FAILURES, &mut rng_for(seed, 1));
    LargeInstance {
        env,
        demands,
        failures,
    }
}

/// `uniform_10k`: 10⁴ links with transmitters uniform over the lattice's
/// area per link, each receiver 150–250 m away in a random direction, and
/// per-node power drawn from 29–35 dBm.
fn uniform_instance(seed: u64, placement: u64, tracer: &mut Tracer) -> LargeInstance {
    let scenario = LargeScaleScenario::with_target_links(LARGE_LINKS);
    // The lattice spends two nodes, i.e. 2·step² of area, on each link.
    let side_m = (LARGE_LINKS as f64 * 2.0 * scenario.step_m * scenario.step_m).sqrt();
    let deployment = tracer.span("topology.instantiate", || {
        let mut rng = rng_for(seed, 16 + placement);
        let mut nodes = Vec::with_capacity(2 * LARGE_LINKS);
        let (mut min, mut max) = (Point2::new(0.0, 0.0), Point2::new(side_m, side_m));
        for link in 0..LARGE_LINKS {
            let tx = Point2::new(rng.gen_range(0.0..side_m), rng.gen_range(0.0..side_m));
            let distance = rng.gen_range(150.0..250.0);
            let angle = rng.gen_range(0.0..std::f64::consts::TAU);
            let rx = Point2::new(tx.x + distance * angle.cos(), tx.y + distance * angle.sin());
            for (offset, position) in [(0, tx), (1, rx)] {
                min = Point2::new(min.x.min(position.x), min.y.min(position.y));
                max = Point2::new(max.x.max(position.x), max.y.max(position.y));
                let id = NodeId::new((2 * link + offset) as u32);
                nodes.push(NodeInfo::new(id, position, rng.gen_range(29.0..=35.0)));
            }
        }
        Deployment::from_nodes(nodes, Rect::new(min, max), DeploymentKind::Custom)
            .expect("node ids are contiguous")
    });
    let env = tracer.span("netsim.env_build", || streamed_env(&deployment));
    let links: Vec<(Link, u64)> = (0..LARGE_LINKS as u32)
        .map(|i| (Link::new(NodeId::new(2 * i), NodeId::new(2 * i + 1)), 1))
        .collect();
    let demands =
        LinkDemands::from_links(deployment.len(), &links).expect("links are distinct and in range");
    let failures = draw_failures(&demands, LARGE_FAILURES, &mut rng_for(seed, 32 + placement));
    LargeInstance {
        env,
        demands,
        failures,
    }
}

fn mesh_scenario() -> PaperScenario {
    PaperScenario::grid(MESH_DENSITY)
}

fn mesh_instance_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(MESH_INSTANCES).wrapping_add(index)
}

/// `mesh64`: a seeded batch of the paper's 64-node planned grid. The
/// environment is built inside `PaperScenario::instantiate`; the
/// `netsim.env_build` span rebuilds it from the drawn deployment (checked
/// equal) so its share of set-up can be read beside the whole call.
fn mesh_instances(seed: u64, tracer: &mut Tracer, checks: &mut Checks) -> Vec<ScenarioInstance> {
    let scenario = mesh_scenario();
    (0..MESH_INSTANCES)
        .map(|index| {
            let instance = tracer.span("topology.instantiate", || {
                scenario.instantiate(mesh_instance_seed(seed, index))
            });
            if tracer.is_enabled() {
                let env = tracer.span("netsim.env_build", || {
                    RadioEnvironment::builder()
                        .propagation(PropagationModel::log_distance(scenario.path_loss_exponent))
                        .shadowing(scenario.shadowing_sigma_db, instance.seed)
                        .config(
                            RadioConfig::mesh_default()
                                .with_sinr_threshold_db(scenario.sinr_threshold_db)
                                .with_channel_count(scenario.channel_count),
                        )
                        .build(&instance.deployment)
                });
                checks.check(env == instance.env, || {
                    format!("mesh64 instance {index}: rebuilt environment differs")
                });
            }
            instance
        })
        .collect()
}

/// FNV-1a over a schedule's runs: count, then each entry's channel and
/// endpoints.
fn digest_schedule(hash: &mut u64, schedule: &Schedule) {
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (pattern, count) in schedule.runs() {
        mix(count);
        mix(pattern.len() as u64);
        for (channel, link) in pattern.entries() {
            mix(channel.index() as u64);
            mix(link.head.index() as u64);
            mix(link.tail.index() as u64);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Σ links over a schedule's distinct patterns: the verifier's work base.
fn pattern_entries(schedule: &Schedule) -> u64 {
    schedule
        .runs()
        .map(|(pattern, _)| pattern.len() as u64)
        .sum()
}

/// Verifies `schedule` against `demands` inside a `scheduling.verify` span.
fn verify(
    tracer: &mut Tracer,
    env: &RadioEnvironment,
    schedule: &Schedule,
    demands: &LinkDemands,
) -> bool {
    let ok = tracer.span("scheduling.verify", || {
        verify_schedule(env, schedule, demands).is_ok()
    });
    tracer.tally("scheduling.verify", "entries", pattern_entries(schedule));
    ok
}

/// Builds the frame index and runs the traffic engine over it, inside the
/// `scheduling.frame` and `traffic.engine` spans.
fn run_traffic(
    tracer: &mut Tracer,
    result: &mut PassResult,
    schedule: &Schedule,
    flows: FlowSet,
    config: TrafficConfig,
) -> Option<TrafficReport> {
    let frame = tracer.span("scheduling.frame", || FrameService::from_schedule(schedule));
    tracer.tally("scheduling.frame", "links", frame.link_count() as u64);
    let engine = TrafficEngine::new(frame, flows, config).ok()?;
    let start = Stopwatch::start();
    let report = tracer.span("traffic.engine", || engine.run());
    result.traffic_s += start.nominal_s();
    result.delivered += report.delivered;
    tracer.tally("traffic.engine", "delivered", report.delivered);
    Some(report)
}

/// Single-hop flows putting every demanded link at utilization `load`.
fn single_hop_flows(demands: &LinkDemands, frame_slots: u64, load: f64) -> FlowSet {
    FlowSet::single_hop(demands.demanded_links().map(|(link, demand)| {
        let share = demand as f64 / frame_slots as f64;
        (link, ArrivalProcess::deterministic(load * share))
    }))
}

fn traffic_ok(report: &Option<TrafficReport>) -> bool {
    report.as_ref().is_some_and(|r| {
        r.verdict.is_stable()
            && r.delivered > 0
            && r.delivered <= r.injected
            && r.sustained_throughput_pct <= 100.0
    })
}

/// Repairs `schedule` towards `target` inside a `scheduling.repair` span;
/// checks it took the incremental path and re-verifies.
fn repair(
    tracer: &mut Tracer,
    checks: &mut Checks,
    result: &mut PassResult,
    env: &RadioEnvironment,
    schedule: &Schedule,
    target: &LinkDemands,
) -> Schedule {
    let start = Stopwatch::start();
    let repaired = tracer.span("scheduling.repair", || {
        repair_schedule(env, schedule, target)
    });
    result.repair_ms.push(start.nominal_s() * 1e3);
    tracer.tally("scheduling.repair", "repairs", 1);
    let verified = verify(tracer, env, &repaired.schedule, target);
    checks.check(
        repaired.outcome == RepairOutcome::Incremental && verified,
        || format!("repair took {:?}, verified {verified}", repaired.outcome),
    );
    digest_schedule(&mut result.digest, &repaired.schedule);
    repaired.schedule
}

fn large_pass(instance: &LargeInstance, tracer: &mut Tracer, checks: &mut Checks) -> PassResult {
    let mut result = PassResult {
        digest: FNV_OFFSET,
        ..PassResult::default()
    };
    let start = Stopwatch::start();
    let env = &instance.env;
    let schedule = tracer.span("scheduling.greedy", || {
        GreedyPhysical::paper_baseline().schedule(env, &instance.demands)
    });
    let verified = verify(tracer, env, &schedule, &instance.demands);
    result.schedule_s = start.nominal_s();
    checks.check(verified, || "greedy schedule does not verify".to_string());
    result.schedule_len_slots = schedule.length() as u64;
    digest_schedule(&mut result.digest, &schedule);

    let frame_slots = schedule.length() as u64;
    let flows = single_hop_flows(&instance.demands, frame_slots, LARGE_LOAD);
    let config = TrafficConfig::new(LARGE_TRAFFIC_FRAMES);
    let report = run_traffic(tracer, &mut result, &schedule, flows, config);
    checks.check(traffic_ok(&report), || format!("traffic run: {report:?}"));

    let node_count = env.node_count();
    let (mut current, mut target) = (schedule, instance.demands.clone());
    for &(dead, heir) in &instance.failures {
        target = fail_link(&target, node_count, dead, heir);
        current = repair(tracer, checks, &mut result, env, &current, &target);
    }

    let frame_slots = current.length() as u64;
    let flows = single_hop_flows(&target, frame_slots, LARGE_LOAD);
    let report = run_traffic(tracer, &mut result, &current, flows, config);
    checks.check(traffic_ok(&report), || {
        format!("post-repair traffic run: {report:?}")
    });
    result.post_recovery_delivery_pct = report.map_or(0.0, |r| r.sustained_throughput_pct);
    result.instance_ms.push(start.nominal_s() * 1e3);
    result
}

fn mesh_pass(
    instances: &[ScenarioInstance],
    seed: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> PassResult {
    let mut result = PassResult {
        digest: FNV_OFFSET,
        ..PassResult::default()
    };
    let scenario = mesh_scenario();
    let mut delivery_pct_sum = 0.0;
    for (index, prepared) in instances.iter().enumerate() {
        let start = Stopwatch::start();
        tracer.enter("instance");
        let instance = tracer.span("topology.instantiate", || {
            scenario.instantiate(mesh_instance_seed(seed, index as u64))
        });
        checks.check(
            instance.deployment == prepared.deployment
                && instance.link_demands == prepared.link_demands,
            || format!("mesh64 instance {index} is not reproducible"),
        );

        let scheduled = Stopwatch::start();
        let schedule = tracer.span("scheduling.greedy", || instance.run_centralized());
        let verified = verify(tracer, &instance.env, &schedule, &instance.link_demands);
        result.schedule_s += scheduled.nominal_s();
        checks.check(verified, || {
            format!("instance {index}: greedy schedule does not verify")
        });
        result.schedule_len_slots += schedule.length() as u64;
        digest_schedule(&mut result.digest, &schedule);

        let fdd = tracer.span("core.fdd", || {
            DistributedScheduler::new(ProtocolKind::Fdd, instance.protocol_config())
                .run(&instance.env, &instance.link_demands)
        });
        checks.check(
            fdd.as_ref().is_ok_and(|run| run.schedule == schedule),
            || format!("instance {index}: FDD differs from GreedyPhysical (Theorem 4)"),
        );
        if let Ok(run) = &fdd {
            result.protocol_sim_s += run.execution_secs();
            tracer.tally(
                "core.fdd",
                "scream_invocations",
                run.stats.scream_invocations,
            );
        }

        let frame_slots = schedule.length() as u64;
        let flows = instance.flows_at_load(MESH_LOAD, frame_slots);
        let config = TrafficConfig::new(MESH_TRAFFIC_FRAMES).with_seed(instance.seed);
        let report = run_traffic(tracer, &mut result, &schedule, flows, config);
        checks.check(traffic_ok(&report), || {
            format!("instance {index}: traffic {report:?}")
        });

        let mut rng = rng_for(instance.seed, 3);
        if let Some(&(dead, heir)) = draw_failures(&instance.link_demands, 1, &mut rng).first() {
            let target = fail_link(
                &instance.link_demands,
                instance.env.node_count(),
                dead,
                heir,
            );
            repair(
                tracer,
                checks,
                &mut result,
                &instance.env,
                &schedule,
                &target,
            );
        }

        // The experiment panics when an arm cannot run; that counts as a
        // failed recovery, not as an aborted benchmark.
        let point = tracer.span("resilience.recovery", || {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                RecoveryExperiment::from_instance(&instance)
                    .single_link_outage(MESH_LOAD, MESH_RECOVERY_FRAMES)
            }))
        });
        tracer.tally("resilience.recovery", "recoveries", 1);
        checks.check(
            point.as_ref().is_ok_and(|p| {
                p.stable
                    && p.time_to_recover_slots.is_some()
                    && !p.baseline_stable
                    && p.post_recovery_delivery_pct > 0.0
                    && p.post_recovery_delivery_pct <= 100.0
            }),
            || format!("instance {index}: recovery {:?}", point.as_ref().ok()),
        );
        delivery_pct_sum += point.map_or(0.0, |p| p.post_recovery_delivery_pct);
        tracer.exit();
        result.instance_ms.push(start.nominal_s() * 1e3);
    }
    result.post_recovery_delivery_pct = delivery_pct_sum / instances.len().max(1) as f64;
    result
}
