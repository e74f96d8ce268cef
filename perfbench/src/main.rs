//! `scream-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <grid_10k|uniform_10k|mesh64> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread. The workload's inputs are drawn from `--seed`
//! and built several times (`setup_s` is the median); then the pipeline runs
//! pass after pass over them for `--seconds`. Every output is checked, and
//! failed checks are counted against attempts. Every time is reported at a
//! nominal host speed, from probes of the host taken while it runs (see
//! `host`).
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced passes with traced ones (spans around every layer call, a
//! `scream-obs` sink at trace capacity 0) and prints the per-layer metrics;
//! the traced passes must repeat their work counts and schedule digests
//! exactly. The last line of standard output is one JSON object. See
//! `perfbench/README.md` for the metric table.

mod host;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use host::Stopwatch;
use trace::{ratio, Profile, Tracer};
use workloads::{run_pass, Checks, PassResult, Workload};

/// Untraced passes measured per untraced run, at the least.
const MIN_PASSES: usize = 3;
/// Traced (and untraced) passes per traced run, at the least.
const MIN_TRACED_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: scream-perfbench --workload <grid_10k|uniform_10k|mesh64> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut pairs = argv.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return Err(format!("missing value after {}", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Linear-interpolation quantile of `values` (`q` in `[0, 1]`).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let position = q * (sorted.len() - 1) as f64;
    let (low, high) = (position.floor() as usize, position.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    better: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        better,
    }
}

/// End-to-end metrics over the untraced passes; the first `cycle` passes
/// cover each input once and give the exact metrics.
fn end_to_end(setup_s: &[f64], passes: &[PassResult], cycle: usize) -> Vec<Metric> {
    let pooled = |field: fn(&PassResult) -> &Vec<f64>| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| field(p).iter().copied())
            .collect()
    };
    let instance_ms = pooled(|p| &p.instance_ms);
    let wall_s: f64 = passes.iter().map(|p| p.wall_s).sum();
    let pkts_per_s: Vec<f64> = passes
        .iter()
        .map(|p| ratio(p.delivered as f64, p.traffic_s))
        .collect();
    let schedule_s: Vec<f64> = passes.iter().map(|p| p.schedule_s).collect();
    let first = &passes[..cycle];
    let schedule_len_slots: u64 = first.iter().map(|p| p.schedule_len_slots).sum();
    let delivery_pct = first
        .iter()
        .map(|p| p.post_recovery_delivery_pct)
        .sum::<f64>()
        / cycle as f64;
    vec![
        metric("setup_s", median(setup_s), "s", "lower"),
        metric("schedule_s", median(&schedule_s), "s", "lower"),
        metric(
            "repair_p50_ms",
            median(&pooled(|p| &p.repair_ms)),
            "ms",
            "lower",
        ),
        metric(
            "instances_per_s",
            ratio(instance_ms.len() as f64, wall_s),
            "1/s",
            "higher",
        ),
        metric("instance_p50_ms", median(&instance_ms), "ms", "lower"),
        metric(
            "instance_p90_ms",
            quantile(&instance_ms, 0.9),
            "ms",
            "lower",
        ),
        metric("sim_pkts_per_s", median(&pkts_per_s), "pkt/s", "higher"),
        metric(
            "schedule_len_slots",
            schedule_len_slots as f64,
            "slots",
            "lower",
        ),
        metric("post_recovery_delivery_pct", delivery_pct, "%", "higher"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", "lower"),
    ]
}

/// Per-layer metrics of one traced pass (times are per pass; see README).
fn per_layer(
    setup: &[Profile],
    traced: &[(PassResult, Profile)],
    overhead_pct: f64,
) -> Vec<Metric> {
    let setup_s = |name: &str| median(&setup.iter().map(|p| p.self_s(name)).collect::<Vec<_>>());
    let layer_s = |name: &str| {
        median(
            &traced
                .iter()
                .map(|(_, p)| p.self_s(name))
                .collect::<Vec<_>>(),
        )
    };
    let (result, profile) = &traced[0];
    let greedy = profile.work("scheduling.greedy");
    let verify = profile.work("scheduling.verify");
    let frame = profile.work("scheduling.frame");
    let repair = profile.work("scheduling.repair");
    let fdd = profile.work("core.fdd");
    let traffic = profile.work("traffic.engine");
    let recovery = profile.work("resilience.recovery");

    let probes =
        (greedy.counter("ledger.probe.accept") + greedy.counter("ledger.probe.reject")) as f64;
    let repair_probes =
        (repair.counter("ledger.probe.accept") + repair.counter("ledger.probe.reject")) as f64;
    let repairs = repair.counter("repairs") as f64;
    let rounds = fdd.counter("runtime.rounds") as f64;
    let greedy_s = layer_s("scheduling.greedy");
    let verify_s = layer_s("scheduling.verify");
    let repair_s = layer_s("scheduling.repair");
    let fdd_s = layer_s("core.fdd");
    let traffic_s = layer_s("traffic.engine");
    let delivered = traffic.counter("delivered") as f64;
    vec![
        metric(
            "topology.instantiate_s",
            setup_s("topology.instantiate"),
            "s",
            "lower",
        ),
        metric(
            "netsim.env_build_s",
            setup_s("netsim.env_build"),
            "s",
            "lower",
        ),
        metric("netsim.ledger.probes", probes, "count", "lower"),
        metric(
            "netsim.ledger.reject_pct",
            100.0 * ratio(greedy.counter("ledger.probe.reject") as f64, probes),
            "%",
            "lower",
        ),
        metric(
            "netsim.ledger.walk_per_probe",
            ratio(
                greedy.counter("ledger.exact.fallback_existing") as f64,
                probes,
            ),
            "1/probe",
            "lower",
        ),
        metric(
            "netsim.ledger.ns_per_probe",
            1e9 * ratio(greedy_s, probes),
            "ns",
            "lower",
        ),
        metric(
            "netsim.ledger.scan_entries_per_probe",
            ratio(greedy.histogram_sum("ledger.scan.entries") as f64, probes),
            "1/probe",
            "lower",
        ),
        metric("scheduling.greedy_s", greedy_s, "s", "lower"),
        metric(
            "scheduling.greedy.links",
            greedy.counter("greedy.links") as f64,
            "count",
            "lower",
        ),
        metric(
            "scheduling.greedy.runs_probed_per_link",
            ratio(
                greedy.counter("greedy.runs.probed") as f64,
                greedy.counter("greedy.links") as f64,
            ),
            "1/link",
            "lower",
        ),
        metric(
            "scheduling.greedy.firstfit_depth_mean",
            greedy.histogram_mean("greedy.firstfit.depth"),
            "runs",
            "lower",
        ),
        metric(
            "scheduling.greedy.splits",
            greedy.counter("greedy.splits") as f64,
            "count",
            "lower",
        ),
        metric("scheduling.verify_s", verify_s, "s", "lower"),
        metric(
            "scheduling.verify.entries",
            verify.counter("entries") as f64,
            "count",
            "lower",
        ),
        metric(
            "scheduling.verify.ns_per_entry",
            1e9 * ratio(verify_s, verify.counter("entries") as f64),
            "ns",
            "lower",
        ),
        metric(
            "scheduling.frame_s",
            layer_s("scheduling.frame"),
            "s",
            "lower",
        ),
        metric(
            "scheduling.frame.links",
            frame.counter("links") as f64,
            "count",
            "lower",
        ),
        metric("scheduling.repair_s", repair_s, "s", "lower"),
        metric("scheduling.repairs", repairs, "count", "lower"),
        metric(
            "scheduling.repair.probes_per_repair",
            ratio(repair_probes, repairs),
            "1/repair",
            "lower",
        ),
        metric(
            "scheduling.repair.walk_per_probe",
            ratio(
                repair.counter("ledger.exact.fallback_existing") as f64,
                repair_probes,
            ),
            "1/probe",
            "lower",
        ),
        metric("core.fdd_s", fdd_s, "s", "lower"),
        metric("core.rounds", rounds, "count", "lower"),
        metric(
            "core.claims",
            fdd.counter("runtime.claims") as f64,
            "count",
            "lower",
        ),
        metric(
            "core.vetoes",
            fdd.counter("runtime.vetoes") as f64,
            "count",
            "lower",
        ),
        metric(
            "core.announcement_bits",
            fdd.counter("runtime.announcement_bits") as f64,
            "bit",
            "lower",
        ),
        metric(
            "core.scream_invocations",
            fdd.counter("scream_invocations") as f64,
            "count",
            "lower",
        ),
        metric(
            "core.ns_per_round",
            1e9 * ratio(fdd_s, rounds),
            "ns",
            "lower",
        ),
        metric(
            "core.protocol_sim_s",
            result.protocol_sim_s,
            "sim_s",
            "lower",
        ),
        metric("traffic.engine_s", traffic_s, "s", "lower"),
        metric("traffic.delivered", delivered, "pkt", "higher"),
        metric(
            "traffic.ns_per_pkt",
            1e9 * ratio(traffic_s, delivered),
            "ns",
            "lower",
        ),
        metric(
            "resilience.recovery_s",
            layer_s("resilience.recovery"),
            "s",
            "lower",
        ),
        metric(
            "resilience.recoveries",
            recovery.counter("recoveries") as f64,
            "count",
            "lower",
        ),
        metric(
            "resilience.epochs",
            recovery.counter("resilience.epochs") as f64,
            "count",
            "lower",
        ),
        metric(
            "resilience.reschedules",
            recovery.counter("resilience.reschedules") as f64,
            "count",
            "lower",
        ),
        metric(
            "resilience.frame_swaps",
            recovery.counter("traffic.frame_swaps") as f64,
            "count",
            "lower",
        ),
        metric(
            "resilience.rescued",
            recovery.counter("traffic.rescued") as f64,
            "pkt",
            "higher",
        ),
        metric("obs.overhead_pct", overhead_pct, "%", "lower"),
    ]
}

/// Writes the traced run's spans as JSON lines under `perfbench/out/`.
fn write_trace(args: &Args, setup: &[Profile], traced: &[(PassResult, Profile)]) {
    let mut out = String::new();
    for profile in setup {
        profile.write_jsonl(0, &mut out);
    }
    for (pass, (_, profile)) in traced.iter().enumerate() {
        profile.write_jsonl(pass + 1, &mut out);
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out)) {
        Ok(()) => eprintln!("# spans written to {}", path.display()),
        Err(e) => eprintln!("# could not write spans: {e}"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workload = args.workload;
    let mut checks = Checks::default();
    if let Err(message) = host::start() {
        eprintln!("cannot probe the host: {message}");
        std::process::exit(1);
    }

    // Set-up, several times: the median is `setup_s`.
    let mut setup_s = Vec::new();
    let mut setup_profiles = Vec::new();
    let mut inputs = None;
    for _ in 0..workload.setup_reps() {
        let mut tracer = Tracer::new(args.trace);
        let start = Stopwatch::start();
        let built = workload.setup(args.seed, &mut tracer, &mut checks);
        setup_s.push(start.nominal_s());
        setup_profiles.push(tracer.finish());
        inputs.get_or_insert(built);
    }
    let inputs = inputs.expect("at least one set-up repetition");
    workload.check_inputs(&inputs, &mut checks);

    // Untraced passes cycle through the inputs, ending on a whole cycle. A
    // traced run pairs each untraced pass with a traced one, both on the
    // first input.
    let cycle = if args.trace { 1 } else { inputs.len() };
    let deadline = Duration::from_secs(args.seconds);
    let measuring = Instant::now();
    let mut passes: Vec<PassResult> = Vec::new();
    let mut traced: Vec<(PassResult, Profile)> = Vec::new();
    let mut snapshots = Vec::new();
    loop {
        let input = &inputs[passes.len() % cycle];
        let pass = run_pass(input, args.seed, &mut Tracer::new(false), &mut checks);
        eprintln!(
            "# pass {}: {:.4} s, schedule {:.4} s, traffic {:.4} s; wall {:.4} s, probe {:.2} us",
            passes.len(),
            pass.wall_s,
            pass.schedule_s,
            pass.traffic_s,
            pass.raw_wall_s,
            pass.probe_ns * 1e-3
        );
        passes.push(pass);
        if args.trace {
            scream_obs::install_with_capacity(0);
            let mut tracer = Tracer::new(true);
            let result = run_pass(&inputs[0], args.seed, &mut tracer, &mut checks);
            let report = scream_obs::uninstall().expect("the sink was installed above");
            snapshots.push(report.snapshot);
            traced.push((result, tracer.finish()));
        }
        let enough = if args.trace {
            traced.len() >= MIN_TRACED_PASSES
        } else {
            passes.len() >= MIN_PASSES.max(cycle) && passes.len().is_multiple_of(cycle)
        };
        if enough && measuring.elapsed() >= deadline {
            break;
        }
    }
    if let Err(message) = host::stop() {
        eprintln!("# {message}");
    }

    // Every pass over one input must produce the same schedules and counts,
    // traced or not (the sink must not change what the pipeline computes).
    let first = &passes[..cycle];
    let repeats = passes
        .iter()
        .enumerate()
        .map(|(i, pass)| (pass, &first[i % cycle]))
        .chain(traced.iter().map(|(pass, _)| (pass, &first[0])));
    for (pass, reference) in repeats {
        checks.check(pass.exact() == reference.exact(), || {
            format!(
                "pass results differ: {:?} vs {:?}",
                pass.exact(),
                reference.exact()
            )
        });
    }

    let mut report = String::new();
    let metrics = if args.trace {
        let profile = &traced[0].1;
        for ((_, other), snapshot) in traced.iter().zip(&snapshots).skip(1) {
            checks.check(
                other.work == profile.work && *snapshot == snapshots[0],
                || "two traced passes of one seed differ in their work counts".to_string(),
            );
        }
        // Self-check: every probe the greedy call made is a run it probed.
        let greedy = profile.work("scheduling.greedy");
        let probes = greedy.counter("ledger.probe.accept") + greedy.counter("ledger.probe.reject");
        checks.check(probes == greedy.counter("greedy.runs.probed"), || {
            format!(
                "ledger probes {probes} != greedy.runs.probed {}",
                greedy.counter("greedy.runs.probed")
            )
        });
        let _ = writeln!(report, "# digest {:016x}", traced[0].0.digest);
        for (name, work) in &profile.work {
            for (counter, value) in &work.counters {
                let _ = writeln!(report, "# count {name} {counter} {value}");
            }
            for (histogram, (count, sum)) in &work.histograms {
                let _ = writeln!(
                    report,
                    "# histogram {name} {histogram} count={count} sum={sum}"
                );
            }
        }
        write_trace(&args, &setup_profiles, &traced);
        let untraced_s: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        let traced_s: Vec<f64> = traced.iter().map(|(p, _)| p.wall_s).collect();
        let overhead_pct = 100.0 * (median(&traced_s) / median(&untraced_s) - 1.0);
        per_layer(&setup_profiles, &traced, overhead_pct)
    } else {
        for (i, pass) in first.iter().enumerate() {
            let _ = writeln!(report, "# digest input {i} {:016x}", pass.digest);
        }
        end_to_end(&setup_s, &passes, cycle)
    };
    for m in &metrics {
        checks.check(m.value.is_finite(), || format!("{} is not finite", m.name));
    }

    let _ = writeln!(
        report,
        "# {} seed {} trace {}: {} passes, {} traced",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        passes.len(),
        traced.len()
    );
    let (probes, probe_ns) = host::summary();
    let _ = writeln!(
        report,
        "# host: {probes} probes, mean {:.2} us (nominal {:.2} us); times are at nominal speed",
        probe_ns * 1e-3,
        host::NOMINAL_PROBE_NS * 1e-3,
    );
    for m in &metrics {
        let _ = writeln!(
            report,
            "{:<40} {:>18.6} {:<8} {} is better",
            m.name, m.value, m.unit, m.better
        );
    }
    print!("{report}");

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let comma = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{comma}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}
