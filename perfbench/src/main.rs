//! `mermaid-perfbench` — the repository benchmark, schema
//! `mermaid-bench-v1`.
//!
//! ```text
//! mermaid-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Closed loop, one client: the benchmark generates a workload's traces
//! from the seed, then calls the simulator back to back for `--seconds`
//! host seconds, checking every call's simulated output. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer
//! split (see `layers.rs`). The last line of standard output is the
//! result object; the line before it is the full `mermaid-bench-v1`
//! record. `perfbench/README.md` documents workloads and metrics.

mod hostspeed;
mod layers;
mod record;
mod workloads;

use std::time::Instant;

use mermaid::SlowdownReport;
use pearl::Frequency;

use hostspeed::{HostProbe, REFERENCE_S};
use record::{Summary, J};
use workloads::{Workload, DEFAULT_SEED};

/// Nominal host clock of `slowdown_per_proc`. Fixed here (not read from
/// `MERMAID_HOST_HZ`) so that every run and EXPERIMENTS.md E1/E2 use the
/// same conversion from host seconds to host cycles.
const HOST_HZ: u64 = 3_000_000_000;

/// Fewest timed iterations of a run, however long they take.
const MIN_ITERS: usize = 3;

/// Set-up repeats: at least `SETUP_MIN_REPS`, then more until
/// `SETUP_BUDGET_S` has passed, at most `SETUP_MAX_REPS`. `setup_s` is
/// their median.
const SETUP_MIN_REPS: usize = 15;
const SETUP_MAX_REPS: usize = 101;
const SETUP_BUDGET_S: f64 = 1.0;

const USAGE: &str = "usage: mermaid-perfbench --workload \
<torus_a2a_serial|hybrid_e1|torus16_faulty_attr> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Iterations attempted and failed, with the first few failure messages.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    fn record(&mut self, iteration: u64, bad: Vec<String>) {
        self.attempted += 1;
        if !bad.is_empty() {
            self.failed += 1;
            for b in bad {
                eprintln!("check failed (iteration {iteration}): {b}");
                if self.messages.len() < 8 {
                    self.messages.push(format!("iteration {iteration}: {b}"));
                }
            }
        }
    }
}

/// What a run measured: every metric's summary, facts for the record, and
/// the checks.
struct Output {
    metrics: Vec<(&'static str, &'static str, Summary)>,
    facts: Vec<(String, J)>,
    checks: Checks,
    iterations: usize,
}

/// End-to-end mode: repeated set-up, one untimed warm-up call whose
/// digest is the run's reference, then timed calls for `--seconds`.
fn run_untraced(a: &Args) -> Output {
    let w = a.workload;
    let mut speed = HostProbe::new();
    // Each set-up is corrected by the latest probe, which runs again once
    // the set-ups since it have taken REFERENCE_S.
    let (mut setup, mut raw_setup) = (Vec::new(), Vec::new());
    let (mut probe, mut since_probe) = (speed.run(), 0.0);
    let t0 = Instant::now();
    let inp = loop {
        if since_probe >= REFERENCE_S {
            (probe, since_probe) = (speed.run(), 0.0);
        }
        let t = Instant::now();
        let inp = workloads::setup(w, a.seed);
        let sim = workloads::construct(w, &inp);
        let dt = secs(t);
        drop(sim);
        raw_setup.push(dt);
        setup.push(dt * REFERENCE_S / probe);
        since_probe += dt;
        let enough = setup.len() >= SETUP_MIN_REPS && secs(t0) >= SETUP_BUDGET_S;
        if enough || setup.len() >= SETUP_MAX_REPS {
            break inp;
        }
    };

    let mut checks = Checks::default();
    let warm = workloads::call(&workloads::construct(w, &inp), &inp.traces);
    let reference = workloads::digest(&warm);
    checks.record(0, workloads::check(w, a.seed, &inp, &warm, reference));

    let (mut walls, mut probes) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < MIN_ITERS || secs(start) < a.seconds {
        probes.push(speed.run());
        let sim = workloads::construct(w, &inp);
        let t = Instant::now();
        let out = workloads::call(&sim, &inp.traces);
        walls.push(secs(t));
        let bad = workloads::check(w, a.seed, &inp, &out, reference);
        checks.record(walls.len() as u64, bad);
    }

    let ops = inp.traces.total_ops() as f64;
    // Every host time is corrected by the probe run next to it (see
    // hostspeed.rs); the raw times stay in the record.
    let scaled: Vec<f64> = walls
        .iter()
        .zip(&probes)
        .map(|(w, p)| w * REFERENCE_S / p)
        .collect();
    let per_iter =
        |f: &dyn Fn(f64) -> f64| Summary::of(&scaled.iter().map(|&x| f(x)).collect::<Vec<_>>());
    let slowdown = |wall: f64| {
        SlowdownReport {
            host_wall: std::time::Duration::from_secs_f64(wall),
            simulated: pearl::Duration::from_ps(warm.predicted_ps),
            processors: inp.machine.nodes(),
            target_clock: inp.machine.cpu.clock,
            host_clock: Frequency::from_hz(HOST_HZ),
        }
        .slowdown_per_processor()
    };
    let metrics = vec![
        ("wall_s", "s", per_iter(&|x| x)),
        ("sim_ops_per_s", "1/s", per_iter(&|x| ops / x)),
        ("slowdown_per_proc", "x", per_iter(&slowdown)),
        ("setup_s", "s", Summary::of(&setup)),
        // A high-water mark: one sample.
        ("peak_rss_mb", "MiB", Summary::of(&[record::peak_rss_mb()])),
        ("raw_wall_s", "s", Summary::of(&walls)),
        ("raw_setup_s", "s", Summary::of(&raw_setup)),
        ("host_probe_s", "s", Summary::of(&probes)),
    ];
    let facts = vec![
        ("predicted_ps".to_string(), J::Int(warm.predicted_ps)),
        ("ops_simulated".to_string(), J::Int(ops as u64)),
        (
            "processors".to_string(),
            J::Int(u64::from(inp.machine.nodes())),
        ),
        ("events".to_string(), J::Int(warm.comm.events)),
    ];
    let iterations = walls.len();
    Output {
        metrics,
        facts,
        checks,
        iterations,
    }
}

/// How a per-layer metric is aggregated over a traced run's iterations.
#[derive(Clone, Copy, PartialEq)]
enum Agg {
    /// A host time or ratio: the median.
    Median,
    /// A deterministic count: must repeat exactly in every iteration.
    Exact,
    /// A count that may depend on host timing: the median, and the record
    /// says whether it repeated.
    Observed,
}

/// Per-layer metrics, in output order: name, unit, aggregation.
const LAYER_METRICS: &[(&str, &str, Agg)] = &[
    ("tracegen.gen_s", "s", Agg::Median),
    ("tracegen.ops", "count", Agg::Exact),
    ("cpu.extract_s", "s", Agg::Median),
    ("cpu.ns_per_op", "ns", Agg::Median),
    ("memory.l1_misses", "count", Agg::Exact),
    ("memory.l2_misses", "count", Agg::Exact),
    ("memory.bus_transactions", "count", Agg::Exact),
    ("memory.dram_reads", "count", Agg::Exact),
    ("network.comm_s", "s", Agg::Median),
    ("pearl.events", "count", Agg::Exact),
    ("pearl.ns_per_event", "ns", Agg::Median),
    ("network.messages", "count", Agg::Exact),
    ("network.retries", "count", Agg::Exact),
    ("network.dropped", "count", Agg::Exact),
    ("network.msgs_failed", "count", Agg::Exact),
    ("network.recv_timeouts", "count", Agg::Exact),
    ("shard.barrier_wait_s", "s", Agg::Median),
    ("shard.work_s", "s", Agg::Median),
    ("shard.wait_share", "ratio", Agg::Median),
    ("shard.rounds", "count", Agg::Exact),
    ("shard.events_per_round", "events", Agg::Exact),
    ("shard.cross_msgs", "count", Agg::Exact),
    ("shard.flush_batches", "count", Agg::Observed),
    ("shard.spec_commits", "count", Agg::Observed),
    ("shard.spec_rollbacks", "count", Agg::Observed),
    ("shard.spec_commit_ratio", "ratio", Agg::Observed),
    ("shard.speedup_vs_serial", "x", Agg::Median),
    ("probe.events", "count", Agg::Exact),
    ("probe.emit_s", "s", Agg::Median),
    ("probe.fold_s", "s", Agg::Median),
    ("bench.trace_overhead_s", "s", Agg::Median),
];

/// One traced iteration's values, in [`LAYER_METRICS`] order.
fn layer_values(s: &layers::LayerSample, untraced_total_s: f64) -> Vec<f64> {
    let comm = s
        .comm
        .as_ref()
        .expect("the traced iteration ran the comm model");
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let (rounds, cross, wait, work, events, flushes, commits, rollbacks) =
        s.profile.as_ref().map_or((0, 0, 0, 0, 0, 0, 0, 0), |p| {
            (
                // Every shard executes the same number of rounds (windows).
                p.shards.iter().map(|s| s.windows).max().unwrap_or(0),
                p.total_cross_msgs(),
                p.total_barrier_wait_ns(),
                p.total_work_ns(),
                p.shards.iter().map(|s| s.events).sum::<u64>(),
                p.total_flush_batches(),
                p.total_spec_commits(),
                p.total_spec_rollbacks(),
            )
        });
    let sharded = s.profile.is_some();
    vec![
        s.gen_s,
        s.ops as f64,
        s.extract_s,
        per(s.extract_s * 1e9, s.ops),
        s.l1_misses as f64,
        s.l2_misses as f64,
        s.bus_transactions as f64,
        s.dram_reads as f64,
        s.comm_s,
        comm.events as f64,
        per(s.comm_s * 1e9, comm.events),
        comm.total_messages as f64,
        comm.total_retries as f64,
        comm.total_dropped as f64,
        comm.msgs_failed as f64,
        comm.recv_timeouts as f64,
        wait as f64 / 1e9,
        work as f64 / 1e9,
        per(wait as f64, wait + work),
        rounds as f64,
        (per(events as f64, rounds)).floor(),
        cross as f64,
        flushes as f64,
        commits as f64,
        rollbacks as f64,
        per(commits as f64, commits + rollbacks),
        if sharded { s.comm_s / s.sharded_s } else { 0.0 },
        s.probe_events as f64,
        if s.buffered_s > 0.0 {
            s.buffered_s - s.comm_s
        } else {
            0.0
        },
        s.fold_s,
        s.traced_total_s - untraced_total_s,
    ]
}

/// Traced mode: per iteration, one layer-by-layer traced iteration and one
/// untraced iteration (set-up + the end-to-end call), alternating which
/// goes first; their difference is `bench.trace_overhead_s`.
fn run_traced(a: &Args) -> Output {
    let w = a.workload;
    let inp = workloads::setup(w, a.seed);
    let warm = workloads::call(&workloads::construct(w, &inp), &inp.traces);
    let reference = workloads::digest(&warm);
    let mut checks = Checks::default();
    checks.record(0, workloads::check(w, a.seed, &inp, &warm, reference));
    drop((inp, warm));

    let mut speed = HostProbe::new();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let start = Instant::now();
    while rows.len() < MIN_ITERS || secs(start) < a.seconds {
        let iteration = rows.len() as u64 + 1;
        let scale = REFERENCE_S / speed.run();
        let untraced = || {
            let t = Instant::now();
            let inp = workloads::setup(w, a.seed);
            let sim = workloads::construct(w, &inp);
            let out = workloads::call(&sim, &inp.traces);
            let total = secs(t);
            (total, workloads::check(w, a.seed, &inp, &out, reference))
        };
        let (sample, (untraced_s, mut bad)) = if iteration.is_multiple_of(2) {
            let u = untraced();
            (layers::traced_iteration(w, a.seed, reference), u)
        } else {
            let s = layers::traced_iteration(w, a.seed, reference);
            (s, untraced())
        };
        bad.extend(sample.failures.iter().cloned());
        let mut row = layer_values(&sample, untraced_s);
        for (v, (_, unit, _)) in row.iter_mut().zip(LAYER_METRICS) {
            if matches!(*unit, "s" | "ns") {
                *v *= scale;
            }
        }
        if let Some(first) = rows.first() {
            for (i, (name, _, agg)) in LAYER_METRICS.iter().enumerate() {
                if *agg == Agg::Exact && row[i] != first[i] {
                    bad.push(format!(
                        "{name} = {} differs from {} in iteration 1",
                        row[i], first[i]
                    ));
                }
            }
        }
        checks.record(iteration, bad);
        rows.push(row);
    }

    let mut metrics = Vec::new();
    let mut repeats = Vec::new();
    for (i, &(name, unit, agg)) in LAYER_METRICS.iter().enumerate() {
        let column: Vec<f64> = rows.iter().map(|r| r[i]).collect();
        if agg == Agg::Observed {
            repeats.push((
                name.to_string(),
                J::Bool(column.iter().all(|&v| v == column[0])),
            ));
        }
        metrics.push((name, unit, Summary::of(&column)));
    }
    Output {
        metrics,
        facts: vec![("repeats_exactly".into(), J::Obj(repeats))],
        checks,
        iterations: rows.len(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = if a.trace {
        run_traced(&a)
    } else {
        run_untraced(&a)
    };

    let w = a.workload;
    println!(
        "workload {} seed {}{} mode {} iterations {}",
        w.name(),
        a.seed,
        if a.seed == DEFAULT_SEED {
            " (pinned)"
        } else {
            " (held out)"
        },
        if a.trace { "traced" } else { "untraced" },
        out.iterations
    );
    for (name, unit, s) in &out.metrics {
        println!(
            "  {name:<26} {:>18.6} {unit:<6} (q1 {:.6}, q3 {:.6}, n {})",
            s.median, s.q1, s.q3, s.n
        );
    }
    let error_rate = out.checks.failed as f64 / out.checks.attempted as f64;
    println!(
        "  error_rate {} ({} of {} iterations failed a check)",
        error_rate, out.checks.failed, out.checks.attempted
    );

    let record = J::obj([
        ("schema", J::str("mermaid-bench-v1")),
        ("workload", J::str(w.name())),
        ("mode", J::str(if a.trace { "traced" } else { "untraced" })),
        ("seed", J::Int(a.seed)),
        ("default_seed", J::Int(DEFAULT_SEED)),
        ("held_out", J::Bool(a.seed != DEFAULT_SEED)),
        ("seconds", J::Num(a.seconds)),
        ("iterations", J::Int(out.iterations as u64)),
        ("host", record::host_fingerprint()),
        ("host_clock_hz", J::Int(HOST_HZ)),
        (
            "pinned_digest",
            J::Str(format!("{:016x}", workloads::pinned_digest(w))),
        ),
        (
            "checks",
            J::obj([
                ("attempted", J::Int(out.checks.attempted)),
                ("failed", J::Int(out.checks.failed)),
                ("error_rate", J::Num(error_rate)),
                (
                    "failures",
                    J::Arr(out.checks.messages.iter().map(J::str).collect()),
                ),
            ]),
        ),
        (
            "metrics",
            J::obj(out.metrics.iter().map(|(n, u, s)| (*n, s.json(u)))),
        ),
        ("facts", J::Obj(out.facts)),
    ]);
    println!("{record}");

    // The result line carries exactly the metrics BENCHMARK.json lists for
    // the mode: the per-layer set when traced, the end-to-end set when not.
    let reported: &[&str] = if a.trace {
        &LAYER_METRICS.iter().map(|m| m.0).collect::<Vec<_>>()
    } else {
        &[
            "wall_s",
            "sim_ops_per_s",
            "slowdown_per_proc",
            "setup_s",
            "peak_rss_mb",
        ]
    };
    let metrics = J::obj(out.metrics.iter().filter(|m| reported.contains(&m.0)).map(
        |(n, u, s)| {
            (
                *n,
                J::obj([("value", J::Num(s.median)), ("unit", J::str(*u))]),
            )
        },
    ));
    let result = J::obj([
        ("correct", J::Bool(out.checks.failed == 0)),
        ("attempted", J::Int(out.checks.attempted)),
        ("failed", J::Int(out.checks.failed)),
        ("metrics", metrics),
    ]);
    println!("{result}");
}
