//! The workbench command-line driver, as a library.
//!
//! The `mermaid-cli` binary is a thin wrapper around [`run`]; keeping the
//! whole driver here lets integration tests (for example the golden-file
//! CLI snapshots in `tests/golden_cli.rs`) execute exact CLI invocations
//! in-process and assert on the rendered output.
//!
//! ```text
//! mermaid-cli table1
//! mermaid-cli topo <ring:N | mesh:WxH | torus:WxH | hypercube:D | full:N | star:N>
//! mermaid-cli machines
//! mermaid-cli simulate --machine <t805|ppc601|paragon|test> --topology <spec>
//!                      [--app <scientific|integer>] [--pattern <name>]
//!                      [--phases N] [--ops N] [--seed N]
//!                      [--mode <detailed|task|direct>] [--watch]
//!                      [--shards <N|auto>] [--shard-profile]
//!                      [--faults <spec|file>] [--fault-seed N]
//!                      [--trace-out <file>] [--metrics] [--attribution <file>]
//!                      [--checkpoint-every <ps> --checkpoint-dir <dir>] [--restore <file>]
//! mermaid-cli analyze [same workload flags as simulate] [--json <file>]
//! mermaid-cli probe --machine <t805|ppc601|paragon|test> [--topology <spec>]
//! mermaid-cli campaign <spec|file> --out <dir> [--jobs <N|auto>] [--limit N] [--dry-run]
//!                      [--attribution] [--checkpoint <ps>]
//! ```
//!
//! `sim` is an alias for `simulate`. `--trace-out` writes a Chrome-trace
//! JSON file of the run (open in `chrome://tracing` or Perfetto);
//! `--metrics` appends the per-component metrics report and a host-side
//! profile of the simulator itself. `--shards` runs the communication
//! model on N worker threads (`auto` = one per host core); sharded runs
//! are bit-identical to single-threaded ones — with or without faults.
//!
//! `analyze` answers "where did the time go": it runs the simulation with
//! the bottleneck-attribution sink attached and renders the latency
//! decomposition (serialization / wire / routing / queueing / retry
//! components of every delivered message), the hottest links and routers,
//! and an ASCII utilization heatmap. `--json <file>` additionally writes
//! the machine-readable `attribution.json`. The same report is available
//! from a normal run via `sim --attribution <file>`. Attribution output is
//! deterministic and byte-identical between serial and sharded runs.
//! `--shard-profile` (sharded runs only) appends each worker's self-profile
//! — barrier wait versus event-execution time, window occupancy,
//! cross-shard message volume; host wall-clock, so *not* deterministic.
//!
//! `--faults` enables deterministic fault injection in the communication
//! model. Its value is either an inline spec or the path of a file holding
//! one (the file wins when it exists). Clauses are separated by `;` or
//! newlines, times are simulated nanoseconds:
//!
//! ```text
//! link:0-1:1000:5000      # cut link 0↔1 at 1 µs, heal at 5 µs
//! router:3:2000           # crash router 3 at 2 µs, never recovers
//! drop:1000               # lose 0.1% of packets per link traversal
//! corrupt:500             # corrupt 0.05% (detected + dropped by checksum)
//! retries:6 ; timeout:2000 ; cap:32000 ; recv-timeout:1000000
//! ```
//!
//! `campaign` expands a declarative grid spec (see [`crate::campaign`] and
//! DESIGN.md §13) into a deterministic run list, fans it out over worker
//! threads, and streams one JSONL record per completed run into
//! `<out>/runs.jsonl` (plus an RFC-4180 CSV view in `<out>/summary.csv`).
//! Re-running the same campaign skips every already-recorded run —
//! interrupt it freely. `--limit N` executes at most N new runs,
//! `--dry-run` prints the expanded run list without simulating.
//!
//! Checkpointing (DESIGN.md §16): `sim --checkpoint-every <ps>
//! --checkpoint-dir <dir>` snapshots a task-mode run's full simulation
//! state every `<ps>` simulated picoseconds into versioned
//! `ckpt-<config-hash>-<time-ps>.snap` files; `sim --restore <file>`
//! resumes one and produces byte-identical output to the uninterrupted
//! run (serial and sharded alike). `campaign --checkpoint <ps>` gives
//! every task-mode run a rolling mid-run checkpoint under
//! `<out>/checkpoints/`, so a killed campaign resumes long runs from
//! their last snapshot instead of from scratch.

use mermaid_network::{
    run_comm, CheckpointOpts, CommResult, FaultSchedule, RetryParams, Snapshot, SnapshotError,
    Topology,
};
use mermaid_ops::table1;
use std::sync::Arc;

use crate::prelude::*;
use crate::{observer, report, DirectExecSim, SlowdownMeter};

/// The CLI usage text.
pub fn usage() -> &'static str {
    "usage:\n  mermaid-cli table1\n  mermaid-cli topo <spec>\n  mermaid-cli machines\n  \
     mermaid-cli simulate --machine <name> --topology <spec> [--app <mix>] [--pattern <p>] \
     [--phases N] [--ops N] [--seed N] [--mode <detailed|task|direct>] [--watch] \
     [--shards <N|auto>] [--shard-profile] \
     [--faults <spec|file>] [--fault-seed N] \
     [--trace-out <file>] [--metrics] [--attribution <file>] \
     [--checkpoint-every <ps> --checkpoint-dir <dir>] [--restore <file>]\n  \
     mermaid-cli analyze [same workload flags as simulate] [--json <file>]\n  \
     mermaid-cli probe --machine <name> [--topology <spec>]\n  \
     mermaid-cli campaign <spec|file> --out <dir> [--jobs <N|auto>] [--limit N] [--dry-run] \
     [--attribution] [--checkpoint <ps>]\n\n\
     `sim` is an alias for `simulate`. `analyze` renders the bottleneck-attribution \
     report (latency decomposition, hottest links/routers, utilization heatmap).\n\
     topology specs: ring:8  mesh:4x4  torus:4x4  hypercube:3  full:8  star:8\n\
     fault specs:    link:0-1:1000:5000  router:3:2000  drop:1000  corrupt:500\n\
                     retries:6  timeout:2000  cap:32000  recv-timeout:1000000\n\
                     (times in simulated ns; `;` or newline separates clauses)\n\
     campaign spec:  topo = ring:8, torus:4x4; pattern = ring, all2all; seed = 1, 2\n\
                     (key = value list per clause; see DESIGN.md section 13)"
}

/// Parsed command-line options (after the subcommand).
#[derive(Debug, Default)]
struct Opts {
    machine: Option<String>,
    topology: Option<String>,
    app: Option<String>,
    pattern: Option<String>,
    phases: Option<u32>,
    ops: Option<u64>,
    seed: Option<u64>,
    mode: Option<String>,
    watch: bool,
    shards: Option<usize>,
    faults: Option<String>,
    fault_seed: Option<u64>,
    trace_out: Option<String>,
    metrics: bool,
    attribution: Option<String>,
    json: Option<String>,
    shard_profile: bool,
    checkpoint_every: Option<u64>,
    checkpoint_dir: Option<String>,
    restore: Option<String>,
}

/// Parse a `--shards` value: a thread count ≥ 1, or `auto` for one shard
/// per available host core.
fn parse_shards(s: &str) -> Result<usize, String> {
    if s == "auto" {
        return Ok(mermaid_network::auto_shards());
    }
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("bad --shards `{s}` (want a count >= 1 or `auto`)")),
    }
}

/// Largest accepted `--phases` value. Workload sizes beyond this are
/// almost certainly typos (every node materialises its whole trace).
pub(crate) const MAX_PHASES: u32 = 1_000_000;
/// Largest accepted `--ops` (operations per phase) value.
pub(crate) const MAX_OPS_PER_PHASE: u64 = 1_000_000_000;

/// Parse a `--phases` value: a compute+communicate phase count in
/// `1..=MAX_PHASES`. Zero would generate an empty workload that predicts
/// a meaningless zero-length run, so it is rejected with a diagnostic
/// instead of silently succeeding.
pub(crate) fn parse_phases(s: &str) -> Result<u32, String> {
    match s.parse::<u32>() {
        Ok(0) => Err(format!(
            "bad --phases `{s}` (0 phases is an empty workload — want 1..={MAX_PHASES})"
        )),
        Ok(n) if n <= MAX_PHASES => Ok(n),
        _ => Err(format!(
            "bad --phases `{s}` (want a count in 1..={MAX_PHASES})"
        )),
    }
}

/// Parse an `--ops` value: operations per phase in `1..=MAX_OPS_PER_PHASE`.
pub(crate) fn parse_ops(s: &str) -> Result<u64, String> {
    match s.parse::<u64>() {
        Ok(0) => Err(format!(
            "bad --ops `{s}` (0 ops per phase is an empty workload — want 1..={MAX_OPS_PER_PHASE})"
        )),
        Ok(n) if n <= MAX_OPS_PER_PHASE => Ok(n),
        _ => Err(format!(
            "bad --ops `{s}` (want operations per phase in 1..={MAX_OPS_PER_PHASE})"
        )),
    }
}

/// Parse a checkpoint cadence (`sim --checkpoint-every`, `campaign
/// --checkpoint`): simulated picoseconds between snapshots. Zero would
/// checkpoint at every instant; rejected.
pub(crate) fn parse_checkpoint_cadence(flag: &str, s: &str) -> Result<u64, String> {
    match s.parse::<u64>() {
        Ok(0) => Err(format!(
            "bad {flag} `{s}` (0 ps would checkpoint continuously — \
             want a cadence in simulated picoseconds >= 1)"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "bad {flag} `{s}` (want a cadence in simulated picoseconds)"
        )),
    }
}

/// Canonicalise a `--faults` argument into the campaign grammar's fault
/// token (`+`-joined clauses, whitespace and comments stripped, or
/// `none`), so a `sim` run hashes its fault schedule exactly like the
/// equivalent campaign run would.
fn canonical_fault_spec(arg: Option<&str>) -> Result<String, String> {
    let Some(arg) = arg else {
        return Ok("none".to_string());
    };
    let text = if std::path::Path::new(arg).is_file() {
        std::fs::read_to_string(arg).map_err(|e| format!("cannot read fault file {arg}: {e}"))?
    } else {
        arg.to_string()
    };
    let clauses: Vec<String> = text
        .split([';', '\n'])
        .map(|c| {
            c.split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect::<String>()
        })
        .filter(|c| !c.is_empty())
        .collect();
    Ok(if clauses.is_empty() {
        "none".to_string()
    } else {
        clauses.join("+")
    })
}

/// The campaign-grammar [`crate::campaign::RunConfig`] equivalent of a
/// `sim --mode task` invocation — the identity a checkpoint binds to.
/// `shards` is pinned to 1: sharding provably does not change results
/// (the bit-identity contract of DESIGN.md §11), so a checkpoint captured
/// serially restores under any `--shards` value, and serial and sharded
/// captures of the same run produce byte-identical snapshot files.
fn sim_run_config(o: &Opts) -> Result<crate::campaign::RunConfig, String> {
    Ok(crate::campaign::RunConfig {
        machine: o.machine.clone().unwrap_or_else(|| "t805".to_string()),
        topo: o.topology.clone().unwrap_or_else(|| "ring:8".to_string()),
        app: o.app.clone().unwrap_or_else(|| "scientific".to_string()),
        pattern: o.pattern.clone().unwrap_or_else(|| "ring".to_string()),
        phases: o.phases.unwrap_or(5),
        ops: o.ops.unwrap_or(5_000),
        seed: o.seed.unwrap_or(1),
        mode: "task".to_string(),
        shards: 1,
        faults: canonical_fault_spec(o.faults.as_deref())?,
        fault_seed: o.fault_seed.unwrap_or(1),
    })
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut seen = std::collections::BTreeSet::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        // Silent last-wins on repeated flags hides mistakes in scripted
        // invocations (`--seed 1 --seed 2` ran with seed 2); every flag —
        // including booleans — may be given at most once.
        if flag.starts_with("--") && !seen.insert(flag.clone()) {
            return Err(format!(
                "duplicate flag `{flag}` (each flag may be given once)"
            ));
        }
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--machine" => o.machine = Some(value("--machine")?),
            "--topology" => o.topology = Some(value("--topology")?),
            "--app" => o.app = Some(value("--app")?),
            "--pattern" => o.pattern = Some(value("--pattern")?),
            "--phases" => o.phases = Some(parse_phases(&value("--phases")?)?),
            "--ops" => o.ops = Some(parse_ops(&value("--ops")?)?),
            "--seed" => o.seed = Some(value("--seed")?.parse().map_err(|_| "bad --seed")?),
            "--mode" => o.mode = Some(value("--mode")?),
            "--watch" => o.watch = true,
            "--shards" => o.shards = Some(parse_shards(&value("--shards")?)?),
            "--faults" => o.faults = Some(value("--faults")?),
            "--fault-seed" => {
                o.fault_seed = Some(
                    value("--fault-seed")?
                        .parse()
                        .map_err(|_| "bad --fault-seed")?,
                )
            }
            "--trace-out" => o.trace_out = Some(value("--trace-out")?),
            "--metrics" => o.metrics = true,
            "--attribution" => o.attribution = Some(value("--attribution")?),
            "--json" => o.json = Some(value("--json")?),
            "--shard-profile" => o.shard_profile = true,
            "--checkpoint-every" => {
                o.checkpoint_every = Some(parse_checkpoint_cadence(
                    "--checkpoint-every",
                    &value("--checkpoint-every")?,
                )?)
            }
            "--checkpoint-dir" => o.checkpoint_dir = Some(value("--checkpoint-dir")?),
            "--restore" => o.restore = Some(value("--restore")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(o)
}

/// Parse a topology spec like `ring:8`, `mesh:4x4`, `hypercube:3`.
pub(crate) fn parse_topology(spec: &str) -> Result<Topology, String> {
    let (kind, params) = spec
        .split_once(':')
        .ok_or_else(|| format!("topology spec `{spec}` needs kind:params"))?;
    let num = |s: &str| -> Result<u32, String> {
        s.parse()
            .map_err(|_| format!("bad number `{s}` in `{spec}`"))
    };
    let topo = match kind {
        "ring" => Topology::Ring(num(params)?),
        "full" => Topology::FullyConnected(num(params)?),
        "star" => Topology::Star(num(params)?),
        "hypercube" => Topology::Hypercube { dim: num(params)? },
        "mesh" | "torus" => {
            let (w, h) = params
                .split_once('x')
                .ok_or_else(|| format!("`{spec}` needs WxH"))?;
            let (w, h) = (num(w)?, num(h)?);
            if kind == "mesh" {
                Topology::Mesh2D { w, h }
            } else {
                Topology::Torus2D { w, h }
            }
        }
        other => return Err(format!("unknown topology `{other}`")),
    };
    topo.try_validate()?;
    Ok(topo)
}

pub(crate) fn parse_machine(name: &str, topo: Topology) -> Result<MachineConfig, String> {
    Ok(match name {
        "t805" => MachineConfig::t805_multicomputer(topo),
        "ppc601" => MachineConfig::powerpc601_cluster(topo, 1),
        "paragon" => {
            let mut m = MachineConfig::paragon(2, 2);
            m.network = mermaid_network::NetworkConfig::hw_routed(topo);
            m.name = format!("Paragon XP/S-class, {}", topo.label());
            m
        }
        "test" => MachineConfig::test_machine(topo),
        other => {
            return Err(format!(
                "unknown machine `{other}` (t805|ppc601|paragon|test)"
            ))
        }
    })
}

pub(crate) fn parse_pattern(name: &str) -> Result<CommPattern, String> {
    Ok(match name {
        "none" => CommPattern::None,
        "ring" | "nn" => CommPattern::NearestNeighborRing,
        "all2all" | "alltoall" => CommPattern::AllToAll,
        "master" | "masterworker" => CommPattern::MasterWorker,
        "random" => CommPattern::RandomPermutation,
        "butterfly" => CommPattern::Butterfly,
        other => return Err(format!("unknown pattern `{other}`")),
    })
}

/// Resolve the `--faults` argument into a schedule: the value is a spec
/// string, or the path of a file containing one (the file wins when it
/// exists). Retry timing defaults are scaled to the target network.
fn parse_faults(
    arg: &str,
    seed: u64,
    network: &NetworkConfig,
) -> Result<Arc<FaultSchedule>, String> {
    let spec = if std::path::Path::new(arg).is_file() {
        std::fs::read_to_string(arg).map_err(|e| format!("cannot read fault file {arg}: {e}"))?
    } else {
        arg.to_string()
    };
    let sched = FaultSchedule::parse(&spec, seed, RetryParams::default_for(network))?;
    sched.try_validate(&network.topology)?;
    Ok(Arc::new(sched))
}

/// Write a run artifact to `path`, diagnosing a missing parent directory
/// up front — the common scripted mistake — with the path *and* the cause,
/// instead of the bare OS error `std::fs::write` would surface.
fn write_output_file(path: &str, data: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if let Some(dir) = p.parent() {
        if !dir.as_os_str().is_empty() && !dir.is_dir() {
            return Err(format!(
                "cannot write {path}: output directory `{}` does not exist (create it first)",
                dir.display()
            ));
        }
    }
    std::fs::write(p, data).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Render the `--shard-profile` epilogue. The numbers are host wall-clock
/// — they vary run to run and are deliberately excluded from the
/// deterministic serial-vs-sharded output guarantees.
fn shard_profile_section(p: Option<&mermaid_network::ShardProfile>) -> String {
    match p {
        Some(p) => format!(
            "\nshard self-profile (host wall-clock; varies between runs):\n{}",
            p.render()
        ),
        None => "\nshard self-profile: none (the run fell back to the serial path)\n".to_string(),
    }
}

/// Build the stochastic workload generator shared by `simulate` and
/// `analyze` from the parsed options.
fn build_generator(o: &Opts, nodes: u32) -> Result<StochasticGenerator, String> {
    let mix = match o.app.as_deref().unwrap_or("scientific") {
        "scientific" => InstructionMix::scientific(),
        "integer" => InstructionMix::integer(),
        other => return Err(format!("unknown app mix `{other}`")),
    };
    let app = StochasticApp {
        mix,
        phases: o.phases.unwrap_or(5),
        ops_per_phase: SizeDist::Fixed(o.ops.unwrap_or(5_000)),
        pattern: parse_pattern(o.pattern.as_deref().unwrap_or("ring"))?,
        ..StochasticApp::scientific(nodes)
    };
    app.try_validate()?;
    Ok(StochasticGenerator::new(app, o.seed.unwrap_or(1)))
}

/// Render the fault-injection epilogue of a run: headline counters plus
/// the structured unreachable-pair table when anything actually failed.
fn fault_summary(comm: &CommResult) -> String {
    let mut s = format!("\nfault injection: {}\n", comm.delivery().headline());
    if !comm.unreachable.is_empty() {
        if let Some(t) = report::degraded_table(comm) {
            s.push_str(&t.render());
        }
    }
    s
}

/// Run a task-level simulation through the checkpoint/restore entry
/// point: optionally seeded from a `--restore` snapshot, optionally
/// capturing one every `--checkpoint-every` simulated picoseconds into
/// `--checkpoint-dir` as `ckpt-<config-hash>-<time-ps>.snap` (the time
/// is zero-padded so directory listings sort in capture order). Returns
/// the result plus the number of checkpoints written.
///
/// A restored run prints exactly what the uninterrupted run prints — no
/// banner — so `diff` against a straight-through invocation is the
/// simplest possible conformance check.
fn run_task_checkpointed(
    o: &Opts,
    network: NetworkConfig,
    traces: &TraceSet,
    probe: &ProbeHandle,
    shards: usize,
    faults: Option<Arc<FaultSchedule>>,
) -> Result<(crate::TaskLevelResult, usize), String> {
    let hash = sim_run_config(o)?.config_hash();
    let restored = match &o.restore {
        Some(path) => {
            let snap =
                Snapshot::read_file(std::path::Path::new(path)).map_err(|e| e.to_string())?;
            snap.verify_config(&hash).map_err(|e| e.to_string())?;
            Some(snap)
        }
        None => None,
    };
    let written = std::sync::Mutex::new(0usize);
    let write_snap = |snap: &Snapshot| -> Result<(), SnapshotError> {
        let dir = o
            .checkpoint_dir
            .as_deref()
            .expect("--checkpoint-every is gated on --checkpoint-dir");
        let path =
            std::path::Path::new(dir).join(format!("ckpt-{hash}-{:020}.snap", snap.time.as_ps()));
        snap.write_file(&path)?;
        *written.lock().unwrap() += 1;
        Ok(())
    };
    let ck = o.checkpoint_every.map(|every| CheckpointOpts {
        every: pearl::Duration::from_ps(every),
        config_hash: hash.clone(),
        write: &write_snap,
    });
    let (comm, shard_profile) = run_comm(
        network,
        traces,
        probe.clone(),
        shards,
        faults,
        restored.as_ref(),
        ck.as_ref(),
    )
    .map_err(|e| e.to_string())?;
    let r = crate::TaskLevelResult {
        predicted_time: comm.finish,
        comm,
        ops_simulated: traces.total_ops() as u64,
        shard_profile,
    };
    let n = *written.lock().unwrap();
    Ok((r, n))
}

/// Run the `campaign` subcommand: resolve the spec (inline or file, the
/// file winning when it exists — same convention as `--faults`), parse
/// the campaign-specific flags, and drive [`crate::campaign::run_campaign`].
fn run_campaign_cmd(args: &[String]) -> Result<String, String> {
    let Some(spec_arg) = args.first() else {
        return Err("campaign needs a spec (inline, or the path of a spec file)".into());
    };
    let spec_text = if std::path::Path::new(spec_arg).is_file() {
        std::fs::read_to_string(spec_arg)
            .map_err(|e| format!("cannot read campaign file {spec_arg}: {e}"))?
    } else {
        spec_arg.clone()
    };
    let spec = crate::campaign::CampaignSpec::parse(&spec_text)?;

    let mut out_dir: Option<String> = None;
    let mut jobs: Option<usize> = Some(1); // `None` = auto, resolved against the spec below
    let mut limit: Option<usize> = None;
    let mut dry_run = false;
    let mut attribution = false;
    let mut checkpoint_every_ps: Option<u64> = None;
    let mut seen = std::collections::BTreeSet::new();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        if flag.starts_with("--") && !seen.insert(flag.clone()) {
            return Err(format!(
                "duplicate flag `{flag}` (each flag may be given once)"
            ));
        }
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--out" => out_dir = Some(value("--out")?),
            "--jobs" => {
                let v = value("--jobs")?;
                jobs = if v == "auto" {
                    None
                } else {
                    match v.parse::<usize>() {
                        Ok(n) if n >= 1 => Some(n),
                        _ => return Err(format!("bad --jobs `{v}` (want a count >= 1 or `auto`)")),
                    }
                };
            }
            "--limit" => {
                let v = value("--limit")?;
                limit = Some(match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err(format!("bad --limit `{v}` (want a count >= 1)")),
                });
            }
            "--dry-run" => dry_run = true,
            "--attribution" => attribution = true,
            "--checkpoint" => {
                checkpoint_every_ps = Some(parse_checkpoint_cadence(
                    "--checkpoint",
                    &value("--checkpoint")?,
                )?)
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }

    if dry_run {
        let runs = spec.expand()?;
        let mut out = format!("campaign: {} run(s) expanded (dry run)\n", runs.len());
        for r in &runs {
            out.push_str(&format!("  {}  {}\n", r.config_hash(), r.canonical()));
        }
        return Ok(out);
    }
    let out_dir = out_dir.ok_or("campaign needs --out <dir> (or --dry-run)")?;
    // `--jobs auto` is resolved against the spec's shard axis: each run may
    // itself spawn `shards` worker threads, so the job count is capped to
    // keep jobs × shards within the host core count.
    let jobs = jobs.unwrap_or_else(|| {
        crate::sweep::auto_workers_for(spec.shards.iter().copied().max().unwrap_or(1))
    });
    let outcome = crate::campaign::run_campaign(
        &spec,
        &crate::campaign::CampaignOptions {
            out_dir: std::path::PathBuf::from(out_dir),
            jobs,
            limit,
            progress: true,
            attribution,
            checkpoint_every_ps,
        },
    )?;
    Ok(outcome.report)
}

/// Execute one CLI invocation (everything after the program name) and
/// return the text it would print on stdout.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some(cmd) = args.first() else {
        return Err(
            "no subcommand (expected one of: table1, topo, machines, simulate/sim, \
                    analyze, probe, campaign)"
                .into(),
        );
    };
    match cmd.as_str() {
        "table1" => Ok(table1::render()),
        "topo" => {
            let spec = args.get(1).ok_or("topo needs a spec")?;
            let t = parse_topology(spec)?;
            let mut out = String::new();
            out.push_str(&format!("topology:  {}\n", t.label()));
            out.push_str(&format!("nodes:     {}\n", t.nodes()));
            out.push_str(&format!("links:     {}\n", t.link_count()));
            out.push_str(&format!("diameter:  {}\n", t.diameter()));
            out.push_str(&format!(
                "degree:    {}\n",
                (0..t.nodes())
                    .map(|n| t.neighbors(n).len())
                    .max()
                    .unwrap_or(0)
            ));
            Ok(out)
        }
        "machines" => Ok(
            "t805     Inmos T805 transputer multicomputer (30 MHz, SAF links)\n\
                          ppc601   Motorola PowerPC 601 nodes, two cache levels, hw-routed net\n\
                          paragon  Intel Paragon XP/S-class (i860 XP, wormhole mesh links)\n\
                          test     fast round-number test machine\n"
                .to_string(),
        ),
        "simulate" | "sim" => {
            let o = parse_opts(&args[1..])?;
            if o.json.is_some() {
                return Err(
                    "--json belongs to `analyze`; with sim use --attribution <file>".into(),
                );
            }
            let topo = parse_topology(o.topology.as_deref().unwrap_or("ring:8"))?;
            let machine = parse_machine(o.machine.as_deref().unwrap_or("t805"), topo)?;
            let nodes = topo.nodes();
            let gen = build_generator(&o, nodes)?;

            // Instrumentation: one probe handle feeds every sink the user
            // asked for. Disabled (a single branch per event site) when
            // no flag is given.
            let mode = o.mode.as_deref().unwrap_or("detailed");
            let tracing = o.trace_out.is_some() || o.metrics || o.attribution.is_some();
            if tracing && mode == "direct" {
                return Err(
                    "--trace-out/--metrics/--attribution need --mode detailed or task".into(),
                );
            }
            let shards = o.shards.unwrap_or(1);
            if shards > 1 && mode == "direct" {
                return Err("--shards needs --mode detailed or task".into());
            }
            if shards > 1 && o.watch {
                return Err(
                    "--shards cannot be combined with --watch (which runs single-threaded)".into(),
                );
            }
            if o.shard_profile && shards <= 1 {
                return Err("--shard-profile needs --shards with at least 2 workers".into());
            }
            let checkpointing =
                o.checkpoint_every.is_some() || o.checkpoint_dir.is_some() || o.restore.is_some();
            if checkpointing && mode != "task" {
                return Err(
                    "--checkpoint-every/--checkpoint-dir/--restore need --mode task \
                     (snapshots cover the communication model; see DESIGN.md section 16)"
                        .into(),
                );
            }
            if checkpointing && o.watch {
                return Err(
                    "checkpoint flags cannot be combined with --watch (which runs the \
                     single-threaded observer loop)"
                        .into(),
                );
            }
            if o.checkpoint_every.is_some() != o.checkpoint_dir.is_some() {
                return Err("--checkpoint-every and --checkpoint-dir go together \
                            (a cadence needs a destination, and vice versa)"
                    .into());
            }
            if o.restore.is_some() && (o.trace_out.is_some() || o.metrics) {
                return Err(
                    "--restore cannot rebuild --trace-out/--metrics streams (they would \
                     only cover events after the checkpoint instant); --attribution is \
                     supported because its state is carried in the snapshot"
                        .into(),
                );
            }
            if o.fault_seed.is_some() && o.faults.is_none() {
                return Err("--fault-seed needs --faults".into());
            }
            let faults = match &o.faults {
                Some(arg) => {
                    if mode == "direct" {
                        return Err("--faults needs --mode detailed or task (direct execution \
                                    has no communication model to inject into)"
                            .into());
                    }
                    if o.watch {
                        return Err("--faults cannot be combined with --watch".into());
                    }
                    Some(parse_faults(
                        arg,
                        o.fault_seed.unwrap_or(1),
                        &machine.network,
                    )?)
                }
                None => None,
            };
            let probe = if tracing {
                let mut stack = ProbeStack::new();
                if o.trace_out.is_some() {
                    stack = stack.with_chrome();
                }
                if o.metrics {
                    stack = stack
                        .with_metrics()
                        .with_profiler(crate::host_frequency().as_hz() as f64);
                }
                if o.attribution.is_some() {
                    stack = stack.with_attribution();
                }
                ProbeHandle::new(stack)
            } else {
                ProbeHandle::disabled()
            };

            let mut out = format!("machine: {}\n", machine.name);
            let mut finish_ps = 0u64;
            match mode {
                "detailed" => {
                    let traces = gen.generate();
                    let meter = SlowdownMeter::start(nodes, machine.cpu.clock);
                    let r = HybridSim::new(machine)
                        .with_probe(probe.clone())
                        .with_shards(shards)
                        .with_faults(faults.clone())
                        .run(&traces);
                    let slow = meter.finish(r.predicted_time);
                    finish_ps = r.predicted_time.as_ps();
                    out.push_str(&format!("predicted time: {}\n\n", r.predicted_time));
                    out.push_str(&report::hybrid_table(&r).render());
                    if faults.is_some() {
                        out.push_str(&fault_summary(&r.comm));
                    }
                    out.push_str(&format!(
                        "\nslowdown {:.1}×/proc, {:.0} target cycles/s\n",
                        slow.slowdown_per_processor(),
                        slow.target_cycles_per_host_second()
                    ));
                    if o.shard_profile {
                        out.push_str(&shard_profile_section(r.shard_profile.as_ref()));
                    }
                }
                "task" => {
                    let traces = gen.generate_task_level();
                    if o.watch {
                        let (r, run) = observer::observe_task_level_probed(
                            machine.network,
                            &traces,
                            500,
                            probe.clone(),
                            |s| {
                                eprintln!(
                                    "t={:>14}ps  events={:>8}  msgs={:>6}  done={}/{}",
                                    s.virtual_ps, s.events, s.messages, s.nodes_done, nodes
                                );
                            },
                        );
                        finish_ps = r.finish.as_ps();
                        out.push_str(&format!("predicted time: {}\n", r.finish));
                        out.push_str(&format!(
                            "messages over time: {}\n",
                            mermaid_stats::chart::sparkline(&run.messages, 40)
                        ));
                    } else {
                        let (r, ckpts_written) =
                            if o.restore.is_some() || o.checkpoint_every.is_some() {
                                run_task_checkpointed(
                                    &o,
                                    machine.network,
                                    &traces,
                                    &probe,
                                    shards,
                                    faults.clone(),
                                )?
                            } else {
                                let r = TaskLevelSim::new(machine.network)
                                    .with_probe(probe.clone())
                                    .with_shards(shards)
                                    .with_faults(faults.clone())
                                    .run(&traces);
                                (r, 0)
                            };
                        finish_ps = r.predicted_time.as_ps();
                        out.push_str(&format!("predicted time: {}\n\n", r.predicted_time));
                        out.push_str(&report::task_level_table(&r).render());
                        if faults.is_some() {
                            out.push_str(&fault_summary(&r.comm));
                        }
                        if o.shard_profile {
                            out.push_str(&shard_profile_section(r.shard_profile.as_ref()));
                        }
                        if let Some(dir) = o.checkpoint_dir.as_deref() {
                            out.push_str(&format!(
                                "checkpoints written: {ckpts_written} (ckpt-*.snap in {dir})\n"
                            ));
                        }
                    }
                }
                "direct" => {
                    let traces = gen.generate();
                    let r = DirectExecSim::new(machine).run(&traces);
                    out.push_str(&format!(
                        "predicted time: {} (direct-execution estimate; cache-blind)\n",
                        r.predicted_time
                    ));
                }
                other => return Err(format!("unknown mode `{other}`")),
            }

            if let Some(path) = &o.trace_out {
                let json = probe.chrome_trace_json().ok_or("no trace was collected")?;
                crate::probe::validate_chrome_trace(&json)
                    .map_err(|e| format!("internal error: emitted trace is invalid: {e}"))?;
                write_output_file(path, &json)?;
                out.push_str(&format!("trace written: {path}\n"));
            }
            if let Some(path) = &o.attribution {
                let report = probe
                    .attribution_report(finish_ps)
                    .ok_or("no attribution was collected")?;
                write_output_file(path, &report.to_json())?;
                out.push_str(&format!("attribution written: {path}\n"));
            }
            if o.metrics {
                let report = probe
                    .metrics_report(finish_ps)
                    .ok_or("no metrics were collected")?;
                out.push('\n');
                out.push_str(&report.render());
                if let Some(profile) = probe.host_profile() {
                    out.push('\n');
                    out.push_str(&profile.render());
                }
            }
            Ok(out)
        }
        "analyze" => {
            let o = parse_opts(&args[1..])?;
            if o.watch || o.trace_out.is_some() || o.metrics {
                return Err("analyze renders the attribution report; use `sim` for \
                            --watch/--trace-out/--metrics"
                    .into());
            }
            if o.attribution.is_some() {
                return Err("analyze always attributes; write the JSON with --json <file>".into());
            }
            let topo = parse_topology(o.topology.as_deref().unwrap_or("ring:8"))?;
            let machine = parse_machine(o.machine.as_deref().unwrap_or("t805"), topo)?;
            let gen = build_generator(&o, topo.nodes())?;
            // Analyze targets the communication network, so the fast
            // task-level mode is the default; `--mode detailed` attributes
            // the same run with the computational model in front.
            let mode = o.mode.as_deref().unwrap_or("task");
            let shards = o.shards.unwrap_or(1);
            if o.shard_profile && shards <= 1 {
                return Err("--shard-profile needs --shards with at least 2 workers".into());
            }
            if o.fault_seed.is_some() && o.faults.is_none() {
                return Err("--fault-seed needs --faults".into());
            }
            let faults = match &o.faults {
                Some(arg) => Some(parse_faults(
                    arg,
                    o.fault_seed.unwrap_or(1),
                    &machine.network,
                )?),
                None => None,
            };
            let probe = ProbeHandle::new(ProbeStack::new().with_attribution());
            let mut out = format!("machine: {}\n", machine.name);
            let (finish_ps, shard_profile) = match mode {
                "task" => {
                    let traces = gen.generate_task_level();
                    let r = TaskLevelSim::new(machine.network)
                        .with_probe(probe.clone())
                        .with_shards(shards)
                        .with_faults(faults.clone())
                        .run(&traces);
                    out.push_str(&format!("predicted time: {}\n", r.predicted_time));
                    (r.predicted_time.as_ps(), r.shard_profile)
                }
                "detailed" => {
                    let traces = gen.generate();
                    let r = HybridSim::new(machine)
                        .with_probe(probe.clone())
                        .with_shards(shards)
                        .with_faults(faults.clone())
                        .run(&traces);
                    out.push_str(&format!("predicted time: {}\n", r.predicted_time));
                    (r.predicted_time.as_ps(), r.shard_profile)
                }
                other => {
                    return Err(format!(
                        "analyze needs --mode detailed or task (got `{other}`)"
                    ))
                }
            };
            let report = probe
                .attribution_report(finish_ps)
                .ok_or("no attribution was collected")?;
            out.push('\n');
            out.push_str(&report.render());
            if let Some(path) = &o.json {
                write_output_file(path, &report.to_json())?;
                out.push_str(&format!("attribution written: {path}\n"));
            }
            if o.shard_profile {
                out.push_str(&shard_profile_section(shard_profile.as_ref()));
            }
            Ok(out)
        }
        "probe" => {
            let o = parse_opts(&args[1..])?;
            let topo = parse_topology(o.topology.as_deref().unwrap_or("ring:4"))?;
            let machine = parse_machine(o.machine.as_deref().unwrap_or("ppc601"), topo)?;
            let mut out = format!(
                "machine: {}\n\nmemory-latency curve (64 B stride):\n",
                machine.name
            );
            let footprints: Vec<u64> = (0..10).map(|i| (4 << 10) << i).collect(); // 4 KiB … 2 MiB
            for p in crate::memory_stride_probe(&machine, &footprints, 64) {
                out.push_str(&format!(
                    "  {:>8} KiB  {:>8.1} ns/access\n",
                    p.array_bytes / 1024,
                    p.per_access.as_nanos_f64()
                ));
            }
            out.push_str("\nping-pong (node 0 ↔ 1):\n");
            for p in crate::ping_pong(&machine, &[64, 1024, 16 * 1024, 262_144], 3) {
                out.push_str(&format!(
                    "  {:>7} B  one-way {:>12}  {:>10.2} MB/s\n",
                    p.bytes,
                    format!("{}", p.one_way),
                    p.bandwidth / 1e6
                ));
            }
            Ok(out)
        }
        "campaign" => run_campaign_cmd(&args[1..]),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn topology_specs_parse() {
        assert_eq!(parse_topology("ring:8").unwrap(), Topology::Ring(8));
        assert_eq!(
            parse_topology("mesh:4x2").unwrap(),
            Topology::Mesh2D { w: 4, h: 2 }
        );
        assert_eq!(
            parse_topology("hypercube:3").unwrap(),
            Topology::Hypercube { dim: 3 }
        );
        assert!(parse_topology("ring").is_err());
        assert!(parse_topology("blob:3").is_err());
        assert!(parse_topology("mesh:4").is_err());
    }

    #[test]
    fn invalid_topology_specs_are_errors_not_panics() {
        // Each of these used to reach `Topology::validate()`'s assertions
        // (or overflow `w*h`) and abort the process; they must now come
        // back as plain `Err`s.
        for spec in [
            "ring:1",
            "ring:0",
            "mesh:0x4",
            "mesh:4x0",
            "torus:0x4",
            "mesh:1x1",
            "hypercube:0",
            "hypercube:21",
            "full:1",
            "star:1",
            "mesh:100000x100000",
        ] {
            let err = parse_topology(spec).expect_err(&format!("`{spec}` should be rejected"));
            assert!(!err.is_empty());
        }
        // ... while the boundary cases stay valid.
        assert!(parse_topology("ring:2").is_ok());
        assert!(parse_topology("hypercube:20").is_ok());
    }

    #[test]
    fn shards_flag_parses_counts_and_auto() {
        assert_eq!(parse_shards("1").unwrap(), 1);
        assert_eq!(parse_shards("4").unwrap(), 4);
        assert!(parse_shards("auto").unwrap() >= 1);
        assert!(parse_shards("0").is_err());
        assert!(parse_shards("-2").is_err());
        assert!(parse_shards("many").is_err());
        let o = parse_opts(&s(&["--shards", "3"])).unwrap();
        assert_eq!(o.shards, Some(3));
        assert!(parse_opts(&s(&["--shards"])).is_err());
    }

    #[test]
    fn no_subcommand_error_lists_the_subcommands() {
        let err = run(&[]).unwrap_err();
        for name in [
            "table1", "topo", "machines", "simulate", "analyze", "probe", "campaign",
        ] {
            assert!(err.contains(name), "`{err}` should mention {name}");
        }
    }

    #[test]
    fn analyze_renders_the_attribution_report() {
        let out = run(&s(&[
            "analyze",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--phases",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("predicted time"), "{out}");
        assert!(out.contains("Latency decomposition"), "{out}");
        assert!(out.contains("Hottest links"), "{out}");
        assert!(out.contains("Hottest routers"), "{out}");
        assert!(out.contains("heatmap"), "{out}");
    }

    #[test]
    fn analyze_output_is_byte_identical_serial_vs_sharded() {
        let dir = std::env::temp_dir();
        let a = dir.join(format!("mermaid-attr-serial-{}.json", std::process::id()));
        let b = dir.join(format!("mermaid-attr-sharded-{}.json", std::process::id()));
        let base = s(&[
            "analyze",
            "--machine",
            "test",
            "--topology",
            "torus:2x2",
            "--phases",
            "2",
            "--pattern",
            "all2all",
        ]);
        let mut serial_args = base.clone();
        serial_args.extend(s(&["--json", a.to_str().unwrap()]));
        let mut sharded_args = base.clone();
        sharded_args.extend(s(&["--shards", "3", "--json", b.to_str().unwrap()]));
        let serial = run(&serial_args).unwrap();
        let sharded = run(&sharded_args).unwrap();
        let aj = std::fs::read_to_string(&a).unwrap();
        let bj = std::fs::read_to_string(&b).unwrap();
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
        // stdout differs only in the --json path echoed at the end.
        assert_eq!(
            serial.replace(a.to_str().unwrap(), "X"),
            sharded.replace(b.to_str().unwrap(), "X")
        );
        assert_eq!(aj, bj, "attribution.json must be shard-invariant");
        assert!(aj.contains("\"schema\":\"mermaid-attribution-v1\""), "{aj}");
    }

    #[test]
    fn analyze_rejects_direct_mode_and_sim_only_flags() {
        let err = run(&s(&["analyze", "--mode", "direct"])).unwrap_err();
        assert!(err.contains("detailed or task"), "{err}");
        let err = run(&s(&["analyze", "--metrics"])).unwrap_err();
        assert!(err.contains("use `sim`"), "{err}");
        let err = run(&s(&["analyze", "--watch"])).unwrap_err();
        assert!(err.contains("use `sim`"), "{err}");
        let err = run(&s(&["analyze", "--attribution", "x.json"])).unwrap_err();
        assert!(err.contains("--json"), "{err}");
        let err = run(&s(&["sim", "--json", "x.json"])).unwrap_err();
        assert!(err.contains("--attribution"), "{err}");
    }

    #[test]
    fn sim_attribution_flag_writes_the_json_artifact() {
        let path =
            std::env::temp_dir().join(format!("mermaid-sim-attr-{}.json", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        let out = run(&s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--mode",
            "task",
            "--phases",
            "2",
            "--attribution",
            &path_s,
        ]))
        .unwrap();
        assert!(out.contains("attribution written"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            json.starts_with("{\"schema\":\"mermaid-attribution-v1\""),
            "{json}"
        );
    }

    #[test]
    fn missing_output_directory_is_an_actionable_error() {
        let bogus = "/nonexistent-mermaid-dir/out.json";
        for args in [
            vec![
                "sim",
                "--mode",
                "task",
                "--phases",
                "1",
                "--trace-out",
                bogus,
            ],
            vec![
                "sim",
                "--mode",
                "task",
                "--phases",
                "1",
                "--attribution",
                bogus,
            ],
            vec!["analyze", "--phases", "1", "--json", bogus],
        ] {
            let mut full = vec!["--machine", "test", "--topology", "ring:4"];
            full.splice(0..0, [args[0]]);
            full.extend(&args[1..]);
            let err = run(&s(&full)).unwrap_err();
            assert!(err.contains(bogus), "{err}");
            assert!(err.contains("does not exist"), "{err}");
            assert!(err.contains("/nonexistent-mermaid-dir"), "{err}");
        }
    }

    #[test]
    fn shard_profile_flag_needs_a_sharded_run() {
        let err = run(&s(&["sim", "--mode", "task", "--shard-profile"])).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = run(&s(&["analyze", "--shard-profile"])).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
    }

    #[test]
    fn sharded_analyze_with_shard_profile_reports_overheads() {
        let out = run(&s(&[
            "analyze",
            "--machine",
            "test",
            "--topology",
            "torus:2x2",
            "--phases",
            "2",
            "--shards",
            "3",
            "--shard-profile",
        ]))
        .unwrap();
        assert!(out.contains("shard self-profile"), "{out}");
        assert!(out.contains("barrier wait:"), "{out}");
        assert!(out.contains("ev/window"), "{out}");
    }

    #[test]
    fn campaign_dry_run_lists_the_expanded_grid() {
        let out = run(&s(&[
            "campaign",
            "topo = ring:4, mesh:2x2; pattern = ring, all2all; phases = 1; ops = 200",
            "--dry-run",
        ]))
        .unwrap();
        assert!(out.contains("4 run(s) expanded (dry run)"), "{out}");
        assert!(out.contains("campaign-v1"), "{out}");
        assert_eq!(out.lines().count(), 5, "{out}");
    }

    #[test]
    fn campaign_flag_errors_are_actionable() {
        let spec = "topo = ring:4; phases = 1; ops = 200";
        assert!(run(&s(&["campaign"])).unwrap_err().contains("spec"));
        let err = run(&s(&["campaign", spec])).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        let err = run(&s(&["campaign", spec, "--out", "x", "--jobs", "0"])).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        let err = run(&s(&["campaign", spec, "--out", "x", "--limit", "junk"])).unwrap_err();
        assert!(err.contains("--limit"), "{err}");
        let err = run(&s(&["campaign", spec, "--out", "a", "--out", "b"])).unwrap_err();
        assert!(err.contains("duplicate flag"), "{err}");
        let err = run(&s(&["campaign", "topo = ring:4; frob = 1", "--dry-run"])).unwrap_err();
        assert!(err.contains("unknown campaign key"), "{err}");
    }

    #[test]
    fn campaign_runs_resume_and_report() {
        let dir = std::env::temp_dir().join(format!("mermaid-cli-campaign-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap().to_string();
        let spec = "topo = ring:4, mesh:2x2; pattern = ring; phases = 1; ops = 200";
        let first = run(&s(&["campaign", spec, "--out", &dir_s])).unwrap();
        assert!(
            first.contains("2 run(s) expanded, 0 already recorded, 2 executed"),
            "{first}"
        );
        assert!(first.contains("Campaign comparison"), "{first}");
        // Re-running finds everything recorded and does no new work.
        let second = run(&s(&["campaign", spec, "--out", &dir_s])).unwrap();
        assert!(
            second.contains("2 run(s) expanded, 2 already recorded, 0 executed"),
            "{second}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_jobs_auto_respects_sharded_runs() {
        // `--jobs auto` resolves against the spec's shard axis, so a
        // campaign of 2-shard runs must still execute (with a capped
        // worker pool) rather than oversubscribe the host.
        let dir = std::env::temp_dir().join(format!("mermaid-cli-jobsauto-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap().to_string();
        let spec = "topo = ring:4; pattern = ring; phases = 1; ops = 200; shards = 1, 2";
        let out = run(&s(&["campaign", spec, "--out", &dir_s, "--jobs", "auto"])).unwrap();
        assert!(
            out.contains("2 run(s) expanded, 0 already recorded, 2 executed"),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shards_rejects_direct_mode_and_watch() {
        let err = run(&s(&["sim", "--mode", "direct", "--shards", "2"])).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = run(&s(&["sim", "--mode", "task", "--shards", "2", "--watch"])).unwrap_err();
        assert!(err.contains("--watch"), "{err}");
    }

    #[test]
    fn sharded_simulate_output_matches_serial() {
        let base = s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "torus:2x2",
            "--mode",
            "task",
            "--phases",
            "2",
            "--pattern",
            "all2all",
        ]);
        let serial = run(&base).unwrap();
        let mut sharded_args = base.clone();
        sharded_args.extend(s(&["--shards", "3"]));
        let sharded = run(&sharded_args).unwrap();
        assert_eq!(serial, sharded);
    }

    #[test]
    fn opts_parse_flags() {
        let o = parse_opts(&s(&["--machine", "t805", "--seed", "7", "--watch"])).unwrap();
        assert_eq!(o.machine.as_deref(), Some("t805"));
        assert_eq!(o.seed, Some(7));
        assert!(o.watch);
        assert!(parse_opts(&s(&["--bogus"])).is_err());
        assert!(parse_opts(&s(&["--seed"])).is_err());
    }

    #[test]
    fn duplicate_flags_are_rejected_not_last_wins() {
        // `--seed 1 --seed 2` used to silently run with seed 2.
        let err = parse_opts(&s(&["--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(err.contains("duplicate flag `--seed`"), "{err}");
        // Booleans too: `--watch --watch` is a scripting mistake.
        let err = parse_opts(&s(&["--watch", "--watch"])).unwrap_err();
        assert!(err.contains("duplicate flag `--watch`"), "{err}");
        // Different flags still coexist.
        assert!(parse_opts(&s(&["--seed", "1", "--phases", "2"])).is_ok());
        // End to end: the CLI surfaces the diagnostic.
        let err = run(&s(&["sim", "--machine", "test", "--machine", "test"])).unwrap_err();
        assert!(err.contains("duplicate flag"), "{err}");
    }

    #[test]
    fn degenerate_phases_and_ops_are_rejected() {
        // `--phases 0` / `--ops 0` used to produce empty workloads with a
        // meaningless zero-time prediction and no diagnostic.
        let err = parse_phases("0").unwrap_err();
        assert!(err.contains("empty workload"), "{err}");
        let err = parse_ops("0").unwrap_err();
        assert!(err.contains("empty workload"), "{err}");
        // Absurd values and garbage are bounded with actionable messages.
        assert!(parse_phases("9999999999").is_err());
        assert!(parse_phases("many").is_err());
        assert!(parse_ops("99999999999999999999").is_err());
        assert!(parse_ops("-5").is_err());
        // Boundaries stay valid.
        assert_eq!(parse_phases("1").unwrap(), 1);
        assert_eq!(parse_phases(&MAX_PHASES.to_string()).unwrap(), MAX_PHASES);
        assert_eq!(parse_ops("1").unwrap(), 1);
        assert_eq!(
            parse_ops(&MAX_OPS_PER_PHASE.to_string()).unwrap(),
            MAX_OPS_PER_PHASE
        );
        // End to end through the CLI.
        let err = run(&s(&["sim", "--machine", "test", "--phases", "0"])).unwrap_err();
        assert!(err.contains("--phases"), "{err}");
        let err = run(&s(&["sim", "--machine", "test", "--ops", "0"])).unwrap_err();
        assert!(err.contains("--ops"), "{err}");
    }

    /// Base args of a valid task-mode run for the checkpoint gating tests.
    fn task_args(extra: &[&str]) -> Vec<String> {
        let mut v = s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--mode",
            "task",
            "--phases",
            "1",
        ]);
        v.extend(s(extra));
        v
    }

    #[test]
    fn checkpoint_cadence_rejects_zero_and_junk() {
        let err = parse_checkpoint_cadence("--checkpoint-every", "0").unwrap_err();
        assert!(err.contains("--checkpoint-every"), "{err}");
        assert!(err.contains("continuously"), "{err}");
        let err = parse_checkpoint_cadence("--checkpoint", "soon").unwrap_err();
        assert!(err.contains("--checkpoint `soon`"), "{err}");
        assert_eq!(
            parse_checkpoint_cadence("--checkpoint-every", "500000").unwrap(),
            500_000
        );
        let err = run(&task_args(&[
            "--checkpoint-every",
            "0",
            "--checkpoint-dir",
            "x",
        ]))
        .unwrap_err();
        assert!(err.contains("--checkpoint-every"), "{err}");
    }

    #[test]
    fn checkpoint_flags_need_task_mode_and_each_other() {
        for args in [
            vec!["sim", "--mode", "detailed", "--restore", "x.snap"],
            vec![
                "sim",
                "--mode",
                "direct",
                "--checkpoint-every",
                "1000",
                "--checkpoint-dir",
                "d",
            ],
        ] {
            let err = run(&s(&args)).unwrap_err();
            assert!(err.contains("--mode task"), "{err}");
        }
        let err = run(&task_args(&["--checkpoint-every", "1000"])).unwrap_err();
        assert!(err.contains("go together"), "{err}");
        let err = run(&task_args(&["--checkpoint-dir", "d"])).unwrap_err();
        assert!(err.contains("go together"), "{err}");
        let err = run(&task_args(&["--watch", "--restore", "x.snap"])).unwrap_err();
        assert!(err.contains("--watch"), "{err}");
    }

    #[test]
    fn restore_rejects_streaming_sinks_but_not_attribution() {
        let err = run(&task_args(&["--restore", "x.snap", "--metrics"])).unwrap_err();
        assert!(err.contains("after the checkpoint instant"), "{err}");
        let err = run(&task_args(&[
            "--restore",
            "x.snap",
            "--trace-out",
            "t.json",
        ]))
        .unwrap_err();
        assert!(err.contains("--attribution is"), "{err}");
        // --attribution passes the gate and fails later, on the missing
        // snapshot file — with the read error naming the path.
        let err = run(&task_args(&[
            "--restore",
            "/nonexistent-mermaid-dir/x.snap",
            "--attribution",
            "a.json",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot read snapshot"), "{err}");
        assert!(err.contains("/nonexistent-mermaid-dir/x.snap"), "{err}");
    }

    #[test]
    fn checkpoint_dir_errors_are_actionable() {
        let err = run(&task_args(&[
            "--checkpoint-every",
            "1000000",
            "--checkpoint-dir",
            "/nonexistent-mermaid-dir",
        ]))
        .unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        assert!(err.contains("create it first"), "{err}");
        assert!(err.contains("/nonexistent-mermaid-dir"), "{err}");
    }

    #[test]
    fn restoring_a_non_snapshot_file_is_refused() {
        let path =
            std::env::temp_dir().join(format!("mermaid-cli-junk-{}.snap", std::process::id()));
        std::fs::write(&path, "this is not a snapshot\n").unwrap();
        let err = run(&task_args(&["--restore", path.to_str().unwrap()])).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("not a mermaid snapshot"), "{err}");
        assert!(err.contains("mermaid-snapshot-v1"), "{err}");
    }

    #[test]
    fn restoring_under_different_run_parameters_names_both_hashes() {
        // Capture a real checkpoint, then restore it with a different
        // seed: the config-hash binding must refuse, naming both hashes.
        let dir = std::env::temp_dir().join(format!("mermaid-cli-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = run(&task_args(&[
            "--checkpoint-every",
            "200000",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("checkpoints written:"), "{out}");
        let snap = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "snap"))
            .expect("a checkpoint was written");
        let err = run(&task_args(&[
            "--seed",
            "2",
            "--restore",
            snap.to_str().unwrap(),
        ]))
        .unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.contains("snapshot field `config`"), "{err}");
        assert!(err.contains("captured under"), "{err}");
    }

    #[test]
    fn campaign_checkpoint_flag_is_validated() {
        let spec = "topo = ring:4; phases = 1; ops = 200";
        let err = run(&s(&["campaign", spec, "--out", "x", "--checkpoint", "0"])).unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
        let err = run(&s(&["campaign", spec, "--out", "x", "--checkpoint"])).unwrap_err();
        assert!(err.contains("missing value"), "{err}");
    }

    #[test]
    fn table1_subcommand_renders() {
        let out = run(&s(&["table1"])).unwrap();
        assert!(out.contains("Table 1"));
    }

    #[test]
    fn topo_subcommand_reports_shape() {
        let out = run(&s(&["topo", "torus:4x4"])).unwrap();
        assert!(out.contains("nodes:     16"));
        assert!(out.contains("diameter:  4"));
    }

    #[test]
    fn simulate_task_mode_works_end_to_end() {
        let out = run(&s(&[
            "simulate",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--mode",
            "task",
            "--phases",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("predicted time"));
    }

    #[test]
    fn simulate_detailed_mode_works_end_to_end() {
        let out = run(&s(&[
            "simulate",
            "--machine",
            "test",
            "--topology",
            "ring:2",
            "--mode",
            "detailed",
            "--phases",
            "1",
            "--ops",
            "200",
        ]))
        .unwrap();
        assert!(out.contains("slowdown"));
    }

    #[test]
    fn sim_is_an_alias_for_simulate() {
        let out = run(&s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--mode",
            "task",
            "--phases",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("predicted time"));
    }

    #[test]
    fn traced_run_writes_a_valid_chrome_trace_and_metrics() {
        let path = std::env::temp_dir().join("mermaid-cli-test-trace.json");
        let path_s = path.to_str().unwrap().to_string();
        let out = run(&s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--mode",
            "task",
            "--phases",
            "2",
            "--trace-out",
            &path_s,
            "--metrics",
        ]))
        .unwrap();
        assert!(out.contains("trace written"), "{out}");
        assert!(out.contains("engine/deliveries"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let summary = crate::probe::validate_chrome_trace(&json).unwrap();
        assert!(summary.delivered_messages.unwrap() > 0);
    }

    #[test]
    fn tracing_direct_mode_is_an_error() {
        let err = run(&s(&["sim", "--mode", "direct", "--metrics"])).unwrap_err();
        assert!(err.contains("detailed or task"), "{err}");
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn faults_flag_is_rejected_in_direct_and_watch_modes() {
        let err = run(&s(&["sim", "--mode", "direct", "--faults", "drop:100"])).unwrap_err();
        assert!(err.contains("--faults"), "{err}");
        let err = run(&s(&[
            "sim", "--mode", "task", "--watch", "--faults", "drop:100",
        ]))
        .unwrap_err();
        assert!(err.contains("--watch"), "{err}");
        let err = run(&s(&["sim", "--mode", "task", "--fault-seed", "7"])).unwrap_err();
        assert!(err.contains("--fault-seed needs --faults"), "{err}");
    }

    #[test]
    fn bad_fault_specs_are_errors_not_panics() {
        for spec in [
            "frob:1",            // unknown clause
            "link:0-9:1000",     // node out of range on ring:4
            "link:0-2:1000",     // not a link on ring:4
            "link:0-1:5:4",      // heals before it fails
            "drop:2000000",      // rate above 1.0
            "drop:100000;cap:0", // every retry at one instant
            "recv-timeout:0",    // every blocking receive abandoned at once
            // 2^64/1000 ns overflows the ps clock (it used to wrap to 384 ps)
            "drop:1000;timeout:18446744073709552",
        ] {
            let err = run(&s(&[
                "sim",
                "--machine",
                "test",
                "--topology",
                "ring:4",
                "--mode",
                "task",
                "--phases",
                "1",
                "--faults",
                spec,
            ]))
            .expect_err(&format!("`{spec}` should be rejected"));
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn butterfly_on_non_power_of_two_nodes_is_an_error_not_a_panic() {
        for args in [
            &[
                "sim",
                "--machine",
                "test",
                "--topology",
                "ring:3",
                "--pattern",
                "butterfly",
            ][..],
            &[
                "sim",
                "--machine",
                "test",
                "--topology",
                "ring:3",
                "--mode",
                "task",
                "--pattern",
                "butterfly",
            ],
            &[
                "analyze",
                "--machine",
                "test",
                "--topology",
                "ring:6",
                "--pattern",
                "butterfly",
            ],
            &[
                "campaign",
                "topo = ring:3; pattern = butterfly",
                "--dry-run",
            ],
        ] {
            let err = run(&s(args)).expect_err(&format!("{args:?} should be rejected"));
            assert!(err.contains("power-of-two"), "{args:?}: {err}");
        }
    }

    #[test]
    fn faulty_task_run_reports_fault_injection() {
        // A permanent cut right next to node 0 on a small ring: traffic
        // crossing it fails over or times out, and the run must report it.
        let out = run(&s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--mode",
            "task",
            "--phases",
            "2",
            "--faults",
            "link:0-1:0",
        ]))
        .unwrap();
        assert!(out.contains("fault injection:"), "{out}");
        assert!(out.contains("predicted time"), "{out}");
    }

    #[test]
    fn faulty_runs_are_identical_serial_vs_sharded() {
        let base = s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "torus:2x2",
            "--mode",
            "task",
            "--phases",
            "2",
            "--pattern",
            "all2all",
            "--faults",
            "link:0-1:2000:400000; drop:20000",
            "--fault-seed",
            "9",
        ]);
        let serial = run(&base).unwrap();
        let mut sharded_args = base.clone();
        sharded_args.extend(s(&["--shards", "3"]));
        let sharded = run(&sharded_args).unwrap();
        assert_eq!(serial, sharded);
        assert!(serial.contains("fault injection:"), "{serial}");
    }

    #[test]
    fn fault_file_is_read_when_it_exists() {
        let path = std::env::temp_dir().join("mermaid-cli-test-faults.txt");
        std::fs::write(&path, "# scripted outage\nlink:0-1:1000:500000\n").unwrap();
        let out = run(&s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--mode",
            "task",
            "--phases",
            "1",
            "--faults",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("fault injection:"), "{out}");
    }
}
