//! The campaign runner: thousands of resumable scenarios per invocation.
//!
//! The paper's whole point is the *workbench* — rapid exploration of large
//! (topology × workload × fault) design spaces, not one run at a time. A
//! [`CampaignSpec`] declaratively describes a grid (or a seeded random
//! sample of one) over topology shape/size, machine, communication
//! pattern, phase/ops counts, trace seeds, fault schedules, and shard
//! counts. The spec expands into a deterministic run list; runs fan out
//! over [`crate::sweep::parallel_sweep_streaming`] and append one
//! self-contained JSONL record each — config, predicted time,
//! [`DeliveryStats`], key counters, and latency tail percentiles — as they
//! finish. Records are keyed by a stable config hash, so a restarted
//! campaign re-expands the spec, diffs it against the JSONL, and runs only
//! the gap (DESIGN.md §13).
//!
//! ## Spec grammar
//!
//! Clauses are separated by `;` or newlines and `#` starts a comment —
//! the same conventions as the `--faults` spec grammar. Each clause is
//! `key = value, value, …`; list values are the grid's alternatives:
//!
//! ```text
//! topo       = ring:8, torus:4x4, hypercube:3    # required, ≥1
//! machine    = test                              # default: test
//! app        = scientific                        # default: scientific
//! pattern    = ring, all2all                     # default: ring
//! phases     = 2, 4                              # default: 5
//! ops        = 2000                              # default: 5000
//! seed       = 1, 2, 3                           # default: 1
//! mode       = task                              # default: task (or detailed)
//! shards     = 1                                 # default: 1 (per-run threads)
//! faults     = none, link:0-1:1000:5000+drop:500 # default: none ('+' joins clauses)
//! fault-seed = 1                                 # default: 1
//! sample     = 100 @ 7                           # optional: N runs, shuffle seed
//! ```
//!
//! A fault alternative is a whole `--faults` spec with `+` in place of the
//! clause separator (which is taken by the campaign grammar). `sample`
//! replaces the full cartesian product by a seeded random subset —
//! deterministic, and stable under resume because selection happens on the
//! expanded grid before any run starts.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use mermaid_network::{run_comm, CheckpointOpts, FaultSchedule, RetryParams, Snapshot};
use mermaid_stats::csv::csv_line;
use mermaid_stats::DeliveryStats;
use pearl::{Duration, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::cli::{parse_machine, parse_ops, parse_pattern, parse_phases, parse_topology};
use crate::prelude::*;
use crate::{report, sweep, HybridSim};

/// Hard ceiling on the expanded run-list size; bigger grids must use
/// `sample = N @ SEED`.
pub const MAX_RUNS: usize = 1_000_000;

/// The per-run JSONL stream inside the campaign output directory.
pub const RUNS_FILE: &str = "runs.jsonl";
/// The RFC-4180 CSV view regenerated after every campaign invocation.
pub const CSV_FILE: &str = "summary.csv";

/// One fully-materialised run configuration — every campaign dimension
/// pinned to a concrete value. This is the unit the config hash covers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Machine name (`test`, `t805`, `ppc601`, `paragon`).
    pub machine: String,
    /// Topology spec (`ring:8`, `mesh:4x4`, …).
    pub topo: String,
    /// Instruction mix (`scientific` or `integer`; detailed mode only).
    pub app: String,
    /// Communication pattern token, as written in the spec.
    pub pattern: String,
    /// Compute+communicate phases.
    pub phases: u32,
    /// Operations per phase.
    pub ops: u64,
    /// Trace-generator seed.
    pub seed: u64,
    /// Simulation mode (`task` or `detailed`).
    pub mode: String,
    /// Communication-model worker threads for this run.
    pub shards: usize,
    /// Fault spec with `+` joining clauses, or `none`.
    pub faults: String,
    /// Fault-schedule seed (per-packet loss/corruption draws).
    pub fault_seed: u64,
}

impl RunConfig {
    /// The canonical one-line rendering of this configuration. The config
    /// hash is computed over exactly this string, so its format is a
    /// stability contract: the `campaign-v1` prefix is bumped whenever a
    /// field is added, removed, or re-ordered (DESIGN.md §13) — old
    /// records then simply stop matching instead of silently colliding.
    pub fn canonical(&self) -> String {
        format!(
            "campaign-v1 machine={} topo={} app={} pattern={} phases={} ops={} seed={} \
             mode={} shards={} faults={} fault-seed={}",
            self.machine,
            self.topo,
            self.app,
            self.pattern,
            self.phases,
            self.ops,
            self.seed,
            self.mode,
            self.shards,
            self.faults,
            self.fault_seed
        )
    }

    /// Stable 64-bit config hash (FNV-1a over [`RunConfig::canonical`]),
    /// rendered as 16 lowercase hex digits.
    pub fn config_hash(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes()))
    }

    /// The workload half of the configuration — what is being run, as
    /// opposed to what it runs on. Records sharing a workload key are
    /// ranked against each other in the comparison table.
    pub fn workload_key(&self) -> String {
        format!(
            "{} {} phases={} ops={} seed={}",
            self.app, self.pattern, self.phases, self.ops, self.seed
        )
    }

    /// The architecture half: machine, topology, mode, shards, faults.
    pub fn architecture_label(&self) -> String {
        let mut s = format!("{} {}", self.machine, self.topo);
        if self.mode != "task" {
            s.push_str(&format!(" {}", self.mode));
        }
        if self.faults != "none" {
            s.push_str(&format!(" faults={}", self.faults));
        }
        s
    }
}

/// FNV-1a, 64-bit — tiny, dependency-free, and stable across platforms
/// and releases (the hash lands in persisted campaign logs).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-run bottleneck-attribution headline, recorded when the campaign
/// runs with attribution enabled: which latency component dominated the
/// delivered messages and how hot the busiest link ran. Deterministic and
/// shard-invariant, like the full `attribution.json` it is distilled from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrHeadline {
    /// Name of the dominant latency component (`queue`, `wire`, …).
    pub dominant: String,
    /// The dominant component's share of total summed latency, in ppm.
    pub dominant_share_ppm: u64,
    /// Utilization of the busiest link over the run horizon, in ppm.
    pub max_link_util_ppm: u64,
}

/// One self-contained campaign record: everything a later analysis pass
/// needs without re-running the simulation. Serialised as one JSON line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRecord {
    /// Stable key of [`RunConfig`] (see [`RunConfig::config_hash`]).
    pub config_hash: String,
    /// The full configuration, embedded so each line stands alone.
    pub config: RunConfig,
    /// Predicted execution time, picoseconds.
    pub predicted_ps: u64,
    /// Whether every node completed its trace.
    pub all_done: bool,
    /// Simulation events processed.
    pub events: u64,
    /// Operations simulated.
    pub ops_simulated: u64,
    /// Messages delivered end-to-end.
    pub msgs_delivered: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Message-latency percentiles from the run's log₂ histogram (ps).
    pub latency_p50_ps: u64,
    /// 90th percentile message latency (ps).
    pub latency_p90_ps: u64,
    /// 99th percentile message latency (ps).
    pub latency_p99_ps: u64,
    /// Largest observed message latency (ps).
    pub latency_max_ps: u64,
    /// Delivery accounting (all-zero outside fault mode).
    pub delivery: DeliveryStats,
    /// Attribution headline (`None` unless the campaign ran with
    /// attribution enabled).
    pub attribution: Option<AttrHeadline>,
}

impl CampaignRecord {
    /// The CSV header matching [`CampaignRecord::csv_row`].
    pub fn csv_header() -> String {
        csv_line(&[
            "config_hash",
            "machine",
            "topology",
            "app",
            "pattern",
            "phases",
            "ops",
            "seed",
            "mode",
            "shards",
            "faults",
            "fault_seed",
            "predicted_ps",
            "predicted",
            "all_done",
            "events",
            "ops_simulated",
            "msgs_delivered",
            "bytes_sent",
            "latency_p50_ps",
            "latency_p90_ps",
            "latency_p99_ps",
            "latency_max_ps",
            "dropped_packets",
            "retries",
            "msgs_failed",
            "recv_timeouts",
            "attr_dominant",
            "attr_dominant_share_ppm",
            "attr_max_link_util_ppm",
        ])
    }

    /// This record as one RFC-4180 CSV row.
    pub fn csv_row(&self) -> String {
        let c = &self.config;
        csv_line(&[
            self.config_hash.clone(),
            c.machine.clone(),
            c.topo.clone(),
            c.app.clone(),
            c.pattern.clone(),
            c.phases.to_string(),
            c.ops.to_string(),
            c.seed.to_string(),
            c.mode.clone(),
            c.shards.to_string(),
            c.faults.clone(),
            c.fault_seed.to_string(),
            self.predicted_ps.to_string(),
            format!("{}", Time::from_ps(self.predicted_ps)),
            self.all_done.to_string(),
            self.events.to_string(),
            self.ops_simulated.to_string(),
            self.msgs_delivered.to_string(),
            self.bytes_sent.to_string(),
            self.latency_p50_ps.to_string(),
            self.latency_p90_ps.to_string(),
            self.latency_p99_ps.to_string(),
            self.latency_max_ps.to_string(),
            self.delivery.dropped_packets.to_string(),
            self.delivery.retries.to_string(),
            self.delivery.failed.to_string(),
            self.delivery.recv_timeouts.to_string(),
            self.attribution
                .as_ref()
                .map_or(String::new(), |a| a.dominant.clone()),
            self.attribution
                .as_ref()
                .map_or(String::new(), |a| a.dominant_share_ppm.to_string()),
            self.attribution
                .as_ref()
                .map_or(String::new(), |a| a.max_link_util_ppm.to_string()),
        ])
    }
}

/// A parsed campaign spec: each field holds the grid's alternatives for
/// one dimension, deduplicated but otherwise in spec order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Topology specs (required, ≥1).
    pub topos: Vec<String>,
    /// Machine names.
    pub machines: Vec<String>,
    /// Instruction mixes.
    pub apps: Vec<String>,
    /// Communication patterns.
    pub patterns: Vec<String>,
    /// Phase counts.
    pub phases: Vec<u32>,
    /// Ops-per-phase values.
    pub ops: Vec<u64>,
    /// Trace seeds.
    pub seeds: Vec<u64>,
    /// Modes (`task`/`detailed`).
    pub modes: Vec<String>,
    /// Per-run shard counts.
    pub shards: Vec<usize>,
    /// Fault specs (`none` or `+`-joined clause lists).
    pub faults: Vec<String>,
    /// Fault seeds.
    pub fault_seeds: Vec<u64>,
    /// Optional seeded random sample: `(size, shuffle_seed)`.
    pub sample: Option<(usize, u64)>,
}

impl CampaignSpec {
    /// Parse a campaign spec (see the module docs for the grammar). Every
    /// value is validated here — unknown keys, duplicate keys, malformed
    /// values, and empty lists are all hard errors with the offending
    /// clause named, mirroring the `--faults` parser's conventions.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut topos = Vec::new();
        let mut machines = Vec::new();
        let mut apps = Vec::new();
        let mut patterns = Vec::new();
        let mut phases = Vec::new();
        let mut ops = Vec::new();
        let mut seeds = Vec::new();
        let mut modes = Vec::new();
        let mut shards = Vec::new();
        let mut faults = Vec::new();
        let mut fault_seeds = Vec::new();
        let mut sample = None;
        let mut seen = std::collections::BTreeSet::new();

        for raw in spec.split([';', '\n']) {
            let clause = raw.split('#').next().unwrap_or("").trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("campaign clause `{clause}` needs key = value"))?;
            let key = key.trim();
            let value = value.trim();
            if !seen.insert(key.to_string()) {
                return Err(format!(
                    "duplicate campaign key `{key}` (each key may be given once; \
                     use a comma-separated list for alternatives)"
                ));
            }
            let list = || -> Result<Vec<String>, String> {
                let items: Vec<String> = value
                    .split(',')
                    .map(|v| v.trim().to_string())
                    .filter(|v| !v.is_empty())
                    .collect();
                if items.is_empty() {
                    return Err(format!("campaign key `{key}` has an empty value list"));
                }
                Ok(dedup_preserving_order(items))
            };
            match key {
                "topo" | "topology" => {
                    topos = list()?;
                    for t in &topos {
                        parse_topology(t).map_err(|e| format!("campaign topo `{t}`: {e}"))?;
                    }
                }
                "machine" => {
                    machines = list()?;
                    for m in &machines {
                        // Validate the name against a throwaway topology.
                        parse_machine(m, mermaid_network::Topology::Ring(2))
                            .map_err(|e| format!("campaign machine `{m}`: {e}"))?;
                    }
                }
                "app" => {
                    apps = list()?;
                    for a in &apps {
                        if a != "scientific" && a != "integer" {
                            return Err(format!("campaign app `{a}` (want scientific or integer)"));
                        }
                    }
                }
                "pattern" => {
                    patterns = list()?;
                    for p in &patterns {
                        parse_pattern(p).map_err(|e| format!("campaign pattern `{p}`: {e}"))?;
                    }
                }
                "phases" => {
                    phases = list()?
                        .iter()
                        .map(|v| parse_phases(v).map_err(|e| format!("campaign phases: {e}")))
                        .collect::<Result<_, _>>()?;
                }
                "ops" => {
                    ops = list()?
                        .iter()
                        .map(|v| parse_ops(v).map_err(|e| format!("campaign ops: {e}")))
                        .collect::<Result<_, _>>()?;
                }
                "seed" => seeds = parse_u64_list(&list()?, "seed")?,
                "mode" => {
                    modes = list()?;
                    for m in &modes {
                        if m != "task" && m != "detailed" {
                            return Err(format!(
                                "campaign mode `{m}` (want task or detailed; direct \
                                 execution records no communication statistics)"
                            ));
                        }
                    }
                }
                "shards" => {
                    shards = list()?
                        .iter()
                        .map(|v| match v.parse::<usize>() {
                            Ok(n) if n >= 1 => Ok(n),
                            _ => Err(format!(
                                "campaign shards `{v}` (want a count >= 1; `auto` is \
                                 host-dependent and would break config-hash stability)"
                            )),
                        })
                        .collect::<Result<_, _>>()?;
                }
                "faults" => {
                    faults = list()?
                        .into_iter()
                        // Normalise away interior whitespace so the same
                        // schedule always hashes identically.
                        .map(|f| f.split_whitespace().collect::<String>())
                        .collect();
                    for f in &faults {
                        if f != "none" {
                            // Syntax check now; per-topology validation
                            // happens at expansion, where the combination
                            // is known.
                            FaultSchedule::parse(&f.replace('+', ";"), 0, RetryParams::default())
                                .map_err(|e| format!("campaign faults `{f}`: {e}"))?;
                        }
                    }
                }
                "fault-seed" => fault_seeds = parse_u64_list(&list()?, "fault-seed")?,
                "sample" => {
                    let (n, s) = value
                        .split_once('@')
                        .ok_or_else(|| format!("campaign sample `{value}` (want `N @ SEED`)"))?;
                    let n: usize = n
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad sample size `{}`", n.trim()))?;
                    if n == 0 {
                        return Err("campaign sample size must be >= 1".to_string());
                    }
                    let s: u64 = s
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad sample seed `{}`", s.trim()))?;
                    sample = Some((n, s));
                }
                other => {
                    return Err(format!(
                        "unknown campaign key `{other}` (expected topo, machine, app, \
                         pattern, phases, ops, seed, mode, shards, faults, fault-seed, \
                         or sample)"
                    ));
                }
            }
        }
        if topos.is_empty() {
            return Err("campaign spec needs at least one `topo = …` value".to_string());
        }
        let or = |v: Vec<String>, d: &str| if v.is_empty() { vec![d.to_string()] } else { v };
        Ok(CampaignSpec {
            topos,
            machines: or(machines, "test"),
            apps: or(apps, "scientific"),
            patterns: or(patterns, "ring"),
            phases: if phases.is_empty() { vec![5] } else { phases },
            ops: if ops.is_empty() { vec![5_000] } else { ops },
            seeds: if seeds.is_empty() { vec![1] } else { seeds },
            modes: or(modes, "task"),
            shards: if shards.is_empty() { vec![1] } else { shards },
            faults: or(faults, "none"),
            fault_seeds: if fault_seeds.is_empty() {
                vec![1]
            } else {
                fault_seeds
            },
            sample,
        })
    }

    /// Expand the spec into its deterministic run list: the cartesian
    /// product in fixed dimension order (machine, topo, app, pattern,
    /// phases, ops, seed, mode, shards, faults, fault-seed), optionally
    /// thinned to a seeded random sample. Every combination is fully
    /// validated — in particular, scripted link/router faults must name
    /// real elements of every topology they are combined with.
    pub fn expand(&self) -> Result<Vec<RunConfig>, String> {
        let total = self.machines.len()
            * self.topos.len()
            * self.apps.len()
            * self.patterns.len()
            * self.phases.len()
            * self.ops.len()
            * self.seeds.len()
            * self.modes.len()
            * self.shards.len()
            * self.faults.len()
            * self.fault_seeds.len();
        if total > MAX_RUNS && self.sample.is_none() {
            return Err(format!(
                "campaign grid has {total} runs (max {MAX_RUNS}); add `sample = N @ SEED` \
                 to draw a random subset"
            ));
        }
        // Validate each (faults, topo) pairing once, not per grid cell.
        for f in &self.faults {
            if f == "none" {
                continue;
            }
            for t in &self.topos {
                let topo = parse_topology(t)?;
                let sched = FaultSchedule::parse(&f.replace('+', ";"), 0, RetryParams::default())?;
                sched
                    .try_validate(&topo)
                    .map_err(|e| format!("campaign faults `{f}` is invalid for topo `{t}`: {e}"))?;
            }
        }
        let mut runs = Vec::with_capacity(total.min(1 << 20));
        for machine in &self.machines {
            for topo in &self.topos {
                for app in &self.apps {
                    for pattern in &self.patterns {
                        for &phases in &self.phases {
                            for &ops in &self.ops {
                                for &seed in &self.seeds {
                                    for mode in &self.modes {
                                        for &shards in &self.shards {
                                            for faults in &self.faults {
                                                for &fault_seed in &self.fault_seeds {
                                                    runs.push(RunConfig {
                                                        machine: machine.clone(),
                                                        topo: topo.clone(),
                                                        app: app.clone(),
                                                        pattern: pattern.clone(),
                                                        phases,
                                                        ops,
                                                        seed,
                                                        mode: mode.clone(),
                                                        shards,
                                                        faults: faults.clone(),
                                                        fault_seed,
                                                    });
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if let Some((n, sample_seed)) = self.sample {
            if n < runs.len() {
                runs = sample_preserving_order(runs, n, sample_seed);
            }
        }
        Ok(runs)
    }
}

fn parse_u64_list(items: &[String], key: &str) -> Result<Vec<u64>, String> {
    items
        .iter()
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("bad campaign {key} `{v}` (want an unsigned integer)"))
        })
        .collect()
}

fn dedup_preserving_order(items: Vec<String>) -> Vec<String> {
    let mut seen = std::collections::BTreeSet::new();
    items
        .into_iter()
        .filter(|i| seen.insert(i.clone()))
        .collect()
}

/// Draw `n` distinct elements with a seeded Fisher–Yates selection, then
/// restore expansion order — so a sampled campaign is still a stable,
/// resumable subset of the grid.
fn sample_preserving_order<T>(items: Vec<T>, n: usize, seed: u64) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..items.len()).collect();
    for i in 0..n {
        let j = i + rng.gen_range(0..(idx.len() - i) as u64) as usize;
        idx.swap(i, j);
    }
    let mut keep: Vec<usize> = idx[..n].to_vec();
    keep.sort_unstable();
    let mut keep_iter = keep.into_iter().peekable();
    items
        .into_iter()
        .enumerate()
        .filter(|(i, _)| {
            if keep_iter.peek() == Some(i) {
                keep_iter.next();
                true
            } else {
                false
            }
        })
        .map(|(_, x)| x)
        .collect()
}

/// Execute one run and fold its results into a [`CampaignRecord`]. The
/// configuration was validated at expansion time, so failures here are
/// simulator invariant violations, not user errors.
pub fn execute_run(cfg: &RunConfig) -> CampaignRecord {
    execute_run_opts(cfg, false)
}

/// [`execute_run`] with the attribution pass switchable: when enabled,
/// the run carries a bottleneck-attribution sink and the record's
/// [`AttrHeadline`] is filled in. The predicted results are identical
/// either way (the sink only observes).
pub fn execute_run_opts(cfg: &RunConfig, attribution: bool) -> CampaignRecord {
    execute_run_ckpt(cfg, attribution, None).expect("a checkpoint-free run performs no fallible IO")
}

/// One run's rolling-checkpoint plan: the snapshot lives at `path`,
/// refreshed every `every_ps` simulated picoseconds, deleted when the
/// run completes unless `keep` is set.
struct CkptPlan<'a> {
    path: &'a Path,
    every_ps: u64,
    keep: bool,
}

/// Load a run's rolling checkpoint if one is present and usable.
/// Anything unusable — a torn file, a schema or config-hash mismatch,
/// an attribution-less snapshot for an attribution campaign — is
/// reported to stderr, removed, and the run starts fresh: a checkpoint
/// is an optimisation, never a correctness requirement, and the restored
/// record is byte-identical to the from-scratch one either way.
fn load_usable_checkpoint(path: &Path, hash: &str, attribution: bool) -> Option<Snapshot> {
    if !path.is_file() {
        return None;
    }
    let discard = |why: String| {
        eprintln!(
            "campaign: ignoring checkpoint {}: {why} (restarting the run from scratch)",
            path.display()
        );
        std::fs::remove_file(path).ok();
        None
    };
    let snap = match Snapshot::read_file(path) {
        Ok(s) => s,
        Err(e) => return discard(e.to_string()),
    };
    if let Err(e) = snap.verify_config(hash) {
        return discard(e.to_string());
    }
    if attribution && snap.attribution.is_none() {
        return discard("it was captured without attribution, which this campaign records".into());
    }
    Some(snap)
}

/// Capture the simulation state of `cfg`'s run into `path` at cadence
/// `every_ps`, keeping the final snapshot instead of deleting it on
/// completion — exactly the file a `--checkpoint` campaign killed
/// between that run's last snapshot refresh and its completion would
/// leave behind. Test and rehearsal support for mid-run resume.
pub fn capture_run_checkpoint(
    cfg: &RunConfig,
    attribution: bool,
    every_ps: u64,
    path: &Path,
) -> Result<(), String> {
    if path.is_file() {
        std::fs::remove_file(path)
            .map_err(|e| format!("cannot remove stale checkpoint {}: {e}", path.display()))?;
    }
    execute_run_ckpt(
        cfg,
        attribution,
        Some(&CkptPlan {
            path,
            every_ps,
            keep: true,
        }),
    )?;
    if !path.is_file() {
        return Err(format!(
            "the run finished before {every_ps} ps — no checkpoint was captured \
             (use a shorter cadence)"
        ));
    }
    Ok(())
}

/// [`execute_run_opts`] with an optional rolling checkpoint: task-mode
/// runs resume from a usable snapshot at `plan.path` and refresh it at
/// the plan's cadence. Detailed-mode runs ignore the plan (the
/// computational model in front of the network is not snapshotted) and
/// simply re-execute from scratch on resume. Only checkpoint IO and
/// snapshot restoration can fail here.
fn execute_run_ckpt(
    cfg: &RunConfig,
    attribution: bool,
    ckpt: Option<&CkptPlan<'_>>,
) -> Result<CampaignRecord, String> {
    let topo = parse_topology(&cfg.topo).expect("validated at expansion");
    let machine = parse_machine(&cfg.machine, topo).expect("validated at expansion");
    let pattern = parse_pattern(&cfg.pattern).expect("validated at expansion");
    let nodes = topo.nodes();
    let mix = match cfg.app.as_str() {
        "integer" => InstructionMix::integer(),
        _ => InstructionMix::scientific(),
    };
    let app = StochasticApp {
        mix,
        phases: cfg.phases,
        ops_per_phase: SizeDist::Fixed(cfg.ops),
        pattern,
        ..StochasticApp::scientific(nodes)
    };
    let gen = StochasticGenerator::new(app, cfg.seed);
    let faults = if cfg.faults == "none" {
        None
    } else {
        let sched = FaultSchedule::parse(
            &cfg.faults.replace('+', ";"),
            cfg.fault_seed,
            RetryParams::default_for(&machine.network),
        )
        .expect("validated at expansion");
        Some(Arc::new(sched))
    };

    let probe = if attribution {
        ProbeHandle::new(ProbeStack::new().with_attribution())
    } else {
        ProbeHandle::disabled()
    };
    let (predicted, comm, ops_simulated) = match cfg.mode.as_str() {
        "detailed" => {
            let traces = gen.generate();
            let r = HybridSim::new(machine)
                .with_probe(probe.clone())
                .with_shards(cfg.shards)
                .with_faults(faults)
                .run(&traces);
            (r.predicted_time, r.comm, r.ops_simulated)
        }
        _ => {
            let traces = gen.generate_task_level();
            match ckpt {
                Some(plan) => {
                    let hash = cfg.config_hash();
                    let restored = load_usable_checkpoint(plan.path, &hash, attribution);
                    let write = |snap: &Snapshot| snap.write_file(plan.path);
                    let ck = CheckpointOpts {
                        every: Duration::from_ps(plan.every_ps),
                        config_hash: hash.clone(),
                        write: &write,
                    };
                    let (comm, _) = run_comm(
                        machine.network,
                        &traces,
                        probe.clone(),
                        cfg.shards,
                        faults,
                        restored.as_ref(),
                        Some(&ck),
                    )
                    .map_err(|e| format!("campaign run {hash}: {e}"))?;
                    if !plan.keep {
                        // The run completed; its rolling checkpoint is spent.
                        std::fs::remove_file(plan.path).ok();
                    }
                    (comm.finish, comm, traces.total_ops() as u64)
                }
                None => {
                    let r = TaskLevelSim::new(machine.network)
                        .with_probe(probe.clone())
                        .with_shards(cfg.shards)
                        .with_faults(faults)
                        .run(&traces);
                    (r.predicted_time, r.comm, r.ops_simulated)
                }
            }
        }
    };
    let attribution = probe.attribution_report(predicted.as_ps()).map(|r| {
        let (dominant, dominant_share_ppm, max_link_util_ppm) = r.headline();
        AttrHeadline {
            dominant: dominant.to_string(),
            dominant_share_ppm,
            max_link_util_ppm,
        }
    });

    let pct = |p: f64| comm.msg_latency.percentile(p).unwrap_or(0);
    Ok(CampaignRecord {
        config_hash: cfg.config_hash(),
        config: cfg.clone(),
        predicted_ps: predicted.as_ps(),
        all_done: comm.all_done,
        events: comm.events,
        ops_simulated,
        msgs_delivered: comm.total_messages,
        bytes_sent: comm.total_bytes,
        latency_p50_ps: pct(50.0),
        latency_p90_ps: pct(90.0),
        latency_p99_ps: pct(99.0),
        latency_max_ps: comm.msg_latency.max().unwrap_or(0),
        delivery: comm.delivery(),
        attribution,
    })
}

/// Load the records already present in a campaign's JSONL stream.
///
/// Tolerates exactly one kind of damage: a truncated *final* line with no
/// terminating newline — the footprint of a campaign killed mid-append.
/// Any other unparseable line is a hard error, because silently skipping
/// it would re-run (and double-record) work.
pub fn load_records(path: &Path) -> Result<Vec<CampaignRecord>, String> {
    let data = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let ends_clean = data.ends_with('\n');
    let lines: Vec<&str> = data.lines().collect();
    let mut records = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<CampaignRecord>(line) {
            Ok(r) => records.push(r),
            Err(_) if i + 1 == lines.len() && !ends_clean => {
                // Torn tail from a kill mid-write: the run it described
                // was never durably recorded, so it simply re-runs.
            }
            Err(e) => {
                return Err(format!(
                    "corrupt campaign record at {}:{}: {e:?}",
                    path.display(),
                    i + 1
                ));
            }
        }
    }
    Ok(records)
}

/// Options of one `mermaid campaign` invocation.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Output directory (holds [`RUNS_FILE`] and [`CSV_FILE`]).
    pub out_dir: PathBuf,
    /// Worker threads for the fan-out.
    pub jobs: usize,
    /// Stop after at most this many *new* runs (budgeted invocations;
    /// the campaign resumes from where it stopped next time).
    pub limit: Option<usize>,
    /// Echo per-run completion lines to stderr.
    pub progress: bool,
    /// Attach a bottleneck-attribution sink to every new run and record
    /// its [`AttrHeadline`]. Runs recorded without attribution keep their
    /// empty headline until re-run (records are resumed, not recomputed).
    pub attribution: bool,
    /// Mid-run checkpoint cadence in simulated picoseconds (`campaign
    /// --checkpoint <ps>`): every task-mode run keeps a rolling snapshot
    /// at `<out>/checkpoints/<config_hash>.snap`, refreshed at this
    /// cadence and deleted when the run completes. A killed campaign
    /// resumes unfinished runs from their snapshot — byte-identically to
    /// never having been killed. Detailed-mode runs re-execute from
    /// scratch (the computational model is not snapshotted). `None`
    /// disables mid-run checkpointing.
    pub checkpoint_every_ps: Option<u64>,
}

/// Directory holding a campaign's per-run rolling checkpoints.
pub fn checkpoints_dir(out_dir: &Path) -> PathBuf {
    out_dir.join("checkpoints")
}

/// The rolling-checkpoint file of one campaign run, keyed — like its
/// JSONL record — by the stable config hash.
pub fn checkpoint_path(out_dir: &Path, cfg: &RunConfig) -> PathBuf {
    checkpoints_dir(out_dir).join(format!("{}.snap", cfg.config_hash()))
}

/// Summary of a completed (or budget-limited) campaign invocation.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The rendered stdout report.
    pub report: String,
    /// Runs in the expanded spec.
    pub expanded: usize,
    /// Runs already recorded before this invocation.
    pub recorded_before: usize,
    /// Runs executed by this invocation.
    pub executed: usize,
    /// Runs still missing (only with a `limit`).
    pub pending: usize,
}

/// Run a campaign: expand, diff against the existing JSONL, execute the
/// gap with streaming appends, regenerate the CSV view, and render the
/// aggregated comparison report. Everything written and returned is
/// deterministic for a given spec — independent of `jobs`, of kill/resume
/// boundaries, and of completion order.
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> Result<CampaignOutcome, String> {
    let all = spec.expand()?;
    let expanded = all.len();
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    if opts.checkpoint_every_ps.is_some() {
        let dir = checkpoints_dir(&opts.out_dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let runs_path = opts.out_dir.join(RUNS_FILE);
    let csv_path = opts.out_dir.join(CSV_FILE);

    // Resume: whatever the stream already holds is done; first record
    // wins on (harmless) duplicate hashes.
    let mut by_hash: BTreeMap<String, CampaignRecord> = BTreeMap::new();
    for r in load_records(&runs_path)? {
        by_hash.entry(r.config_hash.clone()).or_insert(r);
    }
    // A torn tail (kill mid-append) was dropped by the load above; cut it
    // off the file too, or the next append would concatenate onto it and
    // manufacture a genuinely corrupt line.
    if let Ok(data) = std::fs::read(&runs_path) {
        if !data.is_empty() && data.last() != Some(&b'\n') {
            let keep = data.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&runs_path)
                .map_err(|e| format!("cannot open {}: {e}", runs_path.display()))?;
            f.set_len(keep as u64).map_err(|e| {
                format!("cannot truncate torn tail of {}: {e}", runs_path.display())
            })?;
        }
    }
    let wanted: std::collections::BTreeSet<String> = all.iter().map(|c| c.config_hash()).collect();
    let stale = by_hash.len() - by_hash.keys().filter(|h| wanted.contains(*h)).count();
    let recorded_before = by_hash.keys().filter(|h| wanted.contains(*h)).count();

    let mut todo: Vec<RunConfig> = all
        .iter()
        .filter(|c| !by_hash.contains_key(&c.config_hash()))
        .cloned()
        .collect();
    if let Some(limit) = opts.limit {
        todo.truncate(limit);
    }
    let executed = todo.len();

    // Stream: append one JSON line per completed run, fsync-free but
    // flushed, under a lock shared with the progress output.
    if !todo.is_empty() {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&runs_path)
            .map_err(|e| format!("cannot open {}: {e}", runs_path.display()))?;
        let sink = Mutex::new((file, 0usize, None::<String>));
        let total = todo.len();
        let progress = opts.progress;
        let attribution = opts.attribution;
        let ckpt_every = opts.checkpoint_every_ps;
        let out_dir = opts.out_dir.clone();
        let worker = move |cfg: &RunConfig| -> Result<CampaignRecord, String> {
            match ckpt_every {
                Some(every_ps) => {
                    let path = checkpoint_path(&out_dir, cfg);
                    execute_run_ckpt(
                        cfg,
                        attribution,
                        Some(&CkptPlan {
                            path: &path,
                            every_ps,
                            keep: false,
                        }),
                    )
                }
                None => Ok(execute_run_opts(cfg, attribution)),
            }
        };
        let new_records = sweep::parallel_sweep_streaming(todo, opts.jobs, worker, |_, rec| {
            let mut guard = sink.lock().unwrap();
            let (file, done, err) = &mut *guard;
            if err.is_some() {
                return;
            }
            let rec = match rec {
                Ok(r) => r,
                Err(e) => {
                    *err = Some(e.clone());
                    return;
                }
            };
            let line = match serde_json::to_string(rec) {
                Ok(l) => l,
                Err(e) => {
                    *err = Some(format!("cannot serialise campaign record: {e:?}"));
                    return;
                }
            };
            if let Err(e) = file
                .write_all(line.as_bytes())
                .and_then(|_| file.write_all(b"\n"))
                .and_then(|_| file.flush())
            {
                *err = Some(format!("cannot append to {}: {e}", runs_path.display()));
                return;
            }
            *done += 1;
            if progress {
                eprintln!(
                    "campaign: [{done}/{total}] {} {} {} -> {}",
                    rec.config.topo,
                    rec.config.pattern,
                    rec.config_hash,
                    Time::from_ps(rec.predicted_ps)
                );
            }
        });
        if let Some(e) = sink.into_inner().unwrap().2 {
            return Err(e);
        }
        for r in new_records.into_iter().flatten() {
            by_hash.entry(r.config_hash.clone()).or_insert(r);
        }
    }

    // The CSV view and the report cover the *current expansion* in
    // expansion order — stale records stay in the JSONL but are ignored.
    let ordered: Vec<&CampaignRecord> = all
        .iter()
        .filter_map(|c| by_hash.get(&c.config_hash()))
        .collect();
    let mut csv = CampaignRecord::csv_header();
    for r in &ordered {
        csv.push_str(&r.csv_row());
    }
    std::fs::write(&csv_path, &csv)
        .map_err(|e| format!("cannot write {}: {e}", csv_path.display()))?;

    let pending = expanded - ordered.len();
    let mut report = format!(
        "campaign: {expanded} run(s) expanded, {recorded_before} already recorded, \
         {executed} executed\n"
    );
    if stale > 0 {
        report.push_str(&format!(
            "          {stale} stale record(s) in {} not part of this spec (ignored)\n",
            RUNS_FILE
        ));
    }
    if pending > 0 {
        report.push_str(&format!(
            "          {pending} run(s) still pending (re-run without --limit to finish)\n"
        ));
    }
    report.push_str(&format!(
        "records:  {}\ncsv:      {}\n",
        runs_path.display(),
        csv_path.display()
    ));
    if !ordered.is_empty() {
        report.push('\n');
        report.push_str(&report::campaign_table(&ordered).render());
    }
    Ok(CampaignOutcome {
        report,
        expanded,
        recorded_before,
        executed,
        pending,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::parse(
            "topo = ring:4, mesh:2x2; pattern = ring, all2all; \
             phases = 1; ops = 300; machine = test",
        )
        .unwrap()
    }

    #[test]
    fn spec_parses_with_defaults_and_rejects_junk() {
        let s = tiny_spec();
        assert_eq!(s.topos, vec!["ring:4", "mesh:2x2"]);
        assert_eq!(s.patterns, vec!["ring", "all2all"]);
        assert_eq!(s.machines, vec!["test"]);
        assert_eq!(s.modes, vec!["task"]);
        assert_eq!(s.faults, vec!["none"]);
        assert_eq!(s.phases, vec![1]);

        for bad in [
            "",                               // no topo
            "pattern = ring",                 // no topo
            "topo = blob:3",                  // bad topology
            "topo = ring:4; topo = ring:8",   // duplicate key
            "topo = ring:4; frob = 1",        // unknown key
            "topo = ring:4; machine = vax",   // unknown machine
            "topo = ring:4; phases = 0",      // degenerate workload
            "topo = ring:4; ops = 0",         // degenerate workload
            "topo = ring:4; mode = direct",   // no comm stats to record
            "topo = ring:4; shards = auto",   // host-dependent hash
            "topo = ring:4; shards = 0",      // nonsense
            "topo = ring:4; faults = frob:1", // bad fault clause
            "topo = ring:4; sample = 0 @ 1",  // empty sample
            "topo = ring:4; sample = 5",      // missing seed
            "topo = ring:4; seed = x",        // bad number
            "topo = ring:4; pattern =",       // empty list
        ] {
            assert!(
                CampaignSpec::parse(bad).is_err(),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn expansion_is_the_cartesian_product_in_stable_order() {
        let runs = tiny_spec().expand().unwrap();
        assert_eq!(runs.len(), 4);
        // topo is outer, pattern inner (fixed dimension order).
        assert_eq!(
            runs.iter()
                .map(|r| format!("{} {}", r.topo, r.pattern))
                .collect::<Vec<_>>(),
            vec![
                "ring:4 ring",
                "ring:4 all2all",
                "mesh:2x2 ring",
                "mesh:2x2 all2all"
            ]
        );
        // Hashes are distinct and stable across re-expansion.
        let again = tiny_spec().expand().unwrap();
        assert_eq!(runs, again);
        let hashes: std::collections::BTreeSet<_> = runs.iter().map(|r| r.config_hash()).collect();
        assert_eq!(hashes.len(), runs.len());
    }

    #[test]
    fn config_hash_is_pinned() {
        // The persisted-log stability contract: this exact configuration
        // must hash to this exact value in every future release (or the
        // canonical prefix must be bumped — see DESIGN.md §13).
        let cfg = RunConfig {
            machine: "test".into(),
            topo: "ring:4".into(),
            app: "scientific".into(),
            pattern: "ring".into(),
            phases: 1,
            ops: 300,
            seed: 1,
            mode: "task".into(),
            shards: 1,
            faults: "none".into(),
            fault_seed: 1,
        };
        assert_eq!(
            cfg.canonical(),
            "campaign-v1 machine=test topo=ring:4 app=scientific pattern=ring phases=1 \
             ops=300 seed=1 mode=task shards=1 faults=none fault-seed=1"
        );
        assert_eq!(
            cfg.config_hash(),
            format!("{:016x}", fnv1a64(cfg.canonical().as_bytes()))
        );
        // Any field change changes the hash.
        let mut other = cfg.clone();
        other.seed = 2;
        assert_ne!(cfg.config_hash(), other.config_hash());
    }

    #[test]
    fn sampling_is_seeded_and_order_preserving() {
        let spec =
            CampaignSpec::parse("topo = ring:4; seed = 1,2,3,4,5,6,7,8; sample = 3 @ 9").unwrap();
        let a = spec.expand().unwrap();
        let b = spec.expand().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a, b, "same sample seed, same subset");
        // The subset preserves grid order (seeds ascending here).
        let seeds: Vec<u64> = a.iter().map(|r| r.seed).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        assert_eq!(seeds, sorted);
        // A different shuffle seed draws a different subset.
        let other = CampaignSpec::parse("topo = ring:4; seed = 1,2,3,4,5,6,7,8; sample = 3 @ 10")
            .unwrap()
            .expand()
            .unwrap();
        assert!(a != other || a.len() == 3); // overwhelmingly different; never panics
    }

    #[test]
    fn scripted_faults_must_name_links_of_every_topology() {
        let spec = CampaignSpec::parse("topo = ring:4, mesh:2x2; faults = link:0-3:1000").unwrap();
        // 0-3 is a ring:4 link but not a mesh:2x2 link.
        let err = spec.expand().unwrap_err();
        assert!(err.contains("mesh:2x2"), "{err}");
        // Rate-only faults combine with anything.
        let spec = CampaignSpec::parse("topo = ring:4, mesh:2x2; faults = drop:1000").unwrap();
        assert_eq!(spec.expand().unwrap().len(), 2);
    }

    #[test]
    fn records_serialise_to_one_json_line_and_back() {
        let rec = execute_run(&tiny_spec().expand().unwrap()[0]);
        let line = serde_json::to_string(&rec).unwrap();
        assert!(!line.contains('\n'));
        let back: CampaignRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, rec);
        assert!(rec.all_done);
        assert!(rec.predicted_ps > 0);
        assert_eq!(rec.config_hash, rec.config.config_hash());
    }

    #[test]
    fn attribution_headline_is_recorded_only_when_enabled() {
        let cfg = &tiny_spec().expand().unwrap()[0];
        let plain = execute_run(cfg);
        assert_eq!(plain.attribution, None);
        let attr = execute_run_opts(cfg, true);
        let h = attr.attribution.clone().expect("headline recorded");
        assert!(!h.dominant.is_empty());
        assert!(h.dominant_share_ppm <= 1_000_000);
        assert!(h.max_link_util_ppm > 0);
        // The attribution pass only observes — predictions are unchanged.
        assert_eq!(plain.predicted_ps, attr.predicted_ps);
        assert_eq!(plain.events, attr.events);
        assert_eq!(plain.msgs_delivered, attr.msgs_delivered);
        // The CSV row carries the headline columns; empty when absent.
        assert!(attr.csv_row().contains(&h.dominant));
        assert!(plain.csv_row().trim_end().ends_with(",,"));
        // And the record round-trips with the headline intact.
        let line = serde_json::to_string(&attr).unwrap();
        let back: CampaignRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, attr);
    }

    #[test]
    fn load_records_tolerates_only_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("mermaid-campaign-ut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        let rec = execute_run(&tiny_spec().expand().unwrap()[0]);
        let line = serde_json::to_string(&rec).unwrap();

        // A clean line plus a torn (no-newline) tail: the tail is dropped.
        std::fs::write(&path, format!("{line}\n{{\"config_hash\":\"tor")).unwrap();
        let loaded = load_records(&path).unwrap();
        assert_eq!(loaded, vec![rec.clone()]);

        // The same garbage *with* a newline is corruption, not a torn tail.
        std::fs::write(&path, format!("{line}\n{{\"config_hash\":\"tor\n")).unwrap();
        assert!(load_records(&path).is_err());

        // Corruption in the middle is always an error.
        std::fs::write(&path, format!("garbage\n{line}\n")).unwrap();
        assert!(load_records(&path).is_err());

        // A missing file is an empty campaign.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(load_records(&path).unwrap(), Vec::<CampaignRecord>::new());
        std::fs::remove_dir_all(&dir).ok();
    }
}
