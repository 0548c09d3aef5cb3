//! The three named workloads: how each one's inputs are generated from the
//! seed, the simulator call that end-to-end mode times, the outside-in
//! layer split that traced mode times, and the checks on every output.
//!
//! See `perfbench/README.md` for why each workload exists and which layer
//! it stresses.

use std::fmt::{self, Write};
use std::sync::Arc;

use mermaid::prelude::*;
use mermaid::NodeComputeStats;
use mermaid_network::{CommResult, FaultSchedule, RetryParams};
use mermaid_ops::TraceSet;
use mermaid_probe::{ProbeHandle, ProbeStack};

/// The seed whose output digests are pinned in [`pinned_digest`]. Every
/// other seed is a held-out seed: it passes every check except the pin.
pub const DEFAULT_SEED: u64 = 7;

/// Fault schedule of `torus16_faulty_attr` (simulated nanoseconds, the
/// `mermaid-cli sim --faults` grammar): three link cuts that heal, a router
/// crash with recovery, and 0.1 % packet loss. The run lasts ~2.7 ms of
/// simulated time; at seed 7 this gives ~13.7 k retries, ~2.5 k drops and
/// 52 give-ups.
const FAULT_SPEC: &str = "link:17-18:20000:220000; link:100-116:50000:250000; \
                          link:200-201:0:400000; router:136:100000:700000; drop:1000";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TorusA2aSerial,
    HybridE1,
    Torus16FaultyAttr,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TorusA2aSerial,
        Workload::HybridE1,
        Workload::Torus16FaultyAttr,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TorusA2aSerial => "torus_a2a_serial",
            Workload::HybridE1 => "hybrid_e1",
            Workload::Torus16FaultyAttr => "torus16_faulty_attr",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Output digest of each workload at [`DEFAULT_SEED`]. A host-only change
/// (anything that does not change the model) must leave these identical.
pub fn pinned_digest(w: Workload) -> u64 {
    match w {
        Workload::TorusA2aSerial => 0xd6b7_99ae_c546_f7f8,
        Workload::HybridE1 => 0xd58a_06cc_7ffc_53a1,
        Workload::Torus16FaultyAttr => 0xaa96_3935_51a4_8e5e,
    }
}

/// A workload's generated inputs: everything the simulator call needs.
pub struct Inputs {
    pub traces: TraceSet,
    pub machine: MachineConfig,
    pub faults: Option<Arc<FaultSchedule>>,
}

fn a2a_app() -> StochasticApp {
    StochasticApp {
        phases: 12,
        pattern: CommPattern::AllToAll,
        msg_bytes: SizeDist::Fixed(4096),
        // 200 ns tasks, jittered by ±10 ns so that the seed moves the
        // inputs (a fixed duration would make every seed identical).
        task_ps: SizeDist::Uniform(190_000, 210_000),
        ..StochasticApp::scientific(64)
    }
}

fn e1_app() -> StochasticApp {
    StochasticApp {
        phases: 4,
        ops_per_phase: SizeDist::Fixed(20_000),
        pattern: CommPattern::AllToAll,
        msg_bytes: SizeDist::Fixed(4096),
        ..StochasticApp::scientific(16)
    }
}

fn faulty_app() -> StochasticApp {
    StochasticApp {
        phases: 40,
        pattern: CommPattern::RandomPermutation,
        ..StochasticApp::scientific(256)
    }
}

/// Run the trace generator of `w` — the `tracegen` layer.
pub fn generate(w: Workload, seed: u64) -> TraceSet {
    match w {
        Workload::TorusA2aSerial => StochasticGenerator::new(a2a_app(), seed).generate_task_level(),
        Workload::HybridE1 => StochasticGenerator::new(e1_app(), seed).generate(),
        // The traffic is fixed and the seed drives the fault schedule's
        // loss draws (see `with_traces`). With seeded traffic, which
        // messages meet the faults, and so the give-ups and receive
        // time-outs that set the predicted time, changed so much that the
        // predicted time spread 3.5–7.4 ms over ten seeds (quartile spread
        // 17 %); with seeded loss draws alone it spreads 2 %.
        Workload::Torus16FaultyAttr => {
            StochasticGenerator::new(faulty_app(), DEFAULT_SEED).generate_task_level()
        }
    }
}

/// Set-up of one run: trace generation plus the machine and fault schedule
/// the simulator is constructed from.
pub fn setup(w: Workload, seed: u64) -> Inputs {
    with_traces(w, seed, generate(w, seed))
}

/// The inputs of `w` around already generated `traces`.
pub fn with_traces(w: Workload, seed: u64, traces: TraceSet) -> Inputs {
    let machine = match w {
        Workload::TorusA2aSerial => MachineConfig::test_machine(Topology::Torus2D { w: 8, h: 8 }),
        Workload::HybridE1 => MachineConfig::t805_multicomputer(Topology::Mesh2D { w: 4, h: 4 }),
        Workload::Torus16FaultyAttr => {
            MachineConfig::test_machine(Topology::Torus2D { w: 16, h: 16 })
        }
    };
    let faults = (w == Workload::Torus16FaultyAttr).then(|| {
        let net = &machine.network;
        let sched = FaultSchedule::parse(FAULT_SPEC, seed, RetryParams::default_for(net))
            .expect("the built-in fault spec parses");
        sched
            .try_validate(&net.topology)
            .expect("the built-in fault spec fits the 16x16 torus");
        Arc::new(sched)
    });
    Inputs {
        traces,
        machine,
        faults,
    }
}

/// A constructed simulator, ready for its timed call.
pub enum Sim {
    Task(TaskLevelSim, ProbeHandle),
    Hybrid(Box<HybridSim>),
}

/// Construct the simulator of the end-to-end call. `torus16_faulty_attr`
/// carries a fresh attribution-only probe stack, as `sim --attribution`
/// does; every other workload runs untraced.
pub fn construct(w: Workload, inp: &Inputs) -> Sim {
    match w {
        Workload::HybridE1 => Sim::Hybrid(Box::new(HybridSim::new(inp.machine.clone()))),
        _ => {
            let probe = if w == Workload::Torus16FaultyAttr {
                ProbeHandle::new(ProbeStack::new().with_attribution())
            } else {
                ProbeHandle::disabled()
            };
            let sim = TaskLevelSim::new(inp.machine.network)
                .with_faults(inp.faults.clone())
                .with_probe(probe.clone());
            Sim::Task(sim, probe)
        }
    }
}

/// Everything a simulator call produced that the checks look at.
pub struct Outcome {
    pub predicted_ps: u64,
    pub comm: CommResult,
    /// Per-node computational-model statistics (`hybrid_e1` only).
    pub nodes: Vec<NodeComputeStats>,
    /// Task-level traces the computational model extracted (`hybrid_e1`).
    pub task_traces: Option<TraceSet>,
    /// `attribution.json` of the run (`torus16_faulty_attr` only).
    pub attribution: Option<String>,
}

/// The timed simulator call. Only this function runs inside `wall_s`.
pub fn call(sim: &Sim, traces: &TraceSet) -> Outcome {
    match sim {
        Sim::Task(sim, probe) => {
            let r = std::hint::black_box(sim.run(std::hint::black_box(traces)));
            Outcome {
                predicted_ps: r.predicted_time.as_ps(),
                attribution: probe
                    .attribution_report(r.predicted_time.as_ps())
                    .map(|a| a.to_json()),
                comm: r.comm,
                nodes: Vec::new(),
                task_traces: None,
            }
        }
        Sim::Hybrid(sim) => {
            let r = std::hint::black_box(sim.run(std::hint::black_box(traces)));
            Outcome {
                predicted_ps: r.predicted_time.as_ps(),
                comm: r.comm,
                nodes: r.nodes,
                task_traces: Some(r.task_traces),
                attribution: None,
            }
        }
    }
}

/// FNV-1a 64 over bytes, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 as a `fmt::Write` sink: `Debug` renderings are hashed as they
/// are written, never held in memory (a `CommResult`'s is large, and
/// building it every call would move the peak RSS the benchmark reports).
struct Fnv(u64);

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of the communication model's simulated statistics: predicted
/// time, events, messages, bytes, retries, failures, drops, receive
/// time-outs, the latency histogram and every per-node statistic (the
/// `Debug` rendering of `CommResult` carries all of them).
pub fn comm_digest(comm: &CommResult) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    write!(
        h,
        "finish={} events={} msgs={} bytes={} retries={} failed={} dropped={} timeouts={} lat={:?}{comm:?}",
        comm.finish.as_ps(),
        comm.events,
        comm.total_messages,
        comm.total_bytes,
        comm.total_retries,
        comm.msgs_failed,
        comm.total_dropped,
        comm.recv_timeouts,
        comm.msg_latency,
    )
    .expect("hashing never fails");
    h.0
}

/// Digest of every simulated result of a call: the communication model,
/// the computational model's per-node statistics and the attribution file.
pub fn digest(o: &Outcome) -> u64 {
    let mut h = Fnv(fnv1a(comm_digest(&o.comm), &o.predicted_ps.to_le_bytes()));
    for n in &o.nodes {
        write!(h, "{n:?}").expect("hashing never fails");
    }
    if let Some(a) = &o.attribution {
        h.0 = fnv1a(h.0, a.as_bytes());
    }
    h.0
}

/// Messages the traces send (each must be delivered or given up on).
pub fn sends(traces: &TraceSet) -> u64 {
    traces
        .iter()
        .flat_map(|t| t.iter())
        .filter(|op| matches!(op, Operation::ASend { .. } | Operation::Send { .. }))
        .count() as u64
}

/// Workload-specific checks of one call's output against the run's
/// reference digest and, at [`DEFAULT_SEED`], the pinned digest. Returns
/// the failed checks (empty when correct).
pub fn check(w: Workload, seed: u64, inp: &Inputs, o: &Outcome, reference: u64) -> Vec<String> {
    let mut bad = Vec::new();
    let d = digest(o);
    if d != reference {
        bad.push(format!(
            "digest {d:016x} differs from the run's reference {reference:016x}"
        ));
    }
    if seed == DEFAULT_SEED && d != pinned_digest(w) {
        bad.push(format!(
            "digest {d:016x} differs from the pinned {:016x} of seed {DEFAULT_SEED}",
            pinned_digest(w)
        ));
    }
    if !o.comm.deadlocked.is_empty() {
        bad.push(format!("{} node(s) deadlocked", o.comm.deadlocked.len()));
    }
    let expected = sends(&inp.traces);
    match w {
        Workload::Torus16FaultyAttr => {
            let del = o.comm.delivery();
            if !del.conserved() {
                bad.push(format!(
                    "conservation broken: tracked {} != acked {} + failed {}",
                    del.tracked, del.acked, del.failed
                ));
            }
            if del.tracked != expected {
                bad.push(format!(
                    "{} tracked messages, traces send {expected}",
                    del.tracked
                ));
            }
            if o.attribution.is_none() {
                bad.push("no attribution report".into());
            }
        }
        _ => {
            if !o.comm.all_done {
                bad.push("not every node finished".into());
            }
            if o.comm.total_messages != expected {
                bad.push(format!(
                    "{} messages delivered, traces send {expected}",
                    o.comm.total_messages
                ));
            }
        }
    }
    if w == Workload::HybridE1 {
        match &o.task_traces {
            Some(tt) => {
                let replay = TaskLevelSim::new(inp.machine.network).run(tt);
                if replay.predicted_time.as_ps() != o.predicted_ps {
                    bad.push(format!(
                        "task replay predicts {} ps, the hybrid run {} ps",
                        replay.predicted_time.as_ps(),
                        o.predicted_ps
                    ));
                }
            }
            None => bad.push("no task traces".into()),
        }
    }
    bad
}
