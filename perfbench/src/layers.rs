//! Traced mode: the outside-in per-layer split. Each traced iteration
//! re-runs a workload as separate calls into each layer's public
//! functions and times them from here; nothing is traced inside the
//! program. Every layer's output is checked against the untraced call's
//! reference digest, so the split is known to compute the same result.

use std::time::Instant;

use mermaid::prelude::*;
use mermaid::NodeComputeStats;
use mermaid_network::{CommResult, ShardProfile};
use mermaid_probe::{ProbeHandle, ProbeStack};

use crate::workloads::{self, Outcome, Workload};

/// Shard count of the sharded call on `torus_a2a_serial`'s traces.
const SPLIT_SHARDS: usize = 2;

/// Host seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One traced iteration's measurements. Layers a workload does not
/// exercise stay zero.
#[derive(Default)]
pub struct LayerSample {
    /// `tracegen`: host seconds in `StochasticGenerator::generate*`.
    pub gen_s: f64,
    /// Operations the generator produced.
    pub ops: u64,
    /// `cpu`: host seconds in `SingleNodeSim::new` + `extract_tasks`,
    /// summed over nodes.
    pub extract_s: f64,
    /// `memory`: L1 (I+D) misses, L2 misses, bus transactions and DRAM
    /// reads, summed over nodes.
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub bus_transactions: u64,
    pub dram_reads: u64,
    /// `pearl` + `network`: host seconds in one untraced serial
    /// `TaskLevelSim::run` over the task-level traces.
    pub comm_s: f64,
    /// Counts of that serial run.
    pub comm: Option<CommResult>,
    /// `network::sharded` + `pearl::shard`: host seconds of the sharded
    /// call and its self-profile.
    pub sharded_s: f64,
    pub profile: Option<ShardProfile>,
    /// `probe`: host seconds of a `with_buffer()` run, buffered events,
    /// and host seconds replaying them into an attribution-only stack.
    pub buffered_s: f64,
    pub probe_events: u64,
    pub fold_s: f64,
    /// Host seconds of the whole traced iteration.
    pub traced_total_s: f64,
    /// Failed checks.
    pub failures: Vec<String>,
}

/// Run one traced iteration of `w`; its layers together must reproduce
/// `reference`, the untraced call's digest.
pub fn traced_iteration(w: Workload, seed: u64, reference: u64) -> LayerSample {
    let mut s = LayerSample::default();
    let start = Instant::now();

    let t = Instant::now();
    let traces = workloads::generate(w, seed);
    s.gen_s = secs(t);
    s.ops = traces.total_ops() as u64;
    let inp = workloads::with_traces(w, seed, traces);

    // The computational model, node by node, as `HybridSim::run` does it.
    let mut nodes = Vec::new();
    let task_traces = if w == Workload::HybridE1 {
        let mut single = inp.machine.node_mem.clone();
        single.cpus = 1;
        let mut tasks = Vec::with_capacity(inp.traces.nodes());
        for trace in inp.traces.iter() {
            let t = Instant::now();
            let mut sim = SingleNodeSim::new(inp.machine.cpu, single.clone());
            let x = std::hint::black_box(sim.extract_tasks(trace));
            s.extract_s += secs(t);
            let m = &x.mem_stats;
            s.l1_misses += m.l1i.iter().chain(&m.l1d).map(|c| c.misses).sum::<u64>();
            s.l2_misses += m.l2.iter().map(|c| c.misses).sum::<u64>();
            s.bus_transactions += m.bus_transactions;
            s.dram_reads += m.dram_reads;
            nodes.push(NodeComputeStats {
                node: trace.node,
                cpu: x.cpu_stats,
                mem: x.mem_stats,
                compute_total: x.compute_total,
            });
            tasks.push(x.task_trace);
        }
        TraceSet::from_traces(tasks)
    } else {
        inp.traces.clone()
    };

    // The communication model, serial and untraced.
    let sim = TaskLevelSim::new(inp.machine.network).with_faults(inp.faults.clone());
    let t = Instant::now();
    let r = std::hint::black_box(sim.run(std::hint::black_box(&task_traces)));
    s.comm_s = secs(t);
    let comm_digest = workloads::comm_digest(&r.comm);
    let predicted_ps = r.predicted_time.as_ps();

    // The shard protocol on the same traces. Its wall time spreads too
    // widely on a shared host to carry an end-to-end bound, so it is a
    // layer of the serial all-to-all workload rather than a workload.
    if w == Workload::TorusA2aSerial {
        let sim = TaskLevelSim::new(inp.machine.network)
            .with_shards(SPLIT_SHARDS)
            .with_faults(inp.faults.clone());
        let t = Instant::now();
        let sh = std::hint::black_box(sim.run(std::hint::black_box(&task_traces)));
        s.sharded_s = secs(t);
        if workloads::comm_digest(&sh.comm) != comm_digest {
            s.failures
                .push("sharded result differs from the serial result".into());
        }
        s.profile = sh.shard_profile;
    }

    // The probe layer: emit into a buffer, then fold into attribution.
    let mut attribution = None;
    if w == Workload::Torus16FaultyAttr {
        let buffered = ProbeHandle::new(ProbeStack::new().with_buffer());
        let sim = TaskLevelSim::new(inp.machine.network)
            .with_faults(inp.faults.clone())
            .with_probe(buffered.clone());
        let t = Instant::now();
        let b = std::hint::black_box(sim.run(std::hint::black_box(&task_traces)));
        s.buffered_s = secs(t);
        if workloads::comm_digest(&b.comm) != comm_digest {
            s.failures
                .push("buffered result differs from the untraced result".into());
        }
        let events = buffered.take_buffer().expect("the stack has a buffer");
        s.probe_events = events.len() as u64;
        let attr = ProbeHandle::new(ProbeStack::new().with_attribution());
        let t = Instant::now();
        for ev in &events {
            attr.replay(ev);
        }
        s.fold_s = secs(t);
        drop(events);
        attribution = attr.attribution_report(predicted_ps).map(|a| a.to_json());
    }

    let outcome = Outcome {
        predicted_ps,
        comm: r.comm,
        nodes,
        task_traces: None,
        attribution,
    };
    if workloads::digest(&outcome) != reference {
        s.failures
            .push("layer-by-layer result differs from the untraced call".into());
    }
    s.comm = Some(outcome.comm);
    s.traced_total_s = secs(start);
    s
}
