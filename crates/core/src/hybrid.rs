//! The hybrid (detailed) simulation mode — Fig. 2 of the paper.
//!
//! Each node's instruction-level trace is simulated by the single-node
//! *computational model* (CPU + cache hierarchy + bus + DRAM), which
//! measures the simulated time between consecutive communication
//! operations and converts the runs into `compute` *tasks*. The resulting
//! task-level traces then drive the multi-node *communication model*,
//! which resolves message timing, contention, and blocking.
//!
//! Because Mermaid operations carry no data values, an application's
//! control flow never depends on message contents — it is fixed by the
//! trace generator (which resolves all loops and branches). The
//! computational phase of each node can therefore be simulated
//! node-by-node (open loop) without loss of validity — and, since no
//! node's model reads another's state, on all host cores at once
//! (`HybridSim::run` fans the nodes out through `pearl::par` with
//! bit-identical results); what *does* depend on the architecture — the
//! interleaving and timing of global events — is resolved afterwards by
//! the communication model. Trace *generation*
//! still uses physical-time interleaving (see `mermaid-tracegen`) so that
//! generating threads never run ahead of the simulator.

use std::sync::Arc;

use mermaid_cpu::{CpuStats, SingleNodeSim};
use mermaid_memory::{MemStats, MemSystemConfig};
use mermaid_network::{run_comm, CommResult, FaultSchedule, ShardProfile};
use mermaid_ops::{NodeId, Trace, TraceSet};
use mermaid_probe::{ProbeHandle, ProbeStack};
use mermaid_tracegen::InterleavedTraceGen;
use pearl::par::Delivery;
use pearl::{Duration, Time};

use crate::machines::MachineConfig;

/// Computational-model statistics of one node.
#[derive(Debug)]
pub struct NodeComputeStats {
    /// The node.
    pub node: NodeId,
    /// CPU statistics (operation mix, compute/memory split).
    pub cpu: CpuStats,
    /// Memory-system statistics (cache hits, bus, DRAM).
    pub mem: MemStats,
    /// Total task time extracted for this node.
    pub compute_total: Duration,
}

/// Result of a detailed (hybrid) simulation.
#[derive(Debug)]
pub struct HybridResult {
    /// Predicted execution time of the application on the target machine.
    pub predicted_time: Time,
    /// Per-node computational-model statistics.
    pub nodes: Vec<NodeComputeStats>,
    /// The intermediate task-level traces (inspectable/reusable).
    pub task_traces: TraceSet,
    /// Communication-model results.
    pub comm: CommResult,
    /// Instruction-level operations simulated (for slowdown accounting).
    pub ops_simulated: u64,
    /// Shard self-profile of a sharded communication phase (`None` when
    /// the run was serial). Host-wall-clock data, kept outside `comm` so
    /// determinism checks over the model results are unaffected.
    pub shard_profile: Option<ShardProfile>,
}

/// The hybrid simulator: detailed mode of the workbench.
pub struct HybridSim {
    machine: MachineConfig,
    probe: ProbeHandle,
    shards: usize,
    faults: Option<Arc<FaultSchedule>>,
}

impl HybridSim {
    /// Create a hybrid simulator for the given machine.
    pub fn new(machine: MachineConfig) -> Self {
        machine.validate();
        HybridSim {
            machine,
            probe: ProbeHandle::disabled(),
            shards: 1,
            faults: None,
        }
    }

    /// Attach an instrumentation handle: both halves of the hybrid run —
    /// the per-node computational models (cache/bus events) and the
    /// communication model (activations, messages, links, the engine) —
    /// record into it. Observation only; predicted times are unchanged.
    pub fn with_probe(mut self, probe: ProbeHandle) -> Self {
        self.probe = probe;
        self
    }

    /// Run the communication phase on `shards` worker threads (builder
    /// style). The computational phase is per-node and unaffected; sharded
    /// communication produces bit-identical results to the serial path.
    /// `1` (the default) keeps the single-threaded path.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Enable deterministic fault injection for the communication phase
    /// (builder style): scripted link/router faults plus seeded transient
    /// packet loss/corruption, with the ack/retry/backoff reliability
    /// protocol armed. The computational phase is unaffected; serial and
    /// sharded runs stay bit-identical under the same schedule.
    pub fn with_faults(mut self, faults: Option<Arc<FaultSchedule>>) -> Self {
        self.faults = faults;
        self
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Run the detailed simulation over instruction-level traces (one per
    /// node).
    ///
    /// The per-node computational models run on all host cores (see the
    /// module docs for why that is exact). A traced run gives each node a
    /// private event buffer and replays the buffers into the attached
    /// probe in node order, so the probe sees the same stream as a
    /// one-node-at-a-time run; in-order delivery keeps at most one buffer
    /// per worker alive, never the whole run's events.
    pub fn run(&self, traces: &TraceSet) -> HybridResult {
        assert_eq!(
            traces.nodes() as u32,
            self.machine.nodes(),
            "trace set has {} nodes, machine has {}",
            traces.nodes(),
            self.machine.nodes()
        );
        let cpu = self.machine.cpu;
        let single = self.single_node_config();
        let traced = self.probe.is_enabled();
        let extracted = pearl::par::map(
            traces.nodes(),
            pearl::par::auto_workers(),
            Delivery::InOrder,
            |i| {
                let trace = traces.trace(i as NodeId);
                let mut sim = SingleNodeSim::new(cpu, single.clone());
                let buffer = if traced {
                    ProbeHandle::new(ProbeStack::new().with_buffer())
                } else {
                    ProbeHandle::disabled()
                };
                sim.set_probe(trace.node, buffer.clone());
                let x = sim.extract_tasks(trace);
                let stats = NodeComputeStats {
                    node: trace.node,
                    cpu: x.cpu_stats,
                    mem: x.mem_stats,
                    compute_total: x.compute_total,
                };
                (
                    x.task_trace,
                    stats,
                    buffer.take_buffer().unwrap_or_default(),
                )
            },
            |_, (_, _, events)| {
                for ev in std::mem::take(events) {
                    self.probe.replay(&ev);
                }
            },
        );
        let (task_traces, nodes): (Vec<Trace>, Vec<NodeComputeStats>) =
            extracted.into_iter().map(|(t, s, _)| (t, s)).unzip();
        self.finish(task_traces, nodes, traces.total_ops() as u64)
    }

    /// Run the detailed simulation *execution-driven*: pull operations from
    /// a physical-time-interleaved trace generator (one thread per node),
    /// resuming each node's thread only after its global event has been
    /// recorded. Equivalent to generating the full traces first (control
    /// flow is value-independent) but with flat memory consumption.
    pub fn run_from_generator(&self, mut gen: InterleavedTraceGen) -> HybridResult {
        assert_eq!(
            gen.node_count() as u32,
            self.machine.nodes(),
            "generator has {} nodes, machine has {}",
            gen.node_count(),
            self.machine.nodes()
        );
        let single = self.single_node_config();
        let mut task_traces = Vec::new();
        let mut nodes = Vec::new();
        let mut ops_simulated = 0u64;
        for node in 0..self.machine.nodes() {
            // Stream the node's operations through the computational model.
            let mut sim = SingleNodeSim::new(self.machine.cpu, single.clone());
            sim.set_probe(node, self.probe.clone());
            let mut chunk = Trace::new(node);
            let mut task = Trace::new(node);
            let mut compute_total = Duration::ZERO;
            while let Some(op) = gen.next_op(node) {
                if op.is_global_event() {
                    ops_simulated += chunk.len() as u64 + 1;
                    let x = sim.extract_tasks(&chunk);
                    compute_total += x.compute_total;
                    task.ops.extend(x.task_trace.ops);
                    task.push(op);
                    chunk.ops.clear();
                    gen.resume(node);
                } else {
                    chunk.push(op);
                }
            }
            if !chunk.is_empty() {
                ops_simulated += chunk.len() as u64;
                let x = sim.extract_tasks(&chunk);
                compute_total += x.compute_total;
                task.ops.extend(x.task_trace.ops);
            }
            let x = sim.extract_tasks(&Trace::new(node));
            nodes.push(NodeComputeStats {
                node,
                cpu: x.cpu_stats,
                mem: x.mem_stats,
                compute_total,
            });
            task_traces.push(task);
        }
        self.finish(task_traces, nodes, ops_simulated)
    }

    /// Drive the communication model with the extracted task traces.
    fn finish(
        &self,
        task_traces: Vec<Trace>,
        nodes: Vec<NodeComputeStats>,
        ops_simulated: u64,
    ) -> HybridResult {
        let task_traces = TraceSet::from_traces(task_traces);
        let (comm, shard_profile) = run_comm(
            self.machine.network,
            &task_traces,
            self.probe.clone(),
            self.shards,
            self.faults.clone(),
            None,
            None,
        )
        .expect("a run without checkpoint options cannot fail");
        HybridResult {
            predicted_time: comm.finish,
            nodes,
            task_traces,
            comm,
            ops_simulated,
            shard_profile,
        }
    }

    /// The memory configuration of one node restricted to a single CPU
    /// (the computational model instance that backs task extraction).
    fn single_node_config(&self) -> MemSystemConfig {
        let mut cfg = self.machine.node_mem.clone();
        cfg.cpus = 1;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mermaid_network::Topology;
    use mermaid_ops::{ArithOp, DataType};
    use mermaid_tracegen::annotate::TargetLayout;
    use mermaid_tracegen::{CommPattern, SizeDist, StochasticApp, StochasticGenerator};

    fn machine(n: u32) -> MachineConfig {
        MachineConfig::test_machine(Topology::Ring(n))
    }

    fn stochastic_traces(n: u32, seed: u64) -> TraceSet {
        let app = StochasticApp {
            phases: 3,
            ops_per_phase: SizeDist::Fixed(300),
            pattern: CommPattern::NearestNeighborRing,
            ..StochasticApp::scientific(n)
        };
        StochasticGenerator::new(app, seed).generate()
    }

    #[test]
    fn hybrid_run_produces_consistent_results() {
        let traces = stochastic_traces(4, 1);
        let r = HybridSim::new(machine(4)).run(&traces);
        assert!(r.comm.all_done, "deadlocked: {:?}", r.comm.deadlocked);
        assert!(r.predicted_time > Time::ZERO);
        assert_eq!(r.nodes.len(), 4);
        assert_eq!(r.ops_simulated, traces.total_ops() as u64);
        // Every node's predicted time ≥ its pure compute time.
        for n in &r.nodes {
            assert!(r.predicted_time >= Time::ZERO + n.compute_total);
        }
        // Task traces carry only task-level operations.
        for t in r.task_traces.iter() {
            assert!(t.iter().all(|o| !o.is_computational()));
        }
    }

    #[test]
    fn hybrid_is_deterministic() {
        let traces = stochastic_traces(4, 2);
        let a = HybridSim::new(machine(4)).run(&traces);
        let b = HybridSim::new(machine(4)).run(&traces);
        assert_eq!(a.predicted_time, b.predicted_time);
        assert_eq!(a.task_traces, b.task_traces);
    }

    #[test]
    fn slower_cpu_predicts_longer_time() {
        let traces = stochastic_traces(2, 3);
        let fast = HybridSim::new(machine(2)).run(&traces);
        let mut slow_machine = machine(2);
        slow_machine.cpu.clock = pearl::Frequency::from_mhz(10);
        let slow = HybridSim::new(slow_machine).run(&traces);
        assert!(slow.predicted_time > fast.predicted_time);
    }

    #[test]
    fn slower_network_predicts_longer_time() {
        let traces = stochastic_traces(2, 4);
        let fast = HybridSim::new(machine(2)).run(&traces);
        let mut slow_machine = machine(2);
        slow_machine.network.link.bandwidth_bytes_per_sec = 1_000_000;
        let slow = HybridSim::new(slow_machine).run(&traces);
        assert!(slow.predicted_time > fast.predicted_time);
    }

    #[test]
    fn generator_driven_run_matches_batch_run() {
        // The same instrumented program via batch traces and via the
        // threaded generator must predict the same time.
        let n = 4u32;
        let program = move |ctx: &mut mermaid_tracegen::NodeCtx| {
            use mermaid_tracegen::annotate::Annotator;
            let me = ctx.node();
            let x = ctx.local("x", DataType::F64, 1);
            for _ in 0..50 {
                ctx.load(x);
                ctx.arith(ArithOp::Mul, DataType::F64);
                ctx.store(x);
            }
            ctx.asend(256, (me + 1) % n);
            ctx.recv((me + n - 1) % n);
        };
        let batch_traces =
            InterleavedTraceGen::spawn(n, TargetLayout::default(), program).collect_all();
        let batch = HybridSim::new(machine(n)).run(&batch_traces);

        let gen = InterleavedTraceGen::spawn(n, TargetLayout::default(), program);
        let streamed = HybridSim::new(machine(n)).run_from_generator(gen);

        assert_eq!(batch.predicted_time, streamed.predicted_time);
        assert_eq!(batch.task_traces, streamed.task_traces);
        assert_eq!(batch.ops_simulated, streamed.ops_simulated);
    }

    #[test]
    fn probed_hybrid_run_is_bit_identical_to_untraced() {
        use mermaid_probe::{ProbeHandle, ProbeStack};
        let traces = stochastic_traces(4, 7);
        let plain = HybridSim::new(machine(4)).run(&traces);
        let probe = ProbeHandle::new(ProbeStack::new().with_metrics().with_chrome());
        let probed = HybridSim::new(machine(4))
            .with_probe(probe.clone())
            .run(&traces);
        assert_eq!(plain.predicted_time, probed.predicted_time);
        assert_eq!(plain.task_traces, probed.task_traces);
        assert_eq!(plain.comm.total_messages, probed.comm.total_messages);
        // Both halves fed the probe: cache events from the computational
        // models and engine/message events from the communication model.
        let report = probe.metrics_report(probed.predicted_time.as_ps()).unwrap();
        let text = report.render();
        assert!(text.contains("engine/deliveries"), "{text}");
        assert!(text.contains("mem0/"), "{text}");
    }

    /// The detailed run done by hand, one node after another: each node's
    /// computational model records straight into `probe`, then the task
    /// traces drive the communication model.
    fn serial_reference(
        m: &MachineConfig,
        traces: &TraceSet,
        probe: ProbeHandle,
    ) -> (TraceSet, Vec<NodeComputeStats>, Time) {
        let mut single = m.node_mem.clone();
        single.cpus = 1;
        let mut tasks = Vec::new();
        let mut stats = Vec::new();
        for t in traces.iter() {
            let mut sim = SingleNodeSim::new(m.cpu, single.clone());
            sim.set_probe(t.node, probe.clone());
            let x = sim.extract_tasks(t);
            tasks.push(x.task_trace);
            stats.push(NodeComputeStats {
                node: t.node,
                cpu: x.cpu_stats,
                mem: x.mem_stats,
                compute_total: x.compute_total,
            });
        }
        let tasks = TraceSet::from_traces(tasks);
        let finish = crate::TaskLevelSim::new(m.network)
            .with_probe(probe)
            .run(&tasks)
            .predicted_time;
        (tasks, stats, finish)
    }

    fn e1_like(seed: u64) -> (MachineConfig, TraceSet) {
        let topo = Topology::Mesh2D { w: 4, h: 4 };
        let app = StochasticApp {
            phases: 2,
            ops_per_phase: SizeDist::Uniform(200, 600),
            pattern: CommPattern::AllToAll,
            ..StochasticApp::scientific(16)
        };
        let traces = StochasticGenerator::new(app, seed).generate();
        (MachineConfig::t805_multicomputer(topo), traces)
    }

    #[test]
    fn parallel_extraction_matches_the_serial_node_loop() {
        for seed in [1, 9] {
            let (m, traces) = e1_like(seed);
            let (tasks, stats, finish) = serial_reference(&m, &traces, ProbeHandle::disabled());
            let r = HybridSim::new(m).run(&traces);
            assert_eq!(r.task_traces, tasks);
            assert_eq!(r.predicted_time, finish);
            assert_eq!(format!("{:?}", r.nodes), format!("{stats:?}"));
        }
    }

    #[test]
    fn traced_parallel_extraction_replays_the_serial_probe_stream() {
        let sinks = || ProbeHandle::new(ProbeStack::new().with_jsonl().with_metrics());
        let (m, traces) = e1_like(4);
        let reference = sinks();
        let (_, _, finish) = serial_reference(&m, &traces, reference.clone());
        let probe = sinks();
        let r = HybridSim::new(m).with_probe(probe.clone()).run(&traces);
        assert_eq!(r.predicted_time, finish);
        let (want, got) = (reference.jsonl_output(), probe.jsonl_output());
        assert!(want.as_ref().is_some_and(|j| j.contains("cache_access")));
        assert!(want == got, "JSONL streams differ");
        let render = |p: &ProbeHandle| p.metrics_report(finish.as_ps()).unwrap().render();
        assert_eq!(render(&probe), render(&reference));
    }

    #[test]
    #[should_panic(expected = "trace set has")]
    fn node_count_mismatch_is_rejected() {
        let traces = stochastic_traces(3, 5);
        HybridSim::new(machine(4)).run(&traces);
    }

    #[test]
    fn t805_machine_runs_end_to_end() {
        let traces = stochastic_traces(4, 6);
        let m = MachineConfig::t805_multicomputer(Topology::Ring(4));
        let r = HybridSim::new(m).run(&traces);
        assert!(r.comm.all_done);
        // The transputer at 30 MHz doing thousands of float ops plus
        // software-routed messaging: predicted time must be substantial
        // (≥ 100 µs).
        assert!(
            r.predicted_time >= Time::from_us(100),
            "{}",
            r.predicted_time
        );
    }
}
