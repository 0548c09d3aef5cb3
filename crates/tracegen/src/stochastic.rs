//! The stochastic trace generator.
//!
//! "The stochastic generator uses a probabilistic application description
//! to produce realistic synthetic traces of operations. This technique
//! represents the behaviour of (a class of) applications with modest
//! accuracy, which can be useful when fast-prototyping new architectures.
//! Moreover, it offers the flexibility to adjust the application loads
//! easily." (paper, Section 3)
//!
//! An application is described as a number of *phases*; each phase is a
//! block of computation followed by a communication step drawn from a
//! [`CommPattern`]. Computation can be generated at the abstract-
//! instruction level (for the computational model) or directly at task
//! level (for fast prototyping with the communication model only —
//! Fig. 4's stochastic/task-level quadrant).

use mermaid_ops::{Address, ArithOp, DataType, NodeId, Operation, Trace, TraceSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Relative weights of the computational operation classes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstructionMix {
    /// Memory loads.
    pub load: f64,
    /// Memory stores.
    pub store: f64,
    /// Constant loads.
    pub load_const: f64,
    /// Integer add/sub.
    pub int_alu: f64,
    /// Integer multiply/divide.
    pub int_muldiv: f64,
    /// Floating add/sub.
    pub flt_alu: f64,
    /// Floating multiply/divide.
    pub flt_muldiv: f64,
    /// Branches.
    pub branch: f64,
}

impl InstructionMix {
    /// A mix resembling integer-dominated codes (compilers, sorting).
    pub fn integer() -> Self {
        InstructionMix {
            load: 0.26,
            store: 0.12,
            load_const: 0.06,
            int_alu: 0.38,
            int_muldiv: 0.02,
            flt_alu: 0.0,
            flt_muldiv: 0.0,
            branch: 0.16,
        }
    }

    /// A mix resembling dense numerical kernels (the scientific codes the
    /// paper's multicomputers ran).
    pub fn scientific() -> Self {
        InstructionMix {
            load: 0.30,
            store: 0.12,
            load_const: 0.03,
            int_alu: 0.15,
            int_muldiv: 0.01,
            flt_alu: 0.20,
            flt_muldiv: 0.13,
            branch: 0.06,
        }
    }

    fn total(&self) -> f64 {
        self.load
            + self.store
            + self.load_const
            + self.int_alu
            + self.int_muldiv
            + self.flt_alu
            + self.flt_muldiv
            + self.branch
    }

    /// Validate that at least one class has weight.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// [`validate`](Self::validate) as a `Result`: the error names the
    /// first problem found.
    fn try_validate(&self) -> Result<(), String> {
        let weights = [
            self.load,
            self.store,
            self.load_const,
            self.int_alu,
            self.int_muldiv,
            self.flt_alu,
            self.flt_muldiv,
            self.branch,
        ];
        let total = self.total();
        if total.is_nan() || total <= 0.0 {
            return Err("instruction mix has zero total weight".to_string());
        }
        if weights.iter().any(|&w| w < 0.0) {
            return Err("negative weight in instruction mix".to_string());
        }
        Ok(())
    }
}

/// A distribution over sizes/durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SizeDist {
    /// Always the same value.
    Fixed(u64),
    /// Uniform over `[lo, hi]`.
    Uniform(u64, u64),
    /// `small` with probability `1 - large_permille/1000`, else `large` —
    /// the bimodal short-control/long-data message pattern.
    Bimodal {
        /// The common (small) value.
        small: u64,
        /// The rare (large) value.
        large: u64,
        /// Probability of `large`, in permille.
        large_permille: u32,
    },
}

impl SizeDist {
    /// Draw a sample.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            SizeDist::Fixed(v) => v,
            SizeDist::Uniform(lo, hi) => {
                assert!(lo <= hi, "uniform bounds reversed");
                rng.gen_range(lo..=hi)
            }
            SizeDist::Bimodal {
                small,
                large,
                large_permille,
            } => {
                if rng.gen_range(0..1000u32) < large_permille {
                    large
                } else {
                    small
                }
            }
        }
    }

    /// The mean of the distribution.
    pub fn mean(&self) -> f64 {
        match *self {
            SizeDist::Fixed(v) => v as f64,
            SizeDist::Uniform(lo, hi) => (lo + hi) as f64 / 2.0,
            SizeDist::Bimodal {
                small,
                large,
                large_permille,
            } => {
                let p = large_permille as f64 / 1000.0;
                small as f64 * (1.0 - p) + large as f64 * p
            }
        }
    }
}

/// The communication step executed at the end of each phase. All patterns
/// generate *balanced* traces: every send has a matching receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommPattern {
    /// No communication (embarrassingly parallel).
    None,
    /// Each node asynchronously sends to its right ring neighbour and
    /// receives from its left.
    NearestNeighborRing,
    /// Every node sends to every other node, then receives from all.
    AllToAll,
    /// Node 0 scatters to all workers and gathers their replies.
    MasterWorker,
    /// A random permutation (derangement-ish) pairing per phase.
    RandomPermutation,
    /// Butterfly exchange: in phase `p`, partner = node XOR 2^(p mod log2 n).
    /// Requires a power-of-two node count.
    Butterfly,
}

/// A probabilistic application description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StochasticApp {
    /// Number of nodes (processors).
    pub nodes: u32,
    /// Number of compute+communicate phases.
    pub phases: u32,
    /// Computational operations per phase (instruction-level mode) —
    /// *excluding* the implicit `ifetch` before each operation.
    pub ops_per_phase: SizeDist,
    /// Instruction mix of the computation.
    pub mix: InstructionMix,
    /// Data working-set size per node, bytes (addresses stay inside it).
    pub working_set: u64,
    /// Probability (permille) that a data access is sequential to the
    /// previous one rather than random in the working set.
    pub seq_permille: u32,
    /// Mean loop-body length in operations (drives ifetch address reuse).
    pub loop_body_ops: u32,
    /// Mean loop trip count (how often a body's ifetch addresses recur).
    pub loop_iters: u32,
    /// Communication pattern per phase.
    pub pattern: CommPattern,
    /// Message payload size distribution (bytes).
    pub msg_bytes: SizeDist,
    /// Task duration distribution (ps) for task-level generation.
    pub task_ps: SizeDist,
}

impl StochasticApp {
    /// A small scientific workload on `nodes` nodes: nearest-neighbour
    /// exchanges between numeric phases.
    pub fn scientific(nodes: u32) -> Self {
        StochasticApp {
            nodes,
            phases: 10,
            ops_per_phase: SizeDist::Uniform(2_000, 4_000),
            mix: InstructionMix::scientific(),
            working_set: 256 * 1024,
            seq_permille: 750,
            loop_body_ops: 12,
            loop_iters: 20,
            pattern: CommPattern::NearestNeighborRing,
            msg_bytes: SizeDist::Fixed(4096),
            task_ps: SizeDist::Uniform(50_000, 150_000),
        }
    }

    /// Validate the description.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// [`validate`](Self::validate) as a `Result`, for callers that take
    /// the description from user input: the error names the first
    /// problem found.
    pub fn try_validate(&self) -> Result<(), String> {
        let fail = |msg: &str| Err(msg.to_string());
        if self.nodes < 1 {
            return fail("need at least one node");
        }
        self.mix.try_validate()?;
        if self.working_set < 64 {
            return fail("working set too small");
        }
        if self.seq_permille > 1000 {
            return fail("seq_permille > 1000");
        }
        if self.loop_body_ops < 1 || self.loop_iters < 1 {
            return fail("loop_body_ops and loop_iters must be at least 1");
        }
        if self.pattern == CommPattern::Butterfly && !self.nodes.is_power_of_two() {
            return Err(format!(
                "butterfly needs a power-of-two node count, not {}",
                self.nodes
            ));
        }
        Ok(())
    }
}

/// The stochastic generator: a seeded source of synthetic traces.
pub struct StochasticGenerator {
    app: StochasticApp,
    seed: u64,
}

/// Per-node generation state for the address stream.
struct NodeGen {
    rng: StdRng,
    /// Next sequential data address.
    data_ptr: Address,
    /// Program counter for ifetch addresses.
    pc: Address,
}

/// Base of the (per-node, private) data segment. Code starts at 0x1000.
const DATA_BASE: Address = 0x1000_0000;
const CODE_BASE: Address = 0x1000;

impl StochasticGenerator {
    /// Create a generator for the given description and seed. Identical
    /// `(app, seed)` pairs generate identical traces.
    pub fn new(app: StochasticApp, seed: u64) -> Self {
        app.validate();
        StochasticGenerator { app, seed }
    }

    fn node_rng(&self, node: NodeId, salt: u64) -> StdRng {
        // Distinct, stable stream per node.
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(node as u64)
                .wrapping_add(salt << 32),
        )
    }

    /// Generate instruction-level traces (the reality-based quadrant's
    /// synthetic sibling in Fig. 4).
    pub fn generate(&self) -> TraceSet {
        let n = self.app.nodes;
        // The communication plan — `plan[phase][node]`, that node's
        // communication step — draws from a shared RNG (permutation
        // patterns, message sizes) so traces stay balanced. It is tiny, so
        // it is built first, serially.
        let mut shared = self.node_rng(u32::MAX, 7);
        let plan: Vec<Vec<Trace>> = (0..self.app.phases)
            .map(|phase| {
                let mut step: Vec<Trace> = (0..n).map(Trace::new).collect();
                self.gen_communication(phase, &mut step, &mut shared);
                step
            })
            .collect();
        // Computation draws only from each node's own RNG, so every node
        // builds its whole trace independently — on all host cores — and
        // the result is the same as interleaving the nodes phase by phase.
        let traces = pearl::par::map(
            n as usize,
            pearl::par::auto_workers(),
            pearl::par::Delivery::AsCompleted,
            |node| {
                let node = node as NodeId;
                let mut g = NodeGen {
                    rng: self.node_rng(node, 1),
                    data_ptr: DATA_BASE,
                    pc: CODE_BASE,
                };
                let mut trace = Trace::new(node);
                for step in &plan {
                    let count = self.app.ops_per_phase.sample(&mut g.rng);
                    self.gen_computation(&mut g, &mut trace, count);
                    trace.ops.extend_from_slice(&step[node as usize].ops);
                }
                trace
            },
            |_, _| {},
        );
        TraceSet::from_traces(traces)
    }

    /// Generate task-level traces directly (fast prototyping: the paper's
    /// "task-level operation traces must be directly produced by the trace
    /// generator").
    pub fn generate_task_level(&self) -> TraceSet {
        let n = self.app.nodes;
        let mut traces: Vec<Trace> = (0..n).map(Trace::new).collect();
        let mut shared = self.node_rng(u32::MAX, 7);
        let mut rngs: Vec<StdRng> = (0..n).map(|node| self.node_rng(node, 2)).collect();
        for phase in 0..self.app.phases {
            for node in 0..n {
                let ps = self.app.task_ps.sample(&mut rngs[node as usize]);
                traces[node as usize].push(Operation::Compute { ps });
            }
            self.gen_communication(phase, &mut traces, &mut shared);
        }
        TraceSet::from_traces(traces)
    }

    /// Emit `count` computational operations, organised into loop bodies
    /// whose instruction-fetch addresses recur across iterations.
    fn gen_computation(&self, g: &mut NodeGen, trace: &mut Trace, count: u64) {
        let mut emitted = 0u64;
        while emitted < count {
            // One loop: a body of `body` ops replayed `iters` times.
            let body = 1 + g.rng.gen_range(0..self.app.loop_body_ops.max(1) * 2) as u64;
            let iters = 1 + g.rng.gen_range(0..self.app.loop_iters.max(1) * 2) as u64;
            let body_start_pc = g.pc;
            // Pre-draw the body's operation classes so every iteration
            // fetches the same instruction addresses.
            let classes: Vec<u8> = (0..body).map(|_| self.draw_class(&mut g.rng)).collect();
            for _ in 0..iters {
                if emitted >= count {
                    break;
                }
                g.pc = body_start_pc;
                for &class in &classes {
                    if emitted >= count {
                        break;
                    }
                    trace.push(Operation::IFetch { addr: g.pc });
                    g.pc += 4;
                    trace.push(self.materialize(class, g));
                    emitted += 1;
                }
                // The backward branch closing the loop body.
                trace.push(Operation::IFetch { addr: g.pc });
                trace.push(Operation::Branch {
                    addr: body_start_pc,
                });
            }
            // Fall through: continue at fresh code addresses.
            g.pc = body_start_pc + (body + 1) * 4;
        }
    }

    /// Draw an operation class index according to the mix.
    fn draw_class(&self, rng: &mut StdRng) -> u8 {
        let m = &self.app.mix;
        let weights = [
            m.load,
            m.store,
            m.load_const,
            m.int_alu,
            m.int_muldiv,
            m.flt_alu,
            m.flt_muldiv,
            m.branch,
        ];
        let total: f64 = weights.iter().sum();
        let mut x = rng.gen_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i as u8;
            }
            x -= w;
        }
        7
    }

    /// Turn a class index into a concrete operation, advancing the
    /// address-stream state.
    fn materialize(&self, class: u8, g: &mut NodeGen) -> Operation {
        let float_heavy = self.app.mix.flt_alu + self.app.mix.flt_muldiv > 0.0;
        let data_ty = if float_heavy {
            DataType::F64
        } else {
            DataType::I32
        };
        match class {
            0 => Operation::Load {
                ty: data_ty,
                addr: self.next_data_addr(g, data_ty),
            },
            1 => Operation::Store {
                ty: data_ty,
                addr: self.next_data_addr(g, data_ty),
            },
            2 => Operation::LoadConst { ty: data_ty },
            3 => Operation::Arith {
                op: if g.rng.gen_bool(0.5) {
                    ArithOp::Add
                } else {
                    ArithOp::Sub
                },
                ty: DataType::I32,
            },
            4 => Operation::Arith {
                op: if g.rng.gen_bool(0.7) {
                    ArithOp::Mul
                } else {
                    ArithOp::Div
                },
                ty: DataType::I32,
            },
            5 => Operation::Arith {
                op: if g.rng.gen_bool(0.5) {
                    ArithOp::Add
                } else {
                    ArithOp::Sub
                },
                ty: DataType::F64,
            },
            6 => Operation::Arith {
                op: if g.rng.gen_bool(0.7) {
                    ArithOp::Mul
                } else {
                    ArithOp::Div
                },
                ty: DataType::F64,
            },
            _ => {
                // A forward branch inside the block.
                let target = g.pc + 4 * (1 + g.rng.gen_range(0..8u64));
                Operation::Branch { addr: target }
            }
        }
    }

    fn next_data_addr(&self, g: &mut NodeGen, ty: DataType) -> Address {
        let step = ty.bytes();
        let seq = g.rng.gen_range(0..1000u32) < self.app.seq_permille;
        if seq {
            g.data_ptr += step;
            if g.data_ptr >= DATA_BASE + self.app.working_set {
                g.data_ptr = DATA_BASE;
            }
            g.data_ptr
        } else {
            let slots = self.app.working_set / step;
            DATA_BASE + g.rng.gen_range(0..slots) * step
        }
    }

    /// Append one phase's communication step to every node's trace.
    fn gen_communication(&self, phase: u32, traces: &mut [Trace], shared: &mut StdRng) {
        let n = self.app.nodes;
        if n < 2 {
            return;
        }
        let bytes = |rng: &mut StdRng| self.app.msg_bytes.sample(rng).min(u32::MAX as u64) as u32;
        match self.app.pattern {
            CommPattern::None => {}
            CommPattern::NearestNeighborRing => {
                for node in 0..n {
                    let b = bytes(shared);
                    traces[node as usize].push(Operation::ASend {
                        bytes: b,
                        dst: (node + 1) % n,
                    });
                    traces[node as usize].push(Operation::Recv {
                        src: (node + n - 1) % n,
                    });
                }
            }
            CommPattern::AllToAll => {
                for node in 0..n {
                    for peer in 0..n {
                        if peer != node {
                            traces[node as usize].push(Operation::ASend {
                                bytes: bytes(shared),
                                dst: peer,
                            });
                        }
                    }
                }
                for node in 0..n {
                    for peer in 0..n {
                        if peer != node {
                            traces[node as usize].push(Operation::Recv { src: peer });
                        }
                    }
                }
            }
            CommPattern::MasterWorker => {
                for w in 1..n {
                    traces[0].push(Operation::ASend {
                        bytes: bytes(shared),
                        dst: w,
                    });
                }
                for w in 1..n {
                    traces[w as usize].push(Operation::Recv { src: 0 });
                    traces[w as usize].push(Operation::ASend {
                        bytes: bytes(shared),
                        dst: 0,
                    });
                }
                for w in 1..n {
                    traces[0].push(Operation::Recv { src: w });
                }
            }
            CommPattern::RandomPermutation => {
                // A random permutation without fixed points where possible.
                let mut perm: Vec<u32> = (0..n).collect();
                for i in (1..n as usize).rev() {
                    let j = shared.gen_range(0..=i);
                    perm.swap(i, j);
                }
                for node in 0..n {
                    let dst = perm[node as usize];
                    if dst == node {
                        continue;
                    }
                    traces[node as usize].push(Operation::ASend {
                        bytes: bytes(shared),
                        dst,
                    });
                }
                for node in 0..n {
                    let dst = perm[node as usize];
                    if dst != node {
                        traces[dst as usize].push(Operation::Recv { src: node });
                    }
                }
            }
            CommPattern::Butterfly => {
                let stages = n.trailing_zeros();
                let bit = 1u32 << (phase % stages);
                for node in 0..n {
                    let partner = node ^ bit;
                    traces[node as usize].push(Operation::ASend {
                        bytes: bytes(shared),
                        dst: partner,
                    });
                    traces[node as usize].push(Operation::Recv { src: partner });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mermaid_ops::OpCategory;

    fn app(pattern: CommPattern, nodes: u32) -> StochasticApp {
        StochasticApp {
            pattern,
            nodes,
            phases: 4,
            ops_per_phase: SizeDist::Fixed(500),
            ..StochasticApp::scientific(nodes)
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g1 = StochasticGenerator::new(app(CommPattern::AllToAll, 4), 42);
        let g2 = StochasticGenerator::new(app(CommPattern::AllToAll, 4), 42);
        assert_eq!(g1.generate(), g2.generate());
        let g3 = StochasticGenerator::new(app(CommPattern::AllToAll, 4), 43);
        assert_ne!(g1.generate(), g3.generate());
    }

    /// `generate` as it was before the nodes were built in parallel: all
    /// nodes advance phase by phase, computation then communication.
    fn serial_generate(g: &StochasticGenerator) -> TraceSet {
        let n = g.app.nodes;
        let mut traces: Vec<Trace> = (0..n).map(Trace::new).collect();
        let mut shared = g.node_rng(u32::MAX, 7);
        let mut gens: Vec<NodeGen> = (0..n)
            .map(|node| NodeGen {
                rng: g.node_rng(node, 1),
                data_ptr: DATA_BASE,
                pc: CODE_BASE,
            })
            .collect();
        for phase in 0..g.app.phases {
            for node in 0..n as usize {
                let count = g.app.ops_per_phase.sample(&mut gens[node].rng);
                g.gen_computation(&mut gens[node], &mut traces[node], count);
            }
            g.gen_communication(phase, &mut traces, &mut shared);
        }
        TraceSet::from_traces(traces)
    }

    #[test]
    fn parallel_generation_matches_the_serial_phase_loop() {
        for pattern in [
            CommPattern::None,
            CommPattern::NearestNeighborRing,
            CommPattern::AllToAll,
            CommPattern::MasterWorker,
            CommPattern::RandomPermutation,
            CommPattern::Butterfly,
        ] {
            for nodes in [1, 2, 16] {
                for seed in [3, 11] {
                    let a = StochasticApp {
                        ops_per_phase: SizeDist::Uniform(40, 160),
                        msg_bytes: SizeDist::Uniform(64, 8192),
                        ..app(pattern, nodes)
                    };
                    let g = StochasticGenerator::new(a, seed);
                    assert!(
                        g.generate() == serial_generate(&g),
                        "{pattern:?} on {nodes} nodes, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_patterns_generate_balanced_communication() {
        for pattern in [
            CommPattern::None,
            CommPattern::NearestNeighborRing,
            CommPattern::AllToAll,
            CommPattern::MasterWorker,
            CommPattern::RandomPermutation,
            CommPattern::Butterfly,
        ] {
            let ts = StochasticGenerator::new(app(pattern, 8), 7).generate();
            assert!(
                ts.comm_imbalances().is_empty(),
                "{pattern:?} produced imbalanced communication"
            );
            let task = StochasticGenerator::new(app(pattern, 8), 7).generate_task_level();
            assert!(task.comm_imbalances().is_empty(), "{pattern:?} task-level");
        }
    }

    #[test]
    fn instruction_level_respects_requested_volume() {
        let a = app(CommPattern::None, 2);
        let ts = StochasticGenerator::new(a, 1).generate();
        let s = ts.trace(0).stats();
        // 4 phases × 500 counted ops. Branches drawn from the mix are part
        // of the 500; loop-closing branches are extra. So the non-fetch,
        // non-control volume is at most 2000 and close to it (the
        // scientific mix has 6% branches).
        let non_fetch_non_control = s.total - s.ifetches - s.control;
        assert!(non_fetch_non_control <= 2_000);
        assert!(
            non_fetch_non_control >= 1_700,
            "too few counted ops: {non_fetch_non_control}"
        );
        assert!(s.ifetches >= 2_000, "each op is preceded by an ifetch");
    }

    #[test]
    fn loops_produce_recurring_ifetch_addresses() {
        let a = app(CommPattern::None, 1);
        let ts = StochasticGenerator::new(a, 3).generate();
        let mut seen = std::collections::HashMap::new();
        for op in ts.trace(0).iter() {
            if let Operation::IFetch { addr } = op {
                *seen.entry(*addr).or_insert(0u32) += 1;
            }
        }
        let recurring = seen.values().filter(|&&c| c > 1).count();
        assert!(
            recurring > seen.len() / 4,
            "loop bodies should revisit instruction addresses ({recurring}/{})",
            seen.len()
        );
    }

    #[test]
    fn addresses_stay_in_the_working_set() {
        let mut a = app(CommPattern::None, 1);
        a.working_set = 4096;
        let ts = StochasticGenerator::new(a, 5).generate();
        for op in ts.trace(0).iter() {
            if let Some(addr) = op.address() {
                if matches!(op, Operation::Load { .. } | Operation::Store { .. }) {
                    assert!(
                        (DATA_BASE..DATA_BASE + 4096 + 8).contains(&addr),
                        "address {addr:#x} outside working set"
                    );
                }
            }
        }
    }

    #[test]
    fn scientific_mix_generates_float_arithmetic() {
        let ts = StochasticGenerator::new(app(CommPattern::None, 1), 9).generate();
        let s = ts.trace(0).stats();
        assert!(s.float_arith > 0);
        assert!(s.loads > 0);
        // Memory transfers are ~45% of counted ops, but the trace also
        // carries one ifetch per op plus loop branches, roughly halving the
        // fraction over the whole trace.
        assert!(s.fraction(OpCategory::MemoryTransfer) > 0.15);
    }

    #[test]
    fn integer_mix_has_no_floats() {
        let mut a = app(CommPattern::None, 1);
        a.mix = InstructionMix::integer();
        let ts = StochasticGenerator::new(a, 9).generate();
        assert_eq!(ts.trace(0).stats().float_arith, 0);
    }

    #[test]
    fn task_level_traces_contain_only_tasks_and_comm() {
        let ts = StochasticGenerator::new(app(CommPattern::AllToAll, 4), 11).generate_task_level();
        for t in ts.iter() {
            for op in t.iter() {
                assert!(
                    !op.is_computational(),
                    "instruction-level op {op} in task-level trace"
                );
            }
        }
        // 4 phases × 1 compute each.
        assert_eq!(ts.trace(0).stats().computes, 4);
    }

    #[test]
    fn size_dist_sampling() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(SizeDist::Fixed(7).sample(&mut rng), 7);
        for _ in 0..100 {
            let v = SizeDist::Uniform(10, 20).sample(&mut rng);
            assert!((10..=20).contains(&v));
        }
        let bim = SizeDist::Bimodal {
            small: 1,
            large: 1000,
            large_permille: 500,
        };
        let n_large = (0..1000).filter(|_| bim.sample(&mut rng) == 1000).count();
        assert!((300..700).contains(&n_large), "bimodal skewed: {n_large}");
        assert!((bim.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn try_validate_reports_what_validate_panics_on() {
        let err = app(CommPattern::Butterfly, 6).try_validate().unwrap_err();
        assert!(err.contains("power-of-two") && err.contains('6'), "{err}");
        assert!(app(CommPattern::Butterfly, 8).try_validate().is_ok());
        let mut a = app(CommPattern::None, 2);
        a.mix.load = -0.1;
        assert!(a.try_validate().unwrap_err().contains("negative"));
        a.mix = InstructionMix::integer();
        a.working_set = 8;
        assert!(a.try_validate().unwrap_err().contains("working set"));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn butterfly_rejects_odd_node_counts() {
        StochasticGenerator::new(app(CommPattern::Butterfly, 6), 1);
    }

    #[test]
    fn single_node_apps_generate_no_communication() {
        let ts = StochasticGenerator::new(app(CommPattern::NearestNeighborRing, 1), 1).generate();
        assert_eq!(ts.trace(0).stats().comm_ops(), 0);
    }
}
