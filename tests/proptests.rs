//! Property-based tests over the workbench's core invariants.
//!
//! ## Regression files
//!
//! Upstream proptest persists failing seeds to
//! `tests/proptests.proptest-regressions` and replays them before new
//! cases. The **vendored** stand-in (`vendor/proptest`) does not: it has
//! no shrinking and ignores regression files entirely; its RNG stream is
//! seeded deterministically from each test's name, so a failure
//! reproduces by simply re-running the same test. When a property fails,
//! the panic message reports the raw inputs — pin them as an ordinary
//! `#[test]` if they are worth keeping, and optionally record the shrunk
//! form in the regressions file for the day the real crate returns.

use proptest::prelude::*;

use mermaid_memory::{Access, MemSystemConfig, MemorySystem};
use mermaid_network::Topology;
use mermaid_ops::{codec, text, ArithOp, DataType, Operation, Trace};
use pearl::{EventQueue, Time};

/// Strategy for one arbitrary operation.
fn op_strategy() -> impl Strategy<Value = Operation> {
    let ty = prop_oneof![
        Just(DataType::I8),
        Just(DataType::I16),
        Just(DataType::I32),
        Just(DataType::I64),
        Just(DataType::F32),
        Just(DataType::F64),
    ];
    let arith = prop_oneof![
        Just(ArithOp::Add),
        Just(ArithOp::Sub),
        Just(ArithOp::Mul),
        Just(ArithOp::Div),
    ];
    prop_oneof![
        (ty.clone(), any::<u64>()).prop_map(|(ty, addr)| Operation::Load { ty, addr }),
        (ty.clone(), any::<u64>()).prop_map(|(ty, addr)| Operation::Store { ty, addr }),
        ty.clone().prop_map(|ty| Operation::LoadConst { ty }),
        (arith, ty).prop_map(|(op, ty)| Operation::Arith { op, ty }),
        any::<u64>().prop_map(|addr| Operation::IFetch { addr }),
        any::<u64>().prop_map(|addr| Operation::Branch { addr }),
        any::<u64>().prop_map(|addr| Operation::Call { addr }),
        any::<u64>().prop_map(|addr| Operation::Ret { addr }),
        (any::<u32>(), 0u32..64).prop_map(|(bytes, dst)| Operation::Send { bytes, dst }),
        (0u32..64).prop_map(|src| Operation::Recv { src }),
        (any::<u32>(), 0u32..64).prop_map(|(bytes, dst)| Operation::ASend { bytes, dst }),
        (0u32..64).prop_map(|src| Operation::ARecv { src }),
        any::<u64>().prop_map(|ps| Operation::Compute { ps }),
    ]
}

proptest! {
    /// Binary codec: decode(encode(x)) == x for arbitrary traces.
    #[test]
    fn binary_codec_roundtrips(ops in prop::collection::vec(op_strategy(), 0..200), node in 0u32..1024) {
        let trace = Trace::from_ops(node, ops);
        let encoded = codec::encode_trace(&trace);
        let decoded = codec::decode_trace(encoded).unwrap();
        prop_assert_eq!(decoded, trace);
    }

    /// Text codec: parse(format(x)) == x for arbitrary traces.
    #[test]
    fn text_codec_roundtrips(ops in prop::collection::vec(op_strategy(), 0..100)) {
        let trace = Trace::from_ops(0, ops);
        let rendered = text::format_trace(&trace);
        let parsed = text::parse_trace(0, &rendered).unwrap();
        prop_assert_eq!(parsed, trace);
    }

    /// Splitting a trace at global events loses nothing and keeps order.
    #[test]
    fn trace_splitting_partitions_exactly(ops in prop::collection::vec(op_strategy(), 0..150)) {
        let trace = Trace::from_ops(0, ops.clone());
        let segments = trace.split_at_global_events();
        let mut rebuilt = Vec::new();
        for seg in &segments {
            rebuilt.extend_from_slice(seg.computation);
            if let Some(c) = seg.comm {
                rebuilt.push(c);
            }
        }
        prop_assert_eq!(rebuilt, ops);
        // Every terminator is a global event; no segment body contains one.
        for seg in &segments {
            prop_assert!(seg.computation.iter().all(|o| !o.is_global_event()));
            if let Some(c) = seg.comm {
                prop_assert!(c.is_global_event());
            }
        }
    }

    /// The event queue is a stable priority queue: pops are sorted by time,
    /// FIFO within a timestamp.
    #[test]
    fn event_queue_is_stable(times in prop::collection::vec(0u64..50, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ps(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO order violated at equal times");
            }
        }
    }

    /// Random access interleavings never violate the MESI single-owner
    /// invariant, and the caches never hold more valid lines than capacity.
    #[test]
    fn coherence_invariant_under_random_access(
        accesses in prop::collection::vec(
            (0usize..4, 0u8..3, 0u64..64, 1u64..1000), 1..300
        )
    ) {
        let mut sys = MemorySystem::new(MemSystemConfig::small(4));
        let mut now = Time::ZERO;
        // A small set of hot lines so CPUs genuinely share data.
        for (cpu, kind, slot, dt) in accesses {
            let kind = match kind {
                0 => Access::Read,
                1 => Access::Write,
                _ => Access::IFetch,
            };
            let addr = 0x1000 + slot * 8;
            now += pearl::Duration::from_ps(dt);
            let r = sys.access(cpu, kind, addr, 4, now);
            now += r.latency;
            sys.check_coherence(addr);
        }
        // Spot-check the whole hot range at the end.
        for slot in 0..64u64 {
            sys.check_coherence(0x1000 + slot * 8);
        }
    }

    /// Deterministic minimal routing reaches every destination within the
    /// topology's diameter, on arbitrary valid topologies.
    #[test]
    fn routing_always_terminates(kind in 0u8..6, size in 2u32..17, src_raw in 0u32..1000, dst_raw in 0u32..1000) {
        let topo = match kind {
            0 => Topology::Ring(size),
            1 => Topology::Mesh2D { w: size, h: 3 },
            2 => Topology::Torus2D { w: size, h: 4 },
            3 => Topology::Hypercube { dim: 1 + size % 6 },
            4 => Topology::FullyConnected(size),
            _ => Topology::Star(size),
        };
        let n = topo.nodes();
        let src = src_raw % n;
        let dst = dst_raw % n;
        prop_assume!(src != dst);
        let mut cur = src;
        let mut hops = 0;
        while cur != dst {
            cur = topo.route_next(cur, dst);
            hops += 1;
            prop_assert!(hops <= topo.diameter(), "route exceeded diameter");
        }
        prop_assert_eq!(hops, topo.distance(src, dst));
    }

    /// RFC-4180 CSV round trip: `parse_line` inverts `csv_line` for
    /// arbitrary fields, including ones holding commas, quotes, CR, and LF
    /// — the characters whose mishandling silently corrupts rows (campaign
    /// summaries embed fault specs and machine names in CSV cells).
    #[test]
    fn csv_line_roundtrips_through_parse_line(
        raw in prop::collection::vec(prop::collection::vec(0usize..10, 0..24), 1..6)
    ) {
        use mermaid_stats::csv::{csv_field, csv_line, parse_line};
        const ALPHABET: [char; 10] = [',', '"', '\r', '\n', 'a', 'B', ' ', 'é', '7', ':'];
        let fields: Vec<String> = raw
            .iter()
            .map(|ixs| ixs.iter().map(|&i| ALPHABET[i]).collect())
            .collect();
        let line = csv_line(&fields);
        prop_assert!(line.ends_with('\n'));
        let parsed = parse_line(&line[..line.len() - 1])
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(&parsed, &fields);
        // Field-level identity too: each quoted field alone is one field.
        for f in &fields {
            let back = parse_line(&csv_field(f)).map_err(TestCaseError::fail)?;
            prop_assert_eq!(&back, &vec![f.clone()]);
        }
    }

    /// Statistics category counts always partition the total.
    #[test]
    fn stats_categories_partition(ops in prop::collection::vec(op_strategy(), 0..300)) {
        use mermaid_ops::{OpCategory, TraceStats};
        let stats = TraceStats::from_ops(ops.iter().copied());
        let sum: u64 = OpCategory::ALL.iter().map(|&c| stats.category(c)).sum();
        prop_assert_eq!(sum, stats.total);
        prop_assert_eq!(stats.total, ops.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fault schedules over random balanced traffic never panic or
    /// deadlock the communication model, and the reliability protocol
    /// conserves messages: once drained, every tracked message was either
    /// acknowledged or reported failed — none vanish.
    #[test]
    fn random_fault_schedules_never_deadlock_and_conserve_messages(
        topo_kind in 0u8..4,
        fault_seed in 0u64..1_000,
        n_faults in 0usize..5,
        drop_ppm in 0u32..60_000,
        corrupt_ppm in 0u32..30_000,
        pairs in prop::collection::vec((0u32..8, 0u32..8, 64u32..8_192), 1..20)
    ) {
        use std::sync::Arc;
        use mermaid_network::{CommSim, FaultSchedule, NetworkConfig, RetryParams};
        use mermaid_ops::TraceSet;
        use pearl::Time;

        let topo = match topo_kind {
            0 => Topology::Ring(8),
            1 => Topology::Mesh2D { w: 4, h: 2 },
            2 => Topology::Torus2D { w: 4, h: 2 },
            _ => Topology::Hypercube { dim: 3 },
        };
        let cfg = NetworkConfig::test(topo);

        // Balanced async traffic: sends first, then the matching receives.
        let mut ts = TraceSet::new(8);
        for &(src, dst, bytes) in &pairs {
            ts.trace_mut(src).push(Operation::ASend { bytes, dst });
        }
        for &(src, dst, _) in &pairs {
            ts.trace_mut(dst).push(Operation::Recv { src });
        }

        // A random-but-seeded schedule: scripted link outages drawn from
        // the topology plus background loss and corruption.
        let faults = Arc::new(
            FaultSchedule::new(fault_seed)
                .with_retry(RetryParams::default_for(&cfg))
                .with_drop_ppm(drop_ppm)
                .with_corrupt_ppm(corrupt_ppm)
                .random_link_faults(&topo, n_faults, Time::from_us(300)),
        );

        let r = CommSim::new_with_faults(cfg, &ts, mermaid_probe::ProbeHandle::disabled(), faults)
            .run();

        // Degraded or not, the run must complete: the watchdogs turn any
        // starved receive into a timeout instead of a deadlock.
        prop_assert!(r.all_done, "deadlocked: {:?}", r.deadlocked);

        // Conservation, globally and per sender.
        let d = r.delivery();
        prop_assert!(d.conserved(), "tracked={} acked={} failed={}", d.tracked, d.acked, d.failed);
        prop_assert_eq!(d.tracked as usize, pairs.len());
        for nc in &r.nodes {
            prop_assert_eq!(
                nc.proc.msgs_tracked,
                nc.proc.msgs_acked + nc.proc.msgs_failed,
                "node {} leaked a tracked message", nc.node
            );
        }
        // Every failure is matched by a structured report.
        prop_assert_eq!(r.unreachable.len() as u64, r.msgs_failed);
        // Deliveries + failures account for every message sent.
        prop_assert_eq!(r.total_messages + r.msgs_failed, pairs.len() as u64);
    }

    /// The latency decomposition is conservative on arbitrary balanced
    /// traffic under arbitrary fault pressure: every `msg_path` record's
    /// six components (overhead, retry, queue, routing, serialization,
    /// wire) sum to its end-to-end latency exactly, and one record is
    /// emitted per delivered message.
    #[test]
    fn latency_decomposition_conserves(
        topo_kind in 0u8..4,
        drop_ppm in 0u32..40_000,
        pairs in prop::collection::vec((0u32..8, 0u32..8, 64u32..8_192), 1..20)
    ) {
        use std::sync::Arc;
        use mermaid_network::{CommSim, FaultSchedule, NetworkConfig, RetryParams};
        use mermaid_ops::TraceSet;
        use mermaid_probe::{ProbeHandle, ProbeStack, SimEvent};

        let topo = match topo_kind {
            0 => Topology::Ring(8),
            1 => Topology::Mesh2D { w: 4, h: 2 },
            2 => Topology::Torus2D { w: 4, h: 2 },
            _ => Topology::Hypercube { dim: 3 },
        };
        let cfg = NetworkConfig::test(topo);
        let mut ts = TraceSet::new(8);
        for &(src, dst, bytes) in &pairs {
            ts.trace_mut(src).push(Operation::ASend { bytes, dst });
        }
        for &(src, dst, _) in &pairs {
            ts.trace_mut(dst).push(Operation::Recv { src });
        }
        let faults = Arc::new(
            FaultSchedule::new(drop_ppm as u64)
                .with_retry(RetryParams::default_for(&cfg))
                .with_drop_ppm(drop_ppm),
        );
        let probe = ProbeHandle::new(ProbeStack::new().with_buffer());
        let r = CommSim::new_with_faults(cfg, &ts, probe.clone(), faults).run();
        prop_assert!(r.all_done, "deadlocked: {:?}", r.deadlocked);

        let mut paths = 0u64;
        for ev in probe.take_buffer().unwrap() {
            if let SimEvent::MsgPath {
                latency_ps, overhead_ps, retry_ps, queue_ps,
                routing_ps, ser_ps, wire_ps, src, dst, ..
            } = ev {
                paths += 1;
                prop_assert_eq!(
                    overhead_ps + retry_ps + queue_ps + routing_ps + ser_ps + wire_ps,
                    latency_ps,
                    "{}->{} leaves a residual", src, dst
                );
            }
        }
        prop_assert_eq!(paths, r.total_messages);
    }

    /// Arbitrary balanced communication patterns never deadlock the
    /// communication model (async sends + matching blocking receives).
    #[test]
    fn balanced_async_patterns_never_deadlock(
        pairs in prop::collection::vec((0u32..6, 0u32..6, 1u32..10_000), 1..40)
    ) {
        use mermaid_network::{CommSim, NetworkConfig};
        use mermaid_ops::TraceSet;
        let n = 6u32;
        let mut ts = TraceSet::new(n as usize);
        // Sends first (async), then receives in the same global order —
        // always satisfiable.
        for &(src, dst, bytes) in &pairs {
            ts.trace_mut(src).push(Operation::ASend { bytes, dst });
        }
        for &(src, dst, _) in &pairs {
            ts.trace_mut(dst).push(Operation::Recv { src });
        }
        let r = CommSim::new(NetworkConfig::test(Topology::Hypercube { dim: 3 }), &{
            // Hypercube(3) has 8 nodes; extend the trace set.
            let mut big = TraceSet::new(8);
            for node in 0..n {
                *big.trace_mut(node) = ts.trace(node).clone();
            }
            big
        })
        .run();
        prop_assert!(r.all_done, "deadlocked: {:?}", r.deadlocked);
        prop_assert_eq!(r.total_messages, pairs.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Checkpoint/restore invariance (DESIGN.md §16): for a random
    /// (topology, traffic, fault schedule, checkpoint instant, restore
    /// shard count), the restored run conserves messages and reproduces
    /// the uninterrupted run's results — finish time, event count,
    /// delivery accounting, and per-node counters — exactly.
    #[test]
    fn restored_runs_match_uninterrupted_runs(
        topo_kind in 0u8..4,
        fault_seed in 0u64..1_000,
        drop_ppm in prop_oneof![Just(0u32), 1u32..50_000],
        pick_raw in 0usize..64,
        restore_shards in prop_oneof![Just(1usize), Just(3usize)],
        pairs in prop::collection::vec((0u32..8, 0u32..8, 64u32..8_192), 1..20)
    ) {
        use std::sync::{Arc, Mutex};
        use mermaid_network::{
            run_comm, CheckpointOpts, FaultSchedule, NetworkConfig, RetryParams,
            Snapshot,
        };
        use mermaid_ops::TraceSet;
        use mermaid_probe::ProbeHandle;
        use pearl::Duration;

        let topo = match topo_kind {
            0 => Topology::Ring(8),
            1 => Topology::Mesh2D { w: 4, h: 2 },
            2 => Topology::Torus2D { w: 4, h: 2 },
            _ => Topology::Hypercube { dim: 3 },
        };
        let cfg = NetworkConfig::test(topo);
        let mut ts = TraceSet::new(8);
        for &(src, dst, bytes) in &pairs {
            ts.trace_mut(src).push(Operation::ASend { bytes, dst });
        }
        for &(src, dst, _) in &pairs {
            ts.trace_mut(dst).push(Operation::Recv { src });
        }
        let faults = (drop_ppm > 0).then(|| {
            Arc::new(
                FaultSchedule::new(fault_seed)
                    .with_retry(RetryParams::default_for(&cfg))
                    .with_drop_ppm(drop_ppm),
            )
        });

        let (straight, _) = run_comm(
            cfg, &ts, ProbeHandle::disabled(), 1, faults.clone(), None, None,
        )
        .unwrap();
        prop_assert!(straight.all_done, "deadlocked: {:?}", straight.deadlocked);

        // Capture at a cadence that lands ~4 checkpoints inside the run.
        let snaps: Mutex<Vec<Snapshot>> = Mutex::new(Vec::new());
        let keep = |s: &Snapshot| {
            snaps.lock().unwrap().push(s.clone());
            Ok(())
        };
        let ck = CheckpointOpts {
            every: Duration::from_ps((straight.finish.as_ps() / 4).max(1)),
            config_hash: "prop".into(),
            write: &keep,
        };
        run_comm(
            cfg, &ts, ProbeHandle::disabled(), 1, faults.clone(), None, Some(&ck),
        )
        .unwrap();
        let snaps = snaps.into_inner().unwrap();
        prop_assert!(!snaps.is_empty(), "cadence produced no checkpoint");
        let snap = &snaps[pick_raw % snaps.len()];

        let (restored, _) = run_comm(
            cfg, &ts, ProbeHandle::disabled(), restore_shards, faults, Some(snap), None,
        )
        .unwrap();
        prop_assert_eq!(restored.finish, straight.finish);
        prop_assert_eq!(restored.all_done, straight.all_done);
        prop_assert_eq!(restored.events, straight.events);
        prop_assert_eq!(restored.total_messages, straight.total_messages);
        prop_assert_eq!(restored.total_bytes, straight.total_bytes);
        prop_assert_eq!(restored.unreachable.len(), straight.unreachable.len());

        // Message conservation holds through the splice, globally and per
        // node.
        let (ds, dr) = (straight.delivery(), restored.delivery());
        prop_assert!(dr.conserved(), "tracked={} acked={} failed={}", dr.tracked, dr.acked, dr.failed);
        prop_assert_eq!(dr.tracked, ds.tracked);
        prop_assert_eq!(dr.acked, ds.acked);
        prop_assert_eq!(dr.failed, ds.failed);
        for (a, b) in straight.nodes.iter().zip(&restored.nodes) {
            prop_assert_eq!(a.proc.msgs_tracked, b.proc.msgs_tracked, "node {}", a.node);
            prop_assert_eq!(a.proc.msgs_acked, b.proc.msgs_acked, "node {}", a.node);
            prop_assert_eq!(a.proc.msgs_failed, b.proc.msgs_failed, "node {}", a.node);
        }
    }

    /// Torn, truncated, or bit-flipped snapshot files are always detected:
    /// any strict prefix of a snapshot fails to parse, as does any
    /// single-byte corruption of the body — a damaged checkpoint is never
    /// silently restored.
    #[test]
    fn damaged_snapshots_never_parse(
        topo_kind in 0u8..4,
        cut_raw in 0usize..100_000,
        flip_raw in 0usize..100_000,
        pairs in prop::collection::vec((0u32..8, 0u32..8, 64u32..4_096), 1..12)
    ) {
        use std::sync::Mutex;
        use mermaid_network::{run_comm, CheckpointOpts, NetworkConfig, Snapshot};
        use mermaid_ops::TraceSet;
        use mermaid_probe::ProbeHandle;
        use pearl::Duration;

        let topo = match topo_kind {
            0 => Topology::Ring(8),
            1 => Topology::Mesh2D { w: 4, h: 2 },
            2 => Topology::Torus2D { w: 4, h: 2 },
            _ => Topology::Hypercube { dim: 3 },
        };
        let cfg = NetworkConfig::test(topo);
        let mut ts = TraceSet::new(8);
        for &(src, dst, bytes) in &pairs {
            ts.trace_mut(src).push(Operation::ASend { bytes, dst });
        }
        for &(src, dst, _) in &pairs {
            ts.trace_mut(dst).push(Operation::Recv { src });
        }
        let snaps: Mutex<Vec<Snapshot>> = Mutex::new(Vec::new());
        let keep = |s: &Snapshot| {
            snaps.lock().unwrap().push(s.clone());
            Ok(())
        };
        let ck = CheckpointOpts {
            every: Duration::from_ps(20_000),
            config_hash: "prop".into(),
            write: &keep,
        };
        run_comm(cfg, &ts, ProbeHandle::disabled(), 1, None, None, Some(&ck)).unwrap();
        let snaps = snaps.into_inner().unwrap();
        prop_assume!(!snaps.is_empty());
        let text = snaps[cut_raw % snaps.len()].to_file_string();

        // The intact file round-trips (the format is ASCII, so byte
        // offsets below are valid slice points).
        prop_assert!(text.is_ascii());
        let reparsed = Snapshot::parse(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(reparsed.to_file_string(), text.clone());

        // Any strict prefix — a checkpoint killed mid-write — is refused.
        let cut = cut_raw % text.len();
        prop_assert!(
            Snapshot::parse(&text[..cut]).is_err(),
            "a snapshot truncated to {cut}/{} bytes parsed", text.len()
        );

        // Any single corrupted body byte trips the header's body hash.
        let body_start = text.find('\n').unwrap() + 1;
        let flip = body_start + flip_raw % (text.len() - body_start);
        let mut bytes = text.clone().into_bytes();
        bytes[flip] ^= 1;
        let corrupt = String::from_utf8(bytes).unwrap();
        prop_assert!(
            Snapshot::parse(&corrupt).is_err(),
            "a snapshot with byte {flip} flipped parsed"
        );
    }
}
