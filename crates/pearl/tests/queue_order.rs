//! Property coverage for the event queue: in both tie-break regimes its
//! pop sequence must be indistinguishable from a plain binary heap over
//! the same `(time, key)` pairs, under arbitrary interleavings of pushes
//! (near and far ahead) and pops.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pearl::{EventKey, EventQueue, Time};
use proptest::prelude::*;

/// One step of a queue workout.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push at an absolute time (picked from several magnitude bands, so
    /// the pending set mixes dense ties with far-future outliers).
    Push(u64),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Dense near-term times: lots of ties.
        (0u64..50).prop_map(Op::Push),
        // Moderate spread.
        (0u64..1_000_000).prop_map(Op::Push),
        // Far-future outliers.
        (0u64..1u64 << 50).prop_map(Op::Push),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// The oracle: a max-heap of inverted `(time, seq)` keys pops in exactly
/// the stable order the event core guarantees.
#[derive(Default)]
struct StableHeap {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    next_seq: u64,
}

impl StableHeap {
    fn push(&mut self, t: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((t, seq)));
        seq
    }

    fn pop(&mut self) -> Option<(Time, u64)> {
        self.heap
            .pop()
            .map(|Reverse((t, seq))| (Time::from_ps(t), seq))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every pop agrees with the stable-heap oracle, at every point of an
    /// arbitrary interleaved push/pop sequence, and the drained tails
    /// agree too.
    #[test]
    fn pops_match_stable_heap_oracle(ops in prop::collection::vec(op_strategy(), 0..400)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut oracle = StableHeap::default();
        for op in ops {
            match op {
                Op::Push(t) => {
                    let seq = oracle.push(t);
                    // The payload is the oracle's own sequence number, so a
                    // tie broken out of order is caught by value, not just
                    // by time.
                    q.push(Time::from_ps(t), seq);
                }
                Op::Pop => {
                    prop_assert_eq!(q.pop(), oracle.pop());
                }
            }
            prop_assert_eq!(q.len() as u64, oracle.heap.len() as u64);
        }
        loop {
            let expect = oracle.pop();
            let got = q.pop();
            let done = expect.is_none();
            prop_assert_eq!(got, expect);
            if done {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }

    /// Same-time pushes pop strictly FIFO, however many distinct instants
    /// are pending alongside them.
    #[test]
    fn ties_stay_fifo(
        times in prop::collection::vec(0u64..1_000, 1..200),
        dup in 2usize..5,
    ) {
        let mut q: EventQueue<(u64, usize)> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            for d in 0..dup {
                q.push(Time::from_ps(t), (i as u64, d));
            }
        }
        let mut last: Option<(u64, u64, usize)> = None;
        while let Some((t, (i, d))) = q.pop() {
            let key = (t.as_ps(), i, d);
            if let Some(prev) = last {
                prop_assert!(
                    (key.0, key.1 * dup as u64 + key.2 as u64)
                        > (prev.0, prev.1 * dup as u64 + prev.2 as u64),
                    "tie order broken: {:?} after {:?}",
                    key,
                    prev
                );
            }
            last = Some(key);
        }
        prop_assert!(q.is_empty());
    }
}

/// One step of a keyed-regime workout.
#[derive(Debug, Clone, Copy)]
enum KeyedOp {
    /// Push at `time` with the key `(push_ps, src, seq)`.
    Push(u64, u64, u32, u64),
    Pop,
    /// Compare `snapshot_events()` against the oracle's pending set.
    Snapshot,
}

fn keyed_op_strategy() -> impl Strategy<Value = KeyedOp> {
    // Narrow ranges on every field force time ties and repeated
    // `push_ps`/`src`, so ordering falls through to the later key fields.
    let push = |times: std::ops::Range<u64>| {
        (times, 0u64..4, 0u32..3, 0u64..1_000).prop_map(|(t, p, s, q)| KeyedOp::Push(t, p, s, q))
    };
    prop_oneof![
        push(0..8),
        push(0..8),
        push(0..1u64 << 40),
        Just(KeyedOp::Pop),
        Just(KeyedOp::Pop),
        Just(KeyedOp::Snapshot),
    ]
}

/// The keyed regime's oracle: a plain heap over inverted `(time, key)`.
type KeyedOracle = BinaryHeap<Reverse<(u64, EventKey)>>;

/// Run `ops` against both the queue and the oracle. Pushes whose
/// `(time, key)` is already pending are skipped: the engine never issues
/// one (keys embed a per-component counter), and the queue's order is
/// only defined over unique keys. The payload is the pair itself, so a
/// pop that broke a tie wrongly is caught by value.
fn run_keyed(
    q: &mut EventQueue<(u64, EventKey)>,
    oracle: &mut KeyedOracle,
    ops: &[KeyedOp],
) -> Result<(), TestCaseError> {
    for &op in ops {
        match op {
            KeyedOp::Push(t, push_ps, src, seq) => {
                let key = EventKey { push_ps, src, seq };
                if oracle.iter().any(|Reverse(e)| *e == (t, key)) {
                    continue;
                }
                oracle.push(Reverse((t, key)));
                q.push_keyed(Time::from_ps(t), key, (t, key));
            }
            KeyedOp::Pop => {
                let expect = oracle
                    .pop()
                    .map(|Reverse((t, key))| (Time::from_ps(t), (t, key)));
                prop_assert_eq!(q.pop(), expect);
            }
            KeyedOp::Snapshot => {
                let mut pending: Vec<(u64, EventKey)> =
                    oracle.iter().map(|Reverse(e)| *e).collect();
                pending.sort();
                let want: Vec<(Time, EventKey, (u64, EventKey))> = pending
                    .into_iter()
                    .map(|(t, key)| (Time::from_ps(t), key, (t, key)))
                    .collect();
                prop_assert_eq!(q.snapshot_events(), want);
            }
        }
        prop_assert_eq!(q.len(), oracle.len());
        prop_assert_eq!(
            q.peek_time(),
            oracle.peek().map(|Reverse((t, _))| Time::from_ps(*t))
        );
    }
    Ok(())
}

/// Drain both queues, asserting every pop agrees.
fn drain_keyed(
    q: &mut EventQueue<(u64, EventKey)>,
    oracle: &mut KeyedOracle,
) -> Result<(), TestCaseError> {
    while let Some(Reverse((t, key))) = oracle.pop() {
        prop_assert_eq!(q.pop(), Some((Time::from_ps(t), (t, key))));
    }
    prop_assert_eq!(q.pop(), None);
    prop_assert!(q.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The keyed regime the engine uses: every pop, peek and snapshot
    /// agrees with a plain heap over `(time, key)` while pops interleave
    /// with pushes (so freed payload slots are reused), and a cleared
    /// queue reused for a second workout still pops in order.
    #[test]
    fn keyed_pops_match_heap_oracle(
        ops in prop::collection::vec(keyed_op_strategy(), 0..400),
        after_clear in prop::collection::vec(keyed_op_strategy(), 0..100),
    ) {
        let mut q = EventQueue::new();
        let mut oracle = KeyedOracle::new();
        run_keyed(&mut q, &mut oracle, &ops)?;
        drain_keyed(&mut q, &mut oracle)?;

        // Refill, clear mid-flight, and reuse.
        run_keyed(&mut q, &mut oracle, &ops)?;
        q.clear();
        oracle.clear();
        prop_assert!(q.is_empty());
        run_keyed(&mut q, &mut oracle, &after_clear)?;
        drain_keyed(&mut q, &mut oracle)?;
    }
}
