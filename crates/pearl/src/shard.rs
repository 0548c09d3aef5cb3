//! Conservative window synchronization for sharded simulation.
//!
//! A sharded run partitions the component graph across worker threads, each
//! owning a private [`Engine`](crate::Engine). Threads advance in lock-step
//! *windows*. Every round, each shard publishes a *promise* — a lower bound
//! on the timestamp of any event it may still execute, normally its next
//! pending event — and reads every peer's promise. Given a lower bound
//! `L[j][i]` on the latency of any cross-shard effect from shard `j` to
//! shard `i`, shard `i` may then execute every event before
//! `min over j of (promise_j + L[j][i])`: no peer can send it a message
//! timestamped inside that window, so every shard sees exactly the events a
//! single-threaded run would deliver, in the same order (given
//! deterministic [`EventKey`](crate::EventKey) tie-breaking).
//!
//! [`WindowBarrier`] is the exchange primitive: one slot per shard plus the
//! two rendezvous that make a round of
//! [`publish_mins_timed`](WindowBarrier::publish_mins_timed) consistent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Sentinel published by a shard with no pending events (and no other
/// future cross-shard obligations). Public so callers of
/// [`WindowBarrier::publish_mins_timed`] can interpret raw slot values.
pub const IDLE: u64 = u64::MAX;

/// Barrier used by sharded runs to exchange window promises.
///
/// One round is one [`publish_mins_timed`](WindowBarrier::publish_mins_timed)
/// call per shard:
///
/// 1. each shard writes its promise into its own slot;
/// 2. the `resolve` rendezvous: every slot of this round is written;
/// 3. each shard reads every slot;
/// 4. the round-closing `publish` rendezvous: every shard has finished
///    reading, so a fast shard entering the next round cannot overwrite
///    its slot while a slow peer still reads this round's values.
///
/// If every published value is [`IDLE`], every shard is idle and the
/// simulation has terminated.
///
/// Memory ordering: the per-shard slots are written and read with `Relaxed`
/// ordering. This is sound because `Barrier::wait` establishes
/// happens-before edges between every writer and every reader: a shard
/// reads slot values only after the `resolve` rendezvous, which all writers
/// have passed; and a shard overwrites its slot in round *k+1* only after
/// the round-*k* `publish` rendezvous, which all round-*k* readers have
/// passed.
pub struct WindowBarrier {
    shards: usize,
    mins: Vec<AtomicU64>,
    publish: Barrier,
    resolve: Barrier,
}

impl WindowBarrier {
    /// Create a barrier for `shards` participating worker threads.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "WindowBarrier needs at least one shard");
        Self {
            shards,
            mins: (0..shards).map(|_| AtomicU64::new(IDLE)).collect(),
            publish: Barrier::new(shards),
            resolve: Barrier::new(shards),
        }
    }

    /// Number of participating shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// One full exchange round: publish this shard's promise (in raw
    /// picoseconds, [`IDLE`] when it has none) and fill `out` with *every*
    /// shard's published value, indexed by shard id. Returns how long this
    /// shard blocked waiting for its peers, in host nanoseconds.
    ///
    /// The published value is a *promise*, not just a queue peek: a shard
    /// must publish a value `p` such that every event it will ever hand to
    /// shard `j` from now on arrives no earlier than `p + L[self][j]`.
    /// Publishing the earliest pending event time satisfies this. The
    /// network crate's sharded runner turns the slice into per-shard-pair
    /// window bounds (DESIGN.md §17).
    ///
    /// The wait time is host wall-clock — it varies run to run and between
    /// machines, so it must never feed back into simulated state; it exists
    /// purely for self-profiling.
    pub fn publish_mins_timed(&self, shard: usize, local_ps: u64, out: &mut Vec<u64>) -> u64 {
        self.mins[shard].store(local_ps, Ordering::Relaxed);
        let waited = std::time::Instant::now();
        self.resolve.wait();
        out.clear();
        out.extend(self.mins.iter().map(|m| m.load(Ordering::Relaxed)));
        // Close the round before returning: without this rendezvous a fast
        // shard could re-enter and overwrite its slot for round k+1 while a
        // slow peer is still reading round k's values, handing the slow
        // shard an inconsistent (future) minimum.
        self.publish.wait();
        waited.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Run `rounds` back-to-back exchanges on `k` threads; shard `i`
    /// publishes `value(round, i)`. Returns each shard's observed slices.
    fn exchange_rounds(
        k: usize,
        rounds: u64,
        value: impl Fn(u64, usize) -> u64 + Sync,
    ) -> Vec<Vec<Vec<u64>>> {
        let b = WindowBarrier::new(k);
        thread::scope(|s| {
            let handles: Vec<_> = (0..k)
                .map(|i| {
                    let (b, value) = (&b, &value);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        (0..rounds)
                            .map(|round| {
                                b.publish_mins_timed(i, value(round, i), &mut out);
                                out.clone()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn single_shard_sees_its_own_value() {
        let seen = exchange_rounds(1, 2, |round, _| if round == 0 { 42 } else { IDLE });
        assert_eq!(seen, vec![vec![vec![42], vec![IDLE]]]);
        assert_eq!(WindowBarrier::new(1).shards(), 1);
    }

    #[test]
    fn publish_mins_returns_every_shards_value() {
        let locals = [400u64, 100, IDLE];
        for per_shard in exchange_rounds(3, 1, |_, i| locals[i]) {
            assert_eq!(per_shard, vec![vec![400, 100, IDLE]]);
        }
    }

    #[test]
    fn all_idle_is_visible_to_every_shard() {
        for per_shard in exchange_rounds(3, 1, |_, _| IDLE) {
            assert_eq!(per_shard, vec![vec![IDLE; 3]]);
        }
    }

    #[test]
    fn repeated_rounds_reuse_slots() {
        // Back-to-back rounds with no other synchronisation between them:
        // each round's slice must be exactly that round's values — a fast
        // shard's next-round write must never leak into a slow peer's read.
        let value = |round: u64, i: usize| round * 10 + 5 + 2 * i as u64;
        for per_shard in exchange_rounds(2, 50, value) {
            for (round, slice) in per_shard.iter().enumerate() {
                let round = round as u64;
                assert_eq!(slice, &vec![value(round, 0), value(round, 1)]);
            }
        }
    }

    #[test]
    fn back_to_back_rounds_on_many_shards_stay_exact() {
        // Uneven per-shard values (one shard idle on odd rounds) across
        // four threads: every shard sees every round's exact slice.
        let value = |round: u64, i: usize| {
            if i == 3 && round % 2 == 1 {
                IDLE
            } else {
                1_000 * round + 7 * i as u64
            }
        };
        for per_shard in exchange_rounds(4, 40, value) {
            for (round, slice) in per_shard.iter().enumerate() {
                let round = round as u64;
                let want: Vec<u64> = (0..4).map(|i| value(round, i)).collect();
                assert_eq!(slice, &want, "round {round}");
            }
        }
    }
}
