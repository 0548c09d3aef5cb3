//! The one synchronisation primitive of a sharded run: [`WindowBarrier`].
//!
//! Shards advance in conservative windows: each round every shard publishes
//! a *promise* (a lower bound on the time of any event it may still
//! execute) and reads every peer's; the network crate turns those into
//! per-shard window bounds (DESIGN.md §11, §17).
//!
//! **Epochs.** Every [`wait`](WindowBarrier::wait) or
//! [`publish_mins_timed`](WindowBarrier::publish_mins_timed) call is one
//! arrival on one atomic counter; a shard's `e`-th arrival completes when
//! the counter reaches `e * k`. No shard starts arrival `e + 1` before all
//! have made arrival `e`, so a shard reads its own epoch off the counter.
//!
//! **Double-buffered promise slots.** A publish in epoch `e` writes its
//! shard's slot `e & 1`, arrives, and once the epoch is complete reads slot
//! `e & 1` of every shard. That slot is next written in epoch `e + 2` at
//! the earliest, by a shard that has completed epoch `e + 1` — which needs
//! the arrival of every reader of epoch `e`, made after its reads. So
//! back-to-back exchanges stay exact with no round-closing rendezvous.
//! Memory ordering: slots are `Relaxed`; an arrival is a `Release`
//! read-modify-write and a waiter's check an `Acquire` load of the same
//! counter, and since every arrival is a read-modify-write, the load that
//! sees an epoch complete synchronises with every arrival into it. Hence
//! each slot write happens-before every read of that epoch, and each read
//! happens-before the rewrite two epochs on.
//!
//! **Waiting and aborting.** A waiter spins with `spin_loop` for a bounded
//! count, then loops on `yield_now`; there is no park. A shard that fails
//! or panics calls [`abort`](WindowBarrier::abort) (for panics,
//! [`abort_on_unwind`](WindowBarrier::abort_on_unwind) does it), and every
//! waiter returns [`Aborted`] instead of waiting for it forever.

use std::hint::spin_loop;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::Instant;

/// Sentinel published by a shard with no pending events (and no other
/// future cross-shard obligations). Public so callers of
/// [`WindowBarrier::publish_mins_timed`] can interpret raw slot values.
pub const IDLE: u64 = u64::MAX;

/// Polls of the arrival counter with `spin_loop` before a waiter starts
/// yielding its core: a few microseconds, which catches a peer on another
/// core finishing a typical window without giving up the time slice.
const SPIN_POLLS: u32 = 128;

/// A shard aborted the barrier (it failed or panicked): the run cannot
/// complete, and the waiter should return early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aborted;

/// The barrier a sharded run synchronises on: rendezvous, promise
/// exchange and abort (see the module docs for the protocol).
pub struct WindowBarrier {
    shards: u64,
    /// Total arrivals of every shard since construction.
    arrivals: Padded<AtomicU64>,
    aborted: AtomicBool,
    /// `slots[shard].0[epoch & 1]`: the promise a shard published in an
    /// epoch of that parity.
    slots: Vec<Padded<[AtomicU64; 2]>>,
}

/// Keeps a value on cache lines of its own (128 bytes also covers the
/// adjacent-line prefetcher), so the hot counter and slots never share a
/// line with unrelated data. Unpadded, two builds that differed only in
/// comments ran the same 4-shard workload 4x apart.
#[repr(align(128))]
struct Padded<T>(T);

impl WindowBarrier {
    /// Create a barrier for `shards` participating worker threads.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "WindowBarrier needs at least one shard");
        Self {
            shards: shards as u64,
            arrivals: Padded(AtomicU64::new(0)),
            aborted: AtomicBool::new(false),
            slots: (0..shards)
                .map(|_| Padded([AtomicU64::new(IDLE), AtomicU64::new(IDLE)]))
                .collect(),
        }
    }

    /// One arrival: block until every shard has made the same number of
    /// arrivals. Returns how long this shard waited, in host nanoseconds,
    /// or [`Aborted`] once a peer aborted the barrier.
    pub fn wait(&self) -> Result<u64, Aborted> {
        let epoch = self.arrivals.0.fetch_add(1, Ordering::Release) / self.shards + 1;
        self.wait_for(epoch)
    }

    /// One exchange round, and one arrival: publish this shard's promise
    /// (in raw picoseconds, [`IDLE`] when it has none) and fill `out` with
    /// *every* shard's promise of the same epoch, indexed by shard id.
    /// Returns how long this shard waited, in host nanoseconds, or
    /// [`Aborted`] once a peer aborted the barrier.
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
    pub fn publish_mins_timed(
        &self,
        shard: usize,
        local_ps: u64,
        out: &mut Vec<u64>,
    ) -> Result<u64, Aborted> {
        // This shard has not arrived for the coming epoch yet, so the
        // counter still reads inside the previous one.
        let epoch = self.arrivals.0.load(Ordering::Relaxed) / self.shards + 1;
        let parity = (epoch & 1) as usize;
        self.slots[shard].0[parity].store(local_ps, Ordering::Relaxed);
        self.arrivals.0.fetch_add(1, Ordering::Release);
        let waited = self.wait_for(epoch)?;
        out.clear();
        out.extend(
            self.slots
                .iter()
                .map(|s| s.0[parity].load(Ordering::Relaxed)),
        );
        Ok(waited)
    }

    /// Release every current and future waiter with [`Aborted`]. Called by
    /// a shard that cannot finish the run, so its peers need not wait for
    /// an arrival that will never come.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
    }

    /// A guard that [`abort`](Self::abort)s the barrier if it is dropped
    /// while its thread unwinds from a panic. Hold it for the whole life of
    /// a shard worker.
    pub fn abort_on_unwind(&self) -> AbortOnUnwind<'_> {
        AbortOnUnwind(self)
    }

    /// Block until epoch `epoch` is complete, spinning first and then
    /// yielding. Once the barrier is aborted every wait fails, even one
    /// whose epoch is complete: the run is lost either way.
    fn wait_for(&self, epoch: u64) -> Result<u64, Aborted> {
        let target = epoch * self.shards;
        let started = Instant::now();
        let mut polls = 0u32;
        loop {
            if self.aborted.load(Ordering::Acquire) {
                return Err(Aborted);
            }
            if self.arrivals.0.load(Ordering::Acquire) >= target {
                return Ok(started.elapsed().as_nanos() as u64);
            }
            if polls < SPIN_POLLS {
                polls += 1;
                spin_loop();
            } else {
                thread::yield_now();
            }
        }
    }
}

/// Returned by [`WindowBarrier::abort_on_unwind`]: aborts the barrier when
/// dropped during a panic, and does nothing on a normal drop.
pub struct AbortOnUnwind<'a>(&'a WindowBarrier);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

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
                                b.publish_mins_timed(i, value(round, i), &mut out).unwrap();
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
        for per_shard in exchange_rounds(2, 2_000, value) {
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
        for per_shard in exchange_rounds(4, 500, value) {
            for (round, slice) in per_shard.iter().enumerate() {
                let round = round as u64;
                let want: Vec<u64> = (0..4).map(|i| value(round, i)).collect();
                assert_eq!(slice, &want, "round {round}");
            }
        }
    }

    #[test]
    fn plain_waits_interleave_with_exchanges() {
        // The sharded runner's round shape: a bare rendezvous, then an
        // exchange. Shifting the epoch parity must not disturb the slots.
        let b = WindowBarrier::new(3);
        thread::scope(|s| {
            for i in 0..3 {
                let b = &b;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..300u64 {
                        b.wait().unwrap();
                        if round % 7 == 0 {
                            b.wait().unwrap();
                        }
                        b.publish_mins_timed(i, round * 3 + i as u64, &mut out)
                            .unwrap();
                        assert_eq!(out, vec![round * 3, round * 3 + 1, round * 3 + 2]);
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_shard_releases_its_peers() {
        // Shard 2 panics before its first arrival; the guard aborts the
        // barrier, so both peers return `Aborted` instead of hanging. A
        // watchdog turns a regression into a failure, not a stuck suite.
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let b = WindowBarrier::new(3);
            let results: Vec<_> = thread::scope(|s| {
                let handles: Vec<_> = (0..3)
                    .map(|i| {
                        let b = &b;
                        s.spawn(move || {
                            let _guard = b.abort_on_unwind();
                            if i == 2 {
                                panic!("shard 2 fails before its first arrival");
                            }
                            let mut out = Vec::new();
                            (b.wait(), b.publish_mins_timed(i, 5, &mut out))
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            tx.send(results).unwrap();
        });
        let results = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("peers of a panicking shard must not hang");
        assert!(results[2].is_err(), "shard 2 panicked");
        for r in &results[..2] {
            let (wait, publish) = r.as_ref().expect("peers return, not panic");
            assert_eq!(*wait, Err(Aborted));
            assert_eq!(*publish, Err(Aborted));
        }
    }

    #[test]
    fn a_normal_drop_of_the_guard_does_not_abort() {
        let b = WindowBarrier::new(1);
        drop(b.abort_on_unwind());
        assert!(b.wait().is_ok());
        let b2 = WindowBarrier::new(2);
        b2.abort();
        assert_eq!(b2.wait(), Err(Aborted));
    }
}
