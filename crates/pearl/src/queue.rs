//! The pending-event set: a stable priority queue ordered by virtual time.
//!
//! Events scheduled for the same instant are delivered in a deterministic
//! order, which makes every simulation reproducible — a property the
//! Mermaid trace-validity argument (physical-time interleaving) relies on.
//! Two tie-break regimes share one entry layout (see [`EventKey`]):
//!
//! * [`EventQueue::push`] assigns a queue-global monotone sequence, so
//!   plain pushes pop FIFO among ties — the classic stable-queue contract.
//! * [`EventQueue::push_keyed`] lets the caller supply the key. The engine
//!   derives it from *simulation state only* (schedule instant, scheduling
//!   component, that component's own push count), so the pop order is
//!   independent of how pushes from different components interleave — the
//!   property that lets a sharded run replay the exact single-threaded
//!   order (see `crate::shard`).
//!
//! A queue should use one regime or the other; mixing them keeps time
//! order but leaves same-instant ties between the two regimes unspecified.
//!
//! # Layout
//!
//! One binary min-heap of compact 32-byte entries — delivery time, the
//! tie-break key and a `u32` slot index — over a payload slab. Heap
//! sifting moves only the compact entries; payloads stay put in the slab
//! from push to pop, and a popped slot goes on a free list for the next
//! push to reuse. Every `(time, key)` is unique, so any correct min-heap
//! pops the same sequence: determinism is structural, not incidental.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// Deterministic tie-break key for events that share a delivery time.
///
/// Ordered lexicographically as `(push_ps, src, seq)`:
///
/// * `push_ps` — virtual instant at which the event was scheduled
///   (earlier-scheduled events deliver first, matching FIFO intuition),
/// * `src` — id of the scheduling component (ties between components
///   scheduled at the same instant resolve by id, not by host-side
///   execution order),
/// * `seq` — the scheduling component's own monotone push counter.
///
/// Every field is derived from simulation state a component can compute
/// locally, never from global push interleaving — so a sharded engine
/// reproduces exactly the keys the single-threaded engine assigns, and
/// with them the exact delivery order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventKey {
    /// Virtual time (ps) at which the push happened.
    pub push_ps: u64,
    /// Scheduling component id.
    pub src: u32,
    /// The scheduling component's push count at the time of the push.
    pub seq: u64,
}

/// A heap entry: the `(time, key)` ordering fields flattened next to the
/// payload's slab slot, so `src` and `slot` share one 8-byte word and the
/// whole entry is 32 bytes.
struct Entry {
    time: Time,
    push_ps: u64,
    seq: u64,
    src: u32,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 32);

impl Entry {
    #[inline]
    fn key(&self) -> EventKey {
        EventKey {
            push_ps: self.push_ps,
            src: self.src,
            seq: self.seq,
        }
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, key) pops
        // first. Field order matches `EventKey`'s derived `Ord`.
        (other.time, other.push_ps, other.src, other.seq).cmp(&(
            self.time,
            self.push_ps,
            self.src,
            self.seq,
        ))
    }
}

/// A stable min-priority queue of timestamped items.
pub struct EventQueue<T> {
    /// Compact `(time, key, slot)` entries; the root is the next to pop.
    heap: BinaryHeap<Entry>,
    /// Payloads by slot. `None` marks a free slot.
    slab: Vec<Option<T>>,
    /// Free slots, reused LIFO so recently touched memory is reused first.
    free: Vec<u32>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Insert `item` for delivery at `time`. Same-time ties pop FIFO
    /// (ordered by a queue-global push counter).
    #[inline]
    pub fn push(&mut self, time: Time, item: T) {
        let seq = self.next_seq;
        self.push_keyed(
            time,
            EventKey {
                push_ps: 0,
                src: 0,
                seq,
            },
            item,
        );
    }

    /// Insert `item` for delivery at `time` with a caller-supplied
    /// tie-break key (see [`EventKey`]). Same-time ties pop in key order.
    #[inline]
    pub fn push_keyed(&mut self, time: Time, key: EventKey, item: T) {
        self.next_seq += 1; // keeps `total_pushed` meaningful
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(item);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("more than 2^32 pending events");
                self.slab.push(Some(item));
                slot
            }
        };
        self.heap.push(Entry {
            time,
            push_ps: key.push_ps,
            seq: key.seq,
            src: key.src,
            slot,
        });
    }

    /// Remove and return the earliest item together with its delivery time.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let e = self.heap.pop()?;
        let item = self.slab[e.slot as usize]
            .take()
            .expect("queued slot holds no payload");
        self.free.push(e.slot);
        Some((e.time, item))
    }

    /// Delivery time of the earliest pending item, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// Delivery time and a view of the earliest pending item, if any.
    #[inline]
    pub fn peek(&self) -> Option<(Time, &T)> {
        self.heap.peek().map(|e| (e.time, self.item(e)))
    }

    #[inline]
    fn item(&self, e: &Entry) -> &T {
        self.slab[e.slot as usize]
            .as_ref()
            .expect("queued slot holds no payload")
    }

    /// Number of pending items.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no items are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending items.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
    }

    /// Total number of items ever pushed (monotone; used by engine stats).
    #[inline]
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }

    /// Non-destructive snapshot of every pending entry, sorted by
    /// `(time, key)` — the exact order the entries would pop in. Slab slot
    /// numbers are deliberately not captured: they are a storage artefact,
    /// not simulation state, and a restored queue assigns fresh ones.
    pub fn snapshot_events(&self) -> Vec<(Time, EventKey, T)>
    where
        T: Clone,
    {
        let mut out: Vec<(Time, EventKey, T)> = self
            .heap
            .iter()
            .map(|e| (e.time, e.key(), self.item(e).clone()))
            .collect();
        out.sort_by_key(|a| (a.0, a.1));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(30), "c");
        q.push(Time::from_ps(10), "a");
        q.push(Time::from_ps(20), "b");
        assert_eq!(q.pop(), Some((Time::from_ps(10), "a")));
        assert_eq!(q.pop(), Some((Time::from_ps(20), "b")));
        assert_eq!(q.pop(), Some((Time::from_ps(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_ps(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_stable() {
        let mut q = EventQueue::new();
        let t = Time::from_ps(1);
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(t, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ps(7), ());
        assert_eq!(q.peek_time(), Some(Time::from_ps(7)));
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 1);
    }

    #[test]
    fn peek_exposes_item() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(9), "later");
        q.push(Time::from_ps(3), "first");
        assert_eq!(q.peek(), Some((Time::from_ps(3), &"first")));
        assert_eq!(q.pop(), Some((Time::from_ps(3), "first")));
        assert_eq!(q.peek(), Some((Time::from_ps(9), &"later")));
    }

    /// A push earlier than everything pending overtakes it, even after
    /// pops have freed slots for reuse.
    #[test]
    fn late_push_below_pending_pops_first() {
        let mut q = EventQueue::new();
        for i in (0u64..10).rev() {
            q.push(Time::from_ps(i * 1_000_000_000), i);
        }
        assert_eq!(q.pop(), Some((Time::from_ps(0), 0)));
        q.push(Time::from_ps(500), 99);
        assert_eq!(q.pop(), Some((Time::from_ps(500), 99)));
        for i in 1u64..10 {
            assert_eq!(q.pop(), Some((Time::from_ps(i * 1_000_000_000), i)));
        }
        assert_eq!(q.pop(), None);
    }

    /// Times spread over nine orders of magnitude, with many ties, pop in
    /// exact `(time, seq)` order.
    #[test]
    fn widely_spread_times_keep_global_order() {
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..500)
            .map(|i: u64| (i * 7_919) % 50 + (i % 7) * 1_000_000 + (i % 3) * 900_000_000)
            .collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ps(t), i);
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort(); // (time, insertion index) == (time, seq) order
        for (t, i) in expect {
            assert_eq!(q.pop(), Some((Time::from_ps(t), i)));
        }
        assert_eq!(q.pop(), None);
    }

    /// A steady push-one-pop-one workload reuses freed slab slots: the
    /// slab never grows past the peak pending count.
    #[test]
    fn popped_slots_are_reused() {
        let mut q = EventQueue::new();
        for i in 0u64..8 {
            q.push(Time::from_ps(i), i);
        }
        for i in 8u64..1_000 {
            let (t, _) = q.pop().unwrap();
            q.push(Time::from_ps(t.as_ps() + 8), i);
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.slab.len(), 8);
        q.clear();
        assert!(q.slab.is_empty() && q.free.is_empty());
    }

    /// Pushes interleaved with pops, scheduled both just ahead of and far
    /// beyond the pop frontier; order must still be exact.
    #[test]
    fn interleaved_near_and_far_traffic() {
        let mut q = EventQueue::new();
        for i in 0u64..64 {
            q.push(Time::from_ps(i * 1_000), i);
        }
        let mut popped = Vec::new();
        for round in 0u64..64 {
            let (t, v) = q.pop().unwrap();
            popped.push((t.as_ps(), v));
            // Schedule ahead of `now` at several distances.
            q.push(Time::from_ps(t.as_ps() + 10), 1_000 + round);
            q.push(Time::from_ps(t.as_ps() + 5_000_000), 2_000 + round);
        }
        let mut last = (0, 0);
        while let Some((t, v)) = q.pop() {
            let key = (t.as_ps(), v);
            assert!(key > last, "out of order: {key:?} after {last:?}");
            last = key;
        }
        assert!(q.is_empty());
    }
}
