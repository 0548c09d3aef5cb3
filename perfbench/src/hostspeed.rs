//! Host-speed probe: a fixed kernel timed next to every simulator call so
//! that host times can be corrected for the speed state of a shared host.
//!
//! On the 2-vCPU virtual machine the benchmark was defined on, the same
//! call runs up to 1.5x slower for tens of seconds at a time while other
//! tenants load the physical cores. A plain arithmetic loop barely notices
//! (±4 %); this kernel mixes the two access patterns that dominate the
//! simulator — a binary-heap event queue over a hashed state table, like
//! `pearl`'s dispatch loop, and a direct-mapped tag lookup over a streaming
//! address trace, like the `memory` cache model — and tracks the slowdown:
//! over a 4-minute trace, 20-call medians of `torus_a2a_serial` varied by
//! 11 % (coefficient of variation) and `hybrid_e1` by 14 %, against 2.9 %
//! and 4.1 % after dividing each call by the probe run next to it.
//!
//! The kernel is the benchmark's own code, not the program's, so a change
//! to the program never moves it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Probe host seconds that define one reference second. Reported times are
/// `raw × REFERENCE_S / probe`, which is close to raw host time when the
/// host is quiet (the probe took about this long then).
pub const REFERENCE_S: f64 = 0.05;

const LIVE_EVENTS: u64 = 8192;
const EVENTS: usize = 300_000;
const TABLE_SLOTS: usize = 1 << 17;
const CACHE_SETS: usize = 1 << 16;
const ACCESSES: usize = 1_500_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The probe's working set, allocated once and reused by every run, so that
/// the probe leaves the allocator's state (and the peak RSS) alone.
pub struct HostProbe {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    table: Vec<u64>,
    tags: Vec<u64>,
}

impl HostProbe {
    /// Allocate the working set and run the kernel once, so that later
    /// runs time no page faults.
    pub fn new() -> Self {
        let mut p = HostProbe {
            heap: BinaryHeap::with_capacity(LIVE_EVENTS as usize),
            table: vec![0; TABLE_SLOTS],
            tags: vec![u64::MAX; CACHE_SETS],
        };
        p.run();
        p
    }

    /// Run the kernel once; returns its host seconds.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let heap = &mut self.heap;
        heap.clear();
        for id in 0..LIVE_EVENTS {
            heap.push(Reverse((xorshift(&mut x) % 100_000, id)));
        }
        for _ in 0..EVENTS {
            let Reverse((now, id)) = heap.pop().expect("every pop is followed by a push");
            let r = xorshift(&mut x);
            let slot = ((id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ r) % TABLE_SLOTS as u64) as usize;
            self.table[slot] = self.table[slot].wrapping_add(now);
            heap.push(Reverse((now + 1 + r % 5000 + (self.table[slot] & 63), id)));
        }
        let (mut addr, mut hits) = (0_u64, 0_u64);
        for _ in 0..ACCESSES {
            let r = xorshift(&mut x);
            addr = if r.is_multiple_of(4) {
                r % (1 << 22)
            } else {
                addr + 4
            };
            let line = addr >> 4;
            let set = (line % CACHE_SETS as u64) as usize;
            let tag = line / CACHE_SETS as u64;
            if self.tags[set] == tag {
                hits += 1;
            } else {
                self.tags[set] = tag;
            }
        }
        std::hint::black_box((&*heap, hits));
        t.elapsed().as_secs_f64()
    }
}
