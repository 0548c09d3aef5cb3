//! Deterministic fault injection for the communication model.
//!
//! A [`FaultSchedule`] describes *when* the simulated machine breaks and
//! *how badly*: scripted link-down/link-up intervals and router failures
//! at exact simulated timestamps, plus per-packet transient loss and
//! corruption rates in parts-per-million. Everything is a pure function
//! of the schedule — no wall clock, no global RNG state:
//!
//! * **Scripted events** are posted to the affected router's own event
//!   stream *before* the run starts, so they consume that router's key
//!   counter at engine time zero. A sharded run posts exactly the same
//!   events for its local routers in the same per-router order, giving
//!   the events bit-identical `EventKey`s to a serial run (DESIGN.md §12).
//! * **Per-packet decisions** (transient drop, corruption) are stateless
//!   hashes over the packet's identity — message id, packet index,
//!   retransmission attempt, and the link being crossed — so the verdict
//!   is independent of event-processing order and therefore identical
//!   between serial and sharded execution.
//!
//! The schedule also carries the [`RetryParams`] of the reliability
//! protocol the abstract processors switch on in fault mode (ack /
//! timeout / retransmit with capped exponential backoff, all in
//! simulated time). `random_link_faults` grows a scripted schedule from
//! the vendored `rand`'s seeded generator, for fuzzing and what-if runs.

use crate::config::NetworkConfig;
use crate::packet::Packet;
use crate::topology::Topology;
use mermaid_ops::NodeId;
use pearl::{Duration, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parts-per-million denominator for the transient fault rates.
pub const PPM: u32 = 1_000_000;

const DROP_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const CORRUPT_SALT: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// One scripted state change of the network fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Take the directed link `from → to` down.
    LinkDown {
        /// Link source (the router that owns the output port).
        from: NodeId,
        /// Link destination.
        to: NodeId,
    },
    /// Bring the directed link `from → to` back up.
    LinkUp {
        /// Link source.
        from: NodeId,
        /// Link destination.
        to: NodeId,
    },
    /// Take a whole router down: it discards every packet it sees.
    RouterDown {
        /// The failing router.
        node: NodeId,
    },
    /// Bring a router back up.
    RouterUp {
        /// The recovering router.
        node: NodeId,
    },
}

impl FaultKind {
    /// The router whose event stream carries this fault (links belong to
    /// the router owning the output port).
    pub fn target(&self) -> NodeId {
        match *self {
            FaultKind::LinkDown { from, .. } | FaultKind::LinkUp { from, .. } => from,
            FaultKind::RouterDown { node } | FaultKind::RouterUp { node } => node,
        }
    }
}

/// A scripted fault at an exact simulated instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the state change takes effect.
    pub at: Time,
    /// What changes.
    pub kind: FaultKind,
}

/// Timing parameters of the reliability protocol, in simulated time.
///
/// The retransmission timeout for attempt `a` (0-based; attempt 0 is the
/// original send) is `min(base_timeout << a, backoff_cap)`. After
/// `max_retries` retransmissions the sender gives up and reports the
/// destination unreachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryParams {
    /// Timeout before the first retransmission.
    pub base_timeout: Duration,
    /// Ceiling of the exponential backoff.
    pub backoff_cap: Duration,
    /// Retransmissions before giving up.
    pub max_retries: u32,
    /// Watchdog for a *blocking receive*: after this long without the
    /// expected arrival the processor abandons the receive and continues
    /// (degraded mode) instead of deadlocking.
    pub recv_timeout: Duration,
}

impl Default for RetryParams {
    fn default() -> Self {
        RetryParams {
            base_timeout: Duration::from_us(200),
            backoff_cap: Duration::from_us(3_200),
            max_retries: 6,
            recv_timeout: Duration::from_ms(50),
        }
    }
}

impl RetryParams {
    /// Parameters scaled to a network's actual per-hop cost, so the first
    /// timeout comfortably exceeds a healthy round trip (slow stores like
    /// the T805 need a far longer fuse than the GHz test network).
    pub fn default_for(cfg: &NetworkConfig) -> Self {
        let per_hop = cfg.router.routing_delay
            + cfg.link.wire_latency
            + cfg
                .link
                .transfer_time(cfg.router.header_bytes + cfg.router.max_packet_payload);
        let software = cfg.software.send_overhead + cfg.software.recv_overhead;
        let base = Duration::from_ps((per_hop.as_ps().saturating_mul(8)) + software.as_ps())
            .max(Duration::from_us(1));
        let horizon = give_up_horizon(base, Duration::from_ps(base.as_ps() * 16), 6);
        RetryParams {
            base_timeout: base,
            backoff_cap: Duration::from_ps(base.as_ps() * 16),
            max_retries: 6,
            recv_timeout: Duration::from_ps(horizon.as_ps() * 2),
        }
    }

    /// The retransmission timeout for 0-based `attempt`.
    pub fn timeout(&self, attempt: u32) -> Duration {
        Duration::from_ps(
            shl_saturating(self.base_timeout.as_ps(), attempt).min(self.backoff_cap.as_ps()),
        )
    }
}

/// `v << shift`, saturating at `u64::MAX` when bits would be shifted out
/// (a plain `checked_shl` only guards the shift *amount*, not overflow).
fn shl_saturating(v: u64, shift: u32) -> u64 {
    if v == 0 {
        0
    } else if shift >= v.leading_zeros() {
        u64::MAX
    } else {
        v << shift
    }
}

/// Total simulated time a sender spends before giving up: the sum of all
/// retransmission timeouts.
fn give_up_horizon(base: Duration, cap: Duration, max_retries: u32) -> Duration {
    let mut total = 0u64;
    for a in 0..=max_retries {
        total = total.saturating_add(shl_saturating(base.as_ps(), a).min(cap.as_ps()));
    }
    Duration::from_ps(total)
}

/// A deterministic description of every fault a run will experience.
///
/// Cloneable and immutable once built; the simulation shares one schedule
/// across all routers and processors (serial) or all shards (sharded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    /// Transient per-packet loss rate per link traversal, in
    /// parts-per-million of [`PPM`].
    pub drop_ppm: u32,
    /// Per-packet corruption rate per link traversal (detected and
    /// discarded at the next router's checksum point), parts-per-million.
    pub corrupt_ppm: u32,
    /// Seed of every per-packet fault decision (and of
    /// [`FaultSchedule::random_link_faults`]).
    pub seed: u64,
    /// Reliability-protocol timing.
    pub retry: RetryParams,
}

impl FaultSchedule {
    /// An empty schedule: no scripted events, zero transient rates. The
    /// reliability protocol is still armed — `Some(empty schedule)` is a
    /// healthy machine with fault *tolerance* compiled in, `None` is the
    /// fault layer switched off entirely.
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            events: Vec::new(),
            drop_ppm: 0,
            corrupt_ppm: 0,
            seed,
            retry: RetryParams::default(),
        }
    }

    /// Builder: replace the retry parameters.
    pub fn with_retry(mut self, retry: RetryParams) -> Self {
        self.retry = retry;
        self
    }

    /// Builder: transient loss rate in parts-per-million.
    pub fn with_drop_ppm(mut self, ppm: u32) -> Self {
        assert!(ppm <= PPM, "drop rate above 1.0");
        self.drop_ppm = ppm;
        self
    }

    /// Builder: corruption rate in parts-per-million.
    pub fn with_corrupt_ppm(mut self, ppm: u32) -> Self {
        assert!(ppm <= PPM, "corruption rate above 1.0");
        self.corrupt_ppm = ppm;
        self
    }

    /// Script one raw fault event.
    pub fn push(&mut self, at: Time, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
    }

    /// Script a *bidirectional* link cut between `a` and `b` at `down`,
    /// optionally healing at `up`.
    pub fn cut_link(&mut self, a: NodeId, b: NodeId, down: Time, up: Option<Time>) {
        self.push(down, FaultKind::LinkDown { from: a, to: b });
        self.push(down, FaultKind::LinkDown { from: b, to: a });
        if let Some(up) = up {
            assert!(up > down, "link must heal after it fails");
            self.push(up, FaultKind::LinkUp { from: a, to: b });
            self.push(up, FaultKind::LinkUp { from: b, to: a });
        }
    }

    /// Script a router outage at `down`, optionally recovering at `up`.
    pub fn crash_router(&mut self, node: NodeId, down: Time, up: Option<Time>) {
        self.push(down, FaultKind::RouterDown { node });
        if let Some(up) = up {
            assert!(up > down, "router must recover after it fails");
            self.push(up, FaultKind::RouterUp { node });
        }
    }

    /// Grow `count` random bidirectional link outages over `[0, horizon)`
    /// using the vendored seeded generator. Each outage picks a random
    /// topology link, a random start, and a random duration (some outages
    /// extend past `horizon`, i.e. never heal inside the run).
    pub fn random_link_faults(mut self, topo: &Topology, count: usize, horizon: Time) -> Self {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let nodes = topo.nodes();
        if nodes < 2 || horizon.as_ps() < 2 {
            return self;
        }
        for _ in 0..count {
            // Rejection-free: pick a node, then one of its neighbors.
            let a = rng.gen_range(0..nodes as u64) as NodeId;
            let nbrs = topo.neighbors(a);
            let b = nbrs[rng.gen_range(0..nbrs.len() as u64) as usize];
            let down = Time::from_ps(rng.gen_range(0..horizon.as_ps()));
            let dur = rng.gen_range(1..horizon.as_ps());
            let up = down.as_ps().checked_add(dur).map(Time::from_ps);
            let heals = rng.gen_bool(0.75);
            self.cut_link(a, b, down, if heals { up } else { None });
        }
        self
    }

    /// The scripted events, in script order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The scripted events a given router must receive, in script order.
    /// Serial and sharded runners both post per-router in this order, so
    /// the events' keys match bit-for-bit.
    pub fn events_for(&self, node: NodeId) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.kind.target() == node)
    }

    /// Check every scripted event against a topology: nodes in range,
    /// link events naming actual topology links.
    pub fn try_validate(&self, topo: &Topology) -> Result<(), String> {
        let nodes = topo.nodes();
        for ev in &self.events {
            match ev.kind {
                FaultKind::LinkDown { from, to } | FaultKind::LinkUp { from, to } => {
                    if from as u64 >= nodes as u64 || to as u64 >= nodes as u64 {
                        return Err(format!(
                            "fault link {from}-{to} out of range for {} nodes",
                            nodes
                        ));
                    }
                    if !topo.neighbors(from).contains(&to) {
                        return Err(format!(
                            "fault link {from}-{to} is not a link of {}",
                            topo.label()
                        ));
                    }
                }
                FaultKind::RouterDown { node } | FaultKind::RouterUp { node } => {
                    if node as u64 >= nodes as u64 {
                        return Err(format!(
                            "fault router {node} out of range for {} nodes",
                            nodes
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Stateless verdict: is this packet lost crossing `from → to`?
    pub fn drops_packet(&self, from: NodeId, to: NodeId, pkt: &Packet) -> bool {
        self.drop_ppm > 0 && draw_ppm(self.seed ^ DROP_SALT, from, to, pkt) < self.drop_ppm
    }

    /// Stateless verdict: is this packet corrupted crossing `from → to`?
    pub fn corrupts_packet(&self, from: NodeId, to: NodeId, pkt: &Packet) -> bool {
        self.corrupt_ppm > 0 && draw_ppm(self.seed ^ CORRUPT_SALT, from, to, pkt) < self.corrupt_ppm
    }

    /// Parse a fault-spec string (the CLI's `--faults` argument, or the
    /// contents of a fault file). Clauses are separated by `;` or
    /// newlines; `#` starts a comment. Times are simulated nanoseconds.
    ///
    /// ```text
    /// link:A-B:DOWN_NS[:UP_NS]    cut link A<->B (heal at UP_NS if given)
    /// router:N:DOWN_NS[:UP_NS]    crash router N (recover at UP_NS)
    /// drop:PPM                    transient loss, parts-per-million
    /// corrupt:PPM                 corruption, parts-per-million
    /// retries:N                   retransmissions before giving up
    /// timeout:NS                  base retransmission timeout
    /// cap:NS                      backoff ceiling
    /// recv-timeout:NS             blocking-receive watchdog
    /// ```
    pub fn parse(spec: &str, seed: u64, defaults: RetryParams) -> Result<Self, String> {
        let mut sched = FaultSchedule::new(seed).with_retry(defaults);
        for raw in spec.split([';', '\n']) {
            let clause = raw.split('#').next().unwrap_or("").trim();
            if clause.is_empty() {
                continue;
            }
            let parts: Vec<&str> = clause.split(':').map(str::trim).collect();
            let ns = |s: &str| -> Result<u64, String> {
                s.parse::<u64>()
                    .map_err(|_| format!("bad time `{s}` in fault clause `{clause}` (ns)"))
            };
            match parts[0] {
                "link" => {
                    if parts.len() < 3 || parts.len() > 4 {
                        return Err(format!("expected link:A-B:DOWN[:UP], got `{clause}`"));
                    }
                    let (a, b) = parts[1]
                        .split_once('-')
                        .ok_or_else(|| format!("expected A-B in `{clause}`"))?;
                    let a: NodeId = a
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad node `{a}` in `{clause}`"))?;
                    let b: NodeId = b
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad node `{b}` in `{clause}`"))?;
                    let down = Time::from_ns(ns(parts[1 + 1])?);
                    let up = match parts.get(3) {
                        Some(s) => {
                            let up = Time::from_ns(ns(s)?);
                            if up <= down {
                                return Err(format!("link must heal after it fails: `{clause}`"));
                            }
                            Some(up)
                        }
                        None => None,
                    };
                    sched.cut_link(a, b, down, up);
                }
                "router" => {
                    if parts.len() < 3 || parts.len() > 4 {
                        return Err(format!("expected router:N:DOWN[:UP], got `{clause}`"));
                    }
                    let node: NodeId = parts[1]
                        .parse()
                        .map_err(|_| format!("bad node `{}` in `{clause}`", parts[1]))?;
                    let down = Time::from_ns(ns(parts[2])?);
                    let up = match parts.get(3) {
                        Some(s) => {
                            let up = Time::from_ns(ns(s)?);
                            if up <= down {
                                return Err(format!(
                                    "router must recover after it fails: `{clause}`"
                                ));
                            }
                            Some(up)
                        }
                        None => None,
                    };
                    sched.crash_router(node, down, up);
                }
                "drop" | "corrupt" => {
                    if parts.len() != 2 {
                        return Err(format!("expected {}:PPM, got `{clause}`", parts[0]));
                    }
                    let ppm: u32 = parts[1]
                        .parse()
                        .map_err(|_| format!("bad ppm `{}` in `{clause}`", parts[1]))?;
                    if ppm > PPM {
                        return Err(format!("rate {ppm} above {PPM} ppm in `{clause}`"));
                    }
                    if parts[0] == "drop" {
                        sched.drop_ppm = ppm;
                    } else {
                        sched.corrupt_ppm = ppm;
                    }
                }
                "retries" => {
                    if parts.len() != 2 {
                        return Err(format!("expected retries:N, got `{clause}`"));
                    }
                    sched.retry.max_retries = parts[1]
                        .parse()
                        .map_err(|_| format!("bad count `{}` in `{clause}`", parts[1]))?;
                }
                "timeout" => {
                    if parts.len() != 2 {
                        return Err(format!("expected timeout:NS, got `{clause}`"));
                    }
                    sched.retry.base_timeout = Duration::from_ns(ns(parts[1])?);
                }
                "cap" => {
                    if parts.len() != 2 {
                        return Err(format!("expected cap:NS, got `{clause}`"));
                    }
                    sched.retry.backoff_cap = Duration::from_ns(ns(parts[1])?);
                }
                "recv-timeout" => {
                    if parts.len() != 2 {
                        return Err(format!("expected recv-timeout:NS, got `{clause}`"));
                    }
                    sched.retry.recv_timeout = Duration::from_ns(ns(parts[1])?);
                }
                other => {
                    return Err(format!(
                        "unknown fault clause `{other}` (expected link, router, drop, \
                         corrupt, retries, timeout, cap, or recv-timeout)"
                    ));
                }
            }
            // A zero timeout, cap or watchdog would fire every retry (or
            // abandon every blocking receive) at the same instant.
            let r = &sched.retry;
            for (name, d) in [
                ("timeout", r.base_timeout),
                ("cap", r.backoff_cap),
                ("recv-timeout", r.recv_timeout),
            ] {
                if d.as_ps() == 0 {
                    return Err(format!("{name} must be positive"));
                }
            }
        }
        Ok(sched)
    }
}

/// SplitMix64 finaliser: the avalanche stage behind every per-packet
/// fault decision.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Hash a packet's identity plus the link it is crossing down to a value
/// in `[0, PPM)`. Pure: the verdict depends only on the arguments, never
/// on simulation order — the cornerstone of serial/sharded identity.
fn draw_ppm(seed: u64, from: NodeId, to: NodeId, pkt: &Packet) -> u32 {
    let mut h = mix(seed);
    h = mix(h ^ (((from as u64) << 32) | to as u64));
    h = mix(h ^ (((pkt.msg.src as u64) << 32) | pkt.index as u64));
    h = mix(h ^ pkt.msg.seq);
    h = mix(h ^ pkt.attempt as u64);
    (h % PPM as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{MsgId, PacketKind, PathDecomp};

    fn pkt(seq: u64, index: u32, attempt: u32) -> Packet {
        Packet {
            msg: MsgId { src: 0, seq },
            dst: 1,
            index,
            count: index + 1,
            payload: 8,
            msg_bytes: 8,
            kind: PacketKind::Data { sync: false },
            sent_at: Time::ZERO,
            attempt,
            corrupted: false,
            path: PathDecomp::default(),
        }
    }

    #[test]
    fn per_packet_decisions_are_pure_and_attempt_sensitive() {
        let s = FaultSchedule::new(42).with_drop_ppm(500_000);
        let p = pkt(7, 0, 0);
        assert_eq!(s.drops_packet(0, 1, &p), s.drops_packet(0, 1, &p));
        // Roughly half of many draws land below 50%.
        let hits = (0..1000)
            .filter(|&i| s.drops_packet(0, 1, &pkt(i, 0, 0)))
            .count();
        assert!((300..700).contains(&hits), "suspicious drop rate: {hits}");
        // A retry of the same packet redraws its luck.
        let redraw = (0..1000)
            .filter(|&i| s.drops_packet(0, 1, &pkt(i, 0, 0)) != s.drops_packet(0, 1, &pkt(i, 0, 1)))
            .count();
        assert!(redraw > 200, "attempt must change the draw: {redraw}");
    }

    #[test]
    fn zero_rates_never_fire() {
        let s = FaultSchedule::new(1);
        assert!(!s.drops_packet(0, 1, &pkt(0, 0, 0)));
        assert!(!s.corrupts_packet(0, 1, &pkt(0, 0, 0)));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = RetryParams {
            base_timeout: Duration::from_ns(100),
            backoff_cap: Duration::from_ns(350),
            max_retries: 5,
            recv_timeout: Duration::from_us(10),
        };
        assert_eq!(r.timeout(0), Duration::from_ns(100));
        assert_eq!(r.timeout(1), Duration::from_ns(200));
        assert_eq!(r.timeout(2), Duration::from_ns(350));
        assert_eq!(r.timeout(60), Duration::from_ns(350));
    }

    #[test]
    fn cut_link_scripts_both_directions() {
        let mut s = FaultSchedule::new(0);
        s.cut_link(2, 3, Time::from_ns(10), Some(Time::from_ns(20)));
        assert_eq!(s.events().len(), 4);
        assert_eq!(s.events_for(2).count(), 2);
        assert_eq!(s.events_for(3).count(), 2);
        assert_eq!(s.events_for(4).count(), 0);
    }

    #[test]
    fn validate_rejects_non_links_and_out_of_range() {
        let topo = Topology::Ring(4);
        let mut ok = FaultSchedule::new(0);
        ok.cut_link(0, 1, Time::from_ns(5), None);
        assert!(ok.try_validate(&topo).is_ok());
        let mut non_link = FaultSchedule::new(0);
        non_link.cut_link(0, 2, Time::from_ns(5), None);
        assert!(non_link.try_validate(&topo).is_err());
        let mut oob = FaultSchedule::new(0);
        oob.crash_router(9, Time::from_ns(5), None);
        assert!(oob.try_validate(&topo).is_err());
    }

    #[test]
    fn parse_round_trips_the_readme_example() {
        let s = FaultSchedule::parse(
            "link:0-1:1000:50000; drop:1000 # flaky\ncorrupt:500; retries:3; timeout:2000",
            9,
            RetryParams::default(),
        )
        .unwrap();
        assert_eq!(s.events().len(), 4);
        assert_eq!(s.drop_ppm, 1_000);
        assert_eq!(s.corrupt_ppm, 500);
        assert_eq!(s.retry.max_retries, 3);
        assert_eq!(s.retry.base_timeout, Duration::from_ns(2_000));
        assert_eq!(s.seed, 9);

        for bad in [
            "link:0:10",
            "link:0-1:10:5",
            "router:1:x",
            "drop:2000000",
            "bogus:1",
            "timeout:0",
            "drop:100000; cap:0",
            "recv-timeout:0",
        ] {
            assert!(
                FaultSchedule::parse(bad, 0, RetryParams::default()).is_err(),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn random_faults_are_reproducible_and_valid() {
        let topo = Topology::Mesh2D { w: 4, h: 4 };
        let a = FaultSchedule::new(7).random_link_faults(&topo, 5, Time::from_us(100));
        let b = FaultSchedule::new(7).random_link_faults(&topo, 5, Time::from_us(100));
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.try_validate(&topo).is_ok());
        assert!(a.events().len() >= 10, "5 cuts, 2+ events each");
        let c = FaultSchedule::new(8).random_link_faults(&topo, 5, Time::from_us(100));
        assert_ne!(a, c, "different seed, different schedule");
    }
}
