//! # mermaid-probe — the workbench's instrumentation layer
//!
//! The paper's Section 3 describes Mermaid as a *workbench*: simulation
//! data can be visualised "both at run-time and post-mortem". This crate
//! is the single event source both halves share. Simulation models emit
//! structured [`SimEvent`]s through a cloneable [`ProbeHandle`]; attached
//! sinks consume them:
//!
//! * [`MetricsAggregator`] — per-component counters, utilisations and
//!   latency histograms, rendered as a [`MetricsReport`] (text table +
//!   CSV) for post-mortem analysis,
//! * [`ChromeTraceSink`] — a `chrome://tracing` / Perfetto JSON trace
//!   (virtual picoseconds mapped to trace microseconds),
//! * [`JsonlSink`] — a line-per-event JSON stream for external tooling,
//! * [`SelfProfiler`] — wall-clock host-side profiling (events/sec,
//!   host time per event category) extending the slowdown machinery of
//!   the paper's Section 6.
//!
//! # Zero cost when disabled
//!
//! A disabled handle is `None` inside: every emission site is one branch
//! and the event is never constructed ([`ProbeHandle::emit`] takes a
//! closure). The engine-side hook is the same shape
//! (`Option<Box<dyn pearl::EngineProbe>>`). The workspace's
//! `probe_overhead` benchmark pins the disabled path within noise of a
//! build without any instrumentation.
//!
//! # Determinism under observation
//!
//! Probes observe the simulation and have no channel back into it: no
//! emission site reads probe state into model behaviour, so a traced run
//! computes bit-identical virtual-time results to an untraced one (the
//! workspace's `tooling_end_to_end` test asserts this).

mod attribution;
mod chrome;
mod jsonl;
mod metrics;
mod profile;
mod value_json;

pub use attribution::{
    AttributionReport, AttributionSink, LinkAttr, RouterAttr, TIMELINE_BUCKETS, TOP_K,
};
pub use chrome::{validate_chrome_trace, ChromeTraceSink, TraceSummary};
pub use jsonl::JsonlSink;
pub use metrics::{MetricsAggregator, MetricsReport};
pub use profile::{HostProfile, SelfProfiler};

use pearl::probe::EngineProbe;
use pearl::{CompId, Time};
use std::cell::RefCell;
use std::rc::Rc;

/// What an abstract processor was doing over a virtual-time span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActKind {
    /// Executing modelled computation.
    Compute,
    /// Blocked in a synchronous send waiting for the ack.
    SendBlock,
    /// Blocked in a receive waiting for data.
    RecvBlock,
    /// Blocked in a remote get waiting for the reply.
    GetBlock,
}

impl ActKind {
    /// Stable lower-case label (used as trace span name and metric key).
    pub fn label(self) -> &'static str {
        match self {
            ActKind::Compute => "compute",
            ActKind::SendBlock => "send_block",
            ActKind::RecvBlock => "recv_block",
            ActKind::GetBlock => "get_block",
        }
    }
}

/// Kind of memory access, mirroring the memory model's access kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// Instruction fetch.
    IFetch,
    /// Data read.
    Read,
    /// Data write.
    Write,
}

impl AccessKind {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::IFetch => "ifetch",
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        }
    }
}

/// Where a memory access was satisfied, mirroring the memory model's hit
/// levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitWhere {
    /// First-level cache hit.
    L1,
    /// Second-level cache hit.
    L2,
    /// Supplied by another CPU's cache (cache-to-cache transfer).
    CacheToCache,
    /// Served from DRAM.
    Dram,
}

impl HitWhere {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            HitWhere::L1 => "l1",
            HitWhere::L2 => "l2",
            HitWhere::CacheToCache => "cache_to_cache",
            HitWhere::Dram => "dram",
        }
    }

    /// True when the access missed every private cache level.
    pub fn is_miss(self) -> bool {
        matches!(self, HitWhere::CacheToCache | HitWhere::Dram)
    }
}

/// Why a router discarded a packet (fault layer; see `mermaid-network`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// The chosen output link was down and no minimal alternative was up.
    LinkDown,
    /// The router itself was down when the packet arrived.
    RouterDown,
    /// The packet failed its checksum (corrupted on a previous link).
    Corrupt,
    /// A transient per-packet loss on an otherwise healthy link.
    Transient,
}

impl DropReason {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::LinkDown => "link_down",
            DropReason::RouterDown => "router_down",
            DropReason::Corrupt => "corrupt",
            DropReason::Transient => "transient",
        }
    }
}

/// One structured observation from a running simulation.
///
/// All times are virtual picoseconds (`pearl::Time`); node/cpu indices
/// match the model's own numbering. Variants with a `start_ps`/`end_ps`
/// pair describe a closed span; the rest are instants.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimEvent {
    /// The engine delivered one event to component `dst`; `pending` is
    /// the queue depth after the pop.
    EngineDelivery {
        ts_ps: u64,
        src: CompId,
        dst: CompId,
        pending: usize,
    },
    /// A processor activation span (paper: component activity over time).
    Activation {
        node: u32,
        kind: ActKind,
        start_ps: u64,
        end_ps: u64,
    },
    /// A message left the sending processor.
    MsgSend {
        ts_ps: u64,
        src: u32,
        dst: u32,
        bytes: u32,
        sync: bool,
    },
    /// A fully reassembled message was consumed by a receive.
    MsgDeliver {
        ts_ps: u64,
        src: u32,
        dst: u32,
        bytes: u32,
        latency_ps: u64,
    },
    /// Latency decomposition of one delivered message: where its
    /// end-to-end time went. The components sum to `latency_ps` exactly
    /// (`overhead + retry + queue + routing + ser + wire == latency`);
    /// `overhead_ps` is software injection overhead (zero for messages
    /// completed by a retransmission), `retry_ps` the fault-recovery span
    /// between the original issue and the completing attempt's injection
    /// (zero for first-transmission completions).
    MsgPath {
        ts_ps: u64,
        src: u32,
        dst: u32,
        bytes: u32,
        latency_ps: u64,
        overhead_ps: u64,
        retry_ps: u64,
        queue_ps: u64,
        routing_ps: u64,
        ser_ps: u64,
        wire_ps: u64,
    },
    /// An outgoing link at `node` towards `to` was occupied by one packet.
    LinkBusy {
        node: u32,
        to: u32,
        start_ps: u64,
        end_ps: u64,
    },
    /// A router forwarded a packet (or packet train) one hop.
    PacketForward {
        ts_ps: u64,
        node: u32,
        to: u32,
        packets: u32,
    },
    /// A router delivered a packet (or packet train) to its local
    /// processor.
    PacketDeliver { ts_ps: u64, node: u32, packets: u32 },
    /// One cache-line access resolved at `hit`.
    CacheAccess {
        ts_ps: u64,
        node: u32,
        cpu: u32,
        kind: AccessKind,
        hit: HitWhere,
    },
    /// A victim line left a cache level (`level` is 1 or 2).
    CacheEvict {
        ts_ps: u64,
        node: u32,
        cpu: u32,
        level: u8,
        dirty: bool,
    },
    /// One bus tenure: granted `[start_ps, end_ps)` after `wait_ps` of
    /// FCFS queueing.
    BusTransaction {
        node: u32,
        start_ps: u64,
        end_ps: u64,
        wait_ps: u64,
    },
    /// A scripted fault toggled the status of the link `node` → `to`.
    LinkFault {
        ts_ps: u64,
        node: u32,
        to: u32,
        up: bool,
    },
    /// A scripted fault toggled a whole router up or down.
    RouterFault { ts_ps: u64, node: u32, up: bool },
    /// A router discarded a packet of message `src`:`seq`.
    PacketDropped {
        ts_ps: u64,
        node: u32,
        src: u32,
        seq: u64,
        reason: DropReason,
    },
    /// A packet of message `src`:`seq` was corrupted crossing the link
    /// `node` → `to` (detected and discarded at the next checksum point).
    PacketCorrupted {
        ts_ps: u64,
        node: u32,
        to: u32,
        src: u32,
        seq: u64,
    },
    /// A processor retransmitted an unacknowledged message (`attempt` is
    /// 1-based: the first retry is attempt 1).
    MsgRetry {
        ts_ps: u64,
        src: u32,
        dst: u32,
        attempt: u32,
    },
    /// A processor exhausted its retries and reported `dst` unreachable.
    MsgGaveUp {
        ts_ps: u64,
        src: u32,
        dst: u32,
        retries: u32,
    },
    /// A router steered a packet around a failed link (the chosen
    /// alternative output is `to`).
    Reroute { ts_ps: u64, node: u32, to: u32 },
}

impl SimEvent {
    /// Stable lower-case label naming the event variant.
    pub fn label(&self) -> &'static str {
        match self {
            SimEvent::EngineDelivery { .. } => "engine_delivery",
            SimEvent::Activation { .. } => "activation",
            SimEvent::MsgSend { .. } => "msg_send",
            SimEvent::MsgDeliver { .. } => "msg_deliver",
            SimEvent::MsgPath { .. } => "msg_path",
            SimEvent::LinkBusy { .. } => "link_busy",
            SimEvent::PacketForward { .. } => "packet_forward",
            SimEvent::PacketDeliver { .. } => "packet_deliver",
            SimEvent::CacheAccess { .. } => "cache_access",
            SimEvent::CacheEvict { .. } => "cache_evict",
            SimEvent::BusTransaction { .. } => "bus_transaction",
            SimEvent::LinkFault { .. } => "link_fault",
            SimEvent::RouterFault { .. } => "router_fault",
            SimEvent::PacketDropped { .. } => "packet_dropped",
            SimEvent::PacketCorrupted { .. } => "packet_corrupted",
            SimEvent::MsgRetry { .. } => "msg_retry",
            SimEvent::MsgGaveUp { .. } => "msg_gave_up",
            SimEvent::Reroute { .. } => "reroute",
        }
    }

    /// True for events describing the *engine's* internals (delivery
    /// bookkeeping) rather than the simulated machine. Sharded runs cannot
    /// reproduce these bit-for-bit — queue depths are per-shard artifacts —
    /// so sharded probe merging carries model-level events only (see
    /// `mermaid-network`'s sharded runner and DESIGN.md §11).
    pub fn is_engine_internal(&self) -> bool {
        matches!(self, SimEvent::EngineDelivery { .. })
    }

    /// The event's anchor timestamp in virtual picoseconds (span start
    /// for span-shaped events).
    pub fn ts_ps(&self) -> u64 {
        match *self {
            SimEvent::EngineDelivery { ts_ps, .. }
            | SimEvent::MsgSend { ts_ps, .. }
            | SimEvent::MsgDeliver { ts_ps, .. }
            | SimEvent::MsgPath { ts_ps, .. }
            | SimEvent::PacketForward { ts_ps, .. }
            | SimEvent::PacketDeliver { ts_ps, .. }
            | SimEvent::CacheAccess { ts_ps, .. }
            | SimEvent::CacheEvict { ts_ps, .. }
            | SimEvent::LinkFault { ts_ps, .. }
            | SimEvent::RouterFault { ts_ps, .. }
            | SimEvent::PacketDropped { ts_ps, .. }
            | SimEvent::PacketCorrupted { ts_ps, .. }
            | SimEvent::MsgRetry { ts_ps, .. }
            | SimEvent::MsgGaveUp { ts_ps, .. }
            | SimEvent::Reroute { ts_ps, .. } => ts_ps,
            SimEvent::Activation { start_ps, .. }
            | SimEvent::LinkBusy { start_ps, .. }
            | SimEvent::BusTransaction { start_ps, .. } => start_ps,
        }
    }
}

/// A consumer of [`SimEvent`]s.
pub trait Probe {
    /// Record one event. Called in the emission order of the simulation,
    /// which for virtual-time instants is nondecreasing in `ts_ps`
    /// per emitting component.
    fn record(&mut self, ev: &SimEvent);
}

/// A sink that just stores every event, in emission order.
///
/// Sharded runs attach one buffer per shard and merge the buffers into a
/// single canonically-ordered stream afterwards (see
/// [`canonical_sort`]); it is also handy in tests.
#[derive(Debug, Default)]
pub struct EventBuffer {
    events: Vec<SimEvent>,
}

impl EventBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        EventBuffer::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Take the recorded events out, leaving the buffer empty.
    pub fn take(&mut self) -> Vec<SimEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Probe for EventBuffer {
    fn record(&mut self, ev: &SimEvent) {
        self.events.push(ev.clone());
    }
}

/// Sort events into the canonical order: primarily by anchor timestamp,
/// with the derived total order on [`SimEvent`] breaking ties.
///
/// Emission order is *not* timestamp order (a handler may emit an event
/// anchored in the future, e.g. a delivery at `now + residue`), so two
/// equal event *multisets* — such as the streams of a serial and a sharded
/// run of the same model — canonicalize to the same sequence. This is the
/// order sharded runs replay merged per-shard buffers in.
pub fn canonical_sort(events: &mut [SimEvent]) {
    events.sort_unstable_by(|a, b| a.ts_ps().cmp(&b.ts_ps()).then_with(|| a.cmp(b)));
}

/// The set of sinks attached to one traced run.
///
/// Concrete optional slots (rather than `Vec<Box<dyn Probe>>`) so results
/// can be read back without downcasting after the run.
#[derive(Default)]
pub struct ProbeStack {
    /// Metrics aggregation for the post-mortem report.
    pub metrics: Option<MetricsAggregator>,
    /// Chrome-trace (`chrome://tracing` / Perfetto) JSON export.
    pub chrome: Option<ChromeTraceSink>,
    /// Line-per-event JSON stream.
    pub jsonl: Option<JsonlSink>,
    /// Wall-clock self-profiler.
    pub profiler: Option<SelfProfiler>,
    /// Bottleneck-attribution sink (utilization timelines + latency
    /// decomposition).
    pub attribution: Option<AttributionSink>,
    /// Raw event buffer (used by sharded runs; available to tests).
    pub buffer: Option<EventBuffer>,
}

impl ProbeStack {
    /// An empty stack (attachable, but records into nothing).
    pub fn new() -> Self {
        ProbeStack::default()
    }

    /// Attach a metrics aggregator.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = Some(MetricsAggregator::new());
        self
    }

    /// Attach a Chrome-trace sink.
    pub fn with_chrome(mut self) -> Self {
        self.chrome = Some(ChromeTraceSink::new());
        self
    }

    /// Attach a JSONL sink.
    pub fn with_jsonl(mut self) -> Self {
        self.jsonl = Some(JsonlSink::new());
        self
    }

    /// Attach a wall-clock self-profiler calibrated to `host_hz` host
    /// cycles per second (see `mermaid`'s slowdown machinery).
    pub fn with_profiler(mut self, host_hz: f64) -> Self {
        self.profiler = Some(SelfProfiler::new(host_hz));
        self
    }

    /// Attach a bottleneck-attribution sink.
    pub fn with_attribution(mut self) -> Self {
        self.attribution = Some(AttributionSink::new());
        self
    }

    /// Attach a raw event buffer.
    pub fn with_buffer(mut self) -> Self {
        self.buffer = Some(EventBuffer::new());
        self
    }
}

impl Probe for ProbeStack {
    fn record(&mut self, ev: &SimEvent) {
        if let Some(m) = &mut self.metrics {
            m.record(ev);
        }
        if let Some(c) = &mut self.chrome {
            c.record(ev);
        }
        if let Some(j) = &mut self.jsonl {
            j.record(ev);
        }
        if let Some(p) = &mut self.profiler {
            p.record(ev);
        }
        if let Some(a) = &mut self.attribution {
            a.record(ev);
        }
        if let Some(b) = &mut self.buffer {
            b.record(ev);
        }
    }
}

/// A cloneable, possibly-disabled reference to a [`ProbeStack`], held by
/// every instrumented component of one simulation.
///
/// Internally `Option<Rc<RefCell<_>>>`: a disabled handle is `None`, so
/// the per-emission cost of an untraced run is a single branch and the
/// event closure is never evaluated. `Rc` (not `Arc`) is deliberate —
/// simulations are single-threaded objects; `parallel_sweep` builds each
/// sim inside its worker thread and never moves one across threads, and
/// a detailed run's per-node workers record into their own handles whose
/// buffers the calling thread replays (see `HybridSim::run`).
#[derive(Clone, Default)]
pub struct ProbeHandle {
    inner: Option<Rc<RefCell<ProbeStack>>>,
}

impl ProbeHandle {
    /// The no-op handle every untraced simulation carries.
    pub fn disabled() -> Self {
        ProbeHandle { inner: None }
    }

    /// A live handle recording into `stack`.
    pub fn new(stack: ProbeStack) -> Self {
        ProbeHandle {
            inner: Some(Rc::new(RefCell::new(stack))),
        }
    }

    /// True when a stack is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record the event built by `f` — the closure runs only when the
    /// handle is enabled.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> SimEvent) {
        if let Some(stack) = &self.inner {
            stack.borrow_mut().record(&f());
        }
    }

    /// Run `f` against the attached stack, if any. This is how results
    /// are read back after a run (components keep their handle clones, so
    /// the stack stays shared).
    pub fn with_stack<R>(&self, f: impl FnOnce(&mut ProbeStack) -> R) -> Option<R> {
        self.inner.as_ref().map(|s| f(&mut s.borrow_mut()))
    }

    /// An adapter implementing [`pearl::EngineProbe`] that forwards
    /// engine deliveries into this handle, or `None` for a disabled
    /// handle.
    pub fn engine_adapter(&self) -> Option<Box<dyn EngineProbe>> {
        self.inner.as_ref()?;
        Some(Box::new(EngineForwarder {
            handle: self.clone(),
        }))
    }

    /// Rendered metrics report, if a [`MetricsAggregator`] is attached.
    /// `horizon_ps` bounds utilisation fractions (normally the run's
    /// finish time).
    pub fn metrics_report(&self, horizon_ps: u64) -> Option<MetricsReport> {
        self.with_stack(|s| s.metrics.as_ref().map(|m| m.report(horizon_ps)))
            .flatten()
    }

    /// The complete Chrome-trace JSON document, if that sink is attached.
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.with_stack(|s| s.chrome.as_ref().map(|c| c.to_json()))
            .flatten()
    }

    /// The JSONL stream recorded so far, if that sink is attached.
    pub fn jsonl_output(&self) -> Option<String> {
        self.with_stack(|s| s.jsonl.as_ref().map(|j| j.output().to_string()))
            .flatten()
    }

    /// The host-side profile, if a [`SelfProfiler`] is attached.
    pub fn host_profile(&self) -> Option<HostProfile> {
        self.with_stack(|s| s.profiler.as_ref().map(|p| p.profile()))
            .flatten()
    }

    /// The bottleneck-attribution report, if an [`AttributionSink`] is
    /// attached. `horizon_ps` bounds utilization fractions (normally the
    /// run's finish time).
    pub fn attribution_report(&self, horizon_ps: u64) -> Option<AttributionReport> {
        self.with_stack(|s| s.attribution.as_ref().map(|a| a.report(horizon_ps)))
            .flatten()
    }

    /// Drain the attached [`EventBuffer`], if any.
    pub fn take_buffer(&self) -> Option<Vec<SimEvent>> {
        self.with_stack(|s| s.buffer.as_mut().map(|b| b.take()))
            .flatten()
    }

    /// Replay a pre-recorded event into the attached sinks (used when
    /// merging per-shard buffers into the caller's stack).
    #[inline]
    pub fn replay(&self, ev: &SimEvent) {
        if let Some(stack) = &self.inner {
            stack.borrow_mut().record(ev);
        }
    }
}

/// Forwards `pearl` engine hooks into a [`ProbeHandle`] as [`SimEvent`]s.
struct EngineForwarder {
    handle: ProbeHandle,
}

impl EngineProbe for EngineForwarder {
    fn delivered(&mut self, now: Time, src: CompId, dst: CompId, pending: usize) {
        self.handle.emit(|| SimEvent::EngineDelivery {
            ts_ps: now.as_ps(),
            src,
            dst,
            pending,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_builds_events() {
        let h = ProbeHandle::disabled();
        assert!(!h.is_enabled());
        let mut built = false;
        h.emit(|| {
            built = true;
            SimEvent::PacketDeliver {
                ts_ps: 0,
                node: 0,
                packets: 1,
            }
        });
        assert!(!built, "closure must not run on a disabled handle");
        assert!(h.engine_adapter().is_none());
        assert!(h.chrome_trace_json().is_none());
        assert!(h.metrics_report(1).is_none());
    }

    #[test]
    fn enabled_handle_fans_out_to_all_sinks() {
        let h = ProbeHandle::new(
            ProbeStack::new()
                .with_metrics()
                .with_chrome()
                .with_jsonl()
                .with_profiler(1e9),
        );
        assert!(h.is_enabled());
        h.emit(|| SimEvent::MsgSend {
            ts_ps: 1_000,
            src: 0,
            dst: 1,
            bytes: 64,
            sync: true,
        });
        h.emit(|| SimEvent::MsgDeliver {
            ts_ps: 5_000,
            src: 0,
            dst: 1,
            bytes: 64,
            latency_ps: 4_000,
        });
        let report = h.metrics_report(10_000).unwrap();
        assert!(report.render().contains("msg"));
        let json = h.chrome_trace_json().unwrap();
        let summary = validate_chrome_trace(&json).unwrap();
        assert!(summary.events >= 2);
        let jsonl = h.jsonl_output().unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        let prof = h.host_profile().unwrap();
        assert_eq!(prof.events, 2);
    }

    #[test]
    fn engine_adapter_forwards_deliveries() {
        let h = ProbeHandle::new(ProbeStack::new().with_jsonl());
        let mut fwd = h.engine_adapter().unwrap();
        fwd.delivered(Time::from_ps(10), 0, 1, 3);
        let out = h.jsonl_output().unwrap();
        assert_eq!(out.lines().count(), 1, "one delivery line: {out}");
        assert!(out.contains("engine_delivery"));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ActKind::Compute.label(), "compute");
        assert_eq!(AccessKind::IFetch.label(), "ifetch");
        assert_eq!(HitWhere::CacheToCache.label(), "cache_to_cache");
        assert!(HitWhere::Dram.is_miss());
        assert!(!HitWhere::L1.is_miss());
        let ev = SimEvent::Activation {
            node: 1,
            kind: ActKind::Compute,
            start_ps: 5,
            end_ps: 9,
        };
        assert_eq!(ev.label(), "activation");
        assert_eq!(ev.ts_ps(), 5);
        assert_eq!(DropReason::LinkDown.label(), "link_down");
        assert_eq!(DropReason::Corrupt.label(), "corrupt");
        let drop = SimEvent::PacketDropped {
            ts_ps: 7,
            node: 2,
            src: 0,
            seq: 3,
            reason: DropReason::Transient,
        };
        assert_eq!(drop.label(), "packet_dropped");
        assert_eq!(drop.ts_ps(), 7);
        assert!(!drop.is_engine_internal());
    }
}
