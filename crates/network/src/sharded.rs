//! Sharded (multi-threaded) execution of the communication model.
//!
//! The machine's nodes are partitioned into contiguous shards
//! ([`Partition`]); each shard runs its routers and processors in a
//! private [`pearl::Engine`] on its own thread. Threads advance in
//! conservative windows. Every round each shard publishes a *promise* —
//! its earliest pending event time — and reads every peer's
//! ([`WindowBarrier::publish_mins_timed`]). Shard `i` then executes all
//! its events before `min over j of (promise_j + L[j][i])`, capped by its
//! own round trip `promise_i + min_j(L[i][j] + L[j][i])`, where `L` is the
//! per-shard-pair lookahead matrix ([`PairLookahead`]): a lower bound on
//! the modelled latency of any effect from shard `j` reaching shard `i`.
//! A cross-shard message produced inside the window therefore arrives
//! after the receiver's window ends, so no shard can miss an event — and
//! because cross-shard messages carry the exact [`pearl::EventKey`] the
//! serial schedule would have used, each shard's queue pops in exactly the
//! serial delivery order. A sharded run is therefore *bit-identical* to
//! [`CommSim::run`]: same results, same per-node statistics, same
//! model-level probe events. See DESIGN.md §11 and §17 for the argument.
//!
//! # One round
//!
//! A round is two arrivals at the run's one [`WindowBarrier`]:
//!
//! 1. flush: append the last window's cross-shard messages to each
//!    destination shard's mailbox (a `Mutex<Vec>`; one append per
//!    destination with traffic);
//! 2. [`wait`](WindowBarrier::wait): every shard has flushed;
//! 3. drain: take this shard's mailbox and post its messages at their
//!    serial event keys;
//! 4. [`publish_mins_timed`](WindowBarrier::publish_mins_timed): exchange
//!    promises, then run the window.
//!
//! A mailbox is appended to only in step 1 and emptied only in step 3, and
//! the two arrivals order them: a drain follows every sender's flush
//! arrival, and a sender's next append follows its promise-exchange
//! arrival, which no shard gets past before every receiver has drained.
//! So a drain sees exactly the last window's messages, and nothing ever
//! waits on a mailbox. A checkpoint capture adds two plain
//! arrivals (pieces deposited; composed). A shard that fails to restore,
//! or panics, aborts the barrier so its peers return instead of hanging.
//!
//! [`run_comm`] is the single entry point. Zero lookahead or a single
//! shard falls back to the serial [`CommSim`] path.

use std::sync::{Arc, Mutex};
use std::thread;

use mermaid_ops::TraceSet;
use mermaid_probe::{canonical_sort, AttributionSink, ProbeHandle, ProbeStack, SimEvent};
use pearl::engine::RunResult;
use pearl::shard::Aborted;
use pearl::{Duration, Time, WindowBarrier, IDLE_PS};

use crate::config::NetworkConfig;
use crate::fault::FaultSchedule;
use crate::partition::{lookahead, PairLookahead, Partition};
use crate::router::{CrossShard, OutMsg};
use crate::sim::{build_engine, CommResult, CommSim, NodeCommStats};
use crate::snapshot::{capture_piece, restore_engine, ShardPiece, Snapshot, SnapshotError};

/// A shard's preferred worker count for `--shards auto`.
pub fn auto_shards() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one shard worker hands back after the run.
struct ShardOut {
    /// Stats of this shard's nodes, in node order.
    nodes: Vec<NodeCommStats>,
    /// Model-level probe events recorded by this shard (emission order).
    probe_events: Vec<SimEvent>,
    /// This shard's self-profile.
    profile: ShardProfileEntry,
}

/// One shard's self-profile: where its wall-clock time went and how much
/// work each lookahead window carried.
///
/// The `*_ns` fields are **host wall-clock** — they vary run to run and
/// between machines, so they are deliberately kept out of `CommResult`,
/// probe streams and any deterministic output (attribution reports,
/// default stdout); they exist to answer "which sharding overhead
/// dominates" for a given run (ROADMAP open item 2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardProfileEntry {
    /// Shard index.
    pub shard: usize,
    /// Lookahead windows (rounds of the window loop) this shard executed.
    pub windows: u64,
    /// Engine events the shard delivered over the whole run.
    pub events: u64,
    /// Cross-shard messages this shard pushed into peers' inboxes.
    pub cross_sent: u64,
    /// Cross-shard messages this shard drained from its own inbox.
    pub cross_recv: u64,
    /// Mailbox appends carrying those messages (one per destination shard
    /// per flush with traffic) — the actual cross-thread operation count.
    pub flush_batches: u64,
    /// Log2 histogram of executed window widths: `window_hist[b]` counts
    /// windows whose width in picoseconds satisfied `2^b <= width <
    /// 2^(b+1)` (bucket 0 also holds zero-width rounds). Empty when the
    /// shard executed no window.
    pub window_hist: Vec<u64>,
    /// Host nanoseconds spent waiting at the window barrier: both arrivals
    /// of every round (the flush rendezvous and the promise exchange).
    pub barrier_wait_ns: u64,
    /// Host nanoseconds spent executing events (`Engine::run_until`).
    pub work_ns: u64,
}

/// Number of log2 buckets in [`ShardProfileEntry::window_hist`] — enough
/// for any u64 width.
const WIDTH_BUCKETS: usize = 64;

impl ShardProfileEntry {
    /// Mean events executed per lookahead window (window occupancy).
    pub fn events_per_window(&self) -> u64 {
        self.events.checked_div(self.windows).unwrap_or(0)
    }

    /// Record one executed window of `width_ps` in the log2 histogram.
    fn record_width(&mut self, width_ps: u64) {
        if self.window_hist.is_empty() {
            self.window_hist = vec![0; WIDTH_BUCKETS];
        }
        let bucket = (u64::BITS - 1).saturating_sub(width_ps.leading_zeros()) as usize;
        self.window_hist[bucket] += 1;
    }
}

/// Self-profile of a whole sharded run: one entry per shard, in shard
/// order. See [`ShardProfileEntry`] for the determinism caveat.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardProfile {
    /// Per-shard entries, indexed by shard id.
    pub shards: Vec<ShardProfileEntry>,
}

impl ShardProfile {
    /// Total host time all shards spent blocked on barriers.
    pub fn total_barrier_wait_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.barrier_wait_ns).sum()
    }

    /// Total host time all shards spent executing events.
    pub fn total_work_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.work_ns).sum()
    }

    /// Total cross-shard messages exchanged (as counted by senders).
    pub fn total_cross_msgs(&self) -> u64 {
        self.shards.iter().map(|s| s.cross_sent).sum()
    }

    /// Total batched mailbox appends across all shards.
    pub fn total_flush_batches(&self) -> u64 {
        self.shards.iter().map(|s| s.flush_batches).sum()
    }

    /// Always 0: speculative windows were removed. Kept only because the
    /// `perfbench` benchmark still reads it.
    pub fn total_spec_commits(&self) -> u64 {
        0
    }

    /// Always 0: speculative windows were removed. Kept only because the
    /// `perfbench` benchmark still reads it.
    pub fn total_spec_rollbacks(&self) -> u64 {
        0
    }

    /// Element-wise sum of every shard's window-width histogram.
    pub fn window_hist(&self) -> Vec<u64> {
        let mut all = vec![0u64; WIDTH_BUCKETS];
        for s in &self.shards {
            for (a, w) in all.iter_mut().zip(&s.window_hist) {
                *a += w;
            }
        }
        all
    }

    /// Barrier wait as parts-per-million of total shard wall-clock
    /// (barrier + work). Answers "how synchronization-bound was this run".
    pub fn barrier_share_ppm(&self) -> u64 {
        let wait = self.total_barrier_wait_ns() as u128;
        let total = wait + self.total_work_ns() as u128;
        (wait * 1_000_000).checked_div(total).unwrap_or(0) as u64
    }

    /// Render a plain-text per-shard table. Wall-clock columns are host
    /// time and will differ between runs.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "shard  windows  events  ev/window  cross-sent  cross-recv  batches  \
             barrier-us  work-us\n",
        );
        for s in &self.shards {
            out.push_str(&format!(
                "{:>5}  {:>7}  {:>6}  {:>9}  {:>10}  {:>10}  {:>7}  {:>10}  {:>7}\n",
                s.shard,
                s.windows,
                s.events,
                s.events_per_window(),
                s.cross_sent,
                s.cross_recv,
                s.flush_batches,
                s.barrier_wait_ns / 1_000,
                s.work_ns / 1_000,
            ));
        }
        out.push_str(&format!(
            "barrier wait: {}us of {}us total ({}.{:01}%)\n",
            self.total_barrier_wait_ns() / 1_000,
            (self.total_barrier_wait_ns() + self.total_work_ns()) / 1_000,
            self.barrier_share_ppm() / 10_000,
            self.barrier_share_ppm() % 10_000 / 1_000,
        ));
        let hist = self.window_hist();
        let lines: Vec<String> = hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, c)| format!("2^{b}ps:{c}"))
            .collect();
        if !lines.is_empty() {
            out.push_str(&format!("window widths (log2): {}\n", lines.join("  ")));
        }
        out
    }
}

/// A request to write periodic checkpoints during a run: capture the
/// complete simulation state at every multiple of `every` (virtual time)
/// and hand the composed [`Snapshot`] to `write`. The same snapshot file
/// is produced whether the run is serial or sharded — per-shard captures
/// compose into exactly the bytes a serial capture at the same instant
/// yields (the contiguous-slice partition contract, DESIGN.md §15/§16).
pub struct CheckpointOpts<'a> {
    /// Checkpoint cadence in virtual time (must be non-zero).
    pub every: Duration,
    /// Campaign-layer config hash stamped into each snapshot.
    pub config_hash: String,
    /// Receives each finished snapshot (typically
    /// [`Snapshot::write_file`]). An error aborts checkpointing and fails
    /// the run once it completes.
    pub write: &'a (dyn Fn(&Snapshot) -> Result<(), SnapshotError> + Sync),
}

/// One shard's deposited capture: its partition slice plus the probe
/// events buffered since the previous checkpoint.
type CaptureSlot = Option<(ShardPiece, Vec<SimEvent>)>;

/// Shared state of the sharded capture protocol: every shard deposits
/// its [`ShardPiece`] (plus its buffered probe events, when attribution
/// is attached), all shards meet at the window barrier, then shard 0
/// composes and writes while the rest wait at the barrier again for the
/// slots to be free.
struct CkptSync<'a> {
    opts: &'a CheckpointOpts<'a>,
    /// Seed for the composed attribution record when the run itself was
    /// restored from a snapshot (the shard buffers only hold post-restore
    /// events).
    base_attr: Option<Vec<u64>>,
    /// Whether the caller's probe carries an attribution sink.
    want_attr: bool,
    slots: Mutex<Vec<CaptureSlot>>,
    /// Set by a failed write: captures keep their (deterministic)
    /// rendezvous but no further snapshots are written.
    error: Mutex<Option<SnapshotError>>,
}

impl CkptSync<'_> {
    /// Shard 0, between the capture arrivals: compose the deposited pieces
    /// into the canonical whole-machine snapshot and hand it to the sink.
    fn compose_and_write(&self) {
        let taken: Vec<(ShardPiece, Vec<SimEvent>)> = self
            .slots
            .lock()
            .unwrap()
            .iter_mut()
            .map(|s| s.take().expect("every shard deposited a piece"))
            .collect();
        if self
            .error
            .lock()
            .expect("no shard panics holding the error slot")
            .is_some()
        {
            return;
        }
        let mut pieces = Vec::with_capacity(taken.len());
        let mut events: Vec<SimEvent> = Vec::new();
        for (p, evs) in taken {
            pieces.push(p);
            events.extend(evs);
        }
        let mut snap = Snapshot::compose(pieces);
        if self.want_attr {
            // Rebuild the attribution sink's state from the canonical
            // merge of every shard's buffered model events — the same
            // multiset the serial sink folded live, so the record is
            // byte-identical to a serial capture at this instant.
            canonical_sort(&mut events);
            let mut sink = AttributionSink::new();
            if let Some(base) = &self.base_attr {
                sink.restore_ints(base)
                    .expect("the restore entry validated this record");
            }
            for ev in &events {
                mermaid_probe::Probe::record(&mut sink, ev);
            }
            snap.attribution = Some(sink.snapshot_ints());
        }
        if let Err(e) = (self.opts.write)(&snap) {
            *self.error.lock().unwrap() = Some(e);
        }
    }
}

/// The attribution sink's current state, when one is attached.
fn capture_attribution(probe: &ProbeHandle) -> Option<Vec<u64>> {
    probe
        .with_stack(|s| s.attribution.as_ref().map(|a| a.snapshot_ints()))
        .flatten()
}

/// Seed a restored run's attribution sink from the snapshot. A sink with
/// no matching record is refused: it would silently report only post-
/// restore evidence.
fn seed_attribution(probe: &ProbeHandle, snap: &Snapshot) -> Result<(), SnapshotError> {
    let has_sink = probe
        .with_stack(|s| s.attribution.is_some())
        .unwrap_or(false);
    if !has_sink {
        return Ok(());
    }
    match &snap.attribution {
        Some(ints) => probe
            .with_stack(|s| {
                s.attribution
                    .as_mut()
                    .expect("presence checked above")
                    .restore_ints(ints)
            })
            .expect("probe is enabled")
            .map_err(|detail| SnapshotError::Parse {
                context: "attribution record".into(),
                detail,
            }),
        None => Err(SnapshotError::Parse {
            context: "attribution record".into(),
            detail: "the snapshot has no `attr` record but this run attaches an attribution \
                     sink — re-create the checkpoint with attribution enabled, or drop it"
                .into(),
        }),
    }
}

/// Run the communication model — the one entry point, serial or sharded.
///
/// The result is bit-identical to a serial [`CommSim`] run over the same
/// inputs whatever the shard count: results, per-node stats, model-level
/// probe events and attribution all match. `shards`
/// worker threads run the conservative window protocol; a single shard,
/// a topology too small to split, or zero lookahead takes the serial
/// [`CommSim`] path instead. With an enabled `probe`, a sharded run
/// replays the merged per-shard event stream into it in canonical order;
/// engine-internal events (queue depths) are per-shard artifacts and are
/// not reproduced.
///
/// Scripted fault events are self-events of the affected router, so each
/// shard posts only its own nodes' events — in the same per-node order as
/// the serial engine — before priming. Per-packet transient losses and
/// corruptions are drawn from a stateless seeded hash over the packet's
/// identity and the link it crosses, so the draw is the same whichever
/// shard makes it.
///
/// `restore_from` resumes a run from a [`Snapshot`] (bit-identically from
/// the snapshot instant on), and `ckpt` writes periodic snapshots during
/// the run; both work serial and sharded, and a run with neither cannot
/// fail. The returned [`ShardProfile`] is `None` on the serial path; it
/// is host-wall-clock data and must stay out of deterministic outputs.
pub fn run_comm(
    cfg: NetworkConfig,
    traces: &TraceSet,
    probe: ProbeHandle,
    shards: usize,
    faults: Option<Arc<FaultSchedule>>,
    restore_from: Option<&Snapshot>,
    ckpt: Option<&CheckpointOpts<'_>>,
) -> Result<(CommResult, Option<ShardProfile>), SnapshotError> {
    cfg.validate();
    let part = Partition::contiguous(cfg.topology, shards);
    let la = lookahead(&cfg);
    if part.shards() <= 1 || la == Duration::ZERO {
        let result = run_serial_checkpointed(cfg, traces, probe, faults, restore_from, ckpt)?;
        return Ok((result, None));
    }
    run_sharded_inner(cfg, traces, probe, part, la, faults, restore_from, ckpt)
}

/// The first checkpoint instant of a run: the cadence itself, or — for a
/// run restored from a snapshot — the first multiple of the cadence after
/// the restore instant, so a restored run resumes the original cadence.
fn first_capture_ps(ck: &CheckpointOpts<'_>, restore_from: Option<&Snapshot>) -> u64 {
    let every = ck.every.as_ps();
    assert!(every > 0, "checkpoint cadence must be non-zero");
    restore_from.map_or(every, |snap| (snap.time.as_ps() / every + 1) * every)
}

/// The serial path of [`run_comm`]: restore (if asked), then run
/// in stretches bounded by the next checkpoint instant, capturing at
/// each multiple of the cadence until the event set drains.
fn run_serial_checkpointed(
    cfg: NetworkConfig,
    traces: &TraceSet,
    probe: ProbeHandle,
    faults: Option<Arc<FaultSchedule>>,
    restore_from: Option<&Snapshot>,
    ckpt: Option<&CheckpointOpts<'_>>,
) -> Result<CommResult, SnapshotError> {
    let mut sim = match restore_from {
        Some(snap) => {
            let sim = CommSim::restore(cfg, traces, probe.clone(), faults, snap)?;
            seed_attribution(&probe, snap)?;
            sim
        }
        None => match faults {
            Some(f) => CommSim::new_with_faults(cfg, traces, probe.clone(), f),
            None => CommSim::new_with_probe(cfg, traces, probe.clone()),
        },
    };
    if let Some(ck) = ckpt {
        let every = ck.every.as_ps();
        let mut next_cp = first_capture_ps(ck, restore_from);
        loop {
            // Deliver everything strictly before the capture instant;
            // anything else means the event set drained first.
            if sim.run_until(Time::from_ps(next_cp - 1)) != RunResult::TimeLimit {
                break;
            }
            let mut snap = sim.checkpoint(&ck.config_hash, Time::from_ps(next_cp));
            snap.attribution = capture_attribution(&probe);
            (ck.write)(&snap)?;
            next_cp += every;
        }
    }
    Ok(sim.run())
}

/// The genuinely sharded body of [`run_comm`].
#[allow(clippy::too_many_arguments)]
fn run_sharded_inner(
    cfg: NetworkConfig,
    traces: &TraceSet,
    probe: ProbeHandle,
    part: Partition,
    la: Duration,
    faults: Option<Arc<FaultSchedule>>,
    restore_from: Option<&Snapshot>,
    ckpt: Option<&CheckpointOpts<'_>>,
) -> Result<(CommResult, Option<ShardProfile>), SnapshotError> {
    if let Some(snap) = restore_from {
        let n = cfg.topology.nodes();
        if snap.nodes != n {
            return Err(SnapshotError::NodesMismatch {
                found: snap.nodes,
                expected: n,
            });
        }
        seed_attribution(&probe, snap)?;
    }

    let k = part.shards();
    let run = ShardRun {
        cfg,
        traces,
        // Per-shard-pair lookahead matrix, computed once per partition:
        // the window bound of shard `i` is `min over j of (mins[j] +
        // L[j][i])` instead of the global minimum plus the global
        // lookahead.
        pairla: PairLookahead::compute(&cfg.topology, &part, la),
        part,
        barrier: WindowBarrier::new(k),
        mailboxes: (0..k).map(|_| Mutex::new(Vec::new())).collect(),
        want_probe: probe.is_enabled(),
        faults,
        restore_from,
        ckpt: ckpt.map(|opts| CkptSync {
            opts,
            base_attr: restore_from.and_then(|s| s.attribution.clone()),
            want_attr: probe
                .with_stack(|s| s.attribution.is_some())
                .unwrap_or(false),
            slots: Mutex::new((0..k).map(|_| None).collect()),
            error: Mutex::new(None),
        }),
    };

    let joined: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = (0..k)
            .map(|s| {
                let run = &run;
                scope.spawn(move || shard_worker(s, run))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    // A panic outranks everything: re-raise the first panicking shard's
    // own payload. Otherwise the first restore error in shard order is
    // the first damaged record in node order — the error a serial
    // restore reports.
    let mut panicked = None;
    let mut restore_err = None;
    let mut outs = Vec::with_capacity(k);
    for r in joined {
        match r {
            Err(payload) => {
                panicked.get_or_insert(payload);
            }
            Ok(Ok(out)) => outs.push(out),
            Ok(Err(ShardStop::Restore(e))) => {
                restore_err.get_or_insert(e);
            }
            Ok(Err(ShardStop::Aborted)) => {}
        }
    }
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    if let Some(e) = restore_err {
        return Err(e);
    }
    assert_eq!(outs.len(), k, "the barrier aborted with no failing shard");
    if let Some(e) = run.ckpt.and_then(|sync| {
        sync.error
            .into_inner()
            .expect("no shard panics holding the error slot")
    }) {
        return Err(e);
    }
    let (result, profile) = merge(outs, &probe);
    Ok((result, Some(profile)))
}

/// Everything the shard workers of one run share.
struct ShardRun<'a> {
    cfg: NetworkConfig,
    traces: &'a TraceSet,
    part: Partition,
    pairla: PairLookahead,
    /// The run's one synchronisation point: two arrivals per round, two
    /// more per checkpoint capture.
    barrier: WindowBarrier,
    /// `mailboxes[d]`: cross-shard messages bound for shard `d`, appended
    /// by senders at the top of a round and emptied by `d` after that
    /// round's flush arrival. Senders append without waiting — nothing
    /// can block on a mailbox.
    mailboxes: Vec<Mutex<Vec<OutMsg>>>,
    want_probe: bool,
    faults: Option<Arc<FaultSchedule>>,
    restore_from: Option<&'a Snapshot>,
    ckpt: Option<CkptSync<'a>>,
}

/// Why a shard worker left its window loop early.
enum ShardStop {
    /// Its slice of the snapshot failed to restore; it aborted the barrier.
    Restore(SnapshotError),
    /// A peer aborted the barrier.
    Aborted,
}

impl From<Aborted> for ShardStop {
    fn from(_: Aborted) -> Self {
        ShardStop::Aborted
    }
}

/// One shard's whole life: build its arena world, run the window loop,
/// collect local stats.
fn shard_worker(s: usize, run: &ShardRun<'_>) -> Result<ShardOut, ShardStop> {
    // A panic anywhere below releases the peers instead of stranding them
    // at the barrier; `run_sharded_inner` re-raises it.
    let _abort_guard = run.barrier.abort_on_unwind();
    let (part, barrier) = (&run.part, &run.barrier);
    let range = part.range(s);
    let my_probe = if run.want_probe {
        ProbeHandle::new(ProbeStack::new().with_buffer())
    } else {
        ProbeHandle::disabled()
    };
    let outbox = std::rc::Rc::new(std::cell::RefCell::new(Vec::<OutMsg>::new()));
    let cross = CrossShard {
        local: part.local_mask(s).into(),
        outbox: outbox.clone(),
    };
    let mut engine = build_engine(
        &run.cfg,
        run.traces,
        &my_probe,
        run.faults.as_ref(),
        range.clone(),
        Some(cross),
    );
    if let Some(snap) = run.restore_from {
        // A restored shard overlays the owned-destination slice of the
        // snapshot: queue, clock and counters are replaced wholesale
        // (scripted fault events at or after the instant are in that
        // pending set under their original keys). Shard 0 carries the
        // snapshot's delivery count; the merge sums per-shard counts, so
        // the total matches an uninterrupted run.
        let base = if s == 0 { snap.events_processed } else { 0 };
        if let Err(e) = restore_engine(&mut engine, snap, base) {
            barrier.abort();
            return Err(ShardStop::Restore(e));
        }
    }

    // Checkpoint cadence: every shard tracks the same next-capture
    // instant (same cadence, same agreed windows), so all of them reach
    // every capture rendezvous in the same round.
    let mut next_cp = run
        .ckpt
        .as_ref()
        .map_or(u64::MAX, |ck| first_capture_ps(ck.opts, run.restore_from));

    let mut profile = ShardProfileEntry {
        shard: s,
        ..ShardProfileEntry::default()
    };
    let mut mins: Vec<u64> = Vec::new();
    let mut inbox: Vec<OutMsg> = Vec::new();
    loop {
        // 1. Flush this window's cross-shard messages: one mailbox append
        //    per destination shard with traffic.
        {
            let mut msgs = outbox.borrow_mut();
            if !msgs.is_empty() {
                profile.cross_sent += msgs.len() as u64;
                for (d, mailbox) in run.mailboxes.iter().enumerate() {
                    let mut batch = msgs
                        .iter()
                        .filter(|m| part.shard_of(m.dst as u32) == d)
                        .peekable();
                    if batch.peek().is_some() {
                        profile.flush_batches += 1;
                        mailbox
                            .lock()
                            .expect("no shard panics holding a mailbox")
                            .extend(batch.cloned());
                    }
                }
                msgs.clear();
            }
        }
        // 2. First arrival: every shard has flushed.
        profile.barrier_wait_ns += barrier.wait()?;
        // 3. Inject cross-shard arrivals at their exact serial queue keys.
        //    No peer appends again before this shard's next arrival, so
        //    the mailbox holds exactly the last window's messages.
        std::mem::swap(
            &mut inbox,
            &mut run.mailboxes[s]
                .lock()
                .expect("no shard panics holding a mailbox"),
        );
        profile.cross_recv += inbox.len() as u64;
        for m in inbox.drain(..) {
            engine.post_keyed(m.time, m.key, m.src, m.dst, m.msg);
        }
        // 4. Second arrival: publish this shard's promise — its queue
        //    head, which lower-bounds (through the pair matrix) every
        //    message it may still deliver — and read every peer's.
        let local_ps = engine.next_event_time().map_or(IDLE_PS, |t| t.as_ps());
        profile.barrier_wait_ns += barrier.publish_mins_timed(s, local_ps, &mut mins)?;
        let m_ps = mins.iter().copied().min().unwrap_or(IDLE_PS);
        if m_ps == IDLE_PS {
            // Every engine drained, nothing in flight.
            break;
        }
        // 5. Capture every checkpoint instant at or before the global
        //    minimum: all events before it were processed (windows are
        //    clamped to the cadence), all pending events are at or after
        //    it, and step 3 already posted every in-flight message. Every
        //    shard sees the same `mins` and cadence, so all deposit
        //    pieces for the same instants in the same rounds.
        if let Some(ck) = &run.ckpt {
            while next_cp <= m_ps {
                let at = Time::from_ps(next_cp);
                let piece = capture_piece(&engine, &ck.opts.config_hash, at);
                let buffered = if ck.want_attr {
                    my_probe
                        .with_stack(|st| st.buffer.as_ref().map(|b| b.events().to_vec()))
                        .flatten()
                        .unwrap_or_default()
                } else {
                    Vec::new()
                };
                ck.slots.lock().unwrap()[s] = Some((piece, buffered));
                // First arrival: every piece is deposited. Second: shard 0
                // has consumed them — without it, a fast shard could
                // overwrite its slot with the *next* instant's piece
                // before the compose reads this one.
                barrier.wait()?;
                if s == 0 {
                    ck.compose_and_write();
                }
                barrier.wait()?;
                next_cp += ck.opts.every.as_ps();
            }
        }
        // 6. Execute the window. Events *at* the window end belong to the
        //    next round (times are integer picoseconds, so `end - 1` is
        //    exact).
        profile.windows += 1;
        let end_ps = run.pairla.window_end_ps(s, &mins).min(next_cp);
        if let Some(start) = engine.next_event_time().map(|t| t.as_ps()) {
            if start < end_ps {
                let work = std::time::Instant::now();
                engine.run_until(Time::from_ps(end_ps - 1));
                profile.work_ns += work.elapsed().as_nanos() as u64;
                profile.record_width(end_ps - start);
            }
        }
    }
    profile.events = engine.events_processed();

    let world = engine.world();
    let nodes = range
        .map(|node| NodeCommStats {
            node,
            proc: world.proc(node).stats.clone(),
            router: world.router(node).snapshot_stats(),
        })
        .collect();
    Ok(ShardOut {
        nodes,
        probe_events: my_probe.take_buffer().unwrap_or_default(),
        profile,
    })
}

/// Fold per-shard outputs into one [`CommResult`], mirroring
/// `CommSim::collect` field for field (shards are in node order, so the
/// merge order — and hence every merged histogram — matches the serial
/// collection exactly).
fn merge(outs: Vec<ShardOut>, probe: &ProbeHandle) -> (CommResult, ShardProfile) {
    let mut nodes = Vec::new();
    let mut events = 0;
    let mut probe_events = Vec::new();
    let mut profile = ShardProfile::default();
    for out in outs {
        events += out.profile.events;
        probe_events.extend(out.probe_events);
        nodes.extend(out.nodes);
        profile.shards.push(out.profile);
    }
    if probe.is_enabled() {
        canonical_sort(&mut probe_events);
        for ev in &probe_events {
            probe.replay(ev);
        }
    }
    // The window loop only terminates once every shard's event set has
    // drained, so — unlike a mid-run snapshot — unfinished here means
    // deadlocked, exactly as in the serial terminal collect.
    (CommResult::from_nodes(nodes, events, true), profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use mermaid_ops::{NodeId, Operation};

    fn trace_set(n: u32, f: impl Fn(NodeId) -> Vec<Operation>) -> TraceSet {
        let mut ts = TraceSet::new(n as usize);
        for node in 0..n {
            ts.trace_mut(node).ops = f(node);
        }
        ts
    }

    fn exchange_traces(n: u32) -> TraceSet {
        trace_set(n, |node| {
            vec![
                Operation::ASend {
                    bytes: 3000,
                    dst: (node + 1) % n,
                },
                Operation::Recv {
                    src: (node + n - 1) % n,
                },
                Operation::Compute { ps: 10_000 },
                Operation::ASend {
                    bytes: 500,
                    dst: (node + n / 2) % n,
                },
                Operation::Recv {
                    src: (node + n - n / 2) % n,
                },
            ]
        })
    }

    fn assert_identical(a: &CommResult, b: &CommResult) {
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.events, b.events);
        assert_eq!(a.all_done, b.all_done);
        assert_eq!(a.deadlocked, b.deadlocked);
        assert_eq!(a.total_messages, b.total_messages);
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(a.total_link_busy(), b.total_link_busy());
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.proc.finished_at, y.proc.finished_at, "node {}", x.node);
            assert_eq!(x.proc.compute, y.proc.compute);
            assert_eq!(x.proc.send_block, y.proc.send_block);
            assert_eq!(x.proc.recv_block, y.proc.recv_block);
            assert_eq!(x.proc.msgs_sent, y.proc.msgs_sent);
            assert_eq!(x.proc.msgs_received, y.proc.msgs_received);
            assert_eq!(x.router.forwarded, y.router.forwarded);
            assert_eq!(x.router.delivered, y.router.delivered);
            assert_eq!(x.router.link_wait, y.router.link_wait, "node {}", x.node);
            assert_eq!(x.router.link_busy, y.router.link_busy);
        }
        assert_eq!(a.msg_latency.count(), b.msg_latency.count());
        assert_eq!(a.msg_latency.max(), b.msg_latency.max());
    }

    /// Run without checkpointing, which cannot fail.
    fn run(
        cfg: NetworkConfig,
        ts: &TraceSet,
        probe: ProbeHandle,
        shards: usize,
    ) -> (CommResult, Option<ShardProfile>) {
        run_comm(cfg, ts, probe, shards, None, None, None)
            .expect("a run without checkpoint options cannot fail")
    }

    #[test]
    fn sharded_matches_serial_on_a_ring() {
        let cfg = NetworkConfig::test(Topology::Ring(8));
        let ts = exchange_traces(8);
        let serial = CommSim::new(cfg, &ts).run();
        for shards in [2, 3, 8] {
            let sh = run(cfg, &ts, ProbeHandle::disabled(), shards).0;
            assert_identical(&serial, &sh);
        }
    }

    #[test]
    fn sharded_matches_serial_on_mesh_and_torus() {
        for topo in [
            Topology::Mesh2D { w: 4, h: 4 },
            Topology::Torus2D { w: 4, h: 4 },
        ] {
            let cfg = NetworkConfig::test(topo);
            let ts = exchange_traces(16);
            let serial = CommSim::new(cfg, &ts).run();
            let sh = run(cfg, &ts, ProbeHandle::disabled(), 4).0;
            assert_identical(&serial, &sh);
        }
    }

    #[test]
    fn sharded_matches_serial_with_adaptive_routing_and_contention() {
        let mut cfg = NetworkConfig::test(Topology::Torus2D { w: 4, h: 4 });
        cfg.router.routing = crate::config::Routing::AdaptiveMinimal;
        let ts = trace_set(16, |node| {
            vec![
                Operation::ASend {
                    bytes: 64 * 1024,
                    dst: 15 - node,
                },
                Operation::Recv { src: 15 - node },
            ]
        });
        let serial = CommSim::new(cfg, &ts).run();
        let sh = run(cfg, &ts, ProbeHandle::disabled(), 4).0;
        assert_identical(&serial, &sh);
    }

    #[test]
    fn sharded_reports_deadlocks_like_serial() {
        let cfg = NetworkConfig::test(Topology::Ring(4));
        let ts = trace_set(4, |node| match node {
            0 => vec![Operation::Recv { src: 1 }], // nobody sends
            _ => vec![Operation::Compute { ps: 100 }],
        });
        let serial = CommSim::new(cfg, &ts).run();
        let sh = run(cfg, &ts, ProbeHandle::disabled(), 2).0;
        assert_identical(&serial, &sh);
        assert_eq!(sh.deadlocked, vec![0]);
    }

    #[test]
    fn one_shard_falls_back_to_serial() {
        let cfg = NetworkConfig::test(Topology::Ring(4));
        let ts = exchange_traces(4);
        let serial = CommSim::new(cfg, &ts).run();
        let sh = run(cfg, &ts, ProbeHandle::disabled(), 1).0;
        assert_identical(&serial, &sh);
    }

    #[test]
    fn probe_stream_matches_serial_model_events() {
        let cfg = NetworkConfig::test(Topology::Torus2D { w: 4, h: 2 });
        let ts = exchange_traces(8);

        let serial_probe = ProbeHandle::new(ProbeStack::new().with_buffer());
        let serial = CommSim::new_with_probe(cfg, &ts, serial_probe.clone()).run();
        let mut serial_events: Vec<SimEvent> = serial_probe
            .take_buffer()
            .unwrap()
            .into_iter()
            .filter(|e| !e.is_engine_internal())
            .collect();
        canonical_sort(&mut serial_events);

        let sharded_probe = ProbeHandle::new(ProbeStack::new().with_buffer());
        let sharded = run(cfg, &ts, sharded_probe.clone(), 3).0;
        let sharded_events = sharded_probe.take_buffer().unwrap();
        // Replay is already canonical; assert bit-identical streams.
        assert_eq!(serial_events, sharded_events);
        assert!(!sharded_events.is_empty());
        assert_identical(&serial, &sharded);
    }

    #[test]
    fn profiled_run_matches_serial_and_accounts_for_every_shard() {
        let cfg = NetworkConfig::test(Topology::Torus2D { w: 4, h: 2 });
        let ts = exchange_traces(8);
        let serial = CommSim::new(cfg, &ts).run();
        let (sh, profile) = run(cfg, &ts, ProbeHandle::disabled(), 4);
        assert_identical(&serial, &sh);
        let profile = profile.expect("a real sharded run self-profiles");
        assert_eq!(profile.shards.len(), 4);
        for (i, p) in profile.shards.iter().enumerate() {
            assert_eq!(p.shard, i);
            assert!(p.windows > 0, "shard {i} executed no window");
        }
        // Every engine event and every cross-shard message is attributed
        // to exactly one shard.
        assert_eq!(
            profile.shards.iter().map(|p| p.events).sum::<u64>(),
            sh.events
        );
        let sent = profile.total_cross_msgs();
        let recv = profile.shards.iter().map(|p| p.cross_recv).sum::<u64>();
        assert_eq!(sent, recv, "cross-shard channels conserve messages");
        assert!(sent > 0, "a split torus must exchange messages");
        // The flush path batches: cross-shard traffic moves in at most one
        // batch per destination per flush point.
        assert!(profile.total_flush_batches() > 0);
        assert!(profile.total_flush_batches() <= sent);
        assert!(profile.barrier_share_ppm() <= 1_000_000);
        let table = profile.render();
        assert!(table.contains("ev/window"));
        assert!(table.lines().count() >= 5);
    }

    #[test]
    fn window_histogram_accounts_for_every_window() {
        let cfg = NetworkConfig::test(Topology::Torus2D { w: 4, h: 2 });
        let ts = exchange_traces(8);
        let profile = run(cfg, &ts, ProbeHandle::disabled(), 3)
            .1
            .expect("a real sharded run self-profiles");
        let hist = profile.window_hist();
        let total: u64 = hist.iter().sum();
        let windows: u64 = profile.shards.iter().map(|p| p.windows).sum();
        // A round records at most one width: the slice it executed.
        assert!(total > 0, "a finite run records window widths");
        assert!(
            total <= windows,
            "histogram counts executed windows only ({total} vs {windows} rounds)"
        );
        let rendered = profile.render();
        assert!(rendered.contains("window widths (log2):"), "{rendered}");
        assert!(rendered.contains("batches"), "{rendered}");
    }

    #[test]
    fn serial_fallback_yields_no_profile() {
        let cfg = NetworkConfig::test(Topology::Ring(4));
        let ts = exchange_traces(4);
        let (_, profile) = run(cfg, &ts, ProbeHandle::disabled(), 1);
        assert!(profile.is_none());
    }

    #[test]
    fn more_shards_than_nodes_still_exact() {
        let cfg = NetworkConfig::test(Topology::Ring(3));
        let ts = exchange_traces(3);
        let serial = CommSim::new(cfg, &ts).run();
        let sh = run(cfg, &ts, ProbeHandle::disabled(), 16).0;
        assert_identical(&serial, &sh);
    }

    /// Run with a collecting checkpoint sink; return the result and every
    /// snapshot file rendered.
    fn run_collecting(
        cfg: NetworkConfig,
        ts: &TraceSet,
        shards: usize,
        every_ps: u64,
        restore_from: Option<&Snapshot>,
    ) -> (CommResult, Vec<String>) {
        let files = Mutex::new(Vec::new());
        let write = |snap: &Snapshot| {
            files.lock().unwrap().push(snap.to_file_string());
            Ok(())
        };
        let opts = CheckpointOpts {
            every: Duration::from_ps(every_ps),
            config_hash: "00000000deadbeef".into(),
            write: &write,
        };
        let (r, _) = run_comm(
            cfg,
            ts,
            ProbeHandle::disabled(),
            shards,
            None,
            restore_from,
            Some(&opts),
        )
        .expect("collecting sink cannot fail");
        (r, files.into_inner().unwrap())
    }

    #[test]
    fn sharded_checkpoint_files_are_byte_identical_to_serial() {
        let cfg = NetworkConfig::test(Topology::Torus2D { w: 4, h: 2 });
        let ts = exchange_traces(8);
        let plain = CommSim::new(cfg, &ts).run();
        let (serial, serial_files) = run_collecting(cfg, &ts, 1, 3_000, None);
        let (sharded, sharded_files) = run_collecting(cfg, &ts, 3, 3_000, None);
        assert_identical(&plain, &serial);
        assert_identical(&plain, &sharded);
        assert!(
            !serial_files.is_empty(),
            "the run must cross at least one checkpoint instant"
        );
        assert_eq!(
            serial_files.len(),
            sharded_files.len(),
            "both modes capture the same instants"
        );
        for (a, b) in serial_files.iter().zip(&sharded_files) {
            assert_eq!(a, b, "composed shard capture differs from serial capture");
        }
    }

    #[test]
    fn restore_into_sharded_run_matches_uninterrupted() {
        let cfg = NetworkConfig::test(Topology::Torus2D { w: 4, h: 2 });
        let ts = exchange_traces(8);
        let plain = CommSim::new(cfg, &ts).run();
        let (_, files) = run_collecting(cfg, &ts, 3, 3_000, None);
        for file in &files {
            let snap = Snapshot::parse(file).expect("own capture parses");
            // Restore into a sharded run…
            let (sh, _) = run_comm(
                cfg,
                &ts,
                ProbeHandle::disabled(),
                3,
                None,
                Some(&snap),
                None,
            )
            .expect("restore succeeds");
            assert_identical(&plain, &sh);
            // …and into a serial one.
            let (serial, _) = run_comm(
                cfg,
                &ts,
                ProbeHandle::disabled(),
                1,
                None,
                Some(&snap),
                None,
            )
            .expect("restore succeeds");
            assert_identical(&plain, &serial);
        }
    }

    #[test]
    fn restored_run_resumes_the_checkpoint_cadence() {
        let cfg = NetworkConfig::test(Topology::Ring(8));
        let ts = exchange_traces(8);
        let (_, full_files) = run_collecting(cfg, &ts, 3, 2_000, None);
        assert!(full_files.len() >= 2, "need at least two capture instants");
        let first = Snapshot::parse(&full_files[0]).unwrap();
        let (_, resumed_files) = run_collecting(cfg, &ts, 3, 2_000, Some(&first));
        assert_eq!(resumed_files, full_files[1..].to_vec());
    }

    #[test]
    fn failed_checkpoint_write_fails_the_run() {
        let cfg = NetworkConfig::test(Topology::Ring(8));
        let ts = exchange_traces(8);
        let write = |_: &Snapshot| {
            Err(SnapshotError::Io {
                verb: "write",
                path: "/nowhere/ckpt.snap".into(),
                detail: "disk full".into(),
            })
        };
        let opts = CheckpointOpts {
            every: Duration::from_ps(2_000),
            config_hash: "00000000deadbeef".into(),
            write: &write,
        };
        for shards in [1, 3] {
            let err = run_comm(
                cfg,
                &ts,
                ProbeHandle::disabled(),
                shards,
                None,
                None,
                Some(&opts),
            )
            .expect_err("a failing sink must surface");
            assert!(err.to_string().contains("disk full"), "{err}");
        }
    }

    #[test]
    fn sharded_attribution_capture_matches_serial() {
        let cfg = NetworkConfig::test(Topology::Torus2D { w: 4, h: 2 });
        let ts = exchange_traces(8);
        let capture_with = |shards: usize| {
            let files = Mutex::new(Vec::new());
            let write = |snap: &Snapshot| {
                files.lock().unwrap().push(snap.to_file_string());
                Ok(())
            };
            let opts = CheckpointOpts {
                every: Duration::from_ps(3_000),
                config_hash: "00000000deadbeef".into(),
                write: &write,
            };
            let probe = ProbeHandle::new(ProbeStack::new().with_attribution());
            let (r, _) = run_comm(cfg, &ts, probe.clone(), shards, None, None, Some(&opts))
                .expect("capture succeeds");
            let json = probe
                .with_stack(|s| {
                    s.attribution
                        .as_ref()
                        .map(|a| a.report(r.finish.as_ps()).to_json())
                })
                .flatten()
                .expect("sink attached");
            (files.into_inner().unwrap(), json)
        };
        let (serial_files, serial_json) = capture_with(1);
        let (sharded_files, sharded_json) = capture_with(3);
        assert_eq!(serial_json, sharded_json);
        assert_eq!(serial_files, sharded_files);
        assert!(serial_files.iter().all(|f| f.contains("\nattr ")));
        // Restoring from a snapshot with attribution reproduces the
        // uninterrupted report.
        let snap = Snapshot::parse(&serial_files[0]).unwrap();
        let probe = ProbeHandle::new(ProbeStack::new().with_attribution());
        let (r, _) = run_comm(cfg, &ts, probe.clone(), 3, None, Some(&snap), None)
            .expect("restore succeeds");
        let json = probe
            .with_stack(|s| {
                s.attribution
                    .as_ref()
                    .map(|a| a.report(r.finish.as_ps()).to_json())
            })
            .flatten()
            .unwrap();
        assert_eq!(json, serial_json);
    }

    #[test]
    fn attribution_probe_without_snapshot_record_is_refused() {
        let cfg = NetworkConfig::test(Topology::Ring(8));
        let ts = exchange_traces(8);
        let (_, files) = run_collecting(cfg, &ts, 3, 2_000, None);
        let snap = Snapshot::parse(&files[0]).unwrap();
        assert!(snap.attribution.is_none());
        let probe = ProbeHandle::new(ProbeStack::new().with_attribution());
        for shards in [1, 3] {
            let err = run_comm(cfg, &ts, probe.clone(), shards, None, Some(&snap), None)
                .expect_err("a silent partial attribution report must be refused");
            assert!(err.to_string().contains("attribution"), "{err}");
        }
    }

    /// Run `f` on its own thread and return its panic message (`None` when
    /// it returns normally). A watchdog fails the test instead of letting
    /// a stranded shard hang the suite.
    fn panic_message(f: impl FnOnce() + Send + 'static) -> Option<String> {
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let msg = r.err().map(|p| match p.downcast::<String>() {
                Ok(s) => *s,
                Err(p) => p.downcast::<&str>().map_or("?".into(), |s| s.to_string()),
            });
            tx.send(msg).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("the run hung instead of finishing or panicking")
    }

    #[test]
    fn a_panicking_shard_reaches_the_caller() {
        // Shard 0 panics inside the checkpoint sink, between the two
        // capture arrivals; its peers are released and the caller sees
        // the original payload.
        for shards in [1, 3] {
            let msg = panic_message(move || {
                let cfg = NetworkConfig::test(Topology::Ring(8));
                let ts = exchange_traces(8);
                let write = |_: &Snapshot| -> Result<(), SnapshotError> {
                    panic!("checkpoint sink exploded")
                };
                let opts = CheckpointOpts {
                    every: Duration::from_ps(2_000),
                    config_hash: "00000000deadbeef".into(),
                    write: &write,
                };
                let _ = run_comm(
                    cfg,
                    &ts,
                    ProbeHandle::disabled(),
                    shards,
                    None,
                    None,
                    Some(&opts),
                );
            });
            assert_eq!(
                msg.as_deref(),
                Some("checkpoint sink exploded"),
                "{shards} shard(s)"
            );
        }
    }

    #[test]
    fn an_invalid_fault_schedule_is_rejected_at_every_shard_count() {
        let msgs: Vec<_> = [1, 2]
            .into_iter()
            .map(|shards| {
                panic_message(move || {
                    let cfg = NetworkConfig::test(Topology::Ring(8));
                    let ts = exchange_traces(8);
                    let mut f = FaultSchedule::new(3);
                    f.crash_router(99, Time::from_ps(1_000), None);
                    let _ = run_comm(
                        cfg,
                        &ts,
                        ProbeHandle::disabled(),
                        shards,
                        Some(Arc::new(f)),
                        None,
                        None,
                    );
                })
            })
            .collect();
        assert_eq!(
            msgs[0].as_deref(),
            Some("invalid fault schedule for ring(8): fault router 99 out of range for 8 nodes")
        );
        assert_eq!(msgs[0], msgs[1]);
    }
}
