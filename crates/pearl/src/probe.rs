//! Engine-side instrumentation hooks.
//!
//! The kernel stays free of any policy about *what* to record: it only
//! offers an object-safe [`EngineProbe`] trait that an observer crate can
//! implement. An [`crate::Engine`] without a probe attached pays exactly
//! one `Option` null-check per delivered event (verified by the
//! workspace's `probe_overhead` benchmark).

use crate::engine::CompId;
use crate::time::Time;

/// Hooks invoked by the engine's delivery loop when a probe is attached.
///
/// `delivered` fires once per delivered event, *before* the component
/// handler runs; implementations must not assume anything else about call
/// frequency.
///
/// A probe observes the simulation; it has no channel back into it, so
/// attaching one cannot perturb virtual-time behaviour.
pub trait EngineProbe {
    /// An event is about to be delivered to `dst` at virtual time `now`.
    /// `pending` is the number of events still queued after the pop.
    fn delivered(&mut self, now: Time, src: CompId, dst: CompId, pending: usize);
}
