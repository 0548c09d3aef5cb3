//! Shared helpers for building and round-tripping `serde::Value` trees.
//!
//! The vendored serde stand-in has no identity `Serialize` impl for its
//! own [`Value`], so sinks wrap trees in [`Raw`] to hand them to
//! `serde_json`.

use crate::SimEvent;
use serde::{Deserialize, Error, Serialize, Value};

/// Identity wrapper: serialises a pre-built [`Value`] tree as-is and
/// deserialises arbitrary JSON into one.
pub(crate) struct Raw(pub Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Raw(v.clone()))
    }
}

/// Shorthand for a map entry.
pub(crate) fn kv(key: &str, v: Value) -> (String, Value) {
    (key.to_string(), v)
}

pub(crate) fn u(n: u64) -> Value {
    Value::U64(n)
}

pub(crate) fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// The canonical JSON shape of one [`SimEvent`] (used by the JSONL sink):
/// an object led by an `"ev"` discriminator, then the variant's fields.
pub(crate) fn event_value(ev: &SimEvent) -> Value {
    let mut m = vec![kv("ev", s(ev.label()))];
    match *ev {
        SimEvent::EngineDelivery {
            ts_ps,
            src,
            dst,
            pending,
        } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("src", u(src as u64)));
            m.push(kv("dst", u(dst as u64)));
            m.push(kv("pending", u(pending as u64)));
        }
        SimEvent::Activation {
            node,
            kind,
            start_ps,
            end_ps,
        } => {
            m.push(kv("node", u(node as u64)));
            m.push(kv("kind", s(kind.label())));
            m.push(kv("start_ps", u(start_ps)));
            m.push(kv("end_ps", u(end_ps)));
        }
        SimEvent::MsgSend {
            ts_ps,
            src,
            dst,
            bytes,
            sync,
        } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("src", u(src as u64)));
            m.push(kv("dst", u(dst as u64)));
            m.push(kv("bytes", u(bytes as u64)));
            m.push(kv("sync", Value::Bool(sync)));
        }
        SimEvent::MsgDeliver {
            ts_ps,
            src,
            dst,
            bytes,
            latency_ps,
        } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("src", u(src as u64)));
            m.push(kv("dst", u(dst as u64)));
            m.push(kv("bytes", u(bytes as u64)));
            m.push(kv("latency_ps", u(latency_ps)));
        }
        SimEvent::MsgPath {
            ts_ps,
            src,
            dst,
            bytes,
            latency_ps,
            overhead_ps,
            retry_ps,
            queue_ps,
            routing_ps,
            ser_ps,
            wire_ps,
        } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("src", u(src as u64)));
            m.push(kv("dst", u(dst as u64)));
            m.push(kv("bytes", u(bytes as u64)));
            m.push(kv("latency_ps", u(latency_ps)));
            m.push(kv("overhead_ps", u(overhead_ps)));
            m.push(kv("retry_ps", u(retry_ps)));
            m.push(kv("queue_ps", u(queue_ps)));
            m.push(kv("routing_ps", u(routing_ps)));
            m.push(kv("ser_ps", u(ser_ps)));
            m.push(kv("wire_ps", u(wire_ps)));
        }
        SimEvent::LinkBusy {
            node,
            to,
            start_ps,
            end_ps,
        } => {
            m.push(kv("node", u(node as u64)));
            m.push(kv("to", u(to as u64)));
            m.push(kv("start_ps", u(start_ps)));
            m.push(kv("end_ps", u(end_ps)));
        }
        SimEvent::PacketForward {
            ts_ps,
            node,
            to,
            packets,
        } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("node", u(node as u64)));
            m.push(kv("to", u(to as u64)));
            m.push(kv("packets", u(packets as u64)));
        }
        SimEvent::PacketDeliver {
            ts_ps,
            node,
            packets,
        } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("node", u(node as u64)));
            m.push(kv("packets", u(packets as u64)));
        }
        SimEvent::CacheAccess {
            ts_ps,
            node,
            cpu,
            kind,
            hit,
        } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("node", u(node as u64)));
            m.push(kv("cpu", u(cpu as u64)));
            m.push(kv("kind", s(kind.label())));
            m.push(kv("hit", s(hit.label())));
        }
        SimEvent::CacheEvict {
            ts_ps,
            node,
            cpu,
            level,
            dirty,
        } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("node", u(node as u64)));
            m.push(kv("cpu", u(cpu as u64)));
            m.push(kv("level", u(level as u64)));
            m.push(kv("dirty", Value::Bool(dirty)));
        }
        SimEvent::BusTransaction {
            node,
            start_ps,
            end_ps,
            wait_ps,
        } => {
            m.push(kv("node", u(node as u64)));
            m.push(kv("start_ps", u(start_ps)));
            m.push(kv("end_ps", u(end_ps)));
            m.push(kv("wait_ps", u(wait_ps)));
        }
        SimEvent::LinkFault {
            ts_ps,
            node,
            to,
            up,
        } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("node", u(node as u64)));
            m.push(kv("to", u(to as u64)));
            m.push(kv("up", Value::Bool(up)));
        }
        SimEvent::RouterFault { ts_ps, node, up } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("node", u(node as u64)));
            m.push(kv("up", Value::Bool(up)));
        }
        SimEvent::PacketDropped {
            ts_ps,
            node,
            src,
            seq,
            reason,
        } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("node", u(node as u64)));
            m.push(kv("src", u(src as u64)));
            m.push(kv("seq", u(seq)));
            m.push(kv("reason", s(reason.label())));
        }
        SimEvent::PacketCorrupted {
            ts_ps,
            node,
            to,
            src,
            seq,
        } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("node", u(node as u64)));
            m.push(kv("to", u(to as u64)));
            m.push(kv("src", u(src as u64)));
            m.push(kv("seq", u(seq)));
        }
        SimEvent::MsgRetry {
            ts_ps,
            src,
            dst,
            attempt,
        } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("src", u(src as u64)));
            m.push(kv("dst", u(dst as u64)));
            m.push(kv("attempt", u(attempt as u64)));
        }
        SimEvent::MsgGaveUp {
            ts_ps,
            src,
            dst,
            retries,
        } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("src", u(src as u64)));
            m.push(kv("dst", u(dst as u64)));
            m.push(kv("retries", u(retries as u64)));
        }
        SimEvent::Reroute { ts_ps, node, to } => {
            m.push(kv("ts_ps", u(ts_ps)));
            m.push(kv("node", u(node as u64)));
            m.push(kv("to", u(to as u64)));
        }
    }
    Value::Map(m)
}
