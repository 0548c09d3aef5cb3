//! Chrome-trace (`chrome://tracing` / Perfetto) JSON export.
//!
//! Emits the JSON Object Format: a top-level object whose `traceEvents`
//! array holds events with `name`, `ph`, `ts`, `pid`, `tid` (and `dur`
//! for complete spans). Virtual picoseconds are mapped to trace
//! microseconds (`ts = ps / 1e6`), so one simulated microsecond reads as
//! one trace microsecond in the viewer.
//!
//! Track layout:
//!
//! | pid | process        | tracks                                        |
//! |-----|----------------|-----------------------------------------------|
//! | 1   | `engine`       | queue-depth counter                           |
//! | 2   | `network`      | per-node activation spans + message instants  |
//! | 3   | `links`        | per-node outgoing-link busy spans             |
//! | 4   | `memory`       | per-node cache instants + bus tenure spans    |
//!
//! The exporter also stamps a non-standard top-level `mermaidSummary`
//! object (exact `u64` delivered-message count and finish time in
//! picoseconds); trace viewers ignore unknown keys, and the workspace's
//! end-to-end test uses it to compare a traced run against an untraced
//! one without going through lossy `f64` microseconds.

use crate::value_json::{kv, s, u, Raw};
use crate::{Probe, SimEvent};
use serde::Value;

/// Engine deliveries are decimated to one queue-depth counter sample
/// every this many events, so long runs stay viewable.
const DEPTH_SAMPLE_EVERY: u64 = 64;

const PID_ENGINE: u64 = 1;
const PID_NETWORK: u64 = 2;
const PID_LINKS: u64 = 3;
const PID_MEMORY: u64 = 4;

/// Collects trace events in memory; [`ChromeTraceSink::to_json`] renders
/// the complete document.
#[derive(Default)]
pub struct ChromeTraceSink {
    events: Vec<Value>,
    deliveries: u64,
    msg_delivers: u64,
    max_ts_ps: u64,
}

impl ChromeTraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        ChromeTraceSink::default()
    }

    /// Number of trace events collected so far (excluding metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(
        &mut self,
        name: &str,
        ph: &str,
        ts_ps: u64,
        pid: u64,
        tid: u64,
        extra: Vec<(String, Value)>,
    ) {
        let mut m = vec![
            kv("name", s(name)),
            kv("ph", s(ph)),
            kv("ts", Value::F64(ts_ps as f64 / 1e6)),
            kv("pid", u(pid)),
            kv("tid", u(tid)),
        ];
        m.extend(extra);
        self.events.push(Value::Map(m));
    }

    fn span(&mut self, name: &str, start_ps: u64, end_ps: u64, pid: u64, tid: u64, args: Value) {
        let dur = Value::F64((end_ps.saturating_sub(start_ps)) as f64 / 1e6);
        self.push(
            name,
            "X",
            start_ps,
            pid,
            tid,
            vec![kv("dur", dur), kv("args", args)],
        );
        self.max_ts_ps = self.max_ts_ps.max(end_ps);
    }

    fn instant(&mut self, name: &str, ts_ps: u64, pid: u64, tid: u64, args: Value) {
        self.push(
            name,
            "i",
            ts_ps,
            pid,
            tid,
            vec![kv("s", s("t")), kv("args", args)],
        );
        self.max_ts_ps = self.max_ts_ps.max(ts_ps);
    }

    fn counter(&mut self, name: &str, ts_ps: u64, pid: u64, series: &str, value: f64) {
        let args = Value::Map(vec![kv(series, Value::F64(value))]);
        self.push(name, "C", ts_ps, pid, 0, vec![kv("args", args)]);
        self.max_ts_ps = self.max_ts_ps.max(ts_ps);
    }

    /// Render the complete Chrome-trace JSON document.
    pub fn to_json(&self) -> String {
        let mut events = Vec::with_capacity(self.events.len() + 4);
        for (pid, name) in [
            (PID_ENGINE, "engine"),
            (PID_NETWORK, "network"),
            (PID_LINKS, "links"),
            (PID_MEMORY, "memory"),
        ] {
            events.push(Value::Map(vec![
                kv("name", s("process_name")),
                kv("ph", s("M")),
                kv("ts", Value::F64(0.0)),
                kv("pid", u(pid)),
                kv("tid", u(0)),
                kv("args", Value::Map(vec![kv("name", s(name))])),
            ]));
        }
        events.extend(self.events.iter().cloned());
        let doc = Value::Map(vec![
            kv("traceEvents", Value::Seq(events)),
            kv("displayTimeUnit", s("ns")),
            kv(
                "mermaidSummary",
                Value::Map(vec![
                    kv("delivered_messages", u(self.msg_delivers)),
                    kv("finish_ps", u(self.max_ts_ps)),
                    kv("engine_deliveries", u(self.deliveries)),
                ]),
            ),
        ]);
        serde_json::to_string(&Raw(doc)).expect("trace document contains only finite numbers")
    }
}

impl Probe for ChromeTraceSink {
    fn record(&mut self, ev: &SimEvent) {
        match *ev {
            SimEvent::EngineDelivery { ts_ps, pending, .. } => {
                self.deliveries += 1;
                self.max_ts_ps = self.max_ts_ps.max(ts_ps);
                if self.deliveries % DEPTH_SAMPLE_EVERY == 1 {
                    self.counter(
                        "pending_events",
                        ts_ps,
                        PID_ENGINE,
                        "pending",
                        pending as f64,
                    );
                }
            }
            SimEvent::Activation {
                node,
                kind,
                start_ps,
                end_ps,
            } => {
                self.span(
                    kind.label(),
                    start_ps,
                    end_ps,
                    PID_NETWORK,
                    node as u64,
                    Value::Map(vec![]),
                );
            }
            SimEvent::MsgSend {
                ts_ps,
                src,
                dst,
                bytes,
                sync,
            } => {
                let args = Value::Map(vec![
                    kv("dst", u(dst as u64)),
                    kv("bytes", u(bytes as u64)),
                    kv("sync", Value::Bool(sync)),
                ]);
                self.instant("msg_send", ts_ps, PID_NETWORK, src as u64, args);
            }
            SimEvent::MsgDeliver {
                ts_ps,
                src,
                dst,
                bytes,
                latency_ps,
            } => {
                self.msg_delivers += 1;
                let args = Value::Map(vec![
                    kv("src", u(src as u64)),
                    kv("bytes", u(bytes as u64)),
                    kv("latency_ps", u(latency_ps)),
                ]);
                self.instant("msg_deliver", ts_ps, PID_NETWORK, dst as u64, args);
            }
            SimEvent::MsgPath {
                ts_ps,
                src,
                dst,
                latency_ps,
                overhead_ps,
                retry_ps,
                queue_ps,
                routing_ps,
                ser_ps,
                wire_ps,
                ..
            } => {
                let args = Value::Map(vec![
                    kv("src", u(src as u64)),
                    kv("latency_ps", u(latency_ps)),
                    kv("overhead_ps", u(overhead_ps)),
                    kv("retry_ps", u(retry_ps)),
                    kv("queue_ps", u(queue_ps)),
                    kv("routing_ps", u(routing_ps)),
                    kv("ser_ps", u(ser_ps)),
                    kv("wire_ps", u(wire_ps)),
                ]);
                self.instant("msg_path", ts_ps, PID_NETWORK, dst as u64, args);
            }
            SimEvent::LinkBusy {
                node,
                to,
                start_ps,
                end_ps,
            } => {
                let name = format!("link->{to}");
                let args = Value::Map(vec![kv("to", u(to as u64))]);
                self.span(&name, start_ps, end_ps, PID_LINKS, node as u64, args);
            }
            SimEvent::PacketForward { .. } | SimEvent::PacketDeliver { .. } => {
                // Hop-level packet traffic is visible via the link spans;
                // per-packet instants would dominate the trace. The
                // metrics aggregator still counts them.
            }
            SimEvent::CacheAccess {
                ts_ps,
                node,
                cpu,
                kind,
                hit,
            } => {
                let name = format!("{}:{}", kind.label(), hit.label());
                let args = Value::Map(vec![kv("cpu", u(cpu as u64))]);
                self.instant(&name, ts_ps, PID_MEMORY, node as u64, args);
            }
            SimEvent::CacheEvict {
                ts_ps,
                node,
                cpu,
                level,
                dirty,
            } => {
                let args = Value::Map(vec![
                    kv("cpu", u(cpu as u64)),
                    kv("level", u(level as u64)),
                    kv("dirty", Value::Bool(dirty)),
                ]);
                self.instant("cache_evict", ts_ps, PID_MEMORY, node as u64, args);
            }
            SimEvent::BusTransaction {
                node,
                start_ps,
                end_ps,
                wait_ps,
            } => {
                let args = Value::Map(vec![kv("wait_ps", u(wait_ps))]);
                self.span("bus", start_ps, end_ps, PID_MEMORY, node as u64, args);
            }
            SimEvent::LinkFault {
                ts_ps,
                node,
                to,
                up,
            } => {
                let name = if up { "link_up" } else { "link_down" };
                let args = Value::Map(vec![kv("to", u(to as u64))]);
                self.instant(name, ts_ps, PID_LINKS, node as u64, args);
            }
            SimEvent::RouterFault { ts_ps, node, up } => {
                let name = if up { "router_up" } else { "router_down" };
                self.instant(name, ts_ps, PID_NETWORK, node as u64, Value::Map(vec![]));
            }
            SimEvent::PacketDropped {
                ts_ps,
                node,
                src,
                seq,
                reason,
            } => {
                let name = format!("drop:{}", reason.label());
                let args = Value::Map(vec![kv("src", u(src as u64)), kv("seq", u(seq))]);
                self.instant(&name, ts_ps, PID_NETWORK, node as u64, args);
            }
            SimEvent::PacketCorrupted {
                ts_ps,
                node,
                to,
                src,
                seq,
            } => {
                let args = Value::Map(vec![
                    kv("to", u(to as u64)),
                    kv("src", u(src as u64)),
                    kv("seq", u(seq)),
                ]);
                self.instant("corrupt", ts_ps, PID_LINKS, node as u64, args);
            }
            SimEvent::MsgRetry {
                ts_ps,
                src,
                dst,
                attempt,
            } => {
                let args = Value::Map(vec![
                    kv("dst", u(dst as u64)),
                    kv("attempt", u(attempt as u64)),
                ]);
                self.instant("msg_retry", ts_ps, PID_NETWORK, src as u64, args);
            }
            SimEvent::MsgGaveUp {
                ts_ps,
                src,
                dst,
                retries,
            } => {
                let args = Value::Map(vec![
                    kv("dst", u(dst as u64)),
                    kv("retries", u(retries as u64)),
                ]);
                self.instant("msg_gave_up", ts_ps, PID_NETWORK, src as u64, args);
            }
            SimEvent::Reroute { ts_ps, node, to } => {
                let args = Value::Map(vec![kv("to", u(to as u64))]);
                self.instant("reroute", ts_ps, PID_NETWORK, node as u64, args);
            }
        }
    }
}

/// What [`validate_chrome_trace`] found in a trace document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total entries in `traceEvents` (including metadata).
    pub events: u64,
    /// Complete spans (`ph == "X"`).
    pub spans: u64,
    /// Instant events (`ph == "i"`).
    pub instants: u64,
    /// Counter samples (`ph == "C"`).
    pub counters: u64,
    /// Metadata records (`ph == "M"`).
    pub metadata: u64,
    /// Fault-variant events (link/router up/down, corruption, drops,
    /// retries, give-ups, reroutes) — zero for a healthy run.
    pub fault_events: u64,
    /// `mermaidSummary.delivered_messages`, when present.
    pub delivered_messages: Option<u64>,
    /// `mermaidSummary.finish_ps`, when present.
    pub finish_ps: Option<u64>,
}

/// Event names the sink emits only under fault injection.
fn is_fault_event(name: &str) -> bool {
    matches!(
        name,
        "link_down"
            | "link_up"
            | "router_down"
            | "router_up"
            | "corrupt"
            | "msg_retry"
            | "msg_gave_up"
            | "reroute"
    ) || name.starts_with("drop:")
}

fn get<'a>(m: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    serde::map_get(m, key)
}

fn as_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::U64(n) => Some(n),
        Value::I64(n) if n >= 0 => Some(n as u64),
        _ => None,
    }
}

fn is_number(v: &Value) -> bool {
    matches!(v, Value::U64(_) | Value::I64(_) | Value::F64(_))
}

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(n) => Some(n),
        _ => None,
    }
}

/// Parse `json` (round-tripping through the vendored `serde_json`) and
/// check it against the Chrome-trace conventions this crate emits: a
/// top-level object with a `traceEvents` array whose entries carry
/// `name`, `ph`, numeric `ts`, and numeric `pid`/`tid`; complete spans
/// additionally carry a numeric `dur` and start in non-decreasing `ts`
/// order within their `(pid, tid, name)` track (the sink emits spans in
/// completion order over a time-sorted event stream, so regressing start
/// times mean a scrambled trace). Instants are exempt: out-of-order
/// message consumption legitimately emits deliveries with decreasing
/// timestamps on the same track.
pub fn validate_chrome_trace(json: &str) -> Result<TraceSummary, String> {
    let Raw(doc) = serde_json::from_str::<Raw>(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let top = doc
        .as_map()
        .ok_or_else(|| "top level is not a JSON object".to_string())?;
    let events = get(top, "traceEvents")
        .ok_or_else(|| "missing `traceEvents`".to_string())?
        .as_seq()
        .ok_or_else(|| "`traceEvents` is not an array".to_string())?;
    let mut summary = TraceSummary::default();
    let mut span_clock: std::collections::HashMap<(u64, u64, String), f64> =
        std::collections::HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let m = ev
            .as_map()
            .ok_or_else(|| format!("traceEvents[{i}] is not an object"))?;
        for key in ["name", "ph", "ts", "pid", "tid"] {
            if get(m, key).is_none() {
                return Err(format!("traceEvents[{i}] missing `{key}`"));
            }
        }
        for key in ["ts", "pid", "tid"] {
            if !is_number(get(m, key).expect("checked above")) {
                return Err(format!("traceEvents[{i}] `{key}` is not a number"));
            }
        }
        let ph = get(m, "ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] `ph` is not a string"))?;
        let name = get(m, "name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] `name` is not a string"))?;
        summary.events += 1;
        if ph != "M" && is_fault_event(name) {
            summary.fault_events += 1;
        }
        match ph {
            "X" => {
                if !get(m, "dur").is_some_and(is_number) {
                    return Err(format!("traceEvents[{i}] span missing numeric `dur`"));
                }
                summary.spans += 1;
                let ts = as_f64(get(m, "ts").expect("checked above")).expect("checked above");
                let pid = as_f64(get(m, "pid").expect("checked above")).expect("checked above");
                let tid = as_f64(get(m, "tid").expect("checked above")).expect("checked above");
                let key = (pid as u64, tid as u64, name.to_string());
                if let Some(&prev) = span_clock.get(&key) {
                    if ts < prev {
                        return Err(format!(
                            "traceEvents[{i}] span `{name}` on pid {} tid {} starts at \
                             {ts}us, before the previous span at {prev}us",
                            key.0, key.1
                        ));
                    }
                }
                span_clock.insert(key, ts);
            }
            "i" => summary.instants += 1,
            "C" => summary.counters += 1,
            "M" => summary.metadata += 1,
            other => return Err(format!("traceEvents[{i}] unknown phase `{other}`")),
        }
    }
    if let Some(ms) = get(top, "mermaidSummary").and_then(|v| v.as_map().map(|m| m.to_vec())) {
        summary.delivered_messages = get(&ms, "delivered_messages").and_then(as_u64);
        summary.finish_ps = get(&ms, "finish_ps").and_then(as_u64);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ActKind;

    #[test]
    fn trace_round_trips_and_validates() {
        let mut sink = ChromeTraceSink::new();
        sink.record(&SimEvent::EngineDelivery {
            ts_ps: 1_000,
            src: 0,
            dst: 1,
            pending: 3,
        });
        sink.record(&SimEvent::Activation {
            node: 2,
            kind: ActKind::Compute,
            start_ps: 1_000,
            end_ps: 4_000,
        });
        sink.record(&SimEvent::MsgDeliver {
            ts_ps: 9_000,
            src: 0,
            dst: 2,
            bytes: 128,
            latency_ps: 8_000,
        });
        let json = sink.to_json();
        let s = validate_chrome_trace(&json).expect("emitted trace must validate");
        assert_eq!(s.metadata, 4);
        assert_eq!(s.spans, 1);
        assert_eq!(s.counters, 1, "first delivery samples the depth counter");
        assert_eq!(s.instants, 1);
        assert_eq!(s.delivered_messages, Some(1));
        assert_eq!(s.finish_ps, Some(9_000));
    }

    #[test]
    fn ts_maps_picoseconds_to_microseconds() {
        let mut sink = ChromeTraceSink::new();
        sink.record(&SimEvent::Activation {
            node: 0,
            kind: ActKind::Compute,
            start_ps: 2_000_000,
            end_ps: 3_500_000,
        });
        let json = sink.to_json();
        assert!(json.contains("\"ts\":2.0"), "2e6 ps = 2 us: {json}");
        assert!(json.contains("\"dur\":1.5"), "1.5e6 ps = 1.5 us: {json}");
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(
            validate_chrome_trace(r#"{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1}]}"#)
                .is_err(),
            "missing tid must fail"
        );
        assert!(
            validate_chrome_trace(
                r#"{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1,"tid":1}]}"#
            )
            .is_err(),
            "span without dur must fail"
        );
        let ok = validate_chrome_trace(
            r#"{"traceEvents":[{"name":"x","ph":"X","ts":1.5,"pid":1,"tid":1,"dur":2}]}"#,
        )
        .unwrap();
        assert_eq!(ok.spans, 1);
        assert_eq!(ok.delivered_messages, None);
    }

    #[test]
    fn regressing_span_starts_on_one_track_are_rejected() {
        // Same (pid, tid, name) track, second span starts earlier: a
        // scrambled trace. Different tid (or name) is fine.
        let scrambled = r#"{"traceEvents":[
            {"name":"compute","ph":"X","ts":5.0,"pid":2,"tid":1,"dur":1},
            {"name":"compute","ph":"X","ts":2.0,"pid":2,"tid":1,"dur":1}]}"#;
        let err = validate_chrome_trace(scrambled).unwrap_err();
        assert!(err.contains("before the previous span"), "{err}");

        let other_track = r#"{"traceEvents":[
            {"name":"compute","ph":"X","ts":5.0,"pid":2,"tid":1,"dur":1},
            {"name":"compute","ph":"X","ts":2.0,"pid":2,"tid":2,"dur":1}]}"#;
        assert_eq!(validate_chrome_trace(other_track).unwrap().spans, 2);
    }

    #[test]
    fn fault_variant_events_are_counted() {
        use crate::DropReason;
        let mut sink = ChromeTraceSink::new();
        sink.record(&SimEvent::LinkFault {
            ts_ps: 100,
            node: 0,
            to: 1,
            up: false,
        });
        sink.record(&SimEvent::RouterFault {
            ts_ps: 200,
            node: 2,
            up: true,
        });
        sink.record(&SimEvent::PacketDropped {
            ts_ps: 300,
            node: 0,
            src: 1,
            seq: 7,
            reason: DropReason::LinkDown,
        });
        sink.record(&SimEvent::MsgRetry {
            ts_ps: 400,
            src: 0,
            dst: 1,
            attempt: 1,
        });
        sink.record(&SimEvent::MsgDeliver {
            ts_ps: 500,
            src: 0,
            dst: 1,
            bytes: 64,
            latency_ps: 400,
        });
        let s = validate_chrome_trace(&sink.to_json()).unwrap();
        assert_eq!(s.fault_events, 4, "msg_deliver is not a fault event");
    }

    #[test]
    fn depth_counter_is_decimated() {
        let mut sink = ChromeTraceSink::new();
        for i in 0..200u64 {
            sink.record(&SimEvent::EngineDelivery {
                ts_ps: i * 10,
                src: 0,
                dst: 0,
                pending: 1,
            });
        }
        let s = validate_chrome_trace(&sink.to_json()).unwrap();
        assert_eq!(s.counters, 200u64.div_ceil(DEPTH_SAMPLE_EVERY));
    }
}
