//! Metrics aggregation: the post-mortem half of the paper's Section 3.
//!
//! The aggregator folds the probe event stream into the existing
//! `mermaid-stats` primitives — [`Counters`] for event counts,
//! [`Utilization`] for link/bus occupancy, a [`Histogram`] for message
//! latency, and a [`TimeSeries`] sampling engine queue depth — and
//! renders them as a [`MetricsReport`] (ASCII tables plus CSV through
//! `stats::csv`).

use crate::{Probe, SimEvent};
use mermaid_stats::{chart, csv, Counters, Histogram, Table, TimeSeries, Utilization};
use std::collections::BTreeMap;

/// Queue depth is sampled once per this many engine deliveries.
const DEPTH_SAMPLE_EVERY: u64 = 256;

/// Folds [`SimEvent`]s into per-component statistics.
pub struct MetricsAggregator {
    counters: Counters,
    msg_latency_ps: Histogram,
    link_util: BTreeMap<(u32, u32), Utilization>,
    bus_util: BTreeMap<u32, Utilization>,
    queue_depth: TimeSeries,
    deliveries: u64,
    finish_ps: u64,
}

impl Default for MetricsAggregator {
    fn default() -> Self {
        MetricsAggregator::new()
    }
}

impl MetricsAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        MetricsAggregator {
            counters: Counters::new(),
            msg_latency_ps: Histogram::log2(),
            link_util: BTreeMap::new(),
            bus_util: BTreeMap::new(),
            queue_depth: TimeSeries::new("queue_depth"),
            deliveries: 0,
            finish_ps: 0,
        }
    }

    /// The aggregated counter registry (sorted iteration order).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Message end-to-end latency distribution (picoseconds).
    pub fn msg_latency_ps(&self) -> &Histogram {
        &self.msg_latency_ps
    }

    /// Latest virtual time seen in any event.
    pub fn finish_ps(&self) -> u64 {
        self.finish_ps
    }

    /// The decimated engine queue-depth series.
    pub fn queue_depth(&self) -> &TimeSeries {
        &self.queue_depth
    }

    /// Render the report. `horizon_ps` bounds utilisation fractions; pass
    /// the run's finish time (or 0 to use the latest event time seen).
    pub fn report(&self, horizon_ps: u64) -> MetricsReport {
        let horizon = if horizon_ps == 0 {
            self.finish_ps
        } else {
            horizon_ps
        };

        let mut summary = Table::new(["metric", "value"]).with_title("Run summary");
        summary.row(["finish time (ps)".to_string(), self.finish_ps.to_string()]);
        summary.row(["engine deliveries".to_string(), self.deliveries.to_string()]);
        summary.row([
            "messages delivered".to_string(),
            self.msg_latency_ps.count().to_string(),
        ]);
        if let Some(mean) = self.msg_latency_ps.mean() {
            summary.row(["mean msg latency (ps)".to_string(), format!("{mean:.0}")]);
            let p95 = self.msg_latency_ps.percentile(0.95).unwrap_or(0);
            summary.row(["p95 msg latency (ps)".to_string(), p95.to_string()]);
        }

        let mut counters = Table::new(["counter", "value"]).with_title("Component counters");
        for (name, value) in self.counters.iter() {
            counters.row([name.to_string(), value.to_string()]);
        }

        let mut links = Table::new(["resource", "busy (ps)", "intervals", "util %"])
            .with_title("Link / bus occupancy");
        for (&(node, to), u) in &self.link_util {
            links.row([
                format!("link {node}->{to}"),
                u.busy_ps().to_string(),
                u.intervals().to_string(),
                format!("{:.1}", 100.0 * u.fraction(horizon)),
            ]);
        }
        for (&node, u) in &self.bus_util {
            links.row([
                format!("bus {node}"),
                u.busy_ps().to_string(),
                u.intervals().to_string(),
                format!("{:.1}", 100.0 * u.fraction(horizon)),
            ]);
        }

        MetricsReport {
            summary,
            counters,
            occupancy: links,
            latency_chart: if self.msg_latency_ps.count() > 0 {
                Some(chart::histogram_chart(&self.msg_latency_ps, 40))
            } else {
                None
            },
            queue_depth: self.queue_depth.clone(),
        }
    }
}

impl Probe for MetricsAggregator {
    fn record(&mut self, ev: &SimEvent) {
        self.finish_ps = self.finish_ps.max(ev.ts_ps());
        match *ev {
            SimEvent::EngineDelivery { ts_ps, pending, .. } => {
                self.deliveries += 1;
                self.counters.incr("engine/deliveries");
                if self.deliveries % DEPTH_SAMPLE_EVERY == 1 {
                    self.queue_depth.push(ts_ps, pending as f64);
                }
            }
            SimEvent::Activation {
                node,
                kind,
                start_ps,
                end_ps,
            } => {
                let key = format!("node{node}/{}_ps", kind.label());
                self.counters.add(&key, end_ps.saturating_sub(start_ps));
                self.finish_ps = self.finish_ps.max(end_ps);
            }
            SimEvent::MsgSend {
                src, bytes, sync, ..
            } => {
                self.counters.incr(&format!("node{src}/sends"));
                self.counters.add("net/bytes_sent", bytes as u64);
                if sync {
                    self.counters.incr("net/sync_sends");
                }
            }
            SimEvent::MsgDeliver {
                dst, latency_ps, ..
            } => {
                self.counters.incr(&format!("node{dst}/recvs"));
                self.counters.incr("net/messages");
                self.msg_latency_ps.record(latency_ps);
            }
            SimEvent::MsgPath {
                overhead_ps,
                retry_ps,
                queue_ps,
                routing_ps,
                ser_ps,
                wire_ps,
                ..
            } => {
                self.counters.add("lat/overhead_ps", overhead_ps);
                self.counters.add("lat/retry_ps", retry_ps);
                self.counters.add("lat/queue_ps", queue_ps);
                self.counters.add("lat/routing_ps", routing_ps);
                self.counters.add("lat/ser_ps", ser_ps);
                self.counters.add("lat/wire_ps", wire_ps);
            }
            SimEvent::LinkBusy {
                node,
                to,
                start_ps,
                end_ps,
            } => {
                self.link_util
                    .entry((node, to))
                    .or_default()
                    .record(start_ps, end_ps);
                self.finish_ps = self.finish_ps.max(end_ps);
            }
            SimEvent::PacketForward { node, packets, .. } => {
                self.counters
                    .add(&format!("node{node}/pkts_forwarded"), packets as u64);
            }
            SimEvent::PacketDeliver { node, packets, .. } => {
                self.counters
                    .add(&format!("node{node}/pkts_delivered"), packets as u64);
            }
            SimEvent::CacheAccess {
                node, kind, hit, ..
            } => {
                self.counters.incr(&format!("mem{node}/{}", kind.label()));
                self.counters
                    .incr(&format!("mem{node}/hit_{}", hit.label()));
                if hit.is_miss() {
                    self.counters.incr(&format!("mem{node}/misses"));
                }
            }
            SimEvent::CacheEvict {
                node, level, dirty, ..
            } => {
                self.counters.incr(&format!("mem{node}/evict_l{level}"));
                if dirty {
                    self.counters.incr(&format!("mem{node}/writebacks"));
                }
            }
            SimEvent::BusTransaction {
                node,
                start_ps,
                end_ps,
                wait_ps,
            } => {
                self.bus_util
                    .entry(node)
                    .or_default()
                    .record(start_ps, end_ps);
                self.counters
                    .add(&format!("mem{node}/bus_wait_ps"), wait_ps);
                self.finish_ps = self.finish_ps.max(end_ps);
            }
            SimEvent::LinkFault { up, .. } => {
                self.counters.incr(if up {
                    "fault/link_up"
                } else {
                    "fault/link_down"
                });
            }
            SimEvent::RouterFault { up, .. } => {
                self.counters.incr(if up {
                    "fault/router_up"
                } else {
                    "fault/router_down"
                });
            }
            SimEvent::PacketDropped { node, reason, .. } => {
                self.counters.incr(&format!("node{node}/pkts_dropped"));
                self.counters
                    .incr(&format!("net/dropped_{}", reason.label()));
            }
            SimEvent::PacketCorrupted { .. } => {
                self.counters.incr("net/corrupted");
            }
            SimEvent::MsgRetry { src, .. } => {
                self.counters.incr(&format!("node{src}/retries"));
                self.counters.incr("net/retries");
            }
            SimEvent::MsgGaveUp { src, .. } => {
                self.counters.incr(&format!("node{src}/gave_up"));
                self.counters.incr("net/msgs_failed");
            }
            SimEvent::Reroute { node, .. } => {
                self.counters.incr(&format!("node{node}/reroutes"));
                self.counters.incr("net/reroutes");
            }
        }
    }
}

/// The rendered post-mortem report: ASCII tables for humans,
/// CSV through `stats::csv` for scripts.
pub struct MetricsReport {
    /// Headline figures for the run.
    pub summary: Table,
    /// Every aggregated counter, in sorted key order.
    pub counters: Table,
    /// Per-link and per-bus occupancy.
    pub occupancy: Table,
    /// ASCII latency histogram, when any message was delivered.
    pub latency_chart: Option<String>,
    /// Decimated engine queue-depth samples.
    pub queue_depth: TimeSeries,
}

impl MetricsReport {
    /// Render the full text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.summary.render());
        out.push('\n');
        out.push_str(&self.counters.render());
        if !self.occupancy.is_empty() {
            out.push('\n');
            out.push_str(&self.occupancy.render());
        }
        if let Some(chart) = &self.latency_chart {
            out.push('\n');
            out.push_str("Message latency (ps, log2 buckets)\n");
            out.push_str(chart);
        }
        out
    }

    /// The counter table as CSV (`counter,value` rows).
    pub fn to_csv(&self) -> String {
        self.counters.to_csv()
    }

    /// The queue-depth series as CSV (`time_ps,queue_depth`).
    pub fn queue_depth_csv(&self) -> String {
        csv::series_to_csv(&[&self.queue_depth])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, ActKind, HitWhere};

    #[test]
    fn aggregates_counters_utilisation_and_latency() {
        let mut m = MetricsAggregator::new();
        m.record(&SimEvent::EngineDelivery {
            ts_ps: 10,
            src: 0,
            dst: 1,
            pending: 4,
        });
        m.record(&SimEvent::MsgSend {
            ts_ps: 10,
            src: 0,
            dst: 1,
            bytes: 100,
            sync: true,
        });
        m.record(&SimEvent::MsgDeliver {
            ts_ps: 1_010,
            src: 0,
            dst: 1,
            bytes: 100,
            latency_ps: 1_000,
        });
        m.record(&SimEvent::LinkBusy {
            node: 0,
            to: 1,
            start_ps: 10,
            end_ps: 510,
        });
        m.record(&SimEvent::BusTransaction {
            node: 1,
            start_ps: 0,
            end_ps: 200,
            wait_ps: 50,
        });
        m.record(&SimEvent::CacheAccess {
            ts_ps: 20,
            node: 1,
            cpu: 0,
            kind: AccessKind::Read,
            hit: HitWhere::Dram,
        });
        m.record(&SimEvent::Activation {
            node: 0,
            kind: ActKind::Compute,
            start_ps: 0,
            end_ps: 900,
        });
        assert_eq!(m.counters().get("node0/sends"), 1);
        assert_eq!(m.counters().get("node1/recvs"), 1);
        assert_eq!(m.counters().get("net/bytes_sent"), 100);
        assert_eq!(m.counters().get("mem1/misses"), 1);
        assert_eq!(m.counters().get("node0/compute_ps"), 900);
        assert_eq!(m.msg_latency_ps().count(), 1);
        assert_eq!(m.finish_ps(), 1_010);

        let report = m.report(1_000);
        let text = report.render();
        assert!(text.contains("Run summary"));
        assert!(text.contains("link 0->1"));
        assert!(text.contains("bus 1"));
        assert!(text.contains("50.0"), "500/1000 = 50% link util: {text}");
        let csv = report.to_csv();
        assert!(csv.starts_with("counter,value\n"));
        assert!(csv.contains("node0/sends,1"));
        assert!(csv.contains("engine/deliveries,1"));
    }

    #[test]
    fn queue_depth_is_sampled_and_exports_csv() {
        let mut m = MetricsAggregator::new();
        for i in 0..(2 * DEPTH_SAMPLE_EVERY) {
            m.record(&SimEvent::EngineDelivery {
                ts_ps: i * 10,
                src: 0,
                dst: 0,
                pending: i as usize,
            });
        }
        assert_eq!(m.queue_depth().len(), 2);
        let csv = m.report(0).queue_depth_csv();
        assert!(csv.starts_with("time_ps,queue_depth"));
    }
}
