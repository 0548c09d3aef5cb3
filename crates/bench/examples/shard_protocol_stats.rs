//! Protocol-overhead probe for the sharded runner (BENCH_pr10 harness).
//!
//! Runs the comm-heavy 8×8 torus all-to-all workload (the exact
//! `sharded_comm` bench configuration) serially and on 2/4 shards,
//! printing one JSON object per line with the wall time and the shard
//! self-profile's protocol counters (barrier rounds, cross-shard channel
//! sends, window widths). `BENCH_pr10.json` records a before/after pair
//! of these lines; re-run with
//! `cargo run --release -p mermaid-bench --example shard_protocol_stats`.

use mermaid::prelude::*;

fn comm_heavy(nodes: u32) -> TraceSet {
    let app = StochasticApp {
        phases: 12,
        pattern: CommPattern::AllToAll,
        msg_bytes: SizeDist::Fixed(4096),
        task_ps: SizeDist::Fixed(200_000),
        ..StochasticApp::scientific(nodes)
    };
    StochasticGenerator::new(app, 7).generate_task_level()
}

fn main() {
    let topo = Topology::Torus2D { w: 8, h: 8 };
    let cfg = NetworkConfig::test(topo);
    let traces = comm_heavy(topo.nodes());
    let samples = 5usize;

    let serial = TaskLevelSim::new(cfg).run(&traces);
    assert!(serial.comm.all_done);
    let time = |shards: usize| {
        let mut best = u128::MAX;
        for _ in 0..samples {
            let ts = traces.clone();
            let t0 = std::time::Instant::now();
            let r = TaskLevelSim::new(cfg).with_shards(shards).run(&ts);
            best = best.min(t0.elapsed().as_nanos());
            assert_eq!(r.predicted_time, serial.predicted_time);
        }
        best
    };

    let serial_ns = time(1);
    println!("{{\"config\":\"torus8x8_all2all_12ph\",\"serial_min_ns\":{serial_ns}}}");
    for shards in [2usize, 4] {
        let r = TaskLevelSim::new(cfg).with_shards(shards).run(&traces);
        assert_eq!(r.predicted_time, serial.predicted_time);
        let p = r.shard_profile.expect("sharded run self-profiles");
        let windows: u64 = p.shards.iter().map(|s| s.windows).sum();
        let cross: u64 = p.shards.iter().map(|s| s.cross_sent).sum();
        // Channel operations: one per batch post-PR10, one per message
        // before (the before/after "cross-shard sends" comparison).
        let batches = p.total_flush_batches();
        let ns = time(shards);
        println!(
            "{{\"shards\":{shards},\"min_ns\":{ns},\"ratio_vs_serial\":{:.3},\
             \"barrier_rounds_total\":{windows},\"cross_shard_msgs\":{cross},\
             \"cross_shard_sends\":{batches}}}",
            serial_ns as f64 / ns as f64
        );
    }
}
