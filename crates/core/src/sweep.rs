//! Parallel design-space sweeps.
//!
//! The workbench's core activity is scenario analysis: the same workload
//! over a grid of candidate architectures. Individual simulations are
//! deterministic and independent, so the grid is embarrassingly parallel —
//! this module fans a sweep out over the host's cores through
//! [`pearl::par::map`] (results keep the input order, so a parallel sweep
//! is bit-identical to a serial one). Detailed runs inside a sweep worker
//! keep their per-node phases on that worker, so the sweep's worker count
//! is the run's total thread count.

pub use pearl::par::auto_workers;
use pearl::par::Delivery;

/// Worker count for a sweep whose individual runs are themselves
/// multi-threaded: caps `workers × max_shards` at the host core count so
/// sharded runs don't oversubscribe the machine (at least one worker).
pub fn auto_workers_for(max_shards: usize) -> usize {
    workers_for(auto_workers(), max_shards)
}

fn workers_for(cores: usize, max_shards: usize) -> usize {
    (cores / max_shards.max(1)).max(1)
}

/// Run `f` over every configuration, in parallel, preserving input order.
///
/// `f` must be deterministic for reproducible sweeps (every simulator in
/// this workspace is). Panics in `f` are propagated.
pub fn parallel_sweep<C, T, F>(configs: Vec<C>, f: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    parallel_sweep_streaming(configs, auto_workers(), f, |_, _| {})
}

/// [`parallel_sweep`] with an explicit worker count and a streaming
/// completion hook: `on_done(index, &result)` fires as each configuration
/// finishes (in completion order), so long campaigns can persist results
/// incrementally instead of waiting for the final barrier. `on_done` runs
/// on the calling thread — never concurrently with itself — and the
/// returned vector still preserves input order.
pub fn parallel_sweep_streaming<C, T, F, S>(
    configs: Vec<C>,
    workers: usize,
    f: F,
    mut on_done: S,
) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
    S: FnMut(usize, &T),
{
    pearl::par::map(
        configs.len(),
        workers,
        Delivery::AsCompleted,
        |i| f(&configs[i]),
        |i, out| on_done(i, out),
    )
}

/// Convenience: sweep labelled configurations and return `(label, value)`
/// pairs in input order.
pub fn labelled_sweep<C, T, F>(configs: Vec<(String, C)>, f: F) -> Vec<(String, T)>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    let (labels, cfgs): (Vec<String>, Vec<C>) = configs.into_iter().unzip();
    labels.into_iter().zip(parallel_sweep(cfgs, f)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::HybridSim;
    use crate::machines::MachineConfig;
    use mermaid_network::Topology;
    use mermaid_tracegen::{CommPattern, SizeDist, StochasticApp, StochasticGenerator};

    #[test]
    fn shard_aware_workers_cap_total_threads_at_the_core_count() {
        // workers × shards never exceeds the core count, and both floors
        // hold: at least one worker, shards of zero treated as one.
        assert_eq!(workers_for(8, 1), 8);
        assert_eq!(workers_for(8, 2), 4);
        assert_eq!(workers_for(8, 3), 2);
        assert_eq!(workers_for(8, 16), 1);
        assert_eq!(workers_for(1, 4), 1);
        assert_eq!(workers_for(8, 0), 8);
        for cores in 1..=16usize {
            for shards in 1..=8usize {
                let w = workers_for(cores, shards);
                assert!(w >= 1);
                assert!(
                    w == 1 || w * shards <= cores,
                    "{cores} cores {shards} shards -> {w}"
                );
            }
        }
        assert!(auto_workers_for(1) >= 1);
    }

    #[test]
    fn parallel_results_preserve_order() {
        let inputs: Vec<u64> = (0..57).collect();
        let out = parallel_sweep(inputs.clone(), |&x| x * x);
        assert_eq!(out, inputs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u32> = parallel_sweep(Vec::<u32>::new(), |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_simulation_sweep_matches_serial() {
        let app = StochasticApp {
            phases: 2,
            ops_per_phase: SizeDist::Fixed(500),
            pattern: CommPattern::NearestNeighborRing,
            ..StochasticApp::scientific(4)
        };
        let traces = StochasticGenerator::new(app, 3).generate();
        let topos = vec![
            Topology::Ring(4),
            Topology::FullyConnected(4),
            Topology::Mesh2D { w: 2, h: 2 },
            Topology::Star(4),
        ];
        let serial: Vec<_> = topos
            .iter()
            .map(|&t| {
                HybridSim::new(MachineConfig::test_machine(t))
                    .run(&traces)
                    .predicted_time
            })
            .collect();
        let parallel = parallel_sweep(topos, |&t| {
            HybridSim::new(MachineConfig::test_machine(t))
                .run(&traces)
                .predicted_time
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn labelled_sweep_pairs_names() {
        let out = labelled_sweep(vec![("a".to_string(), 1u32), ("b".to_string(), 2)], |&x| {
            x + 10
        });
        assert_eq!(out, vec![("a".to_string(), 11), ("b".to_string(), 12)]);
    }

    #[test]
    fn streaming_sweep_reports_every_completion_and_preserves_order() {
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        let inputs: Vec<u64> = (0..33).collect();
        let seen = Mutex::new(BTreeSet::new());
        let out = parallel_sweep_streaming(
            inputs.clone(),
            4,
            |&x| x + 1,
            |i, &r| {
                assert_eq!(r, i as u64 + 1, "callback got a mismatched result");
                assert!(seen.lock().unwrap().insert(i), "index {i} reported twice");
            },
        );
        assert_eq!(out, inputs.iter().map(|x| x + 1).collect::<Vec<_>>());
        assert_eq!(seen.lock().unwrap().len(), inputs.len());
    }

    #[test]
    fn streaming_sweep_serial_path_also_streams() {
        use std::sync::Mutex;
        let order = Mutex::new(Vec::new());
        let out = parallel_sweep_streaming(
            vec![10u32, 20, 30],
            1,
            |&x| x,
            |i, _| order.lock().unwrap().push(i),
        );
        assert_eq!(out, vec![10, 20, 30]);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        parallel_sweep(vec![1u32, 2, 3, 4, 5, 6, 7, 8], |&x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn a_panicking_run_still_lets_every_other_run_stream() {
        // Campaigns persist each run from `on_done`: one bad configuration
        // must not cost the records of the runs nobody had claimed yet.
        // Run 1 is held until the worker that panicked on run 0 has exited
        // (its thread-local destructor is the signal), so every later run
        // is claimed only after that panic has fully unwound.
        use std::cell::RefCell;
        use std::sync::{Arc, Barrier};
        struct AtExit(Arc<Barrier>);
        impl Drop for AtExit {
            fn drop(&mut self) {
                self.0.wait();
            }
        }
        thread_local! {
            static AT_EXIT: RefCell<Option<AtExit>> = const { RefCell::new(None) };
        }
        let both_claimed = Barrier::new(2);
        let exited = Arc::new(Barrier::new(2));
        let mut seen = Vec::new();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_sweep_streaming(
                (0..40u32).collect(),
                2,
                |&x| {
                    if x < 2 {
                        both_claimed.wait();
                    }
                    if x == 0 {
                        AT_EXIT.set(Some(AtExit(exited.clone())));
                        panic!("bad configuration");
                    }
                    if x == 1 {
                        exited.wait();
                    }
                    x
                },
                |i, _| seen.push(i),
            )
        }))
        .unwrap_err();
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "bad configuration");
        seen.sort_unstable();
        assert_eq!(seen, (1..40).collect::<Vec<_>>());
    }
}
