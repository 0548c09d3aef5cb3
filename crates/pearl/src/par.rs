//! Work-queue fan-out over host threads.
//!
//! The one place in the workspace that spreads independent work across
//! host cores: design-space sweeps (one simulation per configuration) and
//! detailed mode's per-node phases (trace generation and the per-node
//! computational model) all go through [`map`]. Workers pull indices from
//! a shared counter, so uneven items balance themselves; results travel
//! back over a channel and are consumed on the *calling* thread, which may
//! therefore hold `!Send` state (such as a probe handle) while it does so.
//!
//! A fan-out started from inside a worker of another fan-out runs inline
//! on that worker, so nested parallelism (a sweep of detailed runs) never
//! multiplies threads beyond the outer fan-out's.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{mpsc, Condvar, Mutex};

thread_local! {
    /// Set on the threads a fan-out spawns.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// One worker per available host core (at least one).
pub fn auto_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The order in which a fan-out hands results to its `on_result` hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// As each result completes; workers never wait for the hook.
    AsCompleted,
    /// In index order, for consumers that must see results in sequence
    /// (a probe replaying per-node event buffers). Workers run at most
    /// `workers` indices ahead of the last hook call to return, so early
    /// results never pile up behind a slow consumer: at most `workers`
    /// results exist outside the returned vector at any time.
    InOrder,
}

/// Compute `f(i)` for every `i` in `0..n` on up to `workers` threads and
/// return the results in index order.
///
/// `on_result(i, &mut value)` runs on the calling thread once per index,
/// in the order `delivery` names; it may inspect the value or take parts
/// of it out. With `workers <= 1`, `n <= 1`, or when called from inside
/// another fan-out's worker, everything runs inline in index order.
///
/// A panic is re-raised in the caller with its original payload once every
/// worker has exited. A panic in `f` under [`Delivery::AsCompleted`] leaves
/// the other indices running, so `on_result` still sees every index that
/// did not panic; under [`Delivery::InOrder`] nothing past the missing
/// index can be delivered, so the remaining work stops. A panic in
/// `on_result` stops the remaining work under either delivery.
pub fn map<T, F, R>(n: usize, workers: usize, delivery: Delivery, f: F, mut on_result: R) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    R: FnMut(usize, &mut T),
{
    let workers = workers.min(n);
    let in_order = delivery == Delivery::InOrder;
    if workers <= 1 || IN_WORKER.with(Cell::get) {
        return (0..n)
            .map(|i| {
                let mut out = f(i);
                on_result(i, &mut out);
                out
            })
            .collect();
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let queue = WorkQueue {
        n,
        lookahead: if in_order { workers } else { n },
        state: Mutex::new(Claims {
            next: 0,
            consumed: 0,
        }),
        wake: Condvar::new(),
    };
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (tx, queue, f) = (tx.clone(), &queue, &f);
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    // In order, a lost index would park the other workers
                    // on the window forever.
                    let _abandon = in_order.then_some(AbandonOnPanic(queue));
                    // A closed channel means the caller is unwinding.
                    while let Some(i) = queue.claim() {
                        if tx.send((i, f(i))).is_err() {
                            return;
                        }
                    }
                })
            })
            .collect();
        // Workers waiting for the in-order window must not outlive a
        // panicking `on_result`.
        let _abandon = AbandonOnPanic(&queue);
        // The loop below ends once every worker has dropped its sender,
        // whether it finished or panicked.
        drop(tx);
        let mut early = BTreeMap::new();
        let mut consumed = 0;
        for (i, out) in rx {
            early.insert(i, out);
            loop {
                let next = if in_order {
                    early.remove(&consumed).map(|out| (consumed, out))
                } else {
                    early.pop_first()
                };
                let Some((i, mut out)) = next else { break };
                on_result(i, &mut out);
                slots[i] = Some(out);
                consumed += 1;
                queue.consumed(consumed);
            }
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index is delivered once"))
        .collect()
}

/// The shared index counter workers claim from, held back to `lookahead`
/// indices past the results the caller has consumed. Every update is a
/// single store, so a lock poisoned by a panicking thread still guards
/// valid state; recovering it keeps the `Drop` guards from panicking.
struct WorkQueue {
    n: usize,
    lookahead: usize,
    state: Mutex<Claims>,
    wake: Condvar,
}

struct Claims {
    next: usize,
    consumed: usize,
}

impl WorkQueue {
    /// The next index to compute, waiting while it is beyond the window;
    /// `None` once every index is claimed (or the run was abandoned).
    fn claim(&self) -> Option<usize> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if s.next >= self.n {
                return None;
            }
            if s.next < s.consumed + self.lookahead {
                s.next += 1;
                return Some(s.next - 1);
            }
            s = self.wake.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn consumed(&self, count: usize) {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .consumed = count;
        self.wake.notify_all();
    }

    fn abandon(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).next = self.n;
        self.wake.notify_all();
    }
}

/// Claims every remaining index when its thread unwinds, so the workers
/// stop at their next claim instead of finishing (or waiting forever on
/// the in-order window).
struct AbandonOnPanic<'a>(&'a WorkQueue);

impl Drop for AbandonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abandon();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    const BOTH: [Delivery; 2] = [Delivery::AsCompleted, Delivery::InOrder];

    #[test]
    fn every_index_is_delivered_exactly_once_in_index_order_results() {
        for delivery in BOTH {
            for workers in [1, 2, 3, 8] {
                let mut seen = vec![0u32; 57];
                let out = map(
                    57,
                    workers,
                    delivery,
                    |i| i * i,
                    |i, &mut v| {
                        assert_eq!(v, i * i, "hook got a mismatched result");
                        seen[i] += 1;
                    },
                );
                assert_eq!(out, (0..57).map(|i| i * i).collect::<Vec<_>>());
                assert!(seen.iter().all(|&c| c == 1), "{workers} workers: {seen:?}");
            }
            assert!(map(0, 4, delivery, |i| i, |_, _| unreachable!()).is_empty());
        }
    }

    #[test]
    fn hook_runs_on_the_calling_thread_and_may_take_the_value() {
        let caller = std::thread::current().id();
        let mut taken = Vec::new();
        let out = map(
            16,
            4,
            Delivery::AsCompleted,
            |i| vec![i; 3],
            |_, v| {
                assert_eq!(std::thread::current().id(), caller);
                taken.append(v);
            },
        );
        assert!(out.iter().all(Vec::is_empty));
        taken.sort_unstable();
        assert_eq!(taken, (0..16).flat_map(|i| [i; 3]).collect::<Vec<_>>());
    }

    #[test]
    fn in_order_delivery_is_sequential_and_bounded() {
        // Computed-but-unconsumed results never exceed the worker count,
        // however far the workers could otherwise run ahead of the hook.
        let outstanding = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let mut order = Vec::new();
        map(
            200,
            3,
            Delivery::InOrder,
            |i| {
                let now = outstanding.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                i
            },
            |i, _| {
                order.push(i);
                outstanding.fetch_sub(1, Ordering::SeqCst);
            },
        );
        assert_eq!(order, (0..200).collect::<Vec<_>>());
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak {peak:?}");
    }

    #[test]
    fn nested_fan_out_runs_inline_on_the_worker() {
        let inner: Vec<Vec<bool>> = map(
            4,
            2,
            Delivery::AsCompleted,
            |_| {
                let worker = std::thread::current().id();
                let same = |_| std::thread::current().id() == worker;
                map(3, 8, Delivery::InOrder, same, |_, _| {})
            },
            |_, _| {},
        );
        assert!(inner.iter().flatten().all(|&same| same), "{inner:?}");
        // The calling thread itself is not a worker: its fan-outs spawn.
        let caller = std::thread::current().id();
        let ids = map(
            2,
            2,
            Delivery::AsCompleted,
            |_| std::thread::current().id(),
            |_, _| {},
        );
        assert!(ids.iter().all(|&id| id != caller));
    }

    #[test]
    fn worker_panic_reaches_the_caller_without_a_hang() {
        // Both workers meet at the barrier before either finishes, so one
        // panics while the other is demonstrably still running; the caller
        // must get the original payload once both have exited. In order,
        // the survivor may be parked on the window when the panic lands;
        // as completed, it goes on to deliver every other index first.
        for delivery in BOTH {
            let barrier = Barrier::new(2);
            let mut seen = Vec::new();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                map(
                    100,
                    2,
                    delivery,
                    |i| {
                        if i < 2 {
                            barrier.wait();
                        }
                        if i == 0 {
                            panic!("node {i} failed");
                        }
                        i
                    },
                    |i, _| seen.push(i),
                )
            }))
            .unwrap_err();
            assert_eq!(err.downcast_ref::<String>().unwrap(), "node 0 failed");
            if delivery == Delivery::AsCompleted {
                seen.sort_unstable();
                assert_eq!(seen, (1..100).collect::<Vec<_>>());
            } else {
                assert!(seen.is_empty(), "{seen:?}");
            }
        }
    }

    #[test]
    fn hook_panic_reaches_the_caller_without_a_hang() {
        // The caller stops receiving; workers must notice the closed
        // channel, the abandoned queue, or run out of work rather than
        // block forever.
        for delivery in BOTH {
            let err = std::panic::catch_unwind(|| {
                map(10_000, 2, delivery, |i| i, |_, _| panic!("sink failed"))
            })
            .unwrap_err();
            assert_eq!(*err.downcast_ref::<&str>().unwrap(), "sink failed");
        }
    }
}
