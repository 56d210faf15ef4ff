//! The deterministic parallel scheduler.
//!
//! Every parallel section of the engine is an *indexed map*: `n`
//! independent tasks, each a pure function of its index and of shared
//! immutable state (the [`crate::World`] has no interior mutability, so
//! `&World` is freely shareable across threads). Worker threads pull
//! indices from an atomic counter, compute results tagged with their
//! index, and the coordinator merges them **in index order** — so the
//! output is byte-identical to a sequential run regardless of thread
//! count or OS scheduling.
//!
//! Coarse task granularity (one crowd check, one retailer crawl, one
//! attribution probe) keeps coordination overhead negligible without any
//! work-stealing machinery.
//!
//! ```
//! use pd_core::Executor;
//!
//! // Four workers, but the output order is the index order — always.
//! let squares = Executor::new(4).map_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! assert_eq!(squares, Executor::serial().map_indexed(8, |i| i * i));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// One task of [`Executor::run_all`]: it writes its result into a
/// variable it borrows.
pub type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

/// A deterministic fork-join executor over indexed tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    /// Defaults to a serial executor (one thread).
    fn default() -> Self {
        Executor::serial()
    }
}

impl Executor {
    /// An executor with `threads` worker threads. `0` means "use the
    /// machine's available parallelism".
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        Executor { threads }
    }

    /// The serial executor: runs every task inline on the caller thread.
    #[must_use]
    pub const fn serial() -> Self {
        Executor { threads: 1 }
    }

    /// Number of worker threads this executor fans across.
    #[must_use]
    pub const fn threads(&self) -> usize {
        self.threads
    }

    /// Splits this executor's thread budget across `arms` concurrent
    /// sub-runs: returns `(arm-level executor, per-arm executor)` such
    /// that `arm_workers × per-arm workers ≤ threads` (never
    /// oversubscribing the budget) and no factor is zero. With more
    /// budget than arms the remainder goes to intra-arm parallelism;
    /// with fewer, arms queue on the arm-level executor.
    ///
    /// ```
    /// use pd_core::Executor;
    ///
    /// let (arms, intra) = Executor::new(8).split(3);
    /// assert_eq!((arms.threads(), intra.threads()), (3, 2)); // 3×2 ≤ 8
    /// let (arms, intra) = Executor::new(1).split(3);
    /// assert_eq!((arms.threads(), intra.threads()), (1, 1)); // serial
    /// ```
    #[must_use]
    pub const fn split(&self, arms: usize) -> (Executor, Executor) {
        let arms = if arms == 0 { 1 } else { arms };
        let arm_workers = if self.threads < arms {
            self.threads
        } else {
            arms
        };
        let arm_workers = if arm_workers == 0 { 1 } else { arm_workers };
        let intra = self.threads / arm_workers;
        let intra = if intra == 0 { 1 } else { intra };
        (
            Executor {
                threads: arm_workers,
            },
            Executor { threads: intra },
        )
    }

    /// Maps `f` over `0..n` and returns the results in index order.
    ///
    /// `f` must be pure with respect to the index (it may read shared
    /// state freely); under that contract the result is identical for
    /// every thread count, including the serial executor.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker task.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(n);
        let mut tagged: Vec<(usize, T)> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(local) => tagged.extend(local),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        // Index-ordered merge: scheduling decided who computed what, the
        // index decides where it lands.
        tagged.sort_unstable_by_key(|(i, _)| *i);
        tagged.into_iter().map(|(_, t)| t).collect()
    }

    /// Runs independent tasks whose results differ in type: each task
    /// writes its result into a variable it borrows mutably, and the
    /// caller reads them all once this returns. Under the same contract
    /// as [`Executor::map_indexed`] (a task is pure apart from its own
    /// output) the results are identical at every thread count. Tasks
    /// are taken in list order, so list the longest first.
    ///
    /// ```
    /// use pd_core::Executor;
    ///
    /// let (mut sum, mut text) = (0, String::new());
    /// Executor::new(2).run_all(vec![
    ///     Box::new(|| sum = (1..=10).sum()),
    ///     Box::new(|| text = "ten".repeat(2)),
    /// ]);
    /// assert_eq!((sum, text.as_str()), (55, "tenten"));
    /// ```
    ///
    /// # Panics
    ///
    /// Propagates a panic from any task.
    pub fn run_all(&self, tasks: Vec<Task<'_>>) {
        let slots: Vec<Mutex<Option<Task<'_>>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.map_indexed(slots.len(), |i| {
            let task = slots[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(task) = task {
                task();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_resolves_to_hardware() {
        assert!(Executor::new(0).threads() >= 1);
        assert_eq!(Executor::new(3).threads(), 3);
        assert_eq!(Executor::serial().threads(), 1);
    }

    #[test]
    fn map_preserves_index_order_at_any_thread_count() {
        let expect: Vec<usize> = (0..257).map(|i| i * i).collect();
        for threads in [1, 2, 4, 8, 32] {
            let got = Executor::new(threads).map_indexed(257, |i| i * i);
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let exec = Executor::new(4);
        assert_eq!(exec.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(exec.map_indexed(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn uneven_task_costs_still_merge_in_order() {
        // Make early indices slow so late indices finish first.
        let exec = Executor::new(4);
        let got = exec.map_indexed(16, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn split_never_oversubscribes_the_budget() {
        for total in 1..=16 {
            for arms in 0..=8 {
                let (arm_exec, intra) = Executor::new(total).split(arms);
                assert!(
                    arm_exec.threads() * intra.threads() <= total.max(1),
                    "split({total}, {arms}) = {} × {}",
                    arm_exec.threads(),
                    intra.threads()
                );
                assert!(arm_exec.threads() >= 1);
                assert!(intra.threads() >= 1);
                assert!(arm_exec.threads() <= arms.max(1), "no idle arm workers");
            }
        }
        // The documented shape: budget beyond the arm count flows to
        // intra-arm workers.
        assert_eq!(Executor::new(8).split(2).1.threads(), 4);
        assert_eq!(Executor::new(4).split(3).0.threads(), 3);
        assert_eq!(Executor::new(4).split(3).1.threads(), 1);
    }

    #[test]
    fn run_all_fills_every_slot_at_any_thread_count() {
        for threads in [1, 2, 4] {
            let mut slots = vec![0usize; 9];
            let tasks: Vec<Task<'_>> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| Box::new(move || *slot = i * 3) as Task<'_>)
                .collect();
            Executor::new(threads).run_all(tasks);
            assert_eq!(slots, (0..9).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Executor::new(2).map_indexed(8, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(result.is_err());
    }
}
