//! Pluggable execution of batches of independent jobs.
//!
//! The parallel sweeps in this workspace all have the same shape: carve the
//! packed all-pairs triangle into disjoint contiguous slices, then run one
//! closure per slice to completion before continuing. [`JobRunner`] abstracts
//! *where* those closures run so the hot paths don't hard-code a threading
//! strategy:
//!
//! * [`SerialRunner`] runs jobs inline on the calling thread — the reference
//!   execution, also what single-worker configurations collapse to.
//! * [`ScopedRunner`] runs the first job on the calling thread and spawns one
//!   scoped OS thread ([`std::thread::scope`]) per other job — dependency-free,
//!   paying one thread startup per extra job on every call;
//!   [`ScopedRunner::machine`] sizes it to the machine and to the work of
//!   one query sweep.
//! * `tsubasa_parallel::WorkerPool` (in the parallel crate) keeps a fixed set
//!   of threads alive across calls, so repeated queries and engine phases
//!   stop paying that startup cost.
//!
//! The sliding tick ([`crate::incremental::SlidingState::slide_in`]) takes
//! no runner: its Lemma 2 sweep is one pass over the pairs at memory speed,
//! run on the caller's thread.
//!
//! The contract every implementation must honor: **`run` returns only after
//! every job has finished executing.** Jobs may borrow from the caller's
//! stack (`Job<'env>`); the blocking contract is what makes those borrows
//! sound for implementations that move jobs to other threads.

use std::sync::OnceLock;

use crate::plan::QueryPlan;
use crate::sketch::packed_pairs;

/// A unit of work: a closure that owns (or borrows, for the duration of the
/// `run` call) everything it needs. Jobs produced by the sweeps write results
/// through disjoint `&mut` slices and surface errors through captured slots,
/// so the closure itself returns nothing.
pub type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Something that can run a batch of independent jobs to completion.
///
/// Implementations must not return from [`JobRunner::run`] until every job
/// has finished (or panicked — panics must propagate to the caller, not be
/// swallowed, so invariants broken mid-job are never silently ignored).
pub trait JobRunner {
    /// The parallelism this runner provides — callers use it to size their
    /// job batches (e.g. one contiguous pair slice per worker).
    fn worker_count(&self) -> usize;

    /// Run all jobs to completion before returning.
    fn run<'env>(&self, jobs: Vec<Job<'env>>);
}

/// Runs every job inline on the calling thread, in order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialRunner;

impl JobRunner for SerialRunner {
    fn worker_count(&self) -> usize {
        1
    }

    fn run<'env>(&self, jobs: Vec<Job<'env>>) {
        for job in jobs {
            job();
        }
    }
}

/// Runs job 0 on the calling thread and spawns one scoped thread per other
/// job, on every call — the zero-state runner of the in-memory query entry
/// points ([`ScopedRunner::machine`]). A reusable pool
/// (`tsubasa_parallel::WorkerPool`) amortizes the per-call thread startup
/// (≈ 25 µs a thread) this runner pays.
#[derive(Debug, Clone, Copy)]
pub struct ScopedRunner {
    workers: usize,
}

impl ScopedRunner {
    /// A runner advertising `workers` parallelism (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// The runner of one sweep of `plan` on this machine: one worker per
    /// hardware thread ([`std::thread::available_parallelism`], which
    /// honours the process's CPU affinity and cgroup quota, read once per
    /// process), but no more than the sweep's work pays for (one per
    /// 150 000 pair-windows: pairs × plan windows), so a small query runs
    /// inline on the calling thread.
    pub fn machine(plan: &QueryPlan) -> Self {
        static THREADS: OnceLock<usize> = OnceLock::new();
        let threads =
            *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
        let pair_windows = packed_pairs(plan.series_count()).saturating_mul(plan.window_count());
        Self::new(sweep_workers(threads, pair_windows))
    }
}

/// Pair-windows of sweep work that pay for one more worker. A second run
/// saves half a sweep of ≈ 0.8 ns a pair-window, and its spawn plus the
/// wake-up of an idle hardware thread costs ≈ 120 µs: on a 2-vCPU x86-64 VM
/// with the second vCPU free (`examples/query_runner_probe.rs`) two runs
/// broke even at ≈ 300 000 pair-windows (N = 200, 15 windows) and won from
/// ≈ 490 000 (N = 256).
const PAIR_WINDOWS_PER_WORKER: usize = 150_000;

/// Workers for a sweep of `pair_windows` (pairs × plan windows) on
/// `threads` hardware threads: one per [`PAIR_WINDOWS_PER_WORKER`], at least
/// one, at most `threads`.
fn sweep_workers(threads: usize, pair_windows: usize) -> usize {
    threads.min(pair_windows / PAIR_WINDOWS_PER_WORKER).max(1)
}

impl JobRunner for ScopedRunner {
    fn worker_count(&self) -> usize {
        self.workers
    }

    /// Job 0 runs on the calling thread while the others run on spawned
    /// threads. A panic in any job propagates once every job has finished
    /// (a panic in job 0 once the scope has joined the spawned ones).
    fn run<'env>(&self, jobs: Vec<Job<'env>>) {
        let mut jobs = jobs.into_iter();
        let Some(first) = jobs.next() else {
            return;
        };
        if jobs.as_slice().is_empty() {
            first();
            return;
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs.map(|job| scope.spawn(job)).collect();
            first();
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Mutex};
    use std::thread;
    use std::time::Duration;

    fn counting_jobs(counter: &AtomicUsize, jobs: usize) -> Vec<Job<'_>> {
        (0..jobs)
            .map(|_| {
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Job<'_>
            })
            .collect()
    }

    #[test]
    fn serial_runner_runs_everything_inline() {
        let counter = AtomicUsize::new(0);
        SerialRunner.run(counting_jobs(&counter, 5));
        assert_eq!(counter.load(Ordering::SeqCst), 5);
        assert_eq!(SerialRunner.worker_count(), 1);
    }

    #[test]
    fn scoped_runner_completes_all_jobs_before_returning() {
        let counter = AtomicUsize::new(0);
        let runner = ScopedRunner::new(4);
        runner.run(counting_jobs(&counter, 9));
        assert_eq!(counter.load(Ordering::SeqCst), 9);
        assert_eq!(runner.worker_count(), 4);
        assert_eq!(ScopedRunner::new(0).worker_count(), 1);
    }

    #[test]
    fn scoped_runner_jobs_may_write_disjoint_slices() {
        let mut values = vec![0.0f64; 6];
        let (a, b) = values.split_at_mut(3);
        ScopedRunner::new(2).run(vec![
            Box::new(move || a.fill(1.0)),
            Box::new(move || b.fill(2.0)),
        ]);
        assert_eq!(values, vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn scoped_runner_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            ScopedRunner::new(2).run(vec![Box::new(|| {}), Box::new(|| panic!("job exploded"))]);
        });
        assert!(result.is_err());
    }

    #[test]
    fn scoped_runner_runs_job_zero_on_the_calling_thread_only() {
        let threads = Mutex::new(vec![None; 4]);
        let jobs: Vec<Job<'_>> = (0..4)
            .map(|k| {
                let threads = &threads;
                Box::new(move || threads.lock().unwrap()[k] = Some(thread::current().id()))
                    as Job<'_>
            })
            .collect();
        ScopedRunner::new(4).run(jobs);
        let caller = thread::current().id();
        let threads = threads.into_inner().unwrap();
        assert_eq!(threads[0], Some(caller));
        for (k, id) in threads.iter().enumerate().skip(1) {
            assert!(id.is_some_and(|id| id != caller), "job {k} ran on {id:?}");
        }
    }

    #[test]
    fn a_panic_in_the_inline_job_waits_for_the_spawned_ones() {
        let finished = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // Each spawned job is still running when the inline job panics:
            // it waits for the panic's unwinding to drop the sender, and
            // then lingers, so a runner that returned early would miss it.
            let spawned = || {
                assert!(rx.lock().unwrap().recv().is_err());
                thread::sleep(Duration::from_millis(20));
                finished.fetch_add(1, Ordering::SeqCst);
            };
            ScopedRunner::new(3).run(vec![
                Box::new(move || {
                    let _sender = tx;
                    panic!("inline job exploded")
                }),
                Box::new(spawned),
                Box::new(spawned),
            ]);
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_sweep_spawns_only_the_workers_its_work_pays_for() {
        let per = PAIR_WINDOWS_PER_WORKER;
        assert_eq!(sweep_workers(2, 0), 1);
        assert_eq!(sweep_workers(2, 2 * per - 1), 1);
        assert_eq!(sweep_workers(2, 2 * per), 2);
        assert_eq!(sweep_workers(2, usize::MAX), 2);
        assert_eq!(sweep_workers(8, 5 * per), 5);
        // One hardware thread (a process pinned to one CPU): always inline.
        assert_eq!(sweep_workers(1, 0), 1);
        assert_eq!(sweep_workers(1, usize::MAX), 1);
        assert_eq!(sweep_workers(0, usize::MAX), 1);
    }
}
