//! A small reusable worker pool for the all-pairs sweeps.
//!
//! Every parallel path in this workspace used to spawn fresh OS threads per
//! call (scoped threads in both the in-memory sweep and the disk engine).
//! That is correct but pays thread startup — tens of microseconds per worker
//! — on *every* query, which dominates once the tiled kernels push the
//! per-query compute into the same range.
//! [`WorkerPool`] keeps a fixed set of threads parked on channels across
//! calls: repeated queries, sketch passes, and sliding-network re-evaluations
//! reuse the same threads.
//!
//! The pool implements [`tsubasa_core::runner::JobRunner`], so anything that
//! accepts a runner — [`tsubasa_core::exact::correlation_matrix_parallel_in`],
//! [`tsubasa_core::incremental::SlidingNetwork::ingest_in`], the engine in
//! this crate — can be handed one pool and share it.
//!
//! # Safety
//!
//! Jobs may borrow from the caller's stack (`Job<'env>`), but a long-lived
//! worker thread can only *store* `'static` closures. The single `unsafe`
//! block in this module erases the job lifetime before handing it to a
//! worker. Soundness rests on the blocking contract of
//! [`WorkerPool::run_jobs`]:
//!
//! * every submitted job sends a completion message **after** it has finished
//!   executing (normally or by panic — panics are caught around the job);
//! * `run_jobs` returns only once it has received one completion per job, so
//!   no job — and no borrow captured inside one — outlives the call;
//! * if a worker's queue is closed (shutdown race), the send fails and
//!   returns the job, which then runs inline on the caller's thread;
//! * the pool is `&self` during `run_jobs` and `&mut self` in `Drop`, so a
//!   pool cannot be torn down while a call is in flight.

#![allow(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

use tsubasa_core::runner::{Job, JobRunner};

/// The panic payload of a job, if it had one.
type Outcome = Option<Box<dyn std::any::Any + Send + 'static>>;

type StaticJob = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of worker threads, parked between calls, that runs batches of
/// borrowed jobs to completion. See the [module documentation](self).
///
/// ```
/// use tsubasa_core::runner::JobRunner;
/// use tsubasa_parallel::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let mut halves = vec![0.0f64; 4];
/// let (lo, hi) = halves.split_at_mut(2);
/// pool.run(vec![
///     Box::new(move || lo.fill(1.0)),
///     Box::new(move || hi.fill(2.0)),
/// ]);
/// assert_eq!(halves, vec![1.0, 1.0, 2.0, 2.0]);
/// ```
pub struct WorkerPool {
    senders: Vec<Sender<StaticJob>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.senders.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (clamped to at least 1). The
    /// threads park on their queues until jobs arrive and exit when the pool
    /// is dropped.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for k in 0..workers {
            let (tx, rx) = channel::<StaticJob>();
            let handle = std::thread::Builder::new()
                .name(format!("tsubasa-pool-{k}"))
                .spawn(move || {
                    // Jobs arrive pre-wrapped: panics are caught inside the
                    // job itself, so this loop never unwinds and the worker
                    // survives until the channel closes.
                    for job in rx.iter() {
                        job();
                    }
                })
                .expect("spawn pool worker");
            senders.push(tx);
            handles.push(handle);
        }
        Self { senders, handles }
    }

    /// A pool sized like the paper's configuration: all available cores minus
    /// one (reserved for the database worker).
    pub fn with_default_size() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get().saturating_sub(1).max(1))
            .unwrap_or(1);
        Self::new(workers)
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Run all `jobs` to completion before returning, distributing them
    /// round-robin over the workers. The first job panic (if any) is
    /// re-raised on the calling thread after every job has finished.
    pub fn run_jobs<'env>(&self, jobs: Vec<Job<'env>>) {
        let count = jobs.len();
        if count == 0 {
            return;
        }
        if count == 1 || self.senders.len() == 1 {
            // Nothing to fan out — run inline and skip the channel round-trip.
            for job in jobs {
                job();
            }
            return;
        }

        let (done_tx, done_rx) = channel::<Outcome>();
        for (k, job) in jobs.into_iter().enumerate() {
            let done = done_tx.clone();
            let wrapped: Job<'env> = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(job));
                // The completion message is sent strictly after the job has
                // finished — this ordering is what makes the lifetime
                // erasure below sound.
                let _ = done.send(outcome.err());
            });
            // SAFETY: only the lifetime is transmuted (`Job<'env>` and
            // `StaticJob` are the same type modulo `'env`). The closure —
            // and every `'env` borrow inside it — is consumed exactly once,
            // either by a worker thread or inline below, and `run_jobs` does
            // not return until a completion message proves that execution
            // finished. The `'env` data therefore strictly outlives the job.
            let wrapped: StaticJob =
                unsafe { std::mem::transmute::<Job<'env>, StaticJob>(wrapped) };
            if let Err(err) = self.senders[k % self.senders.len()].send(wrapped) {
                // The worker is gone (only possible mid-shutdown); the job
                // comes back in the error — run it here so the completion
                // accounting still balances.
                (err.0)();
            }
        }
        drop(done_tx);

        let mut first_panic: Outcome = None;
        for _ in 0..count {
            match done_rx.recv() {
                Ok(Some(panic)) if first_panic.is_none() => first_panic = Some(panic),
                Ok(_) => {}
                // Unreachable by construction: every wrapped job owns a
                // completion sender and sends exactly once. Losing a message
                // would mean a job was dropped un-run, which would break the
                // borrow contract — make that loudly fatal.
                Err(_) => panic!("worker pool lost a job completion"),
            }
        }
        if let Some(panic) = first_panic {
            resume_unwind(panic);
        }
    }
}

impl JobRunner for WorkerPool {
    fn worker_count(&self) -> usize {
        self.size()
    }

    fn run<'env>(&self, jobs: Vec<Job<'env>>) {
        self.run_jobs(jobs);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops; join so no worker
        // outlives the pool.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_borrowed_jobs_to_completion() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Job<'_>> = (0..10)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Job<'_>
            })
            .collect();
        pool.run_jobs(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn pool_is_reusable_across_many_calls() {
        let pool = WorkerPool::new(2);
        for round in 0..50 {
            let mut values = vec![0usize; 4];
            let (a, b) = values.split_at_mut(2);
            pool.run_jobs(vec![
                Box::new(move || a.fill(round)),
                Box::new(move || b.fill(round + 1)),
            ]);
            assert_eq!(values, vec![round, round, round + 1, round + 1]);
        }
    }

    #[test]
    fn pool_clamps_zero_workers_and_handles_empty_batches() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.size(), 1);
        pool.run_jobs(Vec::new());
        assert!(WorkerPool::with_default_size().size() >= 1);
    }

    #[test]
    fn pool_propagates_job_panics_after_draining() {
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_jobs(vec![
                Box::new(|| panic!("job exploded")),
                Box::new(|| {
                    completed.fetch_add(1, Ordering::SeqCst);
                }),
            ]);
        }));
        assert!(result.is_err());
        // The non-panicking job still ran to completion before the unwind.
        assert_eq!(completed.load(Ordering::SeqCst), 1);
        // And the pool survives for further batches.
        let after = AtomicUsize::new(0);
        pool.run_jobs(vec![
            Box::new(|| {
                after.fetch_add(1, Ordering::SeqCst);
            }),
            Box::new(|| {
                after.fetch_add(1, Ordering::SeqCst);
            }),
        ]);
        assert_eq!(after.load(Ordering::SeqCst), 2);
    }
}
