//! Timing breakdowns reported by the parallel engine — the quantities plotted
//! in the paper's Figure 6a (sketch phase) and Figure 6b (query phase).

use std::time::Duration;

/// Breakdown of one parallel sketch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SketchReport {
    /// Number of computation workers used.
    pub workers: usize,
    /// Number of unordered pairs sketched.
    pub pairs: usize,
    /// Time the calling thread spent computing sketches: the per-series
    /// statistics plus every window-kernel call, whose pooled pair sweep
    /// counts once (its wall time), not once per worker.
    pub compute_time: Duration,
    /// Time the database worker spent inside pile writes.
    pub write_time: Duration,
    /// End-to-end wall-clock time of the sketch phase.
    pub wall_time: Duration,
}

/// Breakdown of one parallel query (correlation-matrix construction) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryReport {
    /// Number of computation workers used.
    pub workers: usize,
    /// Number of unordered pairs evaluated.
    pub pairs: usize,
    /// Time spent fetching the statistics and borrowing the pair table from
    /// the source, before the workers start.
    pub read_time: Duration,
    /// Total time spent combining sketches into correlations, summed over
    /// workers.
    pub compute_time: Duration,
    /// End-to-end wall-clock time of the query phase.
    pub wall_time: Duration,
}

impl QueryReport {
    /// Average per-worker read time.
    pub fn read_time_per_worker(&self) -> Duration {
        if self.workers == 0 {
            Duration::ZERO
        } else {
            self.read_time / self.workers as u32
        }
    }

    /// Average per-worker matrix-calculation time.
    pub fn compute_time_per_worker(&self) -> Duration {
        if self.workers == 0 {
            Duration::ZERO
        } else {
            self.compute_time / self.workers as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_worker_averages() {
        let q = QueryReport {
            workers: 2,
            pairs: 100,
            read_time: Duration::from_secs(4),
            compute_time: Duration::from_secs(6),
            wall_time: Duration::from_secs(5),
        };
        assert_eq!(q.read_time_per_worker(), Duration::from_secs(2));
        assert_eq!(q.compute_time_per_worker(), Duration::from_secs(3));
    }

    #[test]
    fn zero_workers_do_not_divide_by_zero() {
        assert_eq!(
            QueryReport::default().read_time_per_worker(),
            Duration::ZERO
        );
        assert_eq!(
            QueryReport::default().compute_time_per_worker(),
            Duration::ZERO
        );
    }
}
