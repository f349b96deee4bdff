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
    /// Total CPU time spent computing sketches, summed over workers.
    pub compute_time: Duration,
    /// Time the database worker spent inside pile writes.
    pub write_time: Duration,
    /// End-to-end wall-clock time of the sketch phase.
    pub wall_time: Duration,
}

impl SketchReport {
    /// Average per-worker computation time — comparable to the per-phase bars
    /// of Figure 6a when workers are load-balanced.
    pub fn compute_time_per_worker(&self) -> Duration {
        if self.workers == 0 {
            Duration::ZERO
        } else {
            self.compute_time / self.workers as u32
        }
    }
}

/// Breakdown of one parallel query (correlation-matrix construction) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryReport {
    /// Number of computation workers used.
    pub workers: usize,
    /// Number of unordered pairs evaluated.
    pub pairs: usize,
    /// Total time spent fetching statistics and pair tables from the source,
    /// summed over workers.
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
        let s = SketchReport {
            workers: 4,
            pairs: 100,
            compute_time: Duration::from_secs(8),
            write_time: Duration::from_secs(1),
            wall_time: Duration::from_secs(3),
        };
        assert_eq!(s.compute_time_per_worker(), Duration::from_secs(2));

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
            SketchReport::default().compute_time_per_worker(),
            Duration::ZERO
        );
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
