//! The parallel sketch / query engine (paper §3.4).
//!
//! Both phases run on the engine's reusable [`WorkerPool`] (no per-call
//! thread spawning). The engine has one sketch entry point,
//! [`ParallelEngine::sketch_to_pile`] — each window's row comes from the
//! shared window kernel of the configured method, fanned out over the pool,
//! and streams to the single database worker ([`PileBatchWriter`]) — and one
//! entry point per query ([`ParallelEngine::query`] /
//! [`ParallelEngine::network`] / [`ParallelEngine::top_k`]) over any
//! [`CorrSource`]: the mapped pile or an in-memory sketch. Each query is the
//! one plan over a source ([`SourcePlan`]) on the engine's pool. The workers
//! split the unordered pairs as contiguous runs of the packed triangle —
//! index ranges, never pair lists: the dense query is the one dense fill
//! ([`tsubasa_core::sweep::fill_packed`]), each worker writing its disjoint
//! slice of the packed result in place; streamed-query workers drive
//! per-worker sinks ([`tsubasa_core::sweep::sweep_pooled`]).
//!
//! Both hot loops are tiled batch kernels over window-major data: the sketch
//! phase calls [`tsubasa_core::stats::window_corrs_into`] or
//! [`tsubasa_dft::sketch::ComparatorKernel`] — the kernels every in-memory
//! sketch is built with, so a pile row equals the in-memory row bit for bit —
//! and the query phase sweeps the table the source lends with
//! [`tsubasa_core::QueryPlan::block_kernel`].

use std::ops::Range;
use std::time::{Duration, Instant};

use tsubasa_core::error::{Error, Result};
use tsubasa_core::matrix::CorrelationMatrix;
use tsubasa_core::plan::PlanMethod;
use tsubasa_core::sketch::packed_pairs;
use tsubasa_core::source::{CorrSource, SourcePlan};
use tsubasa_core::stats::{window_corrs_into, WindowStats};
use tsubasa_core::sweep::{EdgeList, TableAudit, TopK};
use tsubasa_core::window::BasicWindowing;
use tsubasa_core::SeriesCollection;
use tsubasa_dft::sketch::{ComparatorKernel, Transform};
use tsubasa_storage::pile::{
    encode_series_stats, PileBatchWriter, PileSlab, PileWriter, SegmentKind, SketchPile,
};

use crate::pool::WorkerPool;
use crate::timing::{QueryReport, SketchReport};

/// Which sketch the computation workers produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchMethod {
    /// TSUBASA's exact sketch: per-pair per-window Pearson correlations.
    Exact,
    /// The DFT comparator's sketch: per-pair per-window Equation 3 estimates
    /// of the distance between the normalized windows' first DFT
    /// coefficients, using the given number of coefficients.
    Dft {
        /// Number of DFT coefficients (`n` of `Dist_n`).
        coefficients: usize,
    },
}

/// How the query phase turns stored sketches into correlations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMethod {
    /// Exact recombination (Lemma 1) from stored per-window correlations.
    Exact,
    /// Approximate recombination (Equation 5) from stored Equation 3
    /// estimates of DFT distances.
    Approximate,
}

/// Configuration of the parallel engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of computation workers (the paper uses 63 plus one database
    /// worker).
    pub workers: usize,
    /// Largest streamed query tile: consecutive pairs of one triangle row
    /// that get one pruning decision, one NaN audit and one kernel call; also
    /// the slab queue depth of the sketch phase's database worker.
    pub batch_pairs: usize,
    /// What the sketch phase computes.
    pub sketch_method: SketchMethod,
    /// Audit tiles skipped by Equation 4 pruning for NaN table values
    /// ([`TableAudit::SweptAndSkipped`]; the name predates per-tile pruning).
    /// Pruning decides from per-series statistics alone, so a NaN hiding in
    /// a skippable tile is never read and its pair goes uncounted. With this
    /// set, skipped tiles are still read and audited — they stay skipped, only
    /// the accounting becomes exhaustive, at the cost of the reads saved.
    pub audit_pruned_chunks: bool,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get().saturating_sub(1).max(1))
            .unwrap_or(1);
        Self {
            workers,
            batch_pairs: tsubasa_storage::default_batch_pairs(),
            sketch_method: SketchMethod::Exact,
            audit_pruned_chunks: false,
        }
    }
}

/// The parallel, disk-based TSUBASA engine.
///
/// The engine owns a reusable [`WorkerPool`] sized to its configured worker
/// count: every [`ParallelEngine::sketch_to_pile`] and
/// [`ParallelEngine::query`] call runs its computation workers on
/// those long-lived threads, so back-to-back phases (and repeated queries)
/// pay thread startup once per engine instead of once per call.
///
/// Every query is one [`SourcePlan`] — `series_stats` →
/// `QueryPlan::from_window_stats` → the table the source lends → the pooled
/// sweep → sinks — whatever the method or backend, so the answers depend on
/// the stored rows alone, and those are the same bits on every backend.
#[derive(Debug)]
pub struct ParallelEngine {
    config: ParallelConfig,
    pool: WorkerPool,
}

impl ParallelEngine {
    /// Create an engine with the given configuration, spawning its worker
    /// pool.
    pub fn new(config: ParallelConfig) -> Self {
        let pool = WorkerPool::new(config.workers.max(1));
        Self { config, pool }
    }

    /// The engine's configuration.
    pub fn config(&self) -> ParallelConfig {
        self.config
    }

    /// The engine's reusable worker pool (shareable with the in-memory
    /// sweeps via [`tsubasa_core::runner::JobRunner`]).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Sketch `collection` into a fresh pile using the configured number of
    /// computation workers plus one database worker, and return the mapped
    /// result alongside the timing breakdown (Figure 6a).
    ///
    /// The statistics of every window go to the database worker first, as
    /// one slab. The pair pass then proceeds one window at a time: the
    /// method's shared window kernel ([`window_corrs_into`] for `c`,
    /// [`ComparatorKernel`] with the planner's FFT for `ĉ`) fills the
    /// window's full-width packed row, the pool's workers each sweeping whole
    /// triangle rows of it, and the row is streamed (in window order, one row
    /// in flight) to the database worker as one coalescable slab. The rows
    /// are therefore `SketchSet::build`'s / `DftSketchSet::build`'s own, bit
    /// for bit, for any worker count. Nothing here is bounded by the dense
    /// budget: working memory is one window's scratch and one row.
    pub fn sketch_to_pile(
        &self,
        collection: &SeriesCollection,
        basic_window: usize,
        writer: PileWriter,
    ) -> Result<(SketchReport, SketchPile)> {
        let wall_start = Instant::now();
        let windowing = BasicWindowing::new(basic_window)?;
        let n = collection.len();
        let ns = windowing.complete_windows(collection.series_len());
        let fresh = SegmentKind::ALL.iter().all(|&k| writer.coverage(k) == 0);
        if writer.n_series() != n || writer.basic_window() != basic_window || !fresh {
            return Err(Error::SketchMismatch {
                requested: format!(
                    "fresh pile(n_series={n}, basic_window={basic_window}) for {ns} windows"
                ),
                available: format!(
                    "pile(n_series={}, basic_window={}, windows appended={})",
                    writer.n_series(),
                    writer.basic_window(),
                    !fresh
                ),
            });
        }
        if ns == 0 {
            return Err(Error::InvalidBasicWindow {
                window: basic_window,
                series_len: collection.series_len(),
            });
        }

        let batch = PileBatchWriter::spawn(writer, self.config.batch_pairs.max(1));
        let send = |slab: PileSlab| {
            batch
                .sender()
                .send(slab)
                .map_err(|_| Error::Storage("pile writer hung up".into()))
        };

        // Per-series statistics of every window, window-major: the pile's
        // statistics slab and the kernels' input.
        let mut compute_start = Instant::now();
        let mut stats: Vec<WindowStats> = Vec::with_capacity(ns * n);
        for w in 0..ns {
            let span = windowing.window_span(w);
            stats.extend(
                collection
                    .iter()
                    .map(|s| WindowStats::from_values(span.slice(s.values()))),
            );
        }
        let stats_rows = encode_series_stats(&stats);
        let mut compute_time = compute_start.elapsed();
        send(PileSlab::Stats(stats_rows))?;

        // Pair pass, window at a time, in the strict window order the pile's
        // append discipline requires.
        let pair_count = n * n.saturating_sub(1) / 2;
        let mut comparator = match self.config.sketch_method {
            SketchMethod::Exact => None,
            SketchMethod::Dft { coefficients } => Some(ComparatorKernel::new(
                basic_window,
                coefficients,
                Transform::Fft,
            )),
        };
        let mut z = Vec::new();
        let mut window: Vec<&[f64]> = Vec::with_capacity(n);
        let pair_rows = if pair_count == 0 { 0 } else { ns };
        for w in 0..pair_rows {
            compute_start = Instant::now();
            let span = windowing.window_span(w);
            window.clear();
            window.extend(collection.iter().map(|s| span.slice(s.values())));
            let stats = &stats[w * n..(w + 1) * n];
            let mut row = vec![0.0f64; pair_count];
            let slab = match &mut comparator {
                None => {
                    window_corrs_into(&window, stats, &self.pool, &mut z, &mut row);
                    PileSlab::Corrs(row)
                }
                Some(kernel) => {
                    kernel.window_ests_into(&window, stats, &self.pool, &mut row);
                    PileSlab::Ests(row)
                }
            };
            compute_time += compute_start.elapsed();
            send(slab)?;
        }

        let (writer_stats, writer) = batch.finish()?;
        let pile = writer.into_pile()?;
        Ok((
            SketchReport {
                workers: self.config.workers.max(1),
                pairs: pair_count,
                compute_time,
                write_time: writer_stats.write_time,
                wall_time: wall_start.elapsed(),
            },
            pile,
        ))
    }

    /// The plan-level method a query method recombines with.
    fn plan_method(method: QueryMethod) -> PlanMethod {
        match method {
            QueryMethod::Exact => PlanMethod::Exact,
            QueryMethod::Approximate => PlanMethod::Approximate,
        }
    }

    /// Build the all-pair correlation matrix for an aligned range of basic
    /// windows from **any** [`CorrSource`] — in-memory sketches or a mapped
    /// pile — and report the read/compute breakdown (Figure 6b).
    ///
    /// The query is [`SourcePlan::correlation_matrix`] on the engine's pool:
    /// the per-series statistics are fetched once into one read-only plan,
    /// and the dense fill ([`tsubasa_core::sweep::fill_packed`]) gives each
    /// worker a disjoint contiguous slice of the packed upper-triangle result
    /// to write from the table the source lends ([`CorrSource::full_table`])
    /// in place — no copy of the table, no merge step, the same bits for any
    /// worker count. The
    /// report's read time covers the plan (statistics, tables, lent table),
    /// its compute time the workers' summed busy time. The packed result is
    /// the one dense allocation: past the dense budget the call fails with
    /// [`Error::TooLarge`] (the streamed [`ParallelEngine::network`] /
    /// [`ParallelEngine::top_k`] never do).
    pub fn query<S: CorrSource + ?Sized>(
        &self,
        source: &S,
        windows: Range<usize>,
        method: QueryMethod,
    ) -> Result<(CorrelationMatrix, QueryReport)> {
        self.answer(source, windows, method, |plan| {
            plan.correlation_matrix(&self.pool)
        })
    }

    /// The thresholded network under the method's edge rule
    /// ([`tsubasa_core::sweep::EdgeRule::for_method`]): `c > θ` for [`QueryMethod::Exact`],
    /// matching `query(..)?.0.threshold(theta)` exactly, and the Equation 4
    /// radius `distance_from_corr(c) ≤ √(2(1−θ))` for
    /// [`QueryMethod::Approximate`], matching
    /// `tsubasa_dft::ApproxPlan::network_streamed` exactly. Computed from any
    /// [`CorrSource`] without ever materializing the packed correlation
    /// triangle ([`SourcePlan::network`]): each worker streams the tiles of
    /// its run, at most [`ParallelConfig::batch_pairs`] pairs each, through
    /// its own sink, and the per-run edge lists are appended in run order.
    ///
    /// On the approximate path a tile is skipped *before* its table columns
    /// are touched when its Equation 4 correlation upper bound lies outside
    /// the radius — the paper's pruning applied at I/O granularity (a pruned
    /// tile is never faulted in from a mapping). The exact path observes
    /// every pair, so its NaN audit (NaN table values, counted per pair and
    /// exposed through [`EdgeList::nan_pair_count`]) is exhaustive; pruned
    /// approximate tiles are audited only under
    /// [`ParallelConfig::audit_pruned_chunks`].
    pub fn network<S: CorrSource + ?Sized>(
        &self,
        source: &S,
        windows: Range<usize>,
        method: QueryMethod,
        theta: f64,
    ) -> Result<(EdgeList, QueryReport)> {
        self.answer(source, windows, method, |plan| {
            plan.network(&self.pool, theta, self.config.batch_pairs, self.audit())
        })
    }

    /// The `k` strongest edges of the query window, streamed from any
    /// [`CorrSource`] with a per-worker bounded heap merged across runs
    /// ([`SourcePlan::top_k`]). Tiles whose Equation 4 upper bound cannot
    /// beat the worker's current k-th strength are skipped before their
    /// columns are touched (both query methods — the bound holds for exact
    /// and approximate recombination alike). Ranking is total
    /// ([`f64::total_cmp`], ties by ascending pair index) and equals the
    /// sorted dense matrix's top k; sketches with NaN windows rank as the
    /// kernel's `0.0` convention and are counted in [`TopK::nan_pairs`] as
    /// audit metadata.
    pub fn top_k<S: CorrSource + ?Sized>(
        &self,
        source: &S,
        windows: Range<usize>,
        method: QueryMethod,
        k: usize,
    ) -> Result<(TopK, QueryReport)> {
        self.answer(source, windows, method, |plan| {
            Ok(plan.top_k(&self.pool, k, self.config.batch_pairs, self.audit()))
        })
    }

    /// The table NaN audit of the streamed queries: every evaluated tile,
    /// plus the pruned ones under [`ParallelConfig::audit_pruned_chunks`].
    fn audit(&self) -> TableAudit {
        if self.config.audit_pruned_chunks {
            TableAudit::SweptAndSkipped
        } else {
            TableAudit::Swept
        }
    }

    /// Shared body of the queries: plan `method` over `windows` of `source`
    /// ([`SourcePlan::new`] — the read phase), run `query` on it, and report
    /// the timings.
    fn answer<S: CorrSource + ?Sized, T>(
        &self,
        source: &S,
        windows: Range<usize>,
        method: QueryMethod,
        query: impl FnOnce(&SourcePlan<'_>) -> Result<(T, Duration)>,
    ) -> Result<(T, QueryReport)> {
        let wall_start = Instant::now();
        let plan = SourcePlan::new(source, windows, Self::plan_method(method))?;
        let read_time = wall_start.elapsed();
        let (answer, compute_time) = query(&plan)?;
        let report = QueryReport {
            workers: self.config.workers.max(1),
            pairs: packed_pairs(plan.series_count()),
            read_time,
            compute_time,
            wall_time: wall_start.elapsed(),
        };
        Ok((answer, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsubasa_core::plan::WindowRows;
    use tsubasa_core::sketch::pair_index;
    use tsubasa_core::stats::{distance_from_corr, pruning_radius};
    use tsubasa_core::{baseline, QueryWindow, SketchSet};
    use tsubasa_data::station::{generate_ncea_like, NceaLikeConfig};
    use tsubasa_dft::sketch::{DftSketchSet, Transform};

    fn small_collection() -> SeriesCollection {
        generate_ncea_like(&NceaLikeConfig {
            stations: 10,
            points: 600,
            seed: 3,
            regions: 3,
            correlation_length_km: 900.0,
            missing_fraction: 0.0,
        })
        .unwrap()
    }

    fn engine(workers: usize, method: SketchMethod) -> ParallelEngine {
        ParallelEngine::new(ParallelConfig {
            workers,
            batch_pairs: 8,
            sketch_method: method,
            audit_pruned_chunks: false,
        })
    }

    fn temp_pile(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "tsubasa-engine-pile-{}-{tag}.pile",
            std::process::id()
        ))
    }

    /// Sketch `c` into a fresh pile at a per-test temp path (unlinked right
    /// away: the returned mapping keeps the file alive).
    fn sketch(
        eng: &ParallelEngine,
        c: &SeriesCollection,
        b: usize,
        tag: &str,
    ) -> (SketchReport, SketchPile) {
        let path = temp_pile(tag);
        let writer = PileWriter::create(&path, c.len(), b).unwrap();
        let out = eng.sketch_to_pile(c, b, writer).unwrap();
        std::fs::remove_file(&path).ok();
        out
    }

    #[test]
    fn parallel_exact_matches_baseline_via_pile() {
        let c = small_collection();
        let eng = engine(3, SketchMethod::Exact);
        let (report, pile) = sketch(&eng, &c, 60, "baseline");
        assert_eq!(report.pairs, c.pair_count());
        assert!(report.wall_time > Duration::ZERO);

        let (matrix, qreport) = eng
            .query(&pile, 0..pile.exact_query_windows(), QueryMethod::Exact)
            .unwrap();
        assert_eq!(qreport.pairs, c.pair_count());
        let query = QueryWindow::new(599, 600).unwrap();
        let direct = baseline::correlation_matrix(&c, query).unwrap();
        assert!(
            matrix.max_abs_diff(&direct) < 1e-9,
            "diff {}",
            matrix.max_abs_diff(&direct)
        );
    }

    #[test]
    fn parallel_exact_matches_baseline_via_memory_sketch() {
        let c = small_collection();
        let sk = SketchSet::build(&c, 50).unwrap();
        let eng = engine(4, SketchMethod::Exact);
        let (matrix, qreport) = eng
            .query(&sk, 0..sk.window_count(), QueryMethod::Exact)
            .unwrap();
        assert_eq!(qreport.pairs, c.pair_count());
        let query = QueryWindow::new(599, 600).unwrap();
        let direct = baseline::correlation_matrix(&c, query).unwrap();
        assert!(matrix.max_abs_diff(&direct) < 1e-9);
    }

    #[test]
    fn parallel_dft_sketch_matches_serial_dft_sketch() {
        let c = small_collection();
        let b = 50;
        let coeff = 20;
        let eng = engine(
            4,
            SketchMethod::Dft {
                coefficients: coeff,
            },
        );
        let (_, pile) = sketch(&eng, &c, b, "dft-serial");
        let ns = pile.approx_query_windows();
        assert_eq!(ns, 600 / b);
        assert_eq!(pile.exact_query_windows(), 0);

        // The stored rows are the serial sketch's own estimate rows (same
        // kernel; the naive transform and the engine's FFT agree to rounding).
        let serial = DftSketchSet::build(&c, b, coeff, Transform::Naive).unwrap();
        let table = pile.pair_table(0..ns, SegmentKind::PairEsts).unwrap();
        for (i, j) in c.pairs() {
            let expected = serial.pair_estimates(i, j).unwrap();
            for (w, est) in expected.iter().enumerate() {
                let stored = table.view().window_row(w)[pair_index(i, j, c.len())];
                assert!((stored - est).abs() < 1e-9);
            }
        }

        // Approximate query over the stored estimates equals the serial
        // Equation 5 path.
        let (matrix, _) = eng.query(&pile, 0..ns, QueryMethod::Approximate).unwrap();
        let serial_matrix = tsubasa_dft::approx::approximate_correlation_matrix(
            &serial,
            0..ns,
            tsubasa_dft::approx::ApproxStrategy::Equation5,
        )
        .unwrap();
        assert!(matrix.max_abs_diff(&serial_matrix) < 1e-9);
    }

    #[test]
    fn worker_count_does_not_change_the_result() {
        let c = small_collection();
        let mut matrices = Vec::new();
        for workers in [1, 2, 5] {
            let eng = engine(workers, SketchMethod::Exact);
            let (_, pile) = sketch(&eng, &c, 100, &format!("workers-{workers}"));
            let (m, report) = eng.query(&pile, 0..6, QueryMethod::Exact).unwrap();
            assert_eq!(report.workers, workers);
            matrices.push(m);
        }
        assert_eq!(matrices[0], matrices[1]);
        assert_eq!(matrices[1], matrices[2]);
    }

    #[test]
    fn engine_pool_is_reused_across_repeated_queries() {
        let c = small_collection();
        let eng = engine(3, SketchMethod::Exact);
        assert_eq!(eng.pool().size(), 3);
        let (_, pile) = sketch(&eng, &c, 100, "reuse");
        // Repeated queries run on the same pool threads and agree exactly.
        let (first, _) = eng.query(&pile, 0..6, QueryMethod::Exact).unwrap();
        for _ in 0..3 {
            let (again, report) = eng.query(&pile, 0..6, QueryMethod::Exact).unwrap();
            assert_eq!(first, again);
            assert_eq!(report.workers, 3);
        }
    }

    #[test]
    fn network_matches_dense_threshold() {
        let c = small_collection();
        let eng = engine(3, SketchMethod::Exact);
        let (_, pile) = sketch(&eng, &c, 50, "network");
        let (dense, _) = eng.query(&pile, 0..12, QueryMethod::Exact).unwrap();
        for theta in [-0.2, 0.0, 0.4, 0.85] {
            let (streamed, report) = eng
                .network(&pile, 0..12, QueryMethod::Exact, theta)
                .unwrap();
            assert_eq!(report.pairs, c.pair_count());
            assert_eq!(
                streamed.to_adjacency(),
                dense.threshold(theta).unwrap(),
                "theta={theta}"
            );
            assert_eq!(streamed.nan_pair_count(), 0);
        }
        assert!(eng.network(&pile, 0..12, QueryMethod::Exact, 1.5).is_err());
    }

    #[test]
    fn approximate_network_matches_dense_and_prunes_reads() {
        let c = small_collection();
        let eng = engine(2, SketchMethod::Dft { coefficients: 10 });
        let (_, pile) = sketch(&eng, &c, 60, "approx-network");
        let (dense, _) = eng.query(&pile, 0..10, QueryMethod::Approximate).unwrap();
        // A pair's own correlation sits on the radius boundary: an edge.
        for theta in [0.0, 0.5, 0.99, dense.get(2, 7)] {
            let (streamed, _) = eng
                .network(&pile, 0..10, QueryMethod::Approximate, theta)
                .unwrap();
            // Chunk pruning may skip reads, never edges: the edge set equals
            // the Equation 4 radius predicate over the dense matrix exactly.
            let radius = pruning_radius(theta);
            let want: Vec<(usize, usize)> = dense
                .iter_pairs()
                .filter(|&(_, _, c)| distance_from_corr(c) <= radius)
                .map(|(i, j, _)| (i, j))
                .collect();
            assert_eq!(streamed.edges(), &want[..], "theta={theta}");
        }
        let boundary = eng
            .network(&pile, 0..10, QueryMethod::Approximate, dense.get(2, 7))
            .unwrap();
        assert!(boundary.0.edges().contains(&(2, 7)));
    }

    #[test]
    fn top_k_matches_sorted_dense() {
        let c = small_collection();
        let n = c.len();
        let eng = engine(4, SketchMethod::Exact);
        let (_, pile) = sketch(&eng, &c, 50, "top-k");
        let (dense, _) = eng.query(&pile, 0..12, QueryMethod::Exact).unwrap();
        let mut all: Vec<(usize, usize, f64)> = dense.iter_pairs().collect();
        all.sort_by(|x, y| {
            y.2.total_cmp(&x.2)
                .then_with(|| pair_index(x.0, x.1, n).cmp(&pair_index(y.0, y.1, n)))
        });
        for k in [0, 1, 7, 45, 100] {
            let (top, _) = eng.top_k(&pile, 0..12, QueryMethod::Exact, k).unwrap();
            assert_eq!(top.edges.len(), k.min(all.len()), "k={k}");
            for (got, want) in top.edges.iter().zip(&all) {
                assert_eq!((got.i, got.j), (want.0, want.1), "k={k}");
                assert_eq!(got.corr, want.2, "k={k}");
            }
        }
    }

    #[test]
    fn pruned_chunk_nan_audit_is_opt_in() {
        // Two groups: series 0–1 put all their variance *within* windows
        // (zero-mean oscillation, `s ≈ 1, t ≈ 0`), series 2–3 put it
        // *between* windows (staircase, `s ≈ 0, t ≈ 1`). A cross-group pair
        // then has Equation 4 bound `s_i s_j + t_i t_j ≈ 0`, so its tile is
        // pruned before its columns are read — and a NaN planted there is
        // invisible to the default audit.
        let len = 120;
        let b = 20;
        let ns = len / b;
        let c = SeriesCollection::from_rows(
            (0..4usize)
                .map(|s| {
                    (0..len)
                        .map(|i| {
                            if s < 2 {
                                (i as f64 * 0.9 + s as f64 * 0.3).sin()
                            } else {
                                (i / b) as f64 * 10.0 + ((i * (s + 7)) % 5) as f64 * 1e-3
                            }
                        })
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        let eng = ParallelEngine::new(ParallelConfig {
            workers: 2,
            batch_pairs: 1, // isolate every pair in its own tile
            sketch_method: SketchMethod::Dft { coefficients: 10 },
            audit_pruned_chunks: false,
        });

        // Plant NaN in every window of cross-group pair (0, 3).
        let dft = DftSketchSet::build(&c, b, 10, Transform::Naive).unwrap();
        let pairs = c.pair_count();
        let mut ests: Vec<f64> = (0..ns)
            .flat_map(|w| dft.window_ests_view(w..w + 1).window_row(0).to_vec())
            .collect();
        for w in 0..ns {
            ests[w * pairs + pair_index(0, 3, 4)] = f64::NAN;
        }
        let ests = WindowRows::from_flat(ests, pairs, ns);
        let poisoned = DftSketchSet::from_parts(dft.base().clone(), 10, ests).unwrap();

        let (silent, _) = eng
            .network(&poisoned, 0..ns, QueryMethod::Approximate, 0.5)
            .unwrap();
        // The poisoned tile was pruned before being read: the NaN goes
        // uncounted by default.
        assert_eq!(silent.nan_pair_count(), 0);

        let auditor = ParallelEngine::new(ParallelConfig {
            audit_pruned_chunks: true,
            ..eng.config()
        });
        let (audited, _) = auditor
            .network(&poisoned, 0..ns, QueryMethod::Approximate, 0.5)
            .unwrap();
        assert_eq!(audited.nan_pair_count(), 1);
        // The audit changes accounting only, never the edge set.
        assert_eq!(audited.edges(), silent.edges());
    }

    #[test]
    fn a_nan_distance_row_is_counted_by_the_audit() {
        // A comparator row minted from caller-supplied statistics with a NaN
        // σ for series 1: the kernel stores NaN estimates for that series'
        // pairs, and the engine's table audit counts exactly those pairs.
        let c = small_collection();
        let (n, b, poisoned) = (c.len(), 60, 1);
        let dft = DftSketchSet::build(&c, b, 10, Transform::Naive).unwrap();
        let ns = dft.window_count();
        let mut ests: Vec<f64> = (0..ns)
            .flat_map(|w| dft.window_ests_view(w..w + 1).window_row(0).to_vec())
            .collect();
        let window: Vec<&[f64]> = c.iter().map(|s| &s.values()[..b]).collect();
        let mut stats: Vec<WindowStats> = window
            .iter()
            .map(|points| WindowStats::from_values(points))
            .collect();
        stats[poisoned].std = f64::NAN;
        let pairs = c.pair_count();
        ComparatorKernel::new(b, 10, Transform::Naive).window_ests_into(
            &window,
            &stats,
            &tsubasa_core::SerialRunner,
            &mut ests[..pairs],
        );
        let ests = WindowRows::from_flat(ests, pairs, ns);
        let poisoned_sketch = DftSketchSet::from_parts(dft.base().clone(), 10, ests).unwrap();

        let eng = ParallelEngine::new(ParallelConfig {
            workers: 2,
            batch_pairs: 8,
            sketch_method: SketchMethod::Dft { coefficients: 10 },
            audit_pruned_chunks: true,
        });
        let (edges, _) = eng
            .network(&poisoned_sketch, 0..ns, QueryMethod::Approximate, 0.5)
            .unwrap();
        assert_eq!(edges.nan_pair_count(), n - 1);
    }

    #[test]
    fn query_rejects_bad_window_range() {
        let c = small_collection();
        let eng = engine(2, SketchMethod::Exact);
        let (_, pile) = sketch(&eng, &c, 100, "bad-range");
        assert!(eng.query(&pile, 0..0, QueryMethod::Exact).is_err());
        assert!(eng.query(&pile, 0..99, QueryMethod::Exact).is_err());
    }

    #[test]
    fn sketch_to_pile_rejects_mismatched_or_used_writers() {
        let c = small_collection();
        let path = temp_pile("reject");
        // Wrong shape.
        let writer = PileWriter::create(&path, 3, 50).unwrap();
        let eng = engine(2, SketchMethod::Exact);
        assert!(eng.sketch_to_pile(&c, 50, writer).is_err());
        let writer = PileWriter::create(&path, c.len(), 60).unwrap();
        assert!(eng.sketch_to_pile(&c, 50, writer).is_err());
        // Non-empty writer.
        let mut writer = PileWriter::create(&path, c.len(), 50).unwrap();
        writer
            .append(SegmentKind::SeriesStats, &vec![0.0; c.len() * 3])
            .unwrap();
        assert!(eng.sketch_to_pile(&c, 50, writer).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ParallelConfig::default();
        assert!(cfg.workers >= 1);
        assert!(cfg.batch_pairs >= 1);
        assert_eq!(cfg.sketch_method, SketchMethod::Exact);
    }
}
