//! The precomputed all-pairs evaluation plan of the *approximate* query path
//! — the DFT-comparator sibling of [`tsubasa_core::plan::QueryPlan`].
//!
//! The scalar approximate path ([`crate::approx::approximate_pair_correlation`])
//! re-derives, for every one of the `N(N−1)/2` pairs, the per-series half of
//! the Equation 5 recombination (length-weighted query mean, mean offsets δ,
//! the denominator `Σ_j B_j (σ² + δ²)`) and allocates a scratch `Vec` of
//! [`crate::approx::ApproxWindow`] contributions per pair. [`ApproxPlan`]
//! factors that waste out, exactly as `QueryPlan` did for the exact path:
//!
//! * the **per-series window-stat tables** (σ/mean/len, δ offsets, means and
//!   denominators) are computed once per query window — they are literally a
//!   [`QueryPlan`] built from the base sketch's window statistics, so the
//!   flat layouts, the window-major σ/δ transposes and the batch
//!   [`QueryPlan::block_kernel`] are reused wholesale;
//! * the per-pair **correlation estimates** `ĉ_k = 1 − d_k²/2` (Equation 3)
//!   are what every backend stores, so the plan **borrows** the source's
//!   window-major estimate table ([`CorrSource::full_table`]: the shared rows
//!   of a [`DftSketchSet`], the mapped `PairEsts` rows of a pile) and copies
//!   nothing — building a plan costs the per-series tables alone, at any
//!   table size;
//! * every pair is then evaluated by the same cache-blocked tiled sweep as
//!   the exact matrix paths — Equation 5 and Lemma 1 share their
//!   recombination algebra, only the per-window correlation source differs.
//!
//! The scalar per-pair path survives as the arithmetic yardstick; the tiled
//! sweep reorders floating-point accumulation, so agreement is the workspace's
//! usual **≤ 1e-10 absolute tolerance contract**, pinned over 256 random
//! configurations by `tests/approx_plan_agreement.rs`.
//!
//! # Equation 4 pruning
//!
//! [`ApproxPlan::network`] builds the thresholded approximate network of
//! Algorithm 4: a pair is an edge when its recombined query-window distance
//! is within the Equation 4 pruning radius `radius(θ) = √(2(1−θ))`. Because
//! partial-coefficient distances never over-estimate (`d̂_j ≤ d_j`), the
//! estimated per-window correlations — and with them the recombined
//! query-window correlation — never under-estimate, so the in-radius pair set
//! is a **superset of the exact network**: false positives possible, false
//! negatives not. [`ApproxPlan::candidate_pairs`] exposes that in-radius set
//! directly for callers that want to pay exact verification only for the
//! surviving candidates.

use std::ops::Range;

use tsubasa_core::capacity::check_dense_budget;
use tsubasa_core::error::{Error, Result};
use tsubasa_core::matrix::{AdjacencyMatrix, CorrelationMatrix};
use tsubasa_core::plan::{carve_for_workers, row_segments, PartialCorrs, PlanMethod, QueryPlan};
use tsubasa_core::runner::{Job, JobRunner};
use tsubasa_core::sketch::pair_index;
use tsubasa_core::source::{check_source_windows, CorrSource, PairTable};
use tsubasa_core::stats::clamp_corr;
use tsubasa_core::sweep::{
    sweep_run, CorrelationBounds, EdgeList, TileSink, TopK, TopKSink, DEFAULT_TILE_PAIRS,
};
use tsubasa_core::SeriesId;

use crate::approx::{distance_from_corr, pruning_radius};
use crate::sketch::DftSketchSet;

/// The approximate all-pairs evaluation plan: per-series recombination
/// tables shared by every pair, built **once per query window**, plus the
/// source's window-major table of per-pair correlation estimates, borrowed
/// for the plan's lifetime. See the [module docs](self) for the layout story.
///
/// The streamed entry points ([`ApproxPlan::sweep_run`],
/// [`ApproxPlan::sweep_streamed`], [`ApproxPlan::network_streamed`],
/// [`ApproxPlan::top_k`]) allocate nothing per pair and never consult the
/// dense budget; the entry points that materialize the packed `N(N−1)/2`
/// triangle ([`ApproxPlan::correlation_matrix`] and what sits on it) check it
/// and fail with [`Error::TooLarge`].
///
/// # Example
///
/// ```
/// use tsubasa_core::SeriesCollection;
/// use tsubasa_dft::plan::ApproxPlan;
/// use tsubasa_dft::sketch::{DftSketchSet, Transform};
///
/// let collection = SeriesCollection::from_rows(vec![
///     vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0],
///     vec![2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0],
///     vec![9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 1.0],
/// ])
/// .unwrap();
/// // All 4 coefficients kept → the approximation is exact (Equation 3).
/// let sketch = DftSketchSet::build(&collection, 4, 4, Transform::Naive).unwrap();
/// let plan = ApproxPlan::build(&sketch, 0..2).unwrap();
/// let matrix = plan.correlation_matrix().unwrap();
/// assert!(matrix.get(0, 2) < -0.9); // anti-correlated pair
/// let network = plan.network(0.8).unwrap();
/// assert!(network.has_edge(0, 1));
/// ```
#[derive(Debug)]
pub struct ApproxPlan<'a> {
    /// Number of series covered.
    n: usize,
    /// The range of sketched basic windows the plan covers.
    windows: Range<usize>,
    /// The per-series half of the Equation 5 recombination — the same flat
    /// tables (and batch kernel) as the exact path's query plan.
    plan: QueryPlan,
    /// The source's window-major per-pair estimates `ĉ_k = 1 − d_k²/2`.
    table: PairTable<'a>,
    /// The recombined packed correlation triangle, swept once on first use —
    /// it is threshold-independent, so probing several θ through one plan
    /// ([`ApproxPlan::network`], [`ApproxPlan::candidate_pairs`],
    /// [`ApproxPlan::correlation_matrix`]) pays the tiled sweep once.
    packed: std::sync::OnceLock<Vec<f64>>,
}

impl<'a> ApproxPlan<'a> {
    /// Build the plan for an aligned range of sketched basic windows: the
    /// per-series statistic tables come from the base sketch, the per-pair
    /// correlation estimates are the comparator's own table. No raw data is
    /// needed.
    pub fn build(sketch: &'a DftSketchSet, windows: Range<usize>) -> Result<Self> {
        Self::from_source(sketch, windows)
    }

    /// Build the plan from **any** source that answers
    /// [`PlanMethod::Approximate`] — an in-memory comparator, or a pile whose
    /// `PairEsts` segments persist the same Equation 3 values. The
    /// per-series statistic tables feed [`QueryPlan::from_window_stats`]; the
    /// estimate table is lent by the source. Every backend stores the
    /// identical `ĉ = 1 − d²/2` bits, so plans built from any are
    /// bit-identical.
    pub fn from_source<S: CorrSource + ?Sized>(
        source: &'a S,
        windows: Range<usize>,
    ) -> Result<Self> {
        check_source_windows(source, &windows, PlanMethod::Approximate)?;
        let stats = source.series_stats(windows.clone())?;
        Ok(Self {
            n: source.series_count(),
            plan: QueryPlan::from_window_stats(&stats)?,
            table: source.lent_table(windows.clone(), PlanMethod::Approximate)?,
            windows,
            packed: std::sync::OnceLock::new(),
        })
    }

    /// Number of series covered by the plan.
    pub fn series_count(&self) -> usize {
        self.n
    }

    /// The range of sketched basic windows the plan covers.
    pub fn windows(&self) -> Range<usize> {
        self.windows.clone()
    }

    /// The shared per-series recombination tables (the exact path's plan
    /// type, reused verbatim).
    pub fn query_plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// True when series `i` is constant over the query window, i.e. every
    /// pair involving it is degenerate and evaluates to the explicit `0.0`
    /// convention.
    pub fn is_degenerate(&self, i: SeriesId) -> bool {
        self.plan.is_degenerate(i)
    }

    /// Evaluate the contiguous packed-triangle run `start..start + out.len()`
    /// of Equation 5 correlations through the batch kernel, one same-row tile
    /// at a time — the unit of work of both the serial and the parallel
    /// sweeps (a chunk boundary never changes any pair's arithmetic).
    pub fn correlations_into(&self, start: usize, out: &mut [f64]) {
        let corrs = self.table.view();
        let mut partial = PartialCorrs::default();
        let mut cursor = 0;
        for (i, j0, len) in row_segments(start, out.len(), self.n) {
            self.plan.block_kernel(
                i,
                j0,
                corrs,
                pair_index(i, j0, self.n),
                &mut partial,
                &mut out[cursor..cursor + len],
            );
            cursor += len;
        }
    }

    /// The recombined packed correlation triangle, computed by the tiled
    /// sweep on first use and cached (the values do not depend on any
    /// threshold). The one dense allocation of the plan: refused with
    /// [`Error::TooLarge`] past the dense budget.
    fn packed_correlations(&self) -> Result<&[f64]> {
        check_dense_budget(self.pair_count(), 1)?;
        Ok(self.packed.get_or_init(|| {
            let mut values = vec![0.0f64; self.pair_count()];
            self.correlations_into(0, &mut values);
            values
        }))
    }

    /// The approximate all-pairs correlation matrix (Equation 5 recombined
    /// through the tiled batch kernel). Degenerate (constant-series) pairs
    /// hold `0.0`, the explicit mapping of [`Error::DegenerateWindow`]
    /// shared with the exact matrix paths.
    pub fn correlation_matrix(&self) -> Result<CorrelationMatrix> {
        let values = self.packed_correlations()?.to_vec();
        Ok(CorrelationMatrix::from_upper_triangle(self.n, values))
    }

    /// [`ApproxPlan::correlation_matrix`] with the packed triangle split into
    /// disjoint contiguous slices evaluated on `runner`'s workers. Identical
    /// to the serial sweep for any worker count.
    pub fn correlation_matrix_in(&self, runner: &dyn JobRunner) -> Result<CorrelationMatrix> {
        let total = self.pair_count();
        let workers = runner.worker_count().max(1).min(total.max(1));
        if workers <= 1 || total == 0 || self.packed.get().is_some() {
            return self.correlation_matrix();
        }
        check_dense_budget(total, 1)?;
        let mut values = vec![0.0f64; total];
        let jobs: Vec<Job<'_>> = carve_for_workers(&mut values, workers)
            .into_iter()
            .map(|(start, chunk)| Box::new(move || self.correlations_into(start, chunk)) as Job<'_>)
            .collect();
        runner.run(jobs);
        // Chunk boundaries never change any pair's arithmetic, so the
        // parallel sweep may seed the shared cache: serial and parallel
        // entries stay exactly equal either way.
        let values = self.packed.get_or_init(|| values);
        Ok(CorrelationMatrix::from_upper_triangle(
            self.n,
            values.clone(),
        ))
    }

    /// The StatStream-average recombination over the same window-major
    /// estimate table: `out[p] = clamp(Σ_k ĉ_k / w)`. Kept for the Figure 5a
    /// comparison of the two strategies; agreement with the scalar
    /// [`crate::approx::statstream_average_correlation`] is within the tiled
    /// tolerance contract.
    pub fn statstream_correlations_into(&self, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.pair_count());
        out.fill(0.0);
        let (w, view) = (self.windows.len(), self.table.view());
        for k in 0..w {
            for (slot, &c) in out.iter_mut().zip(view.window_row(k)) {
                *slot += c;
            }
        }
        let inv = 1.0 / w as f64;
        for slot in out.iter_mut() {
            *slot = clamp_corr(*slot * inv);
        }
    }

    /// Algorithm 4: the thresholded approximate network under Equation 4
    /// pruning. Every pair's query-window distance is recombined by the tiled
    /// Equation 5 sweep, and only pairs within the pruning radius
    /// `√(2(1−θ))` become edges — a superset of the exact network (false
    /// positives possible, false negatives not, as long as coefficient
    /// distances are not over-estimated; see the [module docs](self)).
    pub fn network(&self, theta: f64) -> Result<AdjacencyMatrix> {
        let mut net = AdjacencyMatrix::empty(self.n);
        for (i, j) in self.candidate_pairs(theta)? {
            net.set_edge(i, j, true);
        }
        Ok(net)
    }

    /// The Equation 4 candidate set: the pairs whose recombined query-window
    /// distance is within the pruning radius for `theta` — exactly the edges
    /// of [`ApproxPlan::network`], as an explicit pair list. Downstream
    /// callers that need the *exact* network pay full Lemma 1 verification
    /// only for these survivors instead of all `N(N−1)/2` pairs. The
    /// underlying correlations are threshold-independent and cached, so
    /// probing several θ sweeps once.
    pub fn candidate_pairs(&self, theta: f64) -> Result<Vec<(SeriesId, SeriesId)>> {
        if !(-1.0..=1.0).contains(&theta) {
            return Err(Error::InvalidThreshold(theta));
        }
        let radius = pruning_radius(theta);
        let values = self.packed_correlations()?;
        let mut out = Vec::new();
        let mut p = 0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if distance_from_corr(values[p]) <= radius {
                    out.push((i, j));
                }
                p += 1;
            }
        }
        Ok(out)
    }

    /// Number of packed pairs (`N(N−1)/2`) the plan covers — the length of
    /// the packed correlation triangle, and the exclusive upper bound of the
    /// runs accepted by [`ApproxPlan::sweep_run`].
    pub fn pair_count(&self) -> usize {
        self.n * self.n.saturating_sub(1) / 2
    }

    /// The Equation 4 per-tile pruning bounds of this plan's per-series
    /// tables. Build once and share across the [`ApproxPlan::sweep_run`]
    /// calls of a partitioned sweep — the bounds depend only on the plan.
    pub fn tile_bounds(&self) -> CorrelationBounds {
        CorrelationBounds::from_plan(&self.plan)
    }

    /// Run the streaming sweep over one contiguous run of the packed pair
    /// triangle into `sink` — the restriction of
    /// [`ApproxPlan::sweep_streamed`] to `run`, and the unit of work of a
    /// partitioned parallel sweep (a run boundary never changes any pair's
    /// arithmetic, exactly like the exact path's
    /// [`tsubasa_core::sweep::sweep_run`], which this wraps). Pass
    /// `Some(bounds)` (from [`ApproxPlan::tile_bounds`]) to drop tiles the
    /// sink reports skippable under the Equation 4 per-tile upper bound
    /// before any kernel work.
    pub fn sweep_run(
        &self,
        bounds: Option<&CorrelationBounds>,
        run: Range<usize>,
        tile_len: usize,
        sink: &mut dyn TileSink,
    ) {
        let view = self.table.view();
        sweep_run(&self.plan, &view, bounds, run, tile_len, sink);
    }

    /// Run a streaming sweep over all pairs into `sink`: each batch-kernel
    /// tile is recombined, consumed, and discarded — the packed triangle
    /// cache behind [`ApproxPlan::correlation_matrix`] is never touched.
    /// With `prune`, tiles the sink reports skippable under the Equation 4
    /// per-tile upper bound are dropped before any kernel work.
    pub fn sweep_streamed(&self, prune: bool, tile_len: usize, sink: &mut dyn TileSink) {
        let bounds = prune.then(|| self.tile_bounds());
        self.sweep_run(bounds.as_ref(), 0..self.pair_count(), tile_len, sink);
    }

    /// [`ApproxPlan::network`] through the streaming sweep: the same
    /// Equation 4 in-radius edge set (`distance ≤ √(2(1−θ))`, applied to the
    /// identical batch-kernel outputs), but tile by tile with whole tiles
    /// skipped when their per-tile correlation upper bound falls outside the
    /// pruning radius — and no `N(N−1)/2` result buffer.
    pub fn network_streamed(&self, theta: f64) -> Result<EdgeList> {
        let mut sink = RadiusEdgeSink::new(theta)?;
        self.sweep_streamed(true, DEFAULT_TILE_PAIRS, &mut sink);
        Ok(sink.finish(self.n))
    }

    /// The `k` strongest approximate edges, streamed: a k-bounded heap
    /// ranked by [`f64::total_cmp`] (ties by ascending pair index), with
    /// tiles skipped once their Equation 4 upper bound cannot beat the
    /// current k-th strength. Equals the sorted dense
    /// [`ApproxPlan::correlation_matrix`] top k.
    pub fn top_k(&self, k: usize) -> TopK {
        let mut sink = TopKSink::new(k);
        self.sweep_streamed(true, DEFAULT_TILE_PAIRS, &mut sink);
        sink.finish()
    }
}

/// The approximate path's threshold sink: a pair is an edge when its
/// recombined correlation lies within the Equation 4 pruning radius —
/// `distance_from_corr(c) ≤ √(2(1−θ))`, the *identical* predicate (same
/// `sqrt` roundings) as the dense [`ApproxPlan::candidate_pairs`], so the
/// streamed edge set matches the dense one exactly. NaN correlations are
/// counted, never silently dropped.
#[derive(Debug, Clone)]
pub struct RadiusEdgeSink {
    radius: f64,
    edges: Vec<(usize, usize)>,
    nan_pairs: usize,
    skipped_pairs: usize,
}

impl RadiusEdgeSink {
    /// A sink thresholding at `theta` (validated to `[-1, 1]`).
    pub fn new(theta: f64) -> Result<Self> {
        if !(-1.0..=1.0).contains(&theta) {
            return Err(Error::InvalidThreshold(theta));
        }
        Ok(Self {
            radius: pruning_radius(theta),
            edges: Vec::new(),
            nan_pairs: 0,
            skipped_pairs: 0,
        })
    }

    /// Pairs dropped by Equation 4 tile pruning without being evaluated.
    pub fn skipped_pairs(&self) -> usize {
        self.skipped_pairs
    }

    /// Finish the sweep: the accumulated edge list over `n` nodes.
    pub fn finish(self, n: usize) -> EdgeList {
        EdgeList::from_parts(n, self.edges, self.nan_pairs)
    }
}

impl TileSink for RadiusEdgeSink {
    fn consume(&mut self, i: usize, j0: usize, _pair0: usize, corrs: &[f64]) {
        for (p, &c) in corrs.iter().enumerate() {
            if c.is_nan() {
                self.nan_pairs += 1;
                continue;
            }
            if distance_from_corr(c) <= self.radius {
                self.edges.push((i, j0 + p));
            }
        }
    }

    fn tile_skippable(&self, upper_bound: f64) -> bool {
        // `distance_from_corr` is monotone non-increasing, so every
        // correlation under the bound maps to a distance at least
        // `distance_from_corr(upper_bound)`: strictly outside the radius
        // means no pair in the tile can be an edge. A padded bound above 1
        // clamps to distance 0, which is never skippable — conservative, not
        // wrong. The θ comparison would be equivalent in exact arithmetic;
        // the distance framing keeps both sides on the same sqrt roundings.
        distance_from_corr(upper_bound) > self.radius
    }

    fn tile_skipped(&mut self, _i: usize, _j0: usize, len: usize) {
        self.skipped_pairs += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{approximate_pair_correlation, ApproxStrategy};
    use crate::sketch::Transform;
    use tsubasa_core::runner::ScopedRunner;
    use tsubasa_core::{baseline, QueryWindow, SeriesCollection};

    fn collection(n: usize, len: usize) -> SeriesCollection {
        SeriesCollection::from_rows(
            (0..n)
                .map(|s| {
                    (0..len)
                        .map(|i| {
                            (i as f64 * 0.07 + s as f64).sin() * 1.3
                                + ((i * (s + 2) + 3) % 19) as f64 * 0.06
                        })
                        .collect()
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn plan_matrix_matches_scalar_reference_path() {
        let c = collection(6, 180);
        let sk = DftSketchSet::build(&c, 20, 9, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 1..8).unwrap();
        let m = plan.correlation_matrix().unwrap();
        for (i, j) in c.pairs() {
            let reference =
                approximate_pair_correlation(&sk, 1..8, i, j, ApproxStrategy::Equation5).unwrap();
            assert!(
                (m.get(i, j) - reference).abs() <= 1e-10,
                "pair ({i},{j}): {} vs {reference}",
                m.get(i, j)
            );
        }
    }

    #[test]
    fn full_coefficients_recover_the_exact_matrix() {
        let c = collection(5, 200);
        let b = 25;
        let sk = DftSketchSet::build(&c, b, b, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 0..8).unwrap();
        let query = QueryWindow::new(199, 200).unwrap();
        let exact = baseline::correlation_matrix(&c, query).unwrap();
        assert!(plan.correlation_matrix().unwrap().max_abs_diff(&exact) < 1e-9);
    }

    #[test]
    fn parallel_sweep_is_identical_to_serial() {
        let c = collection(7, 240);
        let sk = DftSketchSet::build(&c, 24, 12, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 0..10).unwrap();
        let serial = plan.correlation_matrix().unwrap();
        for workers in [1usize, 3, 8] {
            let runner = ScopedRunner::new(workers);
            assert_eq!(
                serial,
                plan.correlation_matrix_in(&runner).unwrap(),
                "{workers}"
            );
        }
    }

    #[test]
    fn network_edges_are_the_candidate_pairs() {
        let c = collection(6, 240);
        let sk = DftSketchSet::build(&c, 40, 6, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 0..6).unwrap();
        let theta = 0.6;
        let net = plan.network(theta).unwrap();
        let candidates = plan.candidate_pairs(theta).unwrap();
        assert_eq!(net.edge_count(), candidates.len());
        for (i, j) in candidates {
            assert!(net.has_edge(i, j));
        }
        assert!(plan.network(1.5).is_err());
        assert!(plan.candidate_pairs(-2.0).is_err());
    }

    #[test]
    fn degenerate_series_yield_zero_rows() {
        let mut rows = vec![vec![7.0; 80]];
        rows.extend((1..4).map(|s| {
            (0..80)
                .map(|i| (i as f64 * 0.21 + s as f64).cos())
                .collect::<Vec<f64>>()
        }));
        let c = SeriesCollection::from_rows(rows).unwrap();
        let sk = DftSketchSet::build(&c, 16, 16, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 0..5).unwrap();
        assert!(plan.is_degenerate(0));
        let m = plan.correlation_matrix().unwrap();
        for j in 1..4 {
            assert_eq!(m.get(0, j), 0.0);
        }
    }

    #[test]
    fn network_streamed_matches_dense_network() {
        let c = collection(7, 240);
        let sk = DftSketchSet::build(&c, 24, 12, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 0..10).unwrap();
        for theta in [-0.3, 0.0, 0.55, 0.9] {
            let streamed = plan.network_streamed(theta).unwrap();
            let dense = plan.network(theta).unwrap();
            assert_eq!(streamed.to_adjacency(), dense, "theta={theta}");
            assert_eq!(streamed.nan_pair_count(), 0);
        }
        assert!(plan.network_streamed(1.5).is_err());
    }

    #[test]
    fn streamed_pruning_skips_tiles_without_changing_edges() {
        let c = collection(8, 240);
        let sk = DftSketchSet::build(&c, 40, 8, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 0..6).unwrap();
        let theta = 0.95;
        let mut pruned = RadiusEdgeSink::new(theta).unwrap();
        plan.sweep_streamed(true, 2, &mut pruned);
        let skipped = pruned.skipped_pairs();
        let pruned = pruned.finish(8);
        let mut full = RadiusEdgeSink::new(theta).unwrap();
        plan.sweep_streamed(false, 2, &mut full);
        assert_eq!(pruned.edges(), full.finish(8).edges());
        assert!(skipped <= 28);
    }

    #[test]
    fn streamed_top_k_matches_sorted_dense() {
        let c = collection(6, 200);
        let sk = DftSketchSet::build(&c, 25, 10, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 0..8).unwrap();
        let dense = plan.correlation_matrix().unwrap();
        let mut all: Vec<(usize, usize, f64)> = dense.iter_pairs().collect();
        all.sort_by(|a, b| {
            b.2.total_cmp(&a.2)
                .then_with(|| pair_index(a.0, a.1, 6).cmp(&pair_index(b.0, b.1, 6)))
        });
        for k in [0, 1, 5, 15, 40] {
            let top = plan.top_k(k);
            assert_eq!(top.edges.len(), k.min(all.len()), "k={k}");
            for (got, want) in top.edges.iter().zip(&all) {
                assert_eq!((got.i, got.j), (want.0, want.1), "k={k}");
                assert_eq!(got.corr, want.2, "k={k}");
            }
        }
    }

    #[test]
    fn build_validates_the_window_range() {
        let c = collection(3, 100);
        let sk = DftSketchSet::build(&c, 20, 20, Transform::Naive).unwrap();
        assert!(ApproxPlan::build(&sk, 0..9).is_err());
        assert!(ApproxPlan::build(&sk, 2..2).is_err());
        let plan = ApproxPlan::build(&sk, 0..5).unwrap();
        assert_eq!(plan.series_count(), 3);
        assert_eq!(plan.windows(), 0..5);
        assert!(!plan.query_plan().is_degenerate(0));
    }
}
