//! The two loops every correlation in the workspace comes from, both over
//! [`QueryPlan::block_kernel`]:
//!
//! * the **streamed tile loop** ([`sweep_run`], fanned over a worker pool by
//!   [`sweep_pooled`]): produce tiles, hand them to a consumer, discard
//!   them — never materializing the `N(N−1)/2` pair triangle;
//! * the **dense fill** ([`fill_packed`]): write the whole packed triangle
//!   in place into one budget-checked buffer, one contiguous run per
//!   worker — the matrix builders, [`crate::source::SourcePlan`]'s matrix
//!   (both methods, the parallel engine's dense query), the served views
//!   and both sliding inits.
//!
//! A dense triangle is ~50 GB of `f64` per window layer at `N = 100 000`.
//! The paper's national-scale scenarios (§4.3) need the *answers* — the
//! thresholded network, the strongest edges, aggregates — not the triangle
//! itself. The streamed loop inverts the control flow:
//!
//! * the source is always a borrowed window-major table, a [`CorrView`] over
//!   the plan's full windows (an in-memory sketch's rows, an epoch's shared
//!   rows or a pile's mapped segments), read zero-copy;
//! * [`sweep_run`] drives [`QueryPlan::block_kernel`] over same-row tiles of
//!   at most `tile_len` pairs and hands each finished tile to a
//!   [`TileSink`]; [`sweep_pooled`] fans that loop over a worker pool, one
//!   run and one sink per worker, and [`network_pooled`] / [`top_k_pooled`]
//!   merge the runs' sinks in run order;
//! * the sinks fold tiles into bounded state: [`EdgeSink`] keeps only the
//!   pairs above a threshold, [`TopKSink`] a k-bounded heap of the strongest
//!   edges, [`StatsSink`] running aggregates.
//!
//! Working memory is `O(tile)` — one output buffer of `tile_len` —
//! independent of `N`, plus, for an unaligned plan, the `O(N)` partial-window
//! scratch of the run ([`PartialCorrs`]: head and tail correlations of four
//! triangle rows).
//!
//! # Tile pruning (Equation 4), not on the query path
//!
//! [`CorrelationBounds`] holds, per series, the Cauchy–Schwarz split
//! `s_i = √(Σ_k B_k σ_ik² / den_i)`, `t_i = √(Σ_k B_k δ_ik² / den_i)` of the
//! Lemma 1 denominator, so `corr(i, j) ≤ s_i s_j + t_i t_j` — the
//! tile-granular analogue of the Equation 4 radius. No product query uses
//! it: on the anomaly series the paper builds networks from, every pair's
//! bound is ≥ 0.71 while θ is 0.11–0.13 and the 100th-strongest pair
//! 0.68–0.74, so it decides no tile (the tile-bound probe under `bench/`).
//! The pooled sweeps therefore evaluate every tile. Only [`sweep_run`] still
//! takes bounds, for the benchmark ledger's frozen decomposition.
//!
//! # NaN policy
//!
//! Sinks never silently drop NaN correlations: each NaN is counted and the
//! count is surfaced on the result ([`EdgeList::nan_pair_count`],
//! [`TopK::nan_pairs`]) — the same lenient-with-audit rule as
//! [`CorrelationMatrix::threshold_lenient`]. Plan-based sweeps cannot
//! produce NaN (the kernel clamps; a NaN in the *table* is what
//! [`TableAudit`] catches), but [`sweep_matrix`] streams existing
//! matrices — including NaN-bearing ones assembled from store records —
//! through the same sinks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::capacity::check_dense_budget;
use crate::error::{Error, Result};
use crate::matrix::{AdjacencyMatrix, CorrelationMatrix};
use crate::plan::{
    carve_for_workers, row_segments, runs_for_workers, CorrView, PartialCorrs, PlanMethod,
    QueryPlan,
};
use crate::runner::{Job, JobRunner};
use crate::sketch::{packed_pairs, pair_index};
use crate::stats::{distance_from_corr, pruning_radius};

/// Default tile size of the streaming sweeps: large enough to amortize the
/// per-tile dispatch, small enough that the output buffer and the tile's row
/// slices stay deep in cache.
pub const DEFAULT_TILE_PAIRS: usize = 1024;

/// Safety pad added to every upper bound: the bound and the kernel reorder
/// floating-point accumulation differently, so the analytic inequality holds
/// only up to rounding. `1e-9` is ten times the workspace's `1e-10` kernel
/// tolerance contract.
const BOUND_PAD: f64 = 1e-9;

/// A consumer of finished correlation tiles. `consume` receives the
/// correlations of the contiguous same-row pair tile
/// `(i, j0), …, (i, j0 + corrs.len() − 1)` (packed index of the first pair
/// in `pair0`); the buffer is reused, so implementations must copy out what
/// they keep.
pub trait TileSink {
    /// Fold one finished tile into the sink's state.
    fn consume(&mut self, i: usize, j0: usize, pair0: usize, corrs: &[f64]);

    /// Whether a tile whose correlations are all `≤ upper_bound` can be
    /// dropped without being evaluated. Asked only by [`sweep_run`] given
    /// bounds, which the benchmark ledger's decomposition calls; no product
    /// query prunes. Default: never.
    fn tile_skippable(&self, upper_bound: f64) -> bool {
        let _ = upper_bound;
        false
    }

    /// Notification that the driver dropped the tile
    /// `(i, j0), …, (i, j0 + len − 1)` after [`TileSink::tile_skippable`]
    /// approved it.
    fn tile_skipped(&mut self, i: usize, j0: usize, len: usize) {
        let _ = (i, j0, len);
    }
}

/// Per-series upper-bound components for tile pruning: for any pair,
/// `corr(i, j) ≤ s_i s_j + t_i t_j` (see the [module docs](self) for the
/// derivation). Built once per query plan in `O(N · w)`; each tile bound is
/// then `O(tile)`. Only [`sweep_run`] reads it, and the type stays because
/// the benchmark ledger builds it ([`CorrelationBounds::from_plan`]). The
/// default value bounds no series: a placeholder for holders that never
/// read it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorrelationBounds {
    s: Vec<f64>,
    t: Vec<f64>,
}

impl CorrelationBounds {
    /// Precompute the bound components from a query plan (exact or the
    /// shared plan inside an approximate plan).
    pub fn from_plan(plan: &QueryPlan) -> Self {
        let (s, t) = plan.bound_components();
        Self { s, t }
    }

    /// Sound (padded) upper bound on `corr(i, j)`: the one-pair
    /// [`CorrelationBounds::tile_bound`].
    pub fn pair_bound(&self, i: usize, j: usize) -> f64 {
        self.tile_bound(i, j, 1)
    }

    /// Sound (padded) upper bound over the tile `(i, j0 .. j0 + len)`.
    ///
    /// A NaN component — a series whose window statistics hold a NaN — bounds
    /// nothing: the kernel clamps such a pair to `0.0`, which a NaN-blind
    /// maximum would let pruning drop. Such a tile's bound is `+∞`.
    pub fn tile_bound(&self, i: usize, j0: usize, len: usize) -> f64 {
        let (si, ti) = (self.s[i], self.t[i]);
        let mut best = f64::NEG_INFINITY;
        let mut nan = false;
        for p in 0..len {
            let v = si * self.s[j0 + p] + ti * self.t[j0 + p];
            nan |= v.is_nan();
            if v > best {
                best = v;
            }
        }
        if nan {
            f64::INFINITY
        } else {
            best + BOUND_PAD
        }
    }
}

/// Which tiles get the **table NaN audit**: the kernel clamps a NaN window
/// value to `0.0`, a plausible-looking correlation, so an audited tile's row
/// slices are scanned before the kernel reads them and each pair with a NaN
/// window reaches the sink as a one-slot `[NaN]` tile, which sinks count and
/// never rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableAudit {
    /// No tile.
    Off,
    /// Every tile.
    Swept,
}

/// Drive [`QueryPlan::block_kernel`] over the contiguous packed-triangle run
/// `run`, in same-row tiles of at most `tile_len` pairs, feeding each
/// finished tile to `sink` and discarding it. With `bounds`, tiles the sink
/// reports skippable are dropped before any kernel work (Equation 4 tile
/// pruning) — the one pruning sweep left, kept for the benchmark ledger's
/// decomposition. `view` is the window-major table of the plan's full
/// windows, read in place. The table is not audited ([`TableAudit::Off`]).
///
/// Working memory: one `tile_len` output buffer — independent of the series
/// count — and the run's [`PartialCorrs`], which an unaligned plan fills with
/// `2 · 4 · (N − 1)` values for the row groups whose tiles are actually
/// evaluated.
pub fn sweep_run(
    plan: &QueryPlan,
    view: &CorrView<'_>,
    bounds: Option<&CorrelationBounds>,
    run: Range<usize>,
    tile_len: usize,
    sink: &mut dyn TileSink,
) {
    sweep_tiles(plan, view, bounds, run, tile_len, TableAudit::Off, sink);
}

/// The one tile loop of every streamed query: [`sweep_run`] plus `audit`
/// (the pooled sweeps pass no bounds, [`sweep_run`] no audit).
fn sweep_tiles(
    plan: &QueryPlan,
    view: &CorrView<'_>,
    bounds: Option<&CorrelationBounds>,
    run: Range<usize>,
    tile_len: usize,
    audit: TableAudit,
    sink: &mut dyn TileSink,
) {
    let n = plan.series_count();
    assert_eq!(
        view.window_count(),
        plan.full_windows().len(),
        "the table must cover the plan's full windows"
    );
    let tile_len = tile_len.max(1);
    let mut out = vec![0.0f64; tile_len];
    let mut partial = PartialCorrs::default();

    for (i, j0, len) in row_segments(run.start, run.len(), n) {
        let mut off = 0;
        while off < len {
            let np = (len - off).min(tile_len);
            let j = j0 + off;
            off += np;
            let pair0 = pair_index(i, j, n);
            if bounds.is_some_and(|b| sink.tile_skippable(b.tile_bound(i, j, np))) {
                sink.tile_skipped(i, j, np);
                continue;
            }
            if audit == TableAudit::Swept {
                audit_tile(*view, i, j, pair0, np, sink);
            }
            plan.block_kernel(i, j, *view, pair0, &mut partial, &mut out[..np]);
            sink.consume(i, j, pair0, &out[..np]);
        }
    }
}

/// The table NaN audit of the tile `(i, j0 .. j0 + len)` at packed offset
/// `pair0`: a branch-free (so vectorized) any-NaN reduction over the `w` row
/// slices the kernel reads, and only on a hit the pair-by-pair walk, which
/// reports what [`crate::source::audit_nan_chunk`] reports, in its order.
fn audit_tile(
    view: CorrView<'_>,
    i: usize,
    j0: usize,
    pair0: usize,
    len: usize,
    sink: &mut dyn TileSink,
) {
    let w = view.window_count();
    let slice = |k: usize| &view.window_row(k)[pair0..pair0 + len];
    if !(0..w).any(|k| slice(k).iter().fold(false, |nan, c| nan | c.is_nan())) {
        return;
    }
    for p in 0..len {
        if (0..w).any(|k| slice(k)[p].is_nan()) {
            sink.consume(i, j0 + p, pair0 + p, &[f64::NAN]);
        }
    }
}

/// Fan one streamed sweep of the whole packed triangle over `runner`: one
/// contiguous ascending run per worker ([`runs_for_workers`]), each driven
/// through the tile loop of [`sweep_run`] (plus the table audit `audit`, and
/// no pruning: every tile is evaluated) into its own sink, made by
/// `make_sink` from the run, off a borrowed view — nothing is copied, no
/// pair list is built. Returns the sinks in run order (so appended edge
/// lists are in serial emission order) and the workers' summed busy time.
pub fn sweep_pooled<K: TileSink + Send>(
    runner: &dyn JobRunner,
    plan: &QueryPlan,
    view: CorrView<'_>,
    tile_len: usize,
    audit: TableAudit,
    mut make_sink: impl FnMut(Range<usize>) -> K,
) -> (Vec<K>, Duration) {
    let runs = runs_for_workers(packed_pairs(plan.series_count()), runner.worker_count());
    let mut sinks: Vec<K> = runs.iter().map(|run| make_sink(run.clone())).collect();
    let mut busy = vec![Duration::ZERO; runs.len()];
    let jobs: Vec<Job<'_>> = runs
        .into_iter()
        .zip(sinks.iter_mut().zip(busy.iter_mut()))
        .map(|(run, (sink, busy))| {
            Box::new(move || {
                let t = Instant::now();
                sweep_tiles(plan, &view, None, run, tile_len, audit, sink);
                *busy = t.elapsed();
            }) as Job<'_>
        })
        .collect();
    runner.run(jobs);
    (sinks, busy.iter().sum())
}

/// The thresholded network under `rule`, streamed by [`sweep_pooled`] into
/// one [`EdgeSink`] per run: the runs' edges appended in run order are the
/// edges of a single run, in pair order, NaN count included. Returns the
/// edges and the workers' summed busy time.
pub fn network_pooled(
    runner: &dyn JobRunner,
    plan: &QueryPlan,
    view: CorrView<'_>,
    rule: EdgeRule,
    tile_len: usize,
    audit: TableAudit,
) -> (EdgeList, Duration) {
    let sink = EdgeSink::with_rule(rule);
    let make_sink = |_| sink.clone();
    let (runs, busy) = sweep_pooled(runner, plan, view, tile_len, audit, make_sink);
    let n = plan.series_count();
    let mut edges = sink.finish(n);
    for run in runs {
        edges.absorb(run.finish(n));
    }
    (edges, busy)
}

/// The `k` strongest pairs, streamed by [`sweep_pooled`] into one
/// [`TopKSink`] per run, merged into the global top k. Returns the ranking
/// and the workers' summed busy time. `k = 0` sweeps nothing: the answer is
/// empty, NaN count included.
pub fn top_k_pooled(
    runner: &dyn JobRunner,
    plan: &QueryPlan,
    view: CorrView<'_>,
    k: usize,
    tile_len: usize,
    audit: TableAudit,
) -> (TopK, Duration) {
    if k == 0 {
        return (TopKSink::new(0).finish(), Duration::ZERO);
    }
    let make_sink = |_| TopKSink::new(k);
    let (runs, busy) = sweep_pooled(runner, plan, view, tile_len, audit, make_sink);
    let mut merged = TopKSink::new(k);
    for run in runs {
        merged.absorb(run);
    }
    (merged.finish(), busy)
}

/// The one dense fill: every packed correlation triangle in the workspace is
/// minted here. Checks the dense budget for the `P = N(N−1)/2` values of
/// `plan` ([`Error::TooLarge`] past it),
/// allocates them, and cuts them into one contiguous run per worker of
/// `runner` ([`carve_for_workers`]); each run writes
/// [`QueryPlan::block_kernel`] output in place, row segment by row segment,
/// with its own [`PartialCorrs`] — no tile buffer, no copy. `view` is the
/// window-major table of the plan's full windows, read in place. A run
/// boundary never changes a pair's arithmetic, so the triangle is the same
/// bits for any worker count. Returns the triangle and the workers' summed
/// busy time.
pub fn fill_packed(
    runner: &dyn JobRunner,
    plan: &QueryPlan,
    view: CorrView<'_>,
) -> Result<(Vec<f64>, Duration)> {
    let n = plan.series_count();
    check_dense_budget(packed_pairs(n), 1)?;
    let mut values = vec![0.0f64; packed_pairs(n)];
    let workers = runner.worker_count().max(1);
    let mut busy = vec![Duration::ZERO; workers];
    let jobs: Vec<Job<'_>> = carve_for_workers(&mut values, workers)
        .into_iter()
        .filter(|(_, out)| !out.is_empty())
        .zip(busy.iter_mut())
        .map(|((start, out), busy)| {
            Box::new(move || {
                let t = Instant::now();
                let mut partial = PartialCorrs::default();
                let mut at = 0;
                for (i, j0, len) in row_segments(start, out.len(), n) {
                    let tile = &mut out[at..at + len];
                    plan.block_kernel(i, j0, view, start + at, &mut partial, tile);
                    at += len;
                }
                *busy = t.elapsed();
            }) as Job<'_>
        })
        .collect();
    runner.run(jobs);
    Ok((values, busy.iter().sum()))
}

/// Stream an existing dense [`CorrelationMatrix`] through a sink, tile by
/// tile — the bridge that lets matrices assembled elsewhere (including
/// NaN-bearing ones re-hydrated from store records) reuse the streamed
/// consumers and their NaN accounting.
pub fn sweep_matrix(matrix: &CorrelationMatrix, tile_len: usize, sink: &mut dyn TileSink) {
    sweep_packed(matrix.len(), matrix.upper_triangle(), tile_len, sink);
}

/// [`sweep_matrix`] over a bare packed triangle of `n` series (`values[p]`
/// is pair `p` in [`pair_index`] order): same-row tiles of at most
/// `tile_len` pairs, in pair order.
///
/// # Panics
///
/// Panics when `values` is not `n(n−1)/2` long.
pub fn sweep_packed(n: usize, values: &[f64], tile_len: usize, sink: &mut dyn TileSink) {
    assert_eq!(
        values.len(),
        packed_pairs(n),
        "a packed triangle of {n} series holds n(n-1)/2 pairs"
    );
    let tile_len = tile_len.max(1);
    let mut cursor = 0;
    for (i, j0, len) in row_segments(0, values.len(), n) {
        let mut off = 0;
        while off < len {
            let np = (len - off).min(tile_len);
            sink.consume(
                i,
                j0 + off,
                cursor + off,
                &values[cursor + off..cursor + off + np],
            );
            off += np;
        }
        cursor += len;
    }
}

/// The one edge rule: a pair is an edge of the θ-network when its
/// correlation is at least the rule's floor, `c ≥ floor` — one compare,
/// which NaN never passes. Every sink, watch and threshold pass asks it, and
/// a method picks its floor in one place ([`EdgeRule::for_method`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRule {
    floor: f64,
}

impl EdgeRule {
    /// The workspace's one θ check: `theta` when it lies in `[-1, 1]`, else
    /// [`Error::InvalidThreshold`].
    pub fn check_theta(theta: f64) -> Result<f64> {
        let valid = (-1.0..=1.0).contains(&theta);
        valid.then_some(theta).ok_or(Error::InvalidThreshold(theta))
    }

    /// The rule of `method` at `theta`, checked ([`EdgeRule::check_theta`]).
    /// [`PlanMethod::Exact`] keeps `c > θ`, the dense
    /// [`CorrelationMatrix::threshold`] semantics; [`PlanMethod::Approximate`]
    /// keeps the pairs within the Equation 4 radius,
    /// `distance_from_corr(c) ≤ pruning_radius(θ)` — both sides on the same
    /// `sqrt` roundings, so a pair whose correlation is exactly θ is an edge.
    pub fn for_method(method: PlanMethod, theta: f64) -> Result<Self> {
        Self::check_theta(theta).map(|theta| Self::new(method, theta))
    }

    /// [`EdgeRule::for_method`] without the θ check, for the infallible
    /// sliding snapshots. Both tests are monotone in `c`, so each is `c ≥`
    /// its least passing value, found here once: no scan takes a root.
    pub(crate) fn new(method: PlanMethod, theta: f64) -> Self {
        let floor = match method {
            PlanMethod::Exact => least_passing(|c| c > theta),
            PlanMethod::Approximate => {
                let radius = pruning_radius(theta);
                least_passing(|c| distance_from_corr(c) <= radius)
            }
        };
        Self { floor }
    }

    /// Whether a pair whose correlation is `c` is an edge; NaN never is.
    #[inline(always)]
    pub fn passes(self, c: f64) -> bool {
        c >= self.floor
    }

    /// The rule's floor: [`pass_mask`] at it is [`EdgeRule::passes`] chunk by
    /// chunk.
    #[inline(always)]
    pub(crate) fn floor(self) -> f64 {
        self.floor
    }
}

/// Correlations per chunk of [`pass_mask`]: one `u64` mask.
pub(crate) const MASK_CHUNK: usize = 64;

/// The branch-free scan under every sink, watch and threshold pass: for a
/// chunk of at most [`MASK_CHUNK`] correlations, the mask whose bit `k` is
/// `corrs[k] ≥ floor` (which NaN never passes) and the chunk's NaN count.
/// Nothing in it branches on a value, so the loop vectorizes; callers walk
/// the mask's set bits, which are few when the floor is selective.
///
/// A full chunk runs the loop at its constant length, which compiles to
/// straight-line vector code (≈ 30 % faster than the same loop at a
/// run-time length); a tile's tail runs it at its own length.
#[inline(always)]
pub(crate) fn pass_mask(corrs: &[f64], floor: f64) -> (u64, usize) {
    #[inline(always)]
    fn lanes(corrs: &[f64], floor: f64) -> (u64, usize) {
        debug_assert!(corrs.len() <= MASK_CHUNK);
        let (mut mask, mut nans) = (0u64, 0usize);
        for (k, &c) in corrs.iter().enumerate() {
            mask |= u64::from(c >= floor) << k;
            nans += usize::from(c.is_nan());
        }
        (mask, nans)
    }
    match <&[f64; MASK_CHUNK]>::try_from(corrs) {
        Ok(full) => lanes(full, floor),
        Err(_) => lanes(corrs, floor),
    }
}

/// The set bits of `mask`, lowest first.
#[inline(always)]
pub(crate) fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// The least `f64` at which the monotone test `passes` holds, NaN when it
/// holds at none: a binary search over the non-NaN values, whose total order
/// is that of their integer keys (the [`f64::total_cmp`] map, its own
/// inverse).
fn least_passing(passes: impl Fn(f64) -> bool) -> f64 {
    let flip = |k: i64| k ^ (((k >> 63) as u64) >> 1) as i64;
    let value = |k: i64| f64::from_bits(flip(k) as u64);
    let key = |c: f64| flip(c.to_bits() as i64);
    let (mut lo, mut hi) = (key(f64::NEG_INFINITY), key(f64::INFINITY));
    if !passes(f64::INFINITY) {
        return f64::NAN;
    }
    while lo < hi {
        let mid = ((i128::from(lo) + i128::from(hi)) >> 1) as i64;
        if passes(value(mid)) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    value(hi)
}

/// Threshold sink: keeps only the `(i, j)` pairs its [`EdgeRule`] passes and
/// counts NaN pairs; under [`sweep_run`] with bounds it drops whole tiles
/// whose upper bound cannot pass.
#[derive(Debug, Clone)]
pub struct EdgeSink {
    rule: EdgeRule,
    edges: Vec<(usize, usize)>,
    nan_pairs: usize,
    skipped_pairs: usize,
}

impl EdgeSink {
    /// Strict-greater sink (`c > θ`), matching
    /// [`CorrelationMatrix::threshold`].
    pub fn new(theta: f64) -> Self {
        Self::with_rule(EdgeRule::new(PlanMethod::Exact, theta))
    }

    /// A sink keeping the pairs `rule` passes — a method's network sink is
    /// `EdgeSink::with_rule(EdgeRule::for_method(method, θ)?)`.
    pub fn with_rule(rule: EdgeRule) -> Self {
        Self {
            rule,
            edges: Vec::new(),
            nan_pairs: 0,
            skipped_pairs: 0,
        }
    }

    /// Pairs dropped by tile pruning without being evaluated: 0 unless
    /// swept by [`sweep_run`] with bounds.
    pub fn skipped_pairs(&self) -> usize {
        self.skipped_pairs
    }

    /// Finish the sweep: the accumulated edge list over `n` nodes.
    pub fn finish(self, n: usize) -> EdgeList {
        EdgeList {
            n,
            edges: self.edges,
            nan_pairs: self.nan_pairs,
        }
    }
}

impl TileSink for EdgeSink {
    fn consume(&mut self, i: usize, j0: usize, _pair0: usize, corrs: &[f64]) {
        let floor = self.rule.floor();
        for (at, chunk) in (j0..).step_by(MASK_CHUNK).zip(corrs.chunks(MASK_CHUNK)) {
            let (mask, nans) = pass_mask(chunk, floor);
            self.nan_pairs += nans;
            self.edges.extend(set_bits(mask).map(|bit| (i, at + bit)));
        }
    }

    fn tile_skippable(&self, upper_bound: f64) -> bool {
        // `c ≥ floor` fails at the bound, so it fails under it too. A padded
        // bound above 1 passes the radius rule (its floor is at most 1):
        // never skippable — conservative, not wrong.
        !self.rule.passes(upper_bound)
    }

    fn tile_skipped(&mut self, _i: usize, _j0: usize, len: usize) {
        self.skipped_pairs += len;
    }
}

/// The streamed counterpart of an [`AdjacencyMatrix`]: the edges that passed
/// a threshold sweep, with the NaN audit count, at `O(edges)` memory instead
/// of `O(N²)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    n: usize,
    edges: Vec<(usize, usize)>,
    nan_pairs: usize,
}

impl EdgeList {
    /// Assemble an edge list from parts (used by the parallel engine's
    /// per-partition merge).
    pub fn from_parts(n: usize, edges: Vec<(usize, usize)>, nan_pairs: usize) -> Self {
        Self {
            n,
            edges,
            nan_pairs,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The `(i, j)` node pairs that are connected, `i < j`.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Pairs whose correlation was NaN during the sweep (skipped, not
    /// edges) — the lenient-thresholding audit count.
    pub fn nan_pair_count(&self) -> usize {
        self.nan_pairs
    }

    /// Append another partition's edges (parallel merge). Panics when the
    /// node counts disagree.
    pub fn absorb(&mut self, other: EdgeList) {
        assert_eq!(self.n, other.n, "edge lists cover different node counts");
        self.edges.extend(other.edges);
        self.nan_pairs += other.nan_pairs;
    }

    /// Materialize the dense boolean matrix (only sensible for small `N`;
    /// the point of the edge list is not to need this).
    pub fn to_adjacency(&self) -> AdjacencyMatrix {
        let mut net = AdjacencyMatrix::from_edges(self.n, self.edges.iter().copied());
        net.set_nan_pair_count(self.nan_pairs);
        net
    }
}

/// One ranked edge of a [`TopK`] result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedEdge {
    /// First node (`i < j`).
    pub i: usize,
    /// Second node.
    pub j: usize,
    /// The pair's correlation.
    pub corr: f64,
}

/// Heap entry: strength order is descending correlation under
/// [`f64::total_cmp`], ties broken by ascending packed pair index (so the
/// ordering is total and NaN can never panic a sort — NaN is filtered and
/// counted before entries are built).
#[derive(Debug, Clone, Copy)]
struct HeapEdge {
    corr: f64,
    pair: usize,
    i: usize,
    j: usize,
}

impl Ord for HeapEdge {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.corr
            .total_cmp(&other.corr)
            .then_with(|| other.pair.cmp(&self.pair))
    }
}

impl PartialOrd for HeapEdge {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeapEdge {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapEdge {}

/// Top-k sink: a k-bounded min-heap of the strongest edges. NaN
/// correlations are excluded from ranking and counted. Under [`sweep_run`]
/// with bounds (the benchmark ledger's reference top-k), tiles whose upper
/// bound cannot beat the current k-th strongest edge are dropped.
#[derive(Debug, Clone)]
pub struct TopKSink {
    k: usize,
    heap: BinaryHeap<Reverse<HeapEdge>>,
    nan_pairs: usize,
    skipped_pairs: usize,
}

impl TopKSink {
    /// A sink keeping the `k` strongest edges.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.min(1 << 20)),
            nan_pairs: 0,
            skipped_pairs: 0,
        }
    }

    /// Pairs dropped by tile pruning without being evaluated: 0 unless
    /// swept by [`sweep_run`] with bounds.
    pub fn skipped_pairs(&self) -> usize {
        self.skipped_pairs
    }

    /// Merge another sink's kept edges (parallel per-partition merge): the
    /// result is the global top-k of both sinks' observed pairs.
    pub fn absorb(&mut self, other: TopKSink) {
        self.nan_pairs += other.nan_pairs;
        self.skipped_pairs += other.skipped_pairs;
        for Reverse(e) in other.heap {
            self.push(e);
        }
    }

    /// The floor of [`pass_mask`] that picks the pairs worth a
    /// [`TopKSink::push`]: `−∞` until the heap holds `k` edges, then the
    /// weakest kept correlation (NaN, so nothing, for `k = 0`). It only
    /// rises, so a floor read before a chunk stays conservative through it,
    /// and it is inclusive: a tie at the weakest strength, or `+0.0` against
    /// a weakest `−0.0`, still reaches `push`, whose [`f64::total_cmp`] and
    /// pair-index order decide.
    fn gate(&self) -> f64 {
        match self.heap.peek() {
            _ if self.heap.len() < self.k => f64::NEG_INFINITY,
            Some(weakest) => weakest.0.corr,
            None => f64::NAN,
        }
    }

    fn push(&mut self, e: HeapEdge) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Reverse(e));
        } else if let Some(weakest) = self.heap.peek() {
            if e > weakest.0 {
                self.heap.pop();
                self.heap.push(Reverse(e));
            }
        }
    }

    /// Finish the sweep: edges sorted strongest first (descending
    /// [`f64::total_cmp`] on the correlation, ties by ascending pair index).
    pub fn finish(self) -> TopK {
        let mut entries: Vec<HeapEdge> = self.heap.into_iter().map(|Reverse(e)| e).collect();
        entries.sort_by(|a, b| b.cmp(a));
        TopK {
            edges: entries
                .into_iter()
                .map(|e| RankedEdge {
                    i: e.i,
                    j: e.j,
                    corr: e.corr,
                })
                .collect(),
            nan_pairs: self.nan_pairs,
        }
    }
}

impl TileSink for TopKSink {
    fn consume(&mut self, i: usize, j0: usize, pair0: usize, corrs: &[f64]) {
        for (at, chunk) in (0..).step_by(MASK_CHUNK).zip(corrs.chunks(MASK_CHUNK)) {
            let (mask, nans) = pass_mask(chunk, self.gate());
            self.nan_pairs += nans;
            for p in set_bits(mask).map(|bit| at + bit) {
                self.push(HeapEdge {
                    corr: corrs[p],
                    pair: pair0 + p,
                    i,
                    j: j0 + p,
                });
            }
        }
    }

    fn tile_skippable(&self, upper_bound: f64) -> bool {
        if self.k == 0 {
            return true;
        }
        match self.heap.peek() {
            // Strict: a tile at exactly the k-th strength could still win a
            // pair-index tie, so only strictly weaker tiles are dropped.
            Some(weakest) if self.heap.len() == self.k => upper_bound < weakest.0.corr,
            _ => false,
        }
    }

    fn tile_skipped(&mut self, _i: usize, _j0: usize, len: usize) {
        self.skipped_pairs += len;
    }
}

/// The result of a top-k sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    /// The k strongest edges, strongest first.
    pub edges: Vec<RankedEdge>,
    /// Pairs whose correlation was NaN (excluded from ranking).
    pub nan_pairs: usize,
}

/// Aggregate sink: running count / sum / min / max over every observed
/// correlation, with the NaN audit count — network statistics without any
/// per-pair storage at all.
#[derive(Debug, Clone)]
pub struct StatsSink {
    count: usize,
    nan_pairs: usize,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for StatsSink {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsSink {
    /// An empty aggregate sink.
    pub fn new() -> Self {
        Self {
            count: 0,
            nan_pairs: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of (non-NaN) correlations observed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Mean of the observed correlations (0.0 when none).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observed correlation (`+∞` when none).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observed correlation (`−∞` when none).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// NaN correlations observed (excluded from the aggregates).
    pub fn nan_pair_count(&self) -> usize {
        self.nan_pairs
    }
}

impl TileSink for StatsSink {
    fn consume(&mut self, _i: usize, _j0: usize, _pair0: usize, corrs: &[f64]) {
        for &c in corrs {
            if c.is_nan() {
                self.nan_pairs += 1;
                continue;
            }
            self.count += 1;
            self.sum += c;
            if c < self.min {
                self.min = c;
            }
            if c > self.max {
                self.max = c;
            }
        }
    }
}

/// The inputs of the mask-scan grids (here and in `matrix`): packed
/// triangles of [`GRID_NODES`] series for a rule whose floor is `floor`.
/// One holds correlations on a coarse grid (so ties are everywhere, the
/// k-th strength included) with NaN, `±∞`, `±0.0`, the floor and its two
/// neighbours planted at and around every chunk and tile edge the grids cut
/// at; the other is negative but for `−0.0`s and then `+0.0`s, so a top-k
/// heap of zeros whose weakest is `−0.0` meets `+0.0`, which outranks it
/// although the two compare equal.
#[cfg(test)]
pub(crate) fn mask_grid_inputs(floor: f64) -> [Vec<f64>; 2] {
    let pairs = packed_pairs(GRID_NODES);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut coarse: Vec<f64> = (0..pairs)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 59) as f64 - 16.0) / 16.0
        })
        .collect();
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        floor,
        floor.next_down(),
        floor.next_up(),
    ];
    let edges = [
        0, 1, 30, 31, 32, 33, 62, 63, 64, 65, 127, 128, 129, 1023, 1024, 1025,
    ];
    let at = edges.into_iter().chain([pairs - 2, pairs - 1]);
    for (k, p) in at.chain((100..pairs).step_by(97)).enumerate() {
        coarse[p] = specials[k % specials.len()];
    }
    let zeros = (0..pairs)
        .map(|p| match p % 9 {
            0 if p < pairs / 2 => -0.0,
            0 => 0.0,
            _ => -((p % 7) as f64 + 1.0) / 8.0,
        })
        .collect();
    [coarse, zeros]
}

/// Series count of [`mask_grid_inputs`]: 2 556 pairs, more than two
/// 1 024-pair tiles.
#[cfg(test)]
pub(crate) const GRID_NODES: usize = 72;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::EdgeWatch;
    use crate::exact;
    use crate::sketch::SketchSet;
    use crate::source::audit_nan_chunk;
    use crate::stats::WindowStats;
    use crate::timeseries::SeriesCollection;
    use crate::window::QueryWindow;
    use proptest::prelude::*;

    fn lcg_series(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let noise = (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0;
                (i as f64 * 0.17).sin() * 2.0 + noise
            })
            .collect()
    }

    fn test_collection(n: usize, len: usize) -> SeriesCollection {
        SeriesCollection::from_rows((0..n).map(|s| lcg_series(s as u64 + 1, len)).collect())
            .unwrap()
    }

    #[test]
    fn edge_sink_counts_nan_and_applies_rules() {
        let mut strict = EdgeSink::new(0.5);
        strict.consume(0, 1, 0, &[0.9, f64::NAN, 0.5, 0.2]);
        let list = strict.finish(5);
        assert_eq!(list.edges(), &[(0, 1)]);
        assert_eq!(list.nan_pair_count(), 1);

        let mut exact = EdgeSink::with_rule(EdgeRule::for_method(PlanMethod::Exact, 0.5).unwrap());
        exact.consume(0, 1, 0, &[0.9, f64::NAN, 0.5, 0.2]);
        assert_eq!(exact.finish(5).edges(), &[(0, 1)]);

        // The radius rule keeps a pair at exactly θ.
        let mut radius =
            EdgeSink::with_rule(EdgeRule::for_method(PlanMethod::Approximate, 0.5).unwrap());
        radius.consume(0, 1, 0, &[0.9, f64::NAN, 0.5, 0.2]);
        let list = radius.finish(5);
        assert_eq!(list.edges(), &[(0, 1), (0, 3)]);
        assert_eq!(list.nan_pair_count(), 1);

        for method in [PlanMethod::Exact, PlanMethod::Approximate] {
            for theta in [1.5, -1.01, f64::NAN] {
                assert!(matches!(
                    EdgeRule::for_method(method, theta),
                    Err(Error::InvalidThreshold(_))
                ));
            }
        }
    }

    /// The floor answers each method's test as spelled, `c > θ` and
    /// `distance_from_corr(c) ≤ pruning_radius(θ)`, for every non-NaN `c`:
    /// both tests are monotone, so it is enough that the floor passes and
    /// the value just below it does not. NaN never passes.
    #[test]
    fn edge_rule_floor_is_the_least_passing_correlation() {
        let mut thetas = vec![
            -1.0,
            -0.5,
            -0.0,
            0.0,
            0.3,
            0.5,
            0.7,
            1.0,
            1.0f64.next_down(),
        ];
        thetas.extend((0..200).map(|k| -1.0 + k as f64 * 0.01 + 1e-4 * (k as f64).sin()));
        for theta in thetas {
            let radius = pruning_radius(theta);
            let exact = |c: f64| c > theta;
            let approximate = |c: f64| distance_from_corr(c) <= radius;
            for (method, spelled) in [
                (PlanMethod::Exact, &exact as &dyn Fn(f64) -> bool),
                (PlanMethod::Approximate, &approximate),
            ] {
                let rule = EdgeRule::for_method(method, theta).unwrap();
                let label = format!("{method:?} θ {theta}");
                assert!(spelled(rule.floor), "{label}");
                if rule.floor > f64::NEG_INFINITY {
                    assert!(!spelled(rule.floor.next_down()), "{label}");
                }
                for c in [
                    theta,
                    theta.next_up(),
                    theta.next_down(),
                    -2.0,
                    2.0,
                    f64::INFINITY,
                ] {
                    assert_eq!(rule.passes(c), spelled(c), "{label} c {c}");
                }
                assert!(!rule.passes(f64::NAN), "{label}");
            }
        }
        // Past the checked range: no floor passes, or every non-NaN value.
        assert!(!EdgeRule::new(PlanMethod::Exact, f64::INFINITY).passes(f64::INFINITY));
        assert!(EdgeRule::new(PlanMethod::Approximate, -1.5).passes(f64::NEG_INFINITY));
    }

    #[test]
    fn edge_sink_skippability_respects_rule_boundaries() {
        let strict = EdgeSink::new(0.5);
        assert!(strict.tile_skippable(0.5)); // c > 0.5 impossible when ub == 0.5
        assert!(!strict.tile_skippable(0.6));
        let radius =
            EdgeSink::with_rule(EdgeRule::for_method(PlanMethod::Approximate, 0.5).unwrap());
        assert!(!radius.tile_skippable(0.5)); // c == 0.5 is an edge
        assert!(radius.tile_skippable(0.4999));
        assert!(!radius.tile_skippable(1.0 + 1e-9)); // a padded bound never skips
    }

    #[test]
    fn top_k_orders_by_total_cmp_and_pair_index() {
        let mut sink = TopKSink::new(3);
        // Pairs 0..5 of a 4-node triangle; includes a NaN and a tie.
        sink.consume(0, 1, 0, &[0.5, f64::NAN, 0.9]);
        sink.consume(1, 2, 3, &[0.9, -0.3, 0.7]);
        let top = sink.finish();
        assert_eq!(top.nan_pairs, 1);
        // Tie at 0.9 between pair 2 (0,3) and pair 3 (1,2): lower pair wins.
        assert_eq!(top.edges.len(), 3);
        assert_eq!((top.edges[0].i, top.edges[0].j), (0, 3));
        assert_eq!((top.edges[1].i, top.edges[1].j), (1, 2));
        assert!((top.edges[2].corr - 0.7).abs() < 1e-15);
    }

    #[test]
    fn top_k_absorb_merges_partitions() {
        let mut a = TopKSink::new(2);
        a.consume(0, 1, 0, &[0.1, 0.8]);
        let mut b = TopKSink::new(2);
        b.consume(2, 3, 7, &[0.9, f64::NAN]);
        a.absorb(b);
        let top = a.finish();
        assert_eq!(top.nan_pairs, 1);
        assert_eq!(top.edges.len(), 2);
        assert!((top.edges[0].corr - 0.9).abs() < 1e-15);
        assert!((top.edges[1].corr - 0.8).abs() < 1e-15);
    }

    #[test]
    fn top_k_zero_keeps_nothing_and_skips_everything() {
        let mut sink = TopKSink::new(0);
        sink.consume(0, 1, 0, &[0.9]);
        assert!(sink.tile_skippable(1.0));
        assert!(sink.finish().edges.is_empty());
    }

    /// Tile lengths of the mask-scan grid: one pair, short tails, both sides
    /// of a half chunk, a chunk and two, and a default tile.
    const GRID_TILES: [usize; 9] = [1, 7, 31, 32, 33, 63, 64, 65, DEFAULT_TILE_PAIRS];

    /// Every rule of the grid: both methods at θ values whose floors sit at a
    /// coarse grid value, at zero and at the ends of the range.
    fn grid_rules() -> Vec<EdgeRule> {
        let methods = [PlanMethod::Exact, PlanMethod::Approximate];
        let thetas = [0.5, 0.0, -1.0, 1.0];
        let rule = |(m, t)| EdgeRule::for_method(m, t).unwrap();
        methods
            .into_iter()
            .flat_map(|m| thetas.map(|t| rule((m, t))))
            .collect()
    }

    /// One run over every pair, and three runs cut inside a tile and a chunk.
    fn grid_runs(pairs: usize) -> [Vec<Range<usize>>; 2] {
        let cut = |at: &[usize]| at.windows(2).map(|w| w[0]..w[1]).collect();
        [cut(&[0, pairs]), cut(&[0, 1000, 1001, pairs])]
    }

    /// Feed the pairs `run` of `values` to `sink` in tiles of `tile_len`, as
    /// one row: pair `p` is `(0, 1 + p)`, so a tile can span many chunks.
    fn feed(values: &[f64], tile_len: usize, run: Range<usize>, sink: &mut impl TileSink) {
        let mut start = run.start;
        while start < run.end {
            let end = (start + tile_len).min(run.end);
            sink.consume(0, 1 + start, start, &values[start..end]);
            start = end;
        }
    }

    #[test]
    fn chunked_edge_sink_equals_the_per_pair_oracle() {
        let n = GRID_NODES;
        for rule in grid_rules() {
            for values in mask_grid_inputs(rule.floor()) {
                let (mut edges, mut nans) = (Vec::new(), 0);
                for (p, &c) in values.iter().enumerate() {
                    if c.is_nan() {
                        nans += 1;
                    } else if rule.passes(c) {
                        edges.push((0, 1 + p));
                    }
                }
                for tile_len in GRID_TILES {
                    for runs in grid_runs(values.len()) {
                        let mut merged = EdgeSink::with_rule(rule).finish(n);
                        for run in runs {
                            let mut sink = EdgeSink::with_rule(rule);
                            feed(&values, tile_len, run, &mut sink);
                            merged.absorb(sink.finish(n));
                        }
                        let case = format!("{rule:?} tile {tile_len}");
                        assert_eq!(merged.edges(), &edges[..], "{case}");
                        assert_eq!(merged.nan_pair_count(), nans, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn chunked_top_k_equals_the_per_pair_oracle() {
        let ranked = |top: TopK| {
            let edges = top.edges.iter().map(|e| (e.i, e.j, e.corr.to_bits()));
            (edges.collect::<Vec<_>>(), top.nan_pairs)
        };
        for values in mask_grid_inputs(0.5) {
            let pairs = values.len();
            let mut order: Vec<usize> = (0..pairs).filter(|&p| !values[p].is_nan()).collect();
            order.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
            let nans = pairs - order.len();
            for k in [0, 1, 100, pairs, pairs + 444] {
                let want: Vec<_> = order[..k.min(order.len())]
                    .iter()
                    .map(|&p| (0, 1 + p, values[p].to_bits()))
                    .collect();
                for tile_len in GRID_TILES {
                    for runs in grid_runs(pairs) {
                        let mut merged = TopKSink::new(k);
                        for run in runs {
                            let mut sink = TopKSink::new(k);
                            feed(&values, tile_len, run, &mut sink);
                            merged.absorb(sink);
                        }
                        let case = format!("k {k} tile {tile_len}");
                        assert_eq!(ranked(merged.finish()), (want.clone(), nans), "{case}");
                    }
                }
            }
        }
    }

    /// Three scans per watch, the inputs in turn and the first again, so
    /// every scan after the first flips edges both ways.
    #[test]
    fn chunked_watch_equals_the_per_pair_oracle() {
        for rule in grid_rules() {
            let [coarse, zeros] = mask_grid_inputs(rule.floor());
            for tile_len in GRID_TILES {
                for runs in grid_runs(coarse.len()) {
                    let mut watch = EdgeWatch::new(rule, GRID_NODES);
                    let mut held = vec![false; coarse.len()];
                    for values in [&coarse, &zeros, &coarse] {
                        let (mut appeared, mut vanished, mut nans) = (vec![], vec![], 0);
                        for (p, &c) in values.iter().enumerate() {
                            nans += usize::from(c.is_nan());
                            if rule.passes(c) != held[p] {
                                held[p] = !held[p];
                                let list = if held[p] {
                                    &mut appeared
                                } else {
                                    &mut vanished
                                };
                                list.push((0, 1 + p));
                            }
                        }
                        let parts: Vec<EdgeWatch> = runs
                            .iter()
                            .map(|run| {
                                let mut part = watch.run(run.clone());
                                feed(values, tile_len, run.clone(), &mut part);
                                part
                            })
                            .collect();
                        watch.take_delta();
                        parts.into_iter().for_each(|part| watch.absorb(part));
                        let delta = watch.delta();
                        let case = format!("{rule:?} tile {tile_len}");
                        assert_eq!(delta.appeared, appeared, "{case}");
                        assert_eq!(delta.vanished, vanished, "{case}");
                        assert_eq!(delta.nan_pairs, nans, "{case}");
                    }
                }
            }
        }
    }

    /// A scan's `appeared` and `vanished` pairs and its NaN count.
    type Flips = (Vec<(usize, usize)>, Vec<(usize, usize)>, usize);

    /// The per-pair oracle of a watch over a real triangle of `n` series:
    /// flips of `values` against `held` (updated), with their `(i, j)`, and
    /// the NaN count.
    fn watch_oracle(rule: EdgeRule, n: usize, held: &mut [bool], values: &[f64]) -> Flips {
        let (mut appeared, mut vanished, mut nans) = (vec![], vec![], 0);
        let pairs = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
        for ((held, &c), pair) in held.iter_mut().zip(values).zip(pairs) {
            nans += usize::from(c.is_nan());
            if rule.passes(c) != *held {
                *held = !*held;
                let list = if *held { &mut appeared } else { &mut vanished };
                list.push(pair);
            }
        }
        (appeared, vanished, nans)
    }

    /// `pairs` values on the mask grid's coarse steps, with its specials
    /// planted at every 64-pair word edge and at the triangle's ends.
    fn word_edge_values(rule: EdgeRule, pairs: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        let mut values: Vec<f64> = (0..pairs)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 59) as f64 - 16.0) / 16.0
            })
            .collect();
        let floor = rule.floor();
        let specials = [f64::NAN, floor, floor.next_down(), 0.0, -0.0, f64::INFINITY];
        let edges = (0..pairs)
            .step_by(64)
            .flat_map(|w| [w.saturating_sub(1), w, w + 1]);
        let at = edges
            .chain([pairs.saturating_sub(1)])
            .filter(|&p| p < pairs);
        for (k, p) in at.enumerate() {
            if (k + seed as usize).is_multiple_of(3) {
                values[p] = specials[(k / 3) % specials.len()];
            }
        }
        values
    }

    #[test]
    fn chunked_watch_equals_the_per_pair_oracle_on_whole_triangles() {
        // Triangles whose pair count is 1, 63 or 0 past a multiple of 64, so
        // the flat scan ends on a one-pair word, a 63-pair word and a whole
        // one: `observe`, and the same scan as row tiles through `consume`
        // in runs cut off a word edge, each equal to the per-pair oracle,
        // `(i, j)` recovered from the flat index.
        for n in [2usize, 38, 127, 128] {
            let pairs = packed_pairs(n);
            assert!([0, 1, 63].contains(&(pairs % 64)), "{n} series");
            for rule in grid_rules() {
                let inputs = [1u64, 2, 1].map(|seed| word_edge_values(rule, pairs, seed));
                let mut watch = EdgeWatch::new(rule, n);
                let mut tiled = watch.clone();
                let mut held = vec![false; pairs];
                let mut cuts = [0, pairs / 3 + 1, pairs / 3 + 2, pairs - pairs / 5, pairs]
                    .map(|cut| cut.min(pairs))
                    .to_vec();
                cuts.dedup();
                for values in &inputs {
                    let want = watch_oracle(rule, n, &mut held, values);
                    let case = format!("{rule:?} n {n}");
                    let got = watch.observe(values);
                    let got = (got.appeared.clone(), got.vanished.clone(), got.nan_pairs);
                    assert_eq!(got, want, "observe, {case}");
                    assert_eq!(watch.edge_bits(), held, "observe, {case}");

                    let runs: Vec<EdgeWatch> = cuts
                        .windows(2)
                        .map(|cut| {
                            let mut run = tiled.run(cut[0]..cut[1]);
                            for (i, j0, len) in row_segments(cut[0], cut[1] - cut[0], n) {
                                let p0 = pair_index(i, j0, n);
                                for at in (0..len).step_by(37) {
                                    let tile = &values[p0 + at..p0 + len.min(at + 37)];
                                    run.consume(i, j0 + at, p0 + at, tile);
                                }
                            }
                            run
                        })
                        .collect();
                    tiled.take_delta();
                    runs.into_iter().for_each(|run| tiled.absorb(run));
                    let got = tiled.delta();
                    let got = (got.appeared.clone(), got.vanished.clone(), got.nan_pairs);
                    assert_eq!(got, want, "runs, {case}");
                    assert_eq!(tiled.edge_bits(), held, "runs, {case}");
                }
            }
        }
    }

    #[test]
    fn a_pooled_scan_off_word_edges_equals_one_observe() {
        // `SourcePlan::scan` over 703 pairs (63 past a multiple of 64) on
        // three workers: its runs start at pairs 235 and 469, inside words,
        // and every tile length cuts rows elsewhere. Two query windows in
        // turn, so edges flip both ways; each scan equals `observe` of the
        // dense fill of the same plan.
        use crate::source::SourcePlan;
        let n = 38;
        let sketch = SketchSet::build(&test_collection(n, 200), 20).unwrap();
        let runner = crate::runner::ScopedRunner::new(3);
        let plans = [0..6, 3..10, 0..6].map(|windows| {
            let plan = SourcePlan::new(&sketch, windows, PlanMethod::Exact).unwrap();
            let (dense, _) = fill_packed(
                &crate::runner::SerialRunner,
                plan.query_plan(),
                plan.table(),
            )
            .unwrap();
            (plan, dense)
        });
        let mut sorted = plans[0].1.clone();
        sorted.sort_by(f64::total_cmp);
        let theta = sorted[sorted.len() / 2];
        let rule = EdgeRule::for_method(PlanMethod::Exact, theta).unwrap();
        assert_eq!(runs_for_workers(packed_pairs(n), 3)[1].start, 235);
        for tile_len in [1, 7, 64, 100, DEFAULT_TILE_PAIRS] {
            let (mut pooled, mut dense) = (EdgeWatch::new(rule, n), EdgeWatch::new(rule, n));
            for (plan, values) in &plans {
                plan.scan(&runner, &mut pooled, tile_len);
                let want = dense.observe(values);
                assert_eq!(pooled.delta(), want, "tile {tile_len}");
                assert_eq!(pooled.edge_bits(), dense.edge_bits(), "tile {tile_len}");
            }
            assert!(!dense.delta().vanished.is_empty() && !dense.delta().appeared.is_empty());
        }
    }

    #[test]
    fn a_long_subscription_replays_to_the_network_after_every_tick() {
        // 2 000 ticks of a 33-series sliding network (528 pairs: eight whole
        // words and 16 pairs) at θ near the median correlation, so every
        // tick flips edges both ways and rows are recycled throughout: the
        // replayed deltas equal `network(θ)` after every tick, NaN audit
        // included.
        use crate::incremental::SlidingNetwork;
        let (n, b, windows) = (33, 8, 4);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut point = move |s: usize, t: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (t as f64 * 0.05 + (s % 5) as f64).sin() + noise
        };
        let history: Vec<Vec<f64>> = (0..n)
            .map(|s| (0..windows * b).map(|t| point(s, t)).collect())
            .collect();
        let history = SeriesCollection::from_rows(history).unwrap();
        let sketch = SketchSet::build(&history, b).unwrap();
        let mut net = SlidingNetwork::initialize(&history, &sketch, windows * b).unwrap();
        let mut sorted = net.correlation_matrix().upper_triangle().to_vec();
        sorted.sort_by(f64::total_cmp);
        let theta = sorted[sorted.len() / 2];
        let mut snapshot = net.subscribe_edges(theta).unwrap();
        let (mut appeared, mut vanished) = (0, 0);
        for tick in 0..2000 {
            let t0 = (windows + tick) * b;
            let mut chunk: Vec<Vec<f64>> = (0..n)
                .map(|s| (t0..t0 + b).map(|t| point(s, t)).collect())
                .collect();
            if tick % 500 == 7 {
                chunk[tick % n][3] = f64::NAN;
            }
            net.ingest(&chunk).unwrap();
            let delta = net.changed_edges().expect("subscribed");
            (appeared, vanished) = (
                appeared + delta.appeared.len(),
                vanished + delta.vanished.len(),
            );
            delta.apply_to(&mut snapshot).unwrap();
            let network = net.network(theta);
            assert_eq!(snapshot, network, "tick {tick}");
            assert_eq!(
                snapshot.nan_pair_count(),
                network.nan_pair_count(),
                "tick {tick}"
            );
        }
        assert!(
            appeared > 2000 && vanished > 2000,
            "{appeared} / {vanished} flips"
        );
    }

    #[test]
    fn stats_sink_aggregates_and_counts() {
        let mut sink = StatsSink::new();
        sink.consume(0, 1, 0, &[0.5, f64::NAN, -0.25]);
        assert_eq!(sink.count(), 2);
        assert_eq!(sink.nan_pair_count(), 1);
        assert!((sink.mean() - 0.125).abs() < 1e-15);
        assert_eq!(sink.min(), -0.25);
        assert_eq!(sink.max(), 0.5);
    }

    #[test]
    fn sweep_matrix_matches_lenient_threshold() {
        let mut m = CorrelationMatrix::identity(4);
        m.set(0, 1, 0.9);
        m.set(0, 2, f64::NAN);
        m.set(1, 3, 0.7);
        m.set(2, 3, -0.8);
        for tile in [1, 2, 64] {
            let mut sink = EdgeSink::new(0.6);
            sweep_matrix(&m, tile, &mut sink);
            let streamed = sink.finish(4).to_adjacency();
            let dense = m.threshold_lenient(0.6);
            assert_eq!(streamed, dense, "tile={tile}");
            assert_eq!(streamed.nan_pair_count(), dense.nan_pair_count());
        }
    }

    /// The bound tests' inputs: an aligned window, an unaligned window with a
    /// head and a tail, and an unaligned window over a collection holding a
    /// constant series (whose bound components are zero), and an aligned
    /// window over a series with one NaN point (whose bound components are
    /// NaN while the kernel evaluates its pairs to `0.0`). Every third series
    /// of the unaligned case is a per-window level plus faint noise, so its
    /// variance lies between windows (`t_i ≈ 1`) while the others' lies
    /// within them (`s_i ≈ 1`), and the bound of a mixed pair is small.
    fn bound_cases() -> Vec<(&'static str, SeriesCollection, usize, QueryWindow)> {
        let levels: Vec<Vec<f64>> = (0..9)
            .map(|s| {
                let noise = lcg_series(s + 1, 200);
                if s % 3 != 0 {
                    return noise;
                }
                let level = |t: usize| ((t / 25 + s as usize) * 7 % 5) as f64;
                noise
                    .iter()
                    .enumerate()
                    .map(|(t, v)| level(t) + 0.05 * v)
                    .collect()
            })
            .collect();
        let mut rows: Vec<Vec<f64>> = (0..7).map(|s| lcg_series(s + 1, 160)).collect();
        rows[3] = vec![5.0; 160];
        let mut planted: Vec<Vec<f64>> = (0..10)
            .map(|s| {
                (0..120)
                    .map(|i| ((i * (s + 3)) as f64 * 0.37 + s as f64).sin())
                    .collect()
            })
            .collect();
        planted[3][50] = f64::NAN;
        vec![
            (
                "aligned",
                test_collection(6, 180),
                30,
                QueryWindow::new(179, 180).unwrap(),
            ),
            (
                "unaligned",
                SeriesCollection::from_rows(levels).unwrap(),
                25,
                QueryWindow::new(188, 182).unwrap(),
            ),
            (
                "constant series",
                SeriesCollection::from_rows(rows).unwrap(),
                20,
                QueryWindow::new(150, 141).unwrap(),
            ),
            (
                "planted NaN",
                SeriesCollection::from_rows(planted).unwrap(),
                20,
                QueryWindow::new(119, 120).unwrap(),
            ),
        ]
    }

    #[test]
    fn bounds_dominate_every_pair_correlation() {
        for (name, c, b, query) in bound_cases() {
            let n = c.len();
            let sketch = SketchSet::build(&c, b).unwrap();
            let bounds =
                CorrelationBounds::from_plan(&QueryPlan::build(&c, &sketch, query).unwrap());
            let dense = exact::correlation_matrix(&c, &sketch, query).unwrap();
            for (i, j, corr) in dense.iter_pairs() {
                let bound = bounds.pair_bound(i, j);
                assert!(
                    corr.abs() <= bound,
                    "{name} pair ({i},{j}): {corr} > {bound}"
                );
            }
            let corrs = dense.upper_triangle();
            for tile_len in [1, 3, 1024] {
                for (i, j0, len) in row_segments(0, corrs.len(), n) {
                    for j in (j0..j0 + len).step_by(tile_len) {
                        let np = (j0 + len - j).min(tile_len);
                        let bound = bounds.tile_bound(i, j, np);
                        let pair0 = pair_index(i, j, n);
                        for (p, corr) in corrs[pair0..pair0 + np].iter().enumerate() {
                            assert!(
                                corr.abs() <= bound,
                                "{name} tile_len={tile_len} tile ({i},{j}+{np}) pair ({i},{}): \
                                 {corr} > {bound}",
                                j + p
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_sweep_agrees_with_unpruned_threshold() {
        let mut skipped_anywhere = 0;
        for (name, c, b, query) in bound_cases() {
            let n = c.len();
            let pairs = packed_pairs(n);
            let sketch = SketchSet::build(&c, b).unwrap();
            let plan = QueryPlan::build(&c, &sketch, query).unwrap();
            let view = sketch.window_corrs_view(plan.full_windows());
            let bounds = CorrelationBounds::from_plan(&plan);
            for theta in [0.1, 0.4] {
                for tile_len in [1, 3, 1024] {
                    let mut unpruned = EdgeSink::new(theta);
                    sweep_run(&plan, &view, None, 0..pairs, tile_len, &mut unpruned);
                    let mut pruned = EdgeSink::new(theta);
                    sweep_run(&plan, &view, Some(&bounds), 0..pairs, tile_len, &mut pruned);
                    let skipped = pruned.skipped_pairs();
                    assert_eq!(
                        pruned.finish(n).edges(),
                        unpruned.finish(n).edges(),
                        "{name} theta={theta} tile_len={tile_len}"
                    );
                    assert!(skipped <= pairs);
                    if tile_len == 1 {
                        // A one-pair tile is skipped exactly when its pair is.
                        let prunable = (0..n)
                            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                            .filter(|&(i, j)| bounds.pair_bound(i, j) <= theta)
                            .count();
                        assert_eq!(skipped, prunable, "{name} theta={theta}");
                    }
                    skipped_anywhere += skipped;
                }
            }
        }
        assert!(skipped_anywhere > 0, "the cases must exercise pruning");
    }

    #[test]
    fn pruned_top_k_agrees_with_unpruned() {
        for (name, c, b, query) in bound_cases() {
            let pairs = packed_pairs(c.len());
            let sketch = SketchSet::build(&c, b).unwrap();
            let plan = QueryPlan::build(&c, &sketch, query).unwrap();
            let view = sketch.window_corrs_view(plan.full_windows());
            let bounds = CorrelationBounds::from_plan(&plan);
            for k in 0..=pairs {
                let mut unpruned = TopKSink::new(k);
                sweep_run(&plan, &view, None, 0..pairs, 3, &mut unpruned);
                let mut pruned = TopKSink::new(k);
                sweep_run(&plan, &view, Some(&bounds), 0..pairs, 3, &mut pruned);
                assert_eq!(pruned.finish(), unpruned.finish(), "{name} k={k}");
            }
        }
    }

    /// What a sink saw, in order: audit tiles and evaluated tiles.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Seen {
        Nan(usize, usize, usize),
        Tile(usize, usize, usize, usize),
    }

    /// Records every call and forwards it to a real [`EdgeSink`].
    struct Recorder {
        seen: Vec<Seen>,
        inner: EdgeSink,
    }

    impl Recorder {
        fn new() -> Self {
            Self {
                seen: Vec::new(),
                inner: EdgeSink::new(0.2),
            }
        }
    }

    impl TileSink for Recorder {
        fn consume(&mut self, i: usize, j0: usize, pair0: usize, corrs: &[f64]) {
            // The kernel clamps, so a NaN slot can only be an audit tile.
            self.seen.push(if corrs[0].is_nan() {
                assert_eq!(corrs.len(), 1);
                Seen::Nan(i, j0, pair0)
            } else {
                Seen::Tile(i, j0, pair0, corrs.len())
            });
            self.inner.consume(i, j0, pair0, corrs);
        }
    }

    /// Advertises the given worker count but runs the jobs inline.
    struct Inline(usize);

    impl JobRunner for Inline {
        fn worker_count(&self) -> usize {
            self.0
        }

        fn run<'env>(&self, jobs: Vec<Job<'env>>) {
            jobs.into_iter().for_each(|job| job());
        }
    }

    const AUDIT_WORKERS: [usize; 4] = [1, 2, 3, 8];
    const AUDIT_TILES: [usize; 4] = [1, 4, 7, 256];

    /// A random table over `n` series and `w` windows with 0–5 NaNs planted
    /// where the slice scan has edges: tile starts and ends, row starts and
    /// ends, run boundaries — mostly in one window only.
    fn poisoned_table(n: usize, w: usize, rng: &mut TestRng) -> Vec<f64> {
        let pairs = n * (n - 1) / 2;
        let mut table: Vec<f64> = (0..pairs * w).map(|_| rng.unit_f64() * 2.0 - 1.0).collect();
        for _ in 0..rng.below(6) {
            let p = rng.below(pairs as u64) as usize;
            let (i, j) = crate::sketch::unpack_pair_index(p, n);
            let tile = AUDIT_TILES[rng.below(4) as usize];
            let tile_start = i + 1 + (j - i - 1) / tile * tile;
            let runs = runs_for_workers(pairs, AUDIT_WORKERS[rng.below(4) as usize]);
            let run = runs[rng.below(runs.len() as u64) as usize].clone();
            let p = match rng.below(7) {
                0 => pair_index(i, i + 1, n),
                1 => pair_index(i, n - 1, n),
                2 => run.start,
                3 => run.end - 1,
                4 => pair_index(i, tile_start, n),
                5 => pair_index(i, (tile_start + tile - 1).min(n - 1), n),
                _ => p,
            };
            let k = rng.below(w as u64) as usize;
            let windows = if rng.below(4) == 0 { 0..w } else { k..k + 1 };
            for k in windows {
                table[k * pairs + p] = f64::NAN;
            }
        }
        table
    }

    /// What the per-pair oracle makes a sink see over `run`: the same tiles,
    /// with [`audit_nan_chunk`] over each tile's pairs where the tile loop
    /// runs its slice scan.
    fn oracle_run(
        view: CorrView<'_>,
        n: usize,
        run: Range<usize>,
        tile_len: usize,
        audit: TableAudit,
    ) -> Recorder {
        let mut oracle = Recorder::new();
        for (i, j0, len) in row_segments(run.start, run.len(), n) {
            for j in (j0..j0 + len).step_by(tile_len) {
                let np = (j0 + len - j).min(tile_len);
                if audit == TableAudit::Swept {
                    let chunk: Vec<_> = (j..j + np).map(|b| (i, b)).collect();
                    audit_nan_chunk(view, &chunk, n, &mut oracle);
                }
                oracle.seen.push(Seen::Tile(i, j, pair_index(i, j, n), np));
            }
        }
        oracle
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The driver's table audit against the per-pair oracle: for every
        /// run split, tile length and audit setting, each sink sees exactly
        /// the oracle's NaN tiles (coordinates, packed index, order) around
        /// the same evaluated tiles — every tile of its run — and counts the
        /// same NaN pairs.
        #[test]
        fn prop_table_audit_equals_the_per_pair_oracle(
            n in 2usize..40,
            w in 1usize..6,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = TestRng::new(seed);
            let stats: Vec<Vec<WindowStats>> = (0..n)
                .map(|_| {
                    (0..w)
                        .map(|_| WindowStats {
                            len: 10,
                            mean: rng.unit_f64(),
                            std: 0.5 + rng.unit_f64(),
                        })
                        .collect()
                })
                .collect();
            let plan = QueryPlan::from_window_stats(&stats).unwrap();
            let pairs = n * (n - 1) / 2;
            let table = poisoned_table(n, w, &mut rng);
            let view = CorrView::new(&table, pairs, w);

            for workers in AUDIT_WORKERS {
                for tile_len in AUDIT_TILES {
                    for audit in [TableAudit::Off, TableAudit::Swept] {
                        let (sinks, _) = sweep_pooled(
                            &Inline(workers),
                            &plan,
                            view,
                            tile_len,
                            audit,
                            |_| Recorder::new(),
                        );
                        let runs = runs_for_workers(pairs, workers);
                        prop_assert_eq!(sinks.len(), runs.len());
                        for (run, sink) in runs.into_iter().zip(sinks) {
                            let oracle = oracle_run(view, n, run.clone(), tile_len, audit);
                            prop_assert!(
                                sink.seen == oracle.seen,
                                "workers={workers} tile_len={tile_len} {audit:?} \
                                 run={run:?}:\n {:?}\n vs oracle\n {:?}",
                                sink.seen,
                                oracle.seen
                            );
                            prop_assert_eq!(
                                sink.inner.finish(n).nan_pair_count(),
                                oracle.inner.finish(n).nan_pair_count()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn edge_list_parts_and_absorb() {
        let mut a = EdgeList::from_parts(5, vec![(0, 1)], 1);
        let b = EdgeList::from_parts(5, vec![(2, 4)], 2);
        a.absorb(b);
        assert_eq!(a.edge_count(), 2);
        assert_eq!(a.nan_pair_count(), 3);
        assert_eq!(a.node_count(), 5);
        let adj = a.to_adjacency();
        assert!(adj.has_edge(0, 1));
        assert!(adj.has_edge(4, 2));
        assert_eq!(adj.nan_pair_count(), 3);
    }
}
