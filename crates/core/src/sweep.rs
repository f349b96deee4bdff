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
//! # Tile pruning (Equation 4)
//!
//! [`CorrelationBounds`] precomputes, per series, the Cauchy–Schwarz split
//! `s_i = √(Σ_k B_k σ_ik² / den_i)`, `t_i = √(Σ_k B_k δ_ik² / den_i)` of the
//! Lemma 1 denominator. Since every per-window correlation is clamped to
//! `≤ 1`, `corr(i, j) ≤ s_i s_j + t_i t_j` — an `O(1)`-per-pair sound upper
//! bound. When the driver is given bounds and the sink reports a tile's
//! bound as skippable ([`TileSink::tile_skippable`]), the whole tile is
//! dropped without evaluating a single kernel — the tile-granular analogue
//! of the paper's Equation 4 pruning radius `√(2(1−θ))` (a bound `b < θ`
//! is exactly a distance `√(2(1−b))` outside the radius).
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
    /// dropped without being evaluated. Default: never (sinks that need to
    /// observe every pair keep it that way).
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
/// then `O(tile)`.
#[derive(Debug, Clone, PartialEq)]
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
    /// Every tile the kernel evaluates.
    Swept,
    /// Also the tiles Equation 4 pruning skipped: they stay skipped, only the
    /// accounting becomes exhaustive, at the cost of the reads pruning saved.
    SweptAndSkipped,
}

/// Drive [`QueryPlan::block_kernel`] over the contiguous packed-triangle run
/// `run`, in same-row tiles of at most `tile_len` pairs, feeding each
/// finished tile to `sink` and discarding it. With `bounds`, tiles the sink
/// reports skippable are dropped before any kernel work (Equation 4 tile
/// pruning). `view` is the window-major table of the plan's full windows,
/// read in place. The table is not audited ([`TableAudit::Off`]).
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

/// The one tile loop of every streamed query: [`sweep_run`] plus `audit`.
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
            let skip = bounds.is_some_and(|b| sink.tile_skippable(b.tile_bound(i, j, np)));
            let audited =
                audit == TableAudit::SweptAndSkipped || (!skip && audit == TableAudit::Swept);
            if audited {
                audit_tile(*view, i, j, pair0, np, sink);
            }
            if skip {
                sink.tile_skipped(i, j, np);
                continue;
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
/// through the tile loop of [`sweep_run`] (plus the table audit `audit`) into
/// its own sink, made by `make_sink` from the run, off a borrowed view —
/// nothing is copied, no pair list is built. Returns the sinks in run order
/// (so appended edge lists are in serial emission order) and the workers'
/// summed busy time.
pub fn sweep_pooled<K: TileSink + Send>(
    runner: &dyn JobRunner,
    plan: &QueryPlan,
    view: CorrView<'_>,
    bounds: Option<&CorrelationBounds>,
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
                sweep_tiles(plan, &view, bounds, run, tile_len, audit, sink);
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
    bounds: Option<&CorrelationBounds>,
    rule: EdgeRule,
    tile_len: usize,
    audit: TableAudit,
) -> (EdgeList, Duration) {
    let sink = EdgeSink::with_rule(rule);
    let make_sink = |_| sink.clone();
    let (runs, busy) = sweep_pooled(runner, plan, view, bounds, tile_len, audit, make_sink);
    let n = plan.series_count();
    let mut edges = sink.finish(n);
    for run in runs {
        edges.absorb(run.finish(n));
    }
    (edges, busy)
}

/// The `k` strongest pairs, streamed by [`sweep_pooled`] into one
/// [`TopKSink`] per run (each skipping the tiles whose `bounds` cannot beat
/// its current k-th strength), merged into the global top k. Returns the
/// ranking and the workers' summed busy time.
pub fn top_k_pooled(
    runner: &dyn JobRunner,
    plan: &QueryPlan,
    view: CorrView<'_>,
    bounds: Option<&CorrelationBounds>,
    k: usize,
    tile_len: usize,
    audit: TableAudit,
) -> (TopK, Duration) {
    let make_sink = |_| TopKSink::new(k);
    let (runs, busy) = sweep_pooled(runner, plan, view, bounds, tile_len, audit, make_sink);
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

/// Threshold sink: keeps only the `(i, j)` pairs its [`EdgeRule`] passes,
/// counts NaN pairs, and drops whole tiles whose upper bound cannot pass.
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

    /// Pairs dropped by tile pruning without being evaluated.
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
        // The rule is read once per tile, not once per pair: the edge pushes
        // would otherwise make the compiler reload it every iteration.
        let rule = self.rule;
        for (p, &c) in corrs.iter().enumerate() {
            if c.is_nan() {
                self.nan_pairs += 1;
            } else if rule.passes(c) {
                self.edges.push((i, j0 + p));
            }
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

    /// Add externally observed NaN pairs to the audit count (the disk
    /// engine counts method-mismatched store records before recombination).
    pub fn add_nan_pairs(&mut self, extra: usize) {
        self.nan_pairs += extra;
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
/// correlations are excluded from ranking and counted. With bounds, tiles
/// whose upper bound cannot beat the current k-th strongest edge are
/// dropped.
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

    /// Pairs dropped by tile pruning without being evaluated.
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
        for (p, &c) in corrs.iter().enumerate() {
            if c.is_nan() {
                self.nan_pairs += 1;
                continue;
            }
            self.push(HeapEdge {
                corr: c,
                pair: pair0 + p,
                i,
                j: j0 + p,
            });
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
/// correlation, with NaN and pruning audit counts — network statistics
/// without any per-pair storage at all.
#[derive(Debug, Clone)]
pub struct StatsSink {
    count: usize,
    nan_pairs: usize,
    skipped_pairs: usize,
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
            skipped_pairs: 0,
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

    /// Pairs dropped by tile pruning.
    pub fn skipped_pairs(&self) -> usize {
        self.skipped_pairs
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

    fn tile_skipped(&mut self, _i: usize, _j0: usize, len: usize) {
        self.skipped_pairs += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn stats_sink_aggregates_and_counts() {
        let mut sink = StatsSink::new();
        sink.consume(0, 1, 0, &[0.5, f64::NAN, -0.25]);
        sink.tile_skipped(1, 2, 10);
        assert_eq!(sink.count(), 2);
        assert_eq!(sink.nan_pair_count(), 1);
        assert_eq!(sink.skipped_pairs(), 10);
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

    /// What a sink saw, in order: audit tiles, evaluated tiles, skipped tiles.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Seen {
        Nan(usize, usize, usize),
        Tile(usize, usize, usize, usize),
        Skipped(usize, usize, usize),
    }

    /// Records every call, forwards it to a real [`EdgeSink`], and skips a
    /// scripted subset of the tiles it is asked about.
    struct Recorder {
        script: u64,
        asked: std::cell::Cell<u64>,
        seen: Vec<Seen>,
        inner: EdgeSink,
    }

    impl Recorder {
        fn new(script: u64) -> Self {
            Self {
                script,
                asked: std::cell::Cell::new(0),
                seen: Vec::new(),
                inner: EdgeSink::new(0.2),
            }
        }

        /// Whether the script skips the `t`-th tile a sink is asked about.
        fn skips(script: u64, t: u64) -> bool {
            TestRng::new(script ^ t).below(3) == 0
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

        fn tile_skippable(&self, _upper_bound: f64) -> bool {
            let t = self.asked.get();
            self.asked.set(t + 1);
            Self::skips(self.script, t)
        }

        fn tile_skipped(&mut self, i: usize, j0: usize, len: usize) {
            self.seen.push(Seen::Skipped(i, j0, len));
            self.inner.tile_skipped(i, j0, len);
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

    /// What the per-pair oracle makes a sink see over `run`: the same tiles
    /// and scripted skips, with [`audit_nan_chunk`] over each audited tile's
    /// pairs where the driver runs its slice scan.
    fn oracle_run(
        view: CorrView<'_>,
        n: usize,
        run: Range<usize>,
        tile_len: usize,
        pruned: bool,
        audit: TableAudit,
        script: u64,
    ) -> Recorder {
        let mut oracle = Recorder::new(script);
        let mut asked = 0;
        for (i, j0, len) in row_segments(run.start, run.len(), n) {
            for j in (j0..j0 + len).step_by(tile_len) {
                let np = (j0 + len - j).min(tile_len);
                let skipped = pruned && Recorder::skips(script, asked);
                asked += 1;
                let audited = match audit {
                    TableAudit::Off => false,
                    TableAudit::Swept => !skipped,
                    TableAudit::SweptAndSkipped => true,
                };
                if audited {
                    let chunk: Vec<_> = (j..j + np).map(|b| (i, b)).collect();
                    audit_nan_chunk(view, &chunk, n, &mut oracle);
                }
                if skipped {
                    oracle.tile_skipped(i, j, np);
                } else {
                    oracle.seen.push(Seen::Tile(i, j, pair_index(i, j, n), np));
                }
            }
        }
        oracle
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The driver's table audit against the per-pair oracle: for every
        /// run split, tile length, pruning script and audit setting, each
        /// sink sees exactly the oracle's NaN tiles (coordinates, packed
        /// index, order) around the same evaluated and skipped tiles, and
        /// counts the same NaN pairs.
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
            let bounds = CorrelationBounds::from_plan(&plan);
            let pairs = n * (n - 1) / 2;
            let table = poisoned_table(n, w, &mut rng);
            let view = CorrView::new(&table, pairs, w);
            let audits = [TableAudit::Off, TableAudit::Swept, TableAudit::SweptAndSkipped];

            for workers in AUDIT_WORKERS {
                for tile_len in AUDIT_TILES {
                    for (bounds, audit) in [None, Some(&bounds)]
                        .into_iter()
                        .flat_map(|b| audits.map(|a| (b, a)))
                    {
                        let (sinks, _) = sweep_pooled(
                            &Inline(workers),
                            &plan,
                            view,
                            bounds,
                            tile_len,
                            audit,
                            |_| Recorder::new(seed),
                        );
                        let runs = runs_for_workers(pairs, workers);
                        prop_assert_eq!(sinks.len(), runs.len());
                        for (run, sink) in runs.into_iter().zip(sinks) {
                            let pruned = bounds.is_some();
                            let oracle =
                                oracle_run(view, n, run.clone(), tile_len, pruned, audit, seed);
                            prop_assert!(
                                sink.seen == oracle.seen,
                                "workers={workers} tile_len={tile_len} pruned={pruned} \
                                 {audit:?} run={run:?}:\n {:?}\n vs oracle\n {:?}",
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
        a.add_nan_pairs(1);
        assert_eq!(a.edge_count(), 2);
        assert_eq!(a.nan_pair_count(), 4);
        assert_eq!(a.node_count(), 5);
        let adj = a.to_adjacency();
        assert!(adj.has_edge(0, 1));
        assert!(adj.has_edge(4, 2));
        assert_eq!(adj.nan_pair_count(), 4);
    }
}
