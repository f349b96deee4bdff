//! Per-window summary statistics and Pearson correlation primitives.
//!
//! Everything in TSUBASA reduces to three numbers per basic window and series
//! (length, mean, standard deviation) plus one number per basic window and
//! pair (the within-window Pearson correlation). This module computes those
//! statistics in two vectorised passes and defines the numerical conventions
//! used by the rest of the workspace:
//!
//! * standard deviations are *population* (1/N) standard deviations — this is
//!   what makes the Lemma 1 recombination exact;
//! * the Pearson correlation of a window with zero variance in either input
//!   is defined as `0.0` (the covariance term vanishes; the mean-offset terms
//!   of Lemma 1 still carry the information that is recoverable).

use std::array::from_fn;
use std::ops::Range;

use crate::runner::{Job, JobRunner, SerialRunner};

#[allow(unsafe_code)]
mod zmm;
use zmm::{Zmm, ACCUMULATORS};

/// Summary statistics of one window of one series: the per-basic-window
/// sketch entry stored by Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Number of points in the window (`B_j`; all equal for the default
    /// equal-size segmentation, different for partial head/tail windows).
    pub len: usize,
    /// Arithmetic mean of the window.
    pub mean: f64,
    /// Population standard deviation of the window.
    pub std: f64,
}

impl WindowStats {
    /// Compute the statistics of one window in two vectorisable passes.
    ///
    /// The first pass sums `x − x₀` (offsets from the first point, so data
    /// far from zero does not cancel and a constant window sums to exactly
    /// `0`) in eight chains for the mean `μ`; the second sums `x − μ` and
    /// `(x − μ)²` the same way, and the variance is
    /// `(Σ(x−μ)² − (Σ(x−μ))²/n) / n`, the first sum correcting the rounding of
    /// `μ`. A constant window is exactly `σ = 0`, `μ = x₀`. A window holding
    /// NaN or ±∞ has `σ = 0`, and its mean is NaN unless its only non-finite
    /// point is its last, which is then the mean (a finite window whose sum
    /// leaves the `f64` range: `σ = 0`, `μ = ±∞`).
    pub fn from_values(values: &[f64]) -> Self {
        let (len, x0) = (values.len(), values.first().copied().unwrap_or(0.0));
        let n = len.max(1) as f64;
        let [shift] = lane_sums(values, |x| [x - x0]);
        let mean = x0 + shift / n;
        let (mean, std) = if mean.is_finite() {
            let [dev, dev_sq] = lane_sums(values, |x| {
                let d = x - mean;
                [d, d * d]
            });
            (mean, ((dev_sq - dev * dev / n) / n).max(0.0).sqrt())
        } else {
            let mean = match values.iter().position(|v| !v.is_finite()) {
                Some(k) if k + 1 < len => f64::NAN,
                Some(k) => values[k],
                None => mean,
            };
            (mean, 0.0)
        };
        Self { len, mean, std }
    }

    /// Population variance of the window.
    pub fn variance(&self) -> f64 {
        self.std * self.std
    }

    /// Sum of the values in the window (`len · mean`).
    pub fn sum(&self) -> f64 {
        self.len as f64 * self.mean
    }

    /// Sum of squared values in the window (`len · (σ² + mean²)`), the second
    /// raw moment times the length. Used by the incremental updater.
    pub fn sum_of_squares(&self) -> f64 {
        self.len as f64 * (self.variance() + self.mean * self.mean)
    }

    /// True when the window is (numerically) constant.
    pub fn is_constant(&self) -> bool {
        self.std == 0.0
    }
}

/// Independent accumulator chains of [`WindowStats::from_values`]: two
/// `ymm` registers per sum.
const LANES: usize = 8;

/// `Σ f(x)` over `values`, each of the `K` sums in [`LANES`] chains (chain
/// `l` takes points `l, l + LANES, …`) added up chain 0 first, so the bits
/// depend on the values alone, not on the target's vector width.
#[inline(always)]
fn lane_sums<const K: usize>(values: &[f64], f: impl Fn(f64) -> [f64; K]) -> [f64; K] {
    let mut acc = [[0.0f64; LANES]; K];
    let mut add = |l: usize, x: f64| {
        for (acc, term) in acc.iter_mut().zip(f(x)) {
            acc[l] += term;
        }
    };
    let chunks = values.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (l, &x) in chunk.iter().enumerate() {
            add(l, x);
        }
    }
    for (l, &x) in tail.iter().enumerate() {
        add(l, x);
    }
    acc.map(|lanes| lanes.iter().fold(0.0, |sum, &x| sum + x))
}

/// Pearson's correlation coefficient of two equally-long slices
/// (paper Equation 1), computed directly from the raw values.
///
/// Returns `0.0` when either slice has zero variance or fewer than two
/// points. Panics if the slices have different lengths (a programming error,
/// not a data error — all series in a collection are synchronized).
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(
        x.len(),
        y.len(),
        "pearson() requires equally long slices ({} vs {})",
        x.len(),
        y.len()
    );
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let (sx, sy) = joint_stats(x, y);
    if sx.std == 0.0 || sy.std == 0.0 {
        return 0.0;
    }
    let mut cov = 0.0;
    for i in 0..n {
        cov += (x[i] - sx.mean) * (y[i] - sy.mean);
    }
    cov /= n as f64;
    clamp_corr(cov / (sx.std * sy.std))
}

/// Covariance (population, 1/N) of two equally-long slices.
pub fn covariance(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    if n == 0 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    x.iter()
        .zip(y)
        .map(|(&a, &b)| (a - mx) * (b - my))
        .sum::<f64>()
        / n as f64
}

/// The window statistics of two aligned windows:
/// [`WindowStats::from_values`] of each.
pub fn joint_stats(x: &[f64], y: &[f64]) -> (WindowStats, WindowStats) {
    debug_assert_eq!(x.len(), y.len());
    (WindowStats::from_values(x), WindowStats::from_values(y))
}

/// Pearson correlation of two aligned windows whose per-series statistics
/// have already been computed.
///
/// This is the hot-path sibling of [`pearson`] used wherever per-series
/// window statistics are shared across many pairs (sketching all `N(N−1)/2`
/// pairs, streaming ingestion): only the centered cross-product
/// `Σ (x_t − x̄)(y_t − ȳ)` remains to be computed per pair.
///
/// The result is bit-identical to [`pearson`] when `sx`/`sy` were produced by
/// [`WindowStats::from_values`] over the same slices, because `pearson`
/// centers with the same means.
pub fn pair_corr_from_stats(x: &[f64], y: &[f64], sx: &WindowStats, sy: &WindowStats) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), sx.len);
    let n = x.len();
    if n == 0 || sx.std == 0.0 || sy.std == 0.0 {
        return 0.0;
    }
    let mut cov = 0.0;
    for i in 0..n {
        cov += (x[i] - sx.mean) * (y[i] - sy.mean);
    }
    cov /= n as f64;
    clamp_corr(cov / (sx.std * sy.std))
}

/// Clamp a correlation value into `[-1, 1]`, absorbing the tiny excursions
/// floating-point recombination can produce.
pub fn clamp_corr(c: f64) -> f64 {
    if c.is_nan() {
        0.0
    } else {
        c.clamp(-1.0, 1.0)
    }
}

/// Inverse of Equation 3: the normalized distance `√(2(1 − c))` of two
/// unit-normalized windows whose correlation is `c`.
pub fn distance_from_corr(c: f64) -> f64 {
    (2.0 * (1.0 - c.clamp(-1.0, 1.0))).max(0.0).sqrt()
}

/// Equation 4's pruning radius `√(2(1−θ))`: pairs whose coefficient distance
/// is at most this value form a superset of the pairs with `corr ≥ θ` (no
/// false negatives, possibly false positives).
pub fn pruning_radius(theta: f64) -> f64 {
    distance_from_corr(theta)
}

/// Write the z-scores of one window into `out`: `z_t = (x_t − μ) / σ` under
/// the window's precomputed statistics.
///
/// This is the normalization step of the tiled batch kernels: once every
/// window of every series is normalized, the Pearson correlation of any
/// aligned window pair collapses to a plain dot product
/// (`corr = Σ z_x z_y / B`), which the window kernel ([`window_corrs_into`])
/// evaluates a register tile of pairs at a time.
///
/// A constant window (`σ = 0`) normalizes to an all-zero row, so downstream
/// dot products yield the `0.0`-correlation convention of [`pearson`] with no
/// per-pair branching.
pub fn normalize_into(values: &[f64], stats: &WindowStats, out: &mut [f64]) {
    debug_assert_eq!(values.len(), out.len());
    debug_assert_eq!(values.len(), stats.len);
    normalize_each(values, stats, out.iter_mut());
}

/// [`normalize_into`] over any run of slots: a slice, or one lane of a packed
/// block ([`packed_lane_mut`]).
pub(crate) fn normalize_each<'a>(
    values: &[f64],
    stats: &WindowStats,
    out: impl Iterator<Item = &'a mut f64>,
) {
    if stats.std == 0.0 {
        out.for_each(|slot| *slot = 0.0);
        return;
    }
    let inv = 1.0 / stats.std;
    for (slot, &v) in out.zip(values) {
        *slot = (v - stats.mean) * inv;
    }
}

/// Series per panel of the packed layout ([`packed_len`]): one point of
/// eight series is one 64-byte line, two `ymm` registers or one `zmm`.
pub const PANEL: usize = 8;

/// Height of the aligned register tile: 4 rows × [`PANEL`] columns are eight
/// `ymm` accumulator chains, enough to cover the FP-add latency at the
/// two-port multiply + add peak. Also the height of the triangle-row groups a
/// query plan mints its partial-window correlations by
/// ([`crate::plan::PartialCorrs`]).
pub(crate) const TILE_ROWS: usize = 4;

/// Length of a packed block of `n` series of `len` points: the series sit
/// eight to a point-major panel (`panel[t·8 + lane]`, series `i` in lane
/// `i % 8` of panel `i / 8`), so one point of a whole panel is one contiguous
/// load. The unused lanes of the last panel are never read into a stored
/// pair.
pub fn packed_len(n: usize, len: usize) -> usize {
    n.div_ceil(PANEL) * PANEL * len
}

/// The `len` slots of series `i` in a packed block ([`packed_len`]), in point
/// order.
pub fn packed_lane_mut(packed: &mut [f64], i: usize, len: usize) -> impl Iterator<Item = &mut f64> {
    packed[i / PANEL * PANEL * len..][..PANEL * len]
        .iter_mut()
        .skip(i % PANEL)
        .step_by(PANEL)
}

/// The register-tiled micro-kernel: `R` rows of one panel (series `i0..i0+R`)
/// against every column panel from their own on, `acc[r][c] = step(acc[r][c],
/// a_r[t], b_c[t])` over `t`, both operands read from panels. Each pair's sum
/// is one left-to-right chain over `t` from `0.0` — whatever `R`, lane or
/// panel the pair falls in. `finish` of the sums of the pairs `(i, j)`, `i < j < n`, go
/// to `out`, which starts at row `i0` of the packed triangle.
#[inline(always)]
fn row_tile_into<const R: usize>(
    packed: &[f64],
    n: usize,
    len: usize,
    i0: usize,
    out: &mut [f64],
    step: impl Fn(f64, f64, f64) -> f64,
    finish: impl Fn(f64) -> f64,
) {
    let panel = |p: usize| &packed[p * PANEL * len..(p + 1) * PANEL * len];
    let (a, lane) = (panel(i0 / PANEL), i0 % PANEL);
    // The tile's rows sit in one panel; stated once so `ta[lane + r]` below
    // needs no check per point.
    assert!(lane + R <= PANEL);
    for pb in i0 / PANEL..n.div_ceil(PANEL) {
        let mut acc = [[0.0f64; PANEL]; R];
        for (ta, tb) in a.chunks_exact(PANEL).zip(panel(pb).chunks_exact(PANEL)) {
            let tb: &[f64; PANEL] = tb.try_into().expect("chunks_exact(PANEL)");
            // Indexed on purpose: this spelling compiles to `R × 2` `ymm`
            // accumulators, one broadcast per row and two loads per point;
            // the iterator-`zip` spelling of the same loops came out scalar.
            for r in 0..R {
                let x = ta[lane + r];
                for c in 0..PANEL {
                    acc[r][c] = step(acc[r][c], x, tb[c]);
                }
            }
        }
        store_panel(&acc, n, i0, pb, out, &finish);
    }
}

/// [`row_tile_into`] of the correlation row on `zmm` registers: `R` rows of
/// one panel against up to `ACCUMULATORS / R` column panels at a time
/// ([`Zmm::corrs`]), the same chains finished by the same
/// `clamp_corr(sum · inv)` in registers, and so the same bits; whole
/// eight-lane rows are then copied out.
fn zmm_tile_into<const R: usize>(
    zmm: Zmm,
    packed: &[f64],
    n: usize,
    len: usize,
    i0: usize,
    out: &mut [f64],
    inv: f64,
) {
    let panel = |p: usize| &packed[p * PANEL * len..(p + 1) * PANEL * len];
    let (a, lane) = (panel(i0 / PANEL), i0 % PANEL);
    let (mut pb, panels) = (i0 / PANEL, n.div_ceil(PANEL));
    while pb < panels {
        let q = (panels - pb).min(ACCUMULATORS / R);
        let cols = |k| panel(pb + k);
        let mut store = |corrs: &[[[f64; PANEL]; R]]| {
            for (k, corrs) in corrs.iter().enumerate() {
                store_panel(corrs, n, i0, pb + k, out, |c| c);
            }
        };
        // Widest first, so that the arms past `ACCUMULATORS / R` are dead code.
        match q {
            4 => store(&zmm.corrs::<R, 4>(a, lane, from_fn(cols), inv)),
            3 => store(&zmm.corrs::<R, 3>(a, lane, from_fn(cols), inv)),
            2 => store(&zmm.corrs::<R, 2>(a, lane, from_fn(cols), inv)),
            _ => store(&zmm.corrs::<R, 1>(a, lane, from_fn(cols), inv)),
        }
        pb += q;
    }
}

/// `finish` of the sums `acc[r][c]` of rows `i0 + r` against the columns of
/// panel `pb`, for the pairs `(i, j)`, `i < j < n`, into `out`, which starts
/// at row `i0` of the packed triangle. The `zmm` tile hands over finished
/// values and the identity.
#[inline(always)]
fn store_panel<const R: usize>(
    acc: &[[f64; PANEL]; R],
    n: usize,
    i0: usize,
    pb: usize,
    out: &mut [f64],
    finish: impl Fn(f64) -> f64,
) {
    let mut row_start = 0;
    for (r, acc) in acc.iter().enumerate() {
        let i = i0 + r;
        let (first, end) = ((i + 1).max(pb * PANEL), n.min((pb + 1) * PANEL));
        if first < end {
            let sums = &acc[first - pb * PANEL..end - pb * PANEL];
            let slots = &mut out[row_start + first - i - 1..][..sums.len()];
            // A whole eight-lane row at its constant length: one vector
            // store (or a vectorised finish) instead of a run-time loop.
            match <&mut [f64; PANEL]>::try_from(&mut *slots) {
                Ok(row) => {
                    for (slot, &sum) in row.iter_mut().zip(acc) {
                        *slot = finish(sum);
                    }
                }
                Err(_) => {
                    for (slot, &sum) in slots.iter_mut().zip(sums) {
                        *slot = finish(sum);
                    }
                }
            }
        }
        row_start += n - 1 - i;
    }
}

/// The register tiles that cover triangle rows `rows` of `n`, in order:
/// `(i, height, p)` for tile rows `i..i + height`, whose pairs start `p`
/// slots after those of row `rows.start`. Each tile is the tallest of
/// `heights` (descending, ending in 1) that starts on a multiple of itself —
/// so its rows sit in one panel — and ends inside the range.
fn row_tiles(
    n: usize,
    rows: Range<usize>,
    heights: &[usize],
) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    let (mut i, mut p) = (rows.start, 0);
    std::iter::from_fn(move || {
        let height = *heights
            .iter()
            .find(|&&h| i.is_multiple_of(h) && i + h <= rows.end)?;
        let tile = (i, height, p);
        p += (i..i + height).map(|row| n - 1 - row).sum::<usize>();
        i += height;
        Some(tile)
    })
}

/// The pair kernel's dot step: the left-to-right chain of a correlation.
fn dot(sum: f64, x: f64, y: f64) -> f64 {
    x.mul_add(y, sum)
}

/// **The** pair kernel on the portable tile: `finish` of the chain `sum =
/// step(sum, r_i[t], r_j[t])` over `t` from `0.0` for every pair
/// `i < j` of triangle rows `rows` of the `n` series of a packed block
/// ([`packed_len`]), in packed upper-triangle order
/// ([`crate::sketch::pair_index`]), into the slice of `out` that starts at
/// row `rows.start`. Aligned groups of [`TILE_ROWS`] rows run as one register
/// tile; the rows the range leaves before and after them run one at a time
/// through the same micro-kernel. Where the CPU has `avx512f` the dot step
/// runs on [`zmm_rows_into`] instead, with the same bits.
///
/// Every sum is one left-to-right chain over `t` ([`row_tile_into`]), so a
/// pair's bits depend on nothing but its two series: not on the tile shape,
/// the panel edge, the row range, the worker count or the target's vector
/// width. Zero-length rows sum to `0.0`.
fn packed_rows_into(
    packed: &[f64],
    n: usize,
    len: usize,
    rows: Range<usize>,
    out: &mut [f64],
    step: impl Fn(f64, f64, f64) -> f64 + Copy,
    finish: impl Fn(f64) -> f64 + Copy,
) {
    debug_assert_eq!(packed.len(), packed_len(n, len));
    for (i, height, p) in row_tiles(n, rows, &[TILE_ROWS, 1]) {
        let out = &mut out[p..];
        match height {
            TILE_ROWS => row_tile_into::<TILE_ROWS>(packed, n, len, i, out, step, finish),
            _ => row_tile_into::<1>(packed, n, len, i, out, step, finish),
        }
    }
}

/// [`packed_rows_into`] of the correlation row, `clamp_corr(sum · inv)` of
/// the dot step's chains, on `zmm` registers: whole panels of rows as `8 ×
/// 2`-panel tiles, aligned [`TILE_ROWS`]-row groups (the rows around a
/// worker's range, the groups [`crate::plan::PartialCorrs`] mints) as `4 ×
/// 4`-panel tiles, both finished in registers, and the single rows a range
/// leaves at its ends on the portable one-row tile. Bit for bit
/// [`packed_rows_into`] with [`dot`] and that finish.
fn zmm_rows_into(
    zmm: Zmm,
    packed: &[f64],
    n: usize,
    len: usize,
    rows: Range<usize>,
    out: &mut [f64],
    inv: f64,
) {
    debug_assert_eq!(packed.len(), packed_len(n, len));
    let finish = move |sum| clamp_corr(sum * inv);
    for (i, height, p) in row_tiles(n, rows, &[PANEL, TILE_ROWS, 1]) {
        let out = &mut out[p..];
        match height {
            PANEL => zmm_tile_into::<PANEL>(zmm, packed, n, len, i, out, inv),
            TILE_ROWS => zmm_tile_into::<TILE_ROWS>(zmm, packed, n, len, i, out, inv),
            _ => row_tile_into::<1>(packed, n, len, i, out, dot, finish),
        }
    }
}

/// All-pairs squared Euclidean distances of a packed block: `out` receives
/// the `n(n−1)/2` squared distances `‖r_i − r_j‖²` in packed upper-triangle
/// order, each one serial chain of fused difference-square steps
/// `d.mul_add(d, sum)`, `d = x − y`, over the `len` points. This is the
/// shared pair kernel ([`window_corrs_into`]) with `(x − y)²` for `x·y`, used
/// by the DFT comparator's coefficient-distance sweep.
///
/// `packed` holds the `n` rows in the panel layout of [`packed_len`], filled
/// through [`packed_lane_mut`]; the sweep is fanned out over `runner` by whole
/// triangle rows.
pub fn tiled_pair_dist_sq_in(
    runner: &dyn JobRunner,
    packed: &[f64],
    n: usize,
    len: usize,
    out: &mut [f64],
) {
    let dist_sq = |sum: f64, x: f64, y: f64| (x - y).mul_add(x - y, sum);
    sweep_triangle_rows(n, runner, out, |rows, out| {
        packed_rows_into(packed, n, len, rows, out, dist_sq, |sum| sum)
    });
}

/// All-pairs window correlations from a block of normalized series rows.
///
/// `z` holds `n` normalized rows of `len` points each, contiguous per series
/// (`z[i·len .. (i+1)·len]` is series `i`, as filled by [`normalize_into`]);
/// `out` receives the `n(n−1)/2` correlations of the window in packed
/// upper-triangle order ([`crate::sketch::pair_index`]).
///
/// The rows are packed into a temporary panel block and go through the one
/// pair kernel, so for the same `z` values this writes the bits
/// [`window_corrs_into`] writes: `clamp_corr(Σ_t z_i[t]·z_j[t] · (1/len))`,
/// the sum one left-to-right chain of fused multiply-adds. Agreement with the scalar reference
/// ([`pair_corr_from_stats`] over the raw window) is within `1e-10`
/// absolute, pinned by the `tiled_kernel_agreement` property suite.
pub fn tiled_pair_corrs_into(z: &[f64], n: usize, len: usize, out: &mut [f64]) {
    debug_assert_eq!(z.len(), n * len);
    let mut packed = vec![0.0f64; packed_len(n, len)];
    for (i, row) in z.chunks_exact(len.max(1)).enumerate() {
        for (slot, &v) in packed_lane_mut(&mut packed, i, len).zip(row) {
            *slot = v;
        }
    }
    corrs_of_packed(&SerialRunner, &packed, n, len, out);
}

/// Every row of [`packed_corr_rows_into`], fanned out over `runner`.
fn corrs_of_packed(runner: &dyn JobRunner, z: &[f64], n: usize, len: usize, out: &mut [f64]) {
    sweep_triangle_rows(n, runner, out, |rows, out| {
        packed_corr_rows_into(z, n, len, rows, out)
    });
}

/// Triangle rows `rows` of a window's correlation row, from the packed block
/// `z` of its `n` z-normalized series ([`packed_len`]), into the slice of
/// `out` that starts at row `rows.start`: every `c` is
/// `clamp_corr(Σ_t z_i[t]·z_j[t] · (1/len))`, the sum one left-to-right chain
/// of `z_i[t].mul_add(z_j[t], sum)` steps — the bits [`window_corrs_into`] stores, whichever rows are asked for.
/// [`crate::plan::QueryPlan::block_kernel`] mints the partial head and tail
/// windows of an unaligned query through it, a few rows at a time.
pub(crate) fn packed_corr_rows_into(
    z: &[f64],
    n: usize,
    len: usize,
    rows: Range<usize>,
    out: &mut [f64],
) {
    let inv = 1.0 / len as f64;
    match Zmm::detect() {
        Some(zmm) => zmm_rows_into(zmm, z, n, len, rows, out, inv),
        None => packed_rows_into(z, n, len, rows, out, dot, move |sum| clamp_corr(sum * inv)),
    }
}

/// Run `rows_into(rows, slice)` over the packed triangle `out` of `n` series,
/// split into one run of whole triangle rows per worker of `runner` (pair
/// counts as even as whole rows allow); a single worker runs it inline over
/// `0..n`. No pair's bits depend on where a run starts; runs are whole rows
/// only so that each worker's slice of `out` is contiguous.
fn sweep_triangle_rows(
    n: usize,
    runner: &dyn JobRunner,
    out: &mut [f64],
    rows_into: impl Fn(Range<usize>, &mut [f64]) + Sync,
) {
    debug_assert_eq!(out.len(), n * n.saturating_sub(1) / 2);
    let workers = runner.worker_count();
    if workers <= 1 {
        return rows_into(0..n, out);
    }
    let rows_into = &rows_into;
    let mut jobs: Vec<Job<'_>> = Vec::with_capacity(workers);
    let (mut rest, mut row, mut done, mut target) = (out, 0, 0, 0);
    for size in crate::plan::even_sizes(rest.len(), workers) {
        target += size;
        let (start, before) = (row, done);
        while row < n && done < target {
            done += n - 1 - row;
            row += 1;
        }
        let (slice, tail) = rest.split_at_mut(done - before);
        rest = tail;
        if !slice.is_empty() {
            jobs.push(Box::new(move || rows_into(start..row, slice)));
        }
    }
    runner.run(jobs);
}

/// **The** exact window kernel: one basic window of every series to that
/// window's packed row of pair correlations `c`.
///
/// `window[i]` holds the window's points of series `i` and `stats[i]` their
/// statistics. Every series is z-normalized straight into its lane of the
/// packed scratch `z` (resized to [`packed_len`], reusable across windows),
/// then the row is the register-tiled `Z·Zᵀ` of the shared pair kernel,
/// fanned out over `runner` by whole triangle rows: every `c` is
/// `clamp_corr(Σ_t z_i[t]·z_j[t] · (1/B))` with the sum one left-to-right
/// chain of fused multiply-adds. Every site that sketches a window calls this — batch build,
/// arriving window, epoch ingest, sliding tick, pile sketching — so a row's
/// bits do not depend on who minted it, on the worker count or on the
/// target's vector width.
pub fn window_corrs_into<S: AsRef<[f64]>>(
    window: &[S],
    stats: &[WindowStats],
    runner: &dyn JobRunner,
    z: &mut Vec<f64>,
    out: &mut [f64],
) {
    let n = window.len();
    let b = window.first().map_or(0, |points| points.as_ref().len());
    z.resize(packed_len(n, b), 0.0);
    normalize_panels(window, stats, b, z);
    corrs_of_packed(runner, z, n, b, out);
}

/// [`normalize_into`] of every series of a window into its lane of the
/// packed block `z` ([`packed_len`]), a panel at a time: per point, the
/// panel's eight values are read from their series and written as one
/// contiguous run, where a series at a time would write every eighth slot.
/// Each value is `(x − μ) · (1/σ)` as [`normalize_each`] computes it, and a
/// constant window's lane is all `+0.0`; the unused lanes of the last panel
/// get `0.0`.
fn normalize_panels<S: AsRef<[f64]>>(window: &[S], stats: &[WindowStats], b: usize, z: &mut [f64]) {
    let panels = z.chunks_exact_mut(PANEL * b.max(1));
    for (panel, (window, stats)) in panels.zip(window.chunks(PANEL).zip(stats.chunks(PANEL))) {
        // Unused lanes read the first series and are written as constant.
        let mut points = [window[0].as_ref(); PANEL];
        let (mut mean, mut inv, mut varies) = ([0.0; PANEL], [0.0; PANEL], [false; PANEL]);
        for (l, (series, stats)) in window.iter().zip(stats).enumerate() {
            points[l] = series.as_ref();
            (mean[l], inv[l], varies[l]) = (stats.mean, 1.0 / stats.std, stats.std != 0.0);
        }
        assert!(
            points.iter().all(|p| p.len() == b),
            "a window's series share one length"
        );
        for (t, out) in panel.chunks_exact_mut(PANEL).enumerate() {
            let out: &mut [f64; PANEL] = out.try_into().expect("chunks_exact_mut(PANEL)");
            for l in 0..PANEL {
                out[l] = if varies[l] {
                    (points[l][t] - mean[l]) * inv[l]
                } else {
                    0.0
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ScopedRunner;
    use proptest::prelude::*;

    fn naive_stats(values: &[f64]) -> (f64, f64) {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    /// Row-major `rows` in the packed layout, over a dirty scratch: every
    /// slot no series owns holds NaN, so a kernel that let one reach a stored
    /// pair would show.
    fn pack(rows: &[Vec<f64>], len: usize) -> Vec<f64> {
        let mut packed = vec![f64::NAN; packed_len(rows.len(), len)];
        for (i, row) in rows.iter().enumerate() {
            for (slot, &v) in packed_lane_mut(&mut packed, i, len).zip(row) {
                *slot = v;
            }
        }
        packed
    }

    /// Advertises `workers` and runs the jobs inline: the grid varies where
    /// the triangle is split, not which thread runs a split.
    struct InlineSplit(usize);

    impl JobRunner for InlineSplit {
        fn worker_count(&self) -> usize {
            self.0
        }

        fn run<'env>(&self, jobs: Vec<Job<'env>>) {
            jobs.into_iter().for_each(|job| job());
        }
    }

    /// The oracle of both window kernels: `finish` of one left-to-right
    /// chain of `step`s per pair, in packed order.
    fn serial_chains(
        rows: &[Vec<f64>],
        step: impl Fn(f64, f64, f64) -> f64,
        finish: impl Fn(f64) -> f64,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        for (i, a) in rows.iter().enumerate() {
            for b in &rows[i + 1..] {
                let sum = a.iter().zip(b).fold(0.0, |sum, (&x, &y)| step(sum, x, y));
                out.push(finish(sum));
            }
        }
        out
    }

    /// `to_bits()` equality, any NaN equal to any NaN (which operand's
    /// payload survives `NaN − NaN` is the backend's choice).
    #[track_caller]
    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (p, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}, pair {p}: {g:e} vs {w:e}"
            );
        }
    }

    fn dist_sq(sum: f64, x: f64, y: f64) -> f64 {
        (x - y).mul_add(x - y, sum)
    }

    #[test]
    fn window_stats_matches_naive() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 8.0, -2.0];
        let s = WindowStats::from_values(&v);
        let (mean, std) = naive_stats(&v);
        assert!((s.mean - mean).abs() < 1e-12);
        assert!((s.std - std).abs() < 1e-12);
        assert_eq!(s.len, 7);
    }

    #[test]
    fn window_stats_handles_empty_and_singleton() {
        let e = WindowStats::from_values(&[]);
        assert_eq!(e.len, 0);
        assert_eq!(e.mean, 0.0);
        assert_eq!(e.std, 0.0);
        let s = WindowStats::from_values(&[42.0]);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std, 0.0);
        assert!(s.is_constant());
    }

    #[test]
    fn from_values_contract_table() {
        // The outputs of the Welford loop `from_values` ran before its
        // two-pass rewrite, recorded bit for bit (any NaN for NaN).
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let cases: [(&[f64], f64, f64); 17] = [
            (&[], 0.0, 0.0),
            (&[42.0], 42.0, 0.0),
            (&[0.1], 0.1, 0.0),
            (&[0.1; 120], 0.1, 0.0),
            (&[-3.7; 7], -3.7, 0.0),
            (&[300.25; 121], 300.25, 0.0),
            (&[nan], nan, 0.0),
            (&[1.0, nan, 3.0], nan, 0.0),
            (&[1.0, 2.0, nan], nan, 0.0),
            (&[inf], inf, 0.0),
            (&[1.0, inf, 3.0], nan, 0.0),
            (&[1.0, 2.0, inf], inf, 0.0),
            (&[-inf], -inf, 0.0),
            (&[1.0, -inf, 3.0], nan, 0.0),
            (&[1.0, 2.0, -inf], -inf, 0.0),
            (&[inf, inf], nan, 0.0),
            (&[inf, -inf], nan, 0.0),
        ];
        // The summed mean of 0.1 × 120 is not 0.1: a constant window's mean
        // is its point, not its sum over its length.
        assert_ne!([0.1; 120].iter().sum::<f64>() / 120.0, 0.1);
        for (values, mean, std) in cases {
            let s = WindowStats::from_values(values);
            assert_eq!(s.len, values.len());
            assert_same_bits(&[s.mean, s.std], &[mean, std], &format!("{values:?}"));
        }
    }

    /// Welford's running mean and population σ, the loop `from_values` ran
    /// before its two-pass rewrite: the accuracy yardstick.
    fn welford(values: &[f64]) -> (f64, f64) {
        let (mut mean, mut m2) = (0.0f64, 0.0f64);
        for (i, &v) in values.iter().enumerate() {
            let delta = v - mean;
            mean += delta / (i as f64 + 1.0);
            m2 += delta * (v - mean);
        }
        (mean, (m2 / values.len() as f64).max(0.0).sqrt())
    }

    #[test]
    fn from_values_is_at_least_as_accurate_as_welford_on_offset_data() {
        // x_t = 300 + k_t·2⁻²⁰ for integers k_t: every difference of two
        // points and every partial sum of them is exact, and the true mean
        // and variance are exact rationals from i128 arithmetic. Errors are
        // measured exactly for the mean (`(μ − 300)·2²⁰·n − Σk` is exact) and
        // against the correctly rounded root of the exact variance for σ.
        let step = 2f64.powi(-20);
        for (case, len) in [2usize, 7, 8, 9, 23, 120, 365, 1000, 4099]
            .into_iter()
            .enumerate()
        {
            let k: Vec<i64> = (0..len)
                .map(|t| ((t * 7919 + case * 104_729) % 1021) as i64 - 300)
                .collect();
            let x: Vec<f64> = k.iter().map(|&k| 300.0 + k as f64 * step).collect();
            let n = len as i128;
            let s1: i128 = k.iter().map(|&k| i128::from(k)).sum();
            let s2: i128 = k.iter().map(|&k| i128::from(k).pow(2)).sum();
            let true_std = ((n * s2 - s1 * s1) as f64).sqrt() / len as f64 * step;
            let errors = |(mean, std): (f64, f64)| {
                let mean_err = ((mean - 300.0) / step * len as f64 - s1 as f64).abs();
                [mean_err / len as f64, ((std - true_std) / true_std).abs()]
            };
            let s = WindowStats::from_values(&x);
            let (got, yardstick) = (errors((s.mean, s.std)), errors(welford(&x)));
            for m in 0..2 {
                assert!(
                    got[m] <= yardstick[m],
                    "len {len}: {got:?} vs Welford {yardstick:?}"
                );
            }
        }
    }

    #[test]
    fn sum_and_sum_of_squares_roundtrip() {
        let v = [3.0, -1.0, 4.0, 1.0, 5.0];
        let s = WindowStats::from_values(&v);
        let sum: f64 = v.iter().sum();
        let sq: f64 = v.iter().map(|x| x * x).sum();
        assert!((s.sum() - sum).abs() < 1e-10);
        assert!((s.sum_of_squares() - sq).abs() < 1e-10);
    }

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        let z = [4.0, 3.0, 2.0, 1.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_constant_series_is_zero() {
        let x = [1.0, 1.0, 1.0];
        let y = [1.0, 2.0, 3.0];
        assert_eq!(pearson(&x, &y), 0.0);
        assert_eq!(pearson(&y, &x), 0.0);
        assert_eq!(pearson(&x, &x), 0.0);
    }

    #[test]
    fn pearson_is_translation_and_scale_invariant() {
        let x = [1.0, 5.0, 2.0, 8.0, 3.0];
        let y = [2.0, 1.0, 7.0, 3.0, 9.0];
        let c0 = pearson(&x, &y);
        let xs: Vec<f64> = x.iter().map(|v| 3.0 * v + 100.0).collect();
        let ys: Vec<f64> = y.iter().map(|v| 0.5 * v - 7.0).collect();
        let c1 = pearson(&xs, &ys);
        assert!((c0 - c1).abs() < 1e-12);
        // Negative scaling flips the sign.
        let xn: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&xn, &y) + c0).abs() < 1e-12);
    }

    #[test]
    fn joint_stats_agrees_with_separate_computation() {
        let x = [9.0, 1.0, 4.0];
        let y = [2.0, 2.0, 5.0];
        let (sx, sy) = joint_stats(&x, &y);
        assert!((sx.mean - WindowStats::from_values(&x).mean).abs() < 1e-12);
        assert!((sy.std - WindowStats::from_values(&y).std).abs() < 1e-12);
    }

    #[test]
    fn covariance_matches_definition() {
        let x = [1.0, 2.0, 3.0];
        let y = [1.0, 3.0, 5.0];
        // mx=2, my=3, cov = ((-1)(-2) + 0 + (1)(2)) / 3 = 4/3
        assert!((covariance(&x, &y) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(covariance(&[], &[]), 0.0);
    }

    #[test]
    fn pair_corr_from_stats_is_bit_identical_to_pearson() {
        let x = [0.3, 1.7, -2.2, 5.0, 4.4, 0.0, 1.0];
        let y = [1.3, -0.7, 2.2, 3.0, -4.4, 2.0, 0.5];
        let sx = WindowStats::from_values(&x);
        let sy = WindowStats::from_values(&y);
        let fast = pair_corr_from_stats(&x, &y, &sx, &sy);
        assert_eq!(fast.to_bits(), pearson(&x, &y).to_bits());
        // Constant input keeps the 0.0 convention.
        let c = [2.0; 7];
        let sc = WindowStats::from_values(&c);
        assert_eq!(pair_corr_from_stats(&c, &y, &sc, &sy), 0.0);
        // Offset rows (Kelvin-like and far from zero, both signs) and hostile
        // ones (a zero row, NaN, ±∞), at lengths on and off the lane width.
        for len in [2usize, 7, 8, 23, 120] {
            let hostile = hostile_rows(13, len);
            let offset: Vec<Vec<f64>> = hostile[..5]
                .iter()
                .zip([300.0, -1e4, 273.15, 1e6, 0.0])
                .map(|(row, offset)| row.iter().map(|v| v + offset).collect())
                .collect();
            for rows in [&hostile, &offset] {
                for x in rows.iter() {
                    for y in rows.iter() {
                        let (sx, sy) = (WindowStats::from_values(x), WindowStats::from_values(y));
                        let fast = pair_corr_from_stats(x, y, &sx, &sy);
                        assert_same_bits(&[fast], &[pearson(x, y)], &format!("{x:?} {y:?}"));
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_pair_corrs_agree_with_scalar_reference() {
        // n = 7 leaves one partly filled panel, a 4-row tile and three single
        // rows; the odd window length has no role in the serial chain.
        let n = 7;
        let len = 23;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|s| {
                (0..len)
                    .map(|t| {
                        ((t * 3 + s * 7) % 11) as f64 * 0.7 - (s as f64) + (t as f64 * 0.21).sin()
                    })
                    .collect()
            })
            .collect();
        let stats: Vec<WindowStats> = rows.iter().map(|r| WindowStats::from_values(r)).collect();
        let mut z = vec![0.0f64; n * len];
        for (i, r) in rows.iter().enumerate() {
            normalize_into(r, &stats[i], &mut z[i * len..(i + 1) * len]);
        }
        let mut out = vec![0.0f64; n * (n - 1) / 2];
        tiled_pair_corrs_into(&z, n, len, &mut out);
        let mut p = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let reference = pair_corr_from_stats(&rows[i], &rows[j], &stats[i], &stats[j]);
                assert!(
                    (out[p] - reference).abs() <= 1e-10,
                    "pair ({i},{j}): {} vs {reference}",
                    out[p]
                );
                p += 1;
            }
        }
    }

    #[test]
    fn tiled_pair_dist_sq_agrees_with_scalar_reference() {
        let n = 7;
        let len = 23;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|s| {
                (0..len)
                    .map(|t| (s * len + t) as f64)
                    .map(|k| (k * 13.0 + 5.0) % 19.0 * 0.31 - (k * 0.17).cos())
                    .collect()
            })
            .collect();
        let mut out = vec![0.0f64; n * (n - 1) / 2];
        tiled_pair_dist_sq_in(&SerialRunner, &pack(&rows, len), n, len, &mut out);
        let mut p = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let reference: f64 = rows[i]
                    .iter()
                    .zip(&rows[j])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                assert!(
                    (out[p] - reference).abs() <= 1e-12 * reference.max(1.0),
                    "pair ({i},{j}): {} vs {reference}",
                    out[p]
                );
                p += 1;
            }
        }
        // Identical rows have exactly zero distance (no cancellation noise).
        let two = pack(&[vec![1.5, -2.25, 3.0], vec![1.5, -2.25, 3.0]], 3);
        let mut d = vec![9.0f64; 1];
        tiled_pair_dist_sq_in(&SerialRunner, &two, 2, 3, &mut d);
        assert_eq!(d, vec![0.0]);
        // Zero-length rows keep the 0.0 convention, for both kernels.
        let mut empty_out = vec![9.0f64; 1];
        tiled_pair_dist_sq_in(&SerialRunner, &[], 2, 0, &mut empty_out);
        assert_eq!(empty_out, vec![0.0]);
        empty_out.fill(9.0);
        tiled_pair_corrs_into(&[], 2, 0, &mut empty_out);
        assert_eq!(empty_out, vec![0.0]);
    }

    /// `n` rows of `len` values with what a window can hold besides finite
    /// data: an all-zero row (a normalized constant window), NaN, +∞ and −∞
    /// (so `∞·0`, `∞ − ∞` and NaN chains all occur).
    fn hostile_rows(n: usize, len: usize) -> Vec<Vec<f64>> {
        let mut rows: Vec<Vec<f64>> = (0..n)
            .map(|s| {
                (0..len)
                    .map(|t| ((t * 3 + s * 7) % 11) as f64 * 0.7 - 3.1 + (t as f64 * 0.21).sin())
                    .collect()
            })
            .collect();
        let plant = |rows: &mut Vec<Vec<f64>>, s: usize, t: usize, v: f64| {
            if let Some(slot) = rows.get_mut(s).and_then(|row| row.get_mut(t)) {
                *slot = v;
            }
        };
        if let Some(row) = rows.get_mut(3) {
            row.fill(0.0);
        }
        plant(&mut rows, 5, 1, f64::NAN);
        plant(&mut rows, 6, 0, f64::INFINITY);
        plant(&mut rows, 10, len.saturating_sub(1), f64::NEG_INFINITY);
        plant(&mut rows, 12, 2, f64::INFINITY);
        rows
    }

    #[test]
    fn every_pair_is_its_serial_chain_bit_for_bit() {
        // Both terms, every panel fill around one / two / four / eight
        // panels, every split a runner can ask for and row ranges starting at
        // every lane: a pair's bits are those of the obvious serial loop.
        for n in (0..=21).chain([31, 32, 33, 65]) {
            for len in [0usize, 1, 2, 3, 23, 120] {
                let rows = hostile_rows(n, len);
                let packed = pack(&rows, len);
                let inv = 1.0 / len as f64;
                let corr = move |sum: f64| clamp_corr(sum * inv);
                let want_corr = serial_chains(&rows, dot, corr);
                let want_sq = serial_chains(&rows, dist_sq, |sum| sum);
                let pairs = n * n.saturating_sub(1) / 2;
                assert_eq!(want_corr.len(), pairs);
                let mut got = vec![9.0f64; pairs];
                for workers in [1usize, 2, 3, 8, 40] {
                    let what = format!("n={n} len={len} workers={workers}");
                    corrs_of_packed(&InlineSplit(workers), &packed, n, len, &mut got);
                    assert_same_bits(&got, &want_corr, &what);
                    got.fill(9.0);
                    tiled_pair_dist_sq_in(&InlineSplit(workers), &packed, n, len, &mut got);
                    assert_same_bits(&got, &want_sq, &what);
                    got.fill(9.0);
                }
                let row_offset = |i: usize| i * n - i * (i + 1) / 2;
                for start in 0..n.min(17) {
                    for end in [start + 1, start + 5, start + 11, n] {
                        let end = end.min(n);
                        let what = format!("n={n} len={len} rows {start}..{end}");
                        let slots = row_offset(start)..row_offset(end);
                        let got = &mut got[slots.clone()];
                        packed_rows_into(&packed, n, len, start..end, got, dot, corr);
                        assert_same_bits(got, &want_corr[slots.clone()], &what);
                        got.fill(9.0);
                        packed_rows_into(&packed, n, len, start..end, got, dist_sq, |sum| sum);
                        assert_same_bits(got, &want_sq[slots], &what);
                        got.fill(9.0);
                    }
                }
            }
        }
    }

    #[test]
    fn zmm_and_portable_tiles_are_the_serial_chain_bit_for_bit() {
        // The two spellings of the dot step, each called directly: every
        // row range a caller makes (whole triangles, runs starting off an 8-
        // and a 4-row boundary, the 4-row groups `PartialCorrs` mints, the
        // splits of 1, 3 and 8 workers) over values holding NaN and ±∞, with
        // NaN in every lane no series owns; then over sums that reach every
        // branch of the finish the `zmm` tile runs in registers (NaN to
        // `+0.0`, `±∞` and `|c| > 1` to `±1`, `±0.0` kept with its sign).
        let zmm = Zmm::detect();
        if zmm.is_none() {
            // Straight to the process's stderr: libtest would capture
            // `eprintln!` of a passing test.
            let note =
                "stats: this CPU lacks avx512f, so the zmm half of the tile grid did not run\n";
            std::io::Write::write_all(&mut std::io::stderr(), note.as_bytes()).expect("stderr");
        }
        // [NaN, ±∞, finite past ±1, −0.0, +0.0]: the finished values
        // `sum · 1/len` of the clamp grid's serial chains.
        let hits = std::cell::Cell::new([0usize; 5]);
        let hostile = (hostile_rows as fn(usize, usize) -> Vec<Vec<f64>>, false);
        let grids = [
            (
                hostile,
                &[1usize, 2, 7, 8, 9, 15, 16, 17, 24, 33, 65][..],
                &[0usize, 1, 3, 120][..],
            ),
            (
                (clamp_rows, true),
                &[1, 2, 7, 8, 9, 15, 16, 17, 33],
                &[1, 8, 120],
            ),
        ];
        for ((rows_of, count), ns, lens) in grids {
            for (&n, &len) in ns.iter().flat_map(|n| lens.iter().map(move |len| (n, len))) {
                let rows = rows_of(n, len);
                let packed = pack(&rows, len);
                let inv = 1.0 / len as f64;
                let corr = move |sum: f64| clamp_corr(sum * inv);
                let want = serial_chains(&rows, dot, |sum| {
                    let c = sum * inv;
                    let branch = [
                        c.is_nan(),
                        c.is_infinite(),
                        c.is_finite() && c.abs() > 1.0,
                        c == 0.0 && c.is_sign_negative(),
                        c == 0.0 && c.is_sign_positive(),
                    ];
                    if let (true, Some(k)) = (count, branch.iter().position(|&b| b)) {
                        let mut seen = hits.get();
                        seen[k] += 1;
                        hits.set(seen);
                    }
                    corr(sum)
                });
                let mut got = vec![9.0f64; want.len()];
                let mut check =
                    |what: &str, rows_into: &(dyn Fn(Range<usize>, &mut [f64]) + Sync)| {
                        let row_offset = |i: usize| i * n - i * (i + 1) / 2;
                        let mints = (0..n).step_by(TILE_ROWS).map(|g| g..(g + TILE_ROWS).min(n));
                        let runs = [0..n, 1..n, 3..n, 4..n, 5..n.min(13), 9..n, 12..n.min(23)];
                        for rows in mints.chain(runs).filter(|rows| rows.start < rows.end) {
                            let slots = row_offset(rows.start)..row_offset(rows.end);
                            let what = format!("{what} n={n} len={len} rows {rows:?}");
                            rows_into(rows, &mut got[slots.clone()]);
                            assert_same_bits(&got[slots.clone()], &want[slots], &what);
                            got.fill(9.0);
                        }
                        for workers in [1usize, 3, 8] {
                            let what = format!("{what} n={n} len={len} workers={workers}");
                            sweep_triangle_rows(n, &InlineSplit(workers), &mut got, rows_into);
                            assert_same_bits(&got, &want, &what);
                            got.fill(9.0);
                        }
                    };
                check("portable", &|rows, out| {
                    packed_rows_into(&packed, n, len, rows, out, dot, corr)
                });
                if let Some(zmm) = zmm {
                    check("zmm", &|rows, out| {
                        zmm_rows_into(zmm, &packed, n, len, rows, out, inv)
                    });
                }
            }
        }
        let hits = hits.get();
        assert!(
            hits.iter().all(|&hit| hit > 0),
            "clamp branches hit: {hits:?}"
        );
    }

    /// `n` rows of `len` values whose dot products reach every branch of
    /// [`clamp_corr`] after the `· 1/len` finish, series `s` of kind
    /// `s % 10`: `±(1 + 2⁻³⁰)` (finite sums just past `±len`, so `|c| > 1`
    /// after rounding), `±10²⁰⁰` (products past the `f64` range, `±∞`), the
    /// two alternating (`∞ − ∞`, NaN), `±10⁻²⁰⁰` (products that underflow to
    /// `±0.0`, so chains that end in `−0.0` or `+0.0`), a NaN point, zeros
    /// and ordinary values.
    fn clamp_rows(n: usize, len: usize) -> Vec<Vec<f64>> {
        let big = 1e200;
        let over = 1.0 + 2f64.powi(-30);
        (0..n)
            .map(|s| {
                (0..len)
                    .map(|t| match s % 10 {
                        0 => over,
                        1 => -over,
                        2 => big,
                        3 => -big,
                        4 if t % 2 == 0 => big,
                        4 => -big,
                        5 => 1e-200,
                        6 => -1e-200,
                        7 if t == 0 => f64::NAN,
                        7 => 0.5,
                        8 => 0.0,
                        _ => (t as f64 * 0.37 + s as f64).sin(),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn window_kernels_write_the_same_bits_for_any_worker_count() {
        // From raw windows this time, on real threads: normalization into the
        // panel lanes is `normalize_into`'s, and the row is the serial chain
        // over those z-scores whoever runs which rows — also with more
        // workers than rows, no pairs at all, a constant series and a scratch
        // left over from a larger window.
        for n in [0usize, 1, 2, 7, 13, 33] {
            let len = 23;
            let window: Vec<Vec<f64>> = (0..n)
                .map(|s| {
                    (0..len)
                        .map(|t| match s {
                            4 => 2.5,
                            _ => ((t * 3 + s * 7) % 11) as f64 * 0.7 + (t as f64 * 0.21).sin(),
                        })
                        .collect()
                })
                .collect();
            let stats: Vec<WindowStats> =
                window.iter().map(|r| WindowStats::from_values(r)).collect();
            let z_rows: Vec<Vec<f64>> = window
                .iter()
                .zip(&stats)
                .map(|(points, stats)| {
                    let mut z = vec![9.0; len];
                    normalize_into(points, stats, &mut z);
                    z
                })
                .collect();
            let inv = 1.0 / len as f64;
            let want = serial_chains(&z_rows, dot, |sum| clamp_corr(sum * inv));
            let want_sq = serial_chains(&z_rows, dist_sq, |sum| sum);
            let pairs = want.len();

            let mut direct = vec![9.0f64; pairs];
            tiled_pair_corrs_into(&z_rows.concat(), n, len, &mut direct);
            assert_same_bits(&direct, &want, &format!("row-major n={n}"));

            let mut z = vec![f64::NAN; 40 * len];
            let packed = pack(&z_rows, len);
            for workers in [1usize, 2, 3, 8, 40] {
                let runner = ScopedRunner::new(workers);
                let what = format!("n={n} workers={workers}");
                let mut pooled = vec![9.0f64; pairs];
                window_corrs_into(&window, &stats, &runner, &mut z, &mut pooled);
                assert_same_bits(&pooled, &want, &what);
                assert_eq!(z.len(), packed_len(n, len));
                tiled_pair_dist_sq_in(&runner, &packed, n, len, &mut pooled);
                assert_same_bits(&pooled, &want_sq, &what);
            }
        }
    }

    #[test]
    fn normalize_into_zeroes_constant_windows() {
        let constant = [4.0; 9];
        let stats = WindowStats::from_values(&constant);
        let mut z = [9.9; 9];
        normalize_into(&constant, &stats, &mut z);
        assert_eq!(z, [0.0; 9]);
    }

    #[test]
    fn clamp_corr_behaviour() {
        assert_eq!(clamp_corr(1.0000001), 1.0);
        assert_eq!(clamp_corr(-1.5), -1.0);
        assert_eq!(clamp_corr(f64::NAN), 0.0);
        assert_eq!(clamp_corr(0.3), 0.3);
    }

    #[test]
    #[should_panic(expected = "equally long")]
    fn pearson_panics_on_length_mismatch() {
        pearson(&[1.0, 2.0], &[1.0]);
    }

    proptest! {
        #[test]
        fn prop_pearson_bounded(
            x in proptest::collection::vec(-1e6f64..1e6, 2..200),
            y in proptest::collection::vec(-1e6f64..1e6, 2..200),
        ) {
            let n = x.len().min(y.len());
            let c = pearson(&x[..n], &y[..n]);
            prop_assert!((-1.0..=1.0).contains(&c));
        }

        #[test]
        fn prop_pearson_symmetric(
            x in proptest::collection::vec(-1e3f64..1e3, 2..100),
            y in proptest::collection::vec(-1e3f64..1e3, 2..100),
        ) {
            let n = x.len().min(y.len());
            let a = pearson(&x[..n], &y[..n]);
            let b = pearson(&y[..n], &x[..n]);
            prop_assert!((a - b).abs() < 1e-10);
        }

        #[test]
        fn prop_self_correlation_is_one(
            x in proptest::collection::vec(-1e3f64..1e3, 3..100),
        ) {
            let s = WindowStats::from_values(&x);
            prop_assume!(s.std > 1e-9);
            let c = pearson(&x, &x);
            prop_assert!((c - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_welford_matches_naive(
            x in proptest::collection::vec(-1e5f64..1e5, 1..300),
        ) {
            let s = WindowStats::from_values(&x);
            let n = x.len() as f64;
            let mean = x.iter().sum::<f64>() / n;
            let var = x.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
            prop_assert!((s.mean - mean).abs() < 1e-6);
            prop_assert!((s.std - var.sqrt()).abs() < 1e-6);
        }
    }
}
