//! Per-window summary statistics and Pearson correlation primitives.
//!
//! Everything in TSUBASA reduces to three numbers per basic window and series
//! (length, mean, standard deviation) plus one number per basic window and
//! pair (the within-window Pearson correlation). This module computes those
//! statistics in a single pass and defines the numerical conventions used by
//! the rest of the workspace:
//!
//! * standard deviations are *population* (1/N) standard deviations — this is
//!   what makes the Lemma 1 recombination exact;
//! * the Pearson correlation of a window with zero variance in either input
//!   is defined as `0.0` (the covariance term vanishes; the mean-offset terms
//!   of Lemma 1 still carry the information that is recoverable).

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::runner::{Job, JobRunner};

/// Summary statistics of one window of one series: the per-basic-window
/// sketch entry stored by Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    /// Compute the statistics of one window in a single pass.
    ///
    /// Uses Welford's algorithm so that very long windows with large means do
    /// not lose precision to catastrophic cancellation.
    pub fn from_values(values: &[f64]) -> Self {
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        for (i, &v) in values.iter().enumerate() {
            let delta = v - mean;
            mean += delta / (i as f64 + 1.0);
            m2 += delta * (v - mean);
        }
        let len = values.len();
        let std = if len == 0 {
            0.0
        } else {
            (m2 / len as f64).max(0.0).sqrt()
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

/// Joint statistics of one pair of aligned windows: the per-pair sketch entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairWindowStats {
    /// Pearson correlation of the two windows (0.0 when either is constant).
    pub corr: f64,
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

/// One-pass computation of the window statistics of two aligned windows.
/// Slightly cheaper than two separate [`WindowStats::from_values`] calls
/// because the loop is shared; used on the hot sketching path.
pub fn joint_stats(x: &[f64], y: &[f64]) -> (WindowStats, WindowStats) {
    debug_assert_eq!(x.len(), y.len());
    let mut mean_x = 0.0f64;
    let mut m2_x = 0.0f64;
    let mut mean_y = 0.0f64;
    let mut m2_y = 0.0f64;
    for i in 0..x.len() {
        let k = i as f64 + 1.0;
        let dx = x[i] - mean_x;
        mean_x += dx / k;
        m2_x += dx * (x[i] - mean_x);
        let dy = y[i] - mean_y;
        mean_y += dy / k;
        m2_y += dy * (y[i] - mean_y);
    }
    let n = x.len();
    let nf = n as f64;
    let std_x = if n == 0 {
        0.0
    } else {
        (m2_x / nf).max(0.0).sqrt()
    };
    let std_y = if n == 0 {
        0.0
    } else {
        (m2_y / nf).max(0.0).sqrt()
    };
    (
        WindowStats {
            len: n,
            mean: mean_x,
            std: std_x,
        },
        WindowStats {
            len: n,
            mean: mean_y,
            std: std_y,
        },
    )
}

/// Compute both window statistics and the Pearson correlation of a pair of
/// aligned windows in a single fused pass — the workhorse of Algorithm 1 and
/// of partial-window handling at query time.
pub fn sketch_pair(x: &[f64], y: &[f64]) -> (WindowStats, WindowStats, f64) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let mut mean_x = 0.0f64;
    let mut m2_x = 0.0f64;
    let mut mean_y = 0.0f64;
    let mut m2_y = 0.0f64;
    let mut cov = 0.0f64;
    for i in 0..n {
        let k = i as f64 + 1.0;
        let dx = x[i] - mean_x;
        mean_x += dx / k;
        let dy = y[i] - mean_y;
        mean_y += dy / k;
        m2_x += dx * (x[i] - mean_x);
        m2_y += dy * (y[i] - mean_y);
        // Co-moment update (Welford-style covariance).
        cov += dx * (y[i] - mean_y);
    }
    let nf = n as f64;
    let (std_x, std_y, corr) = if n == 0 {
        (0.0, 0.0, 0.0)
    } else {
        let var_x = (m2_x / nf).max(0.0);
        let var_y = (m2_y / nf).max(0.0);
        let std_x = var_x.sqrt();
        let std_y = var_y.sqrt();
        let corr = if std_x == 0.0 || std_y == 0.0 {
            0.0
        } else {
            clamp_corr((cov / nf) / (std_x * std_y))
        };
        (std_x, std_y, corr)
    };
    (
        WindowStats {
            len: n,
            mean: mean_x,
            std: std_x,
        },
        WindowStats {
            len: n,
            mean: mean_y,
            std: std_y,
        },
        corr,
    )
}

/// Pearson correlation of two aligned windows whose per-series statistics
/// have already been computed.
///
/// This is the hot-path sibling of [`sketch_pair`] used wherever per-series
/// window statistics are shared across many pairs (sketching all `N(N−1)/2`
/// pairs, streaming ingestion): instead of re-running the full Welford pass
/// per pair, only the centered cross-product `Σ (x_t − x̄)(y_t − ȳ)` remains
/// to be computed — one multiply-add per point instead of two divisions and
/// five multiply-adds.
///
/// The result is bit-identical to [`pearson`] when `sx`/`sy` were produced by
/// [`WindowStats::from_values`] (or the per-series half of [`sketch_pair`] /
/// [`joint_stats`]) over the same slices, because `pearson` centers with the
/// same Welford means.
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

/// Write the z-scores of one window into `out`: `z_t = (x_t − μ) / σ` under
/// the window's precomputed statistics.
///
/// This is the normalization step of the tiled batch kernels: once every
/// window of every series is normalized, the Pearson correlation of any
/// aligned window pair collapses to a plain dot product
/// (`corr = Σ z_x z_y / B`), which [`tiled_pair_corrs_into`] evaluates with
/// multiple independent accumulators so the backend can vectorize it.
///
/// A constant window (`σ = 0`) normalizes to an all-zero row, so downstream
/// dot products yield the `0.0`-correlation convention of [`pearson`] with no
/// per-pair branching.
pub fn normalize_into(values: &[f64], stats: &WindowStats, out: &mut [f64]) {
    debug_assert_eq!(values.len(), out.len());
    debug_assert_eq!(values.len(), stats.len);
    if stats.std == 0.0 {
        out.fill(0.0);
        return;
    }
    let inv = 1.0 / stats.std;
    for (slot, &v) in out.iter_mut().zip(values) {
        *slot = (v - stats.mean) * inv;
    }
}

/// Dot product with four independent accumulator lanes.
///
/// The reference correlation loops ([`pearson`], [`pair_corr_from_stats`])
/// accumulate into a single variable, which chains every addition behind the
/// previous one; the four lanes here are independent, so the compiler can
/// keep several floating-point additions in flight (and pack lanes into SIMD
/// registers). Splitting the sum reorders the additions — callers get the
/// tolerance contract of the tiled kernels, not bit-equality with the
/// reference path.
#[inline]
pub(crate) fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let octs = a.len() / 8 * 8;
    // Eight lanes: two 4-wide AVX accumulator chains (or four 2-wide SSE2
    // chains at the baseline), enough independence to cover the FP-add
    // latency either way.
    let mut acc = [0.0f64; 8];
    for (ca, cb) in a[..octs].chunks_exact(8).zip(b[..octs].chunks_exact(8)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
        acc[4] += ca[4] * cb[4];
        acc[5] += ca[5] * cb[5];
        acc[6] += ca[6] * cb[6];
        acc[7] += ca[7] * cb[7];
    }
    let mut tail = 0.0;
    for (x, y) in a[octs..].iter().zip(&b[octs..]) {
        tail += x * y;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// Pearson correlation of two windows given their *normalized* (z-scored)
/// values: `clamp(Σ z_x z_y / B)`. Rows produced by [`normalize_into`] for
/// constant windows are all zero, so the convention `corr = 0.0` falls out of
/// the arithmetic.
#[inline]
pub fn normalized_dot_corr(zx: &[f64], zy: &[f64]) -> f64 {
    debug_assert_eq!(zx.len(), zy.len());
    if zx.is_empty() {
        return 0.0;
    }
    clamp_corr(dot_unrolled(zx, zy) / zx.len() as f64)
}

/// One row against a tile of four rows: four dot products sharing every load
/// of `a`, each with two independent accumulator lanes. This is the inner
/// kernel of the `Z·Zᵀ` sweep — the 1×4 tile quarters the loop overhead and
/// the `a`-traffic of four separate [`dot_unrolled`] calls.
#[inline]
fn dot_1x4(a: &[f64], b0: &[f64], b1: &[f64], b2: &[f64], b3: &[f64]) -> [f64; 4] {
    let len = a.len();
    // Re-slice to the shared length so the optimizer can prove every access
    // below in-bounds (and vectorize) instead of checking per element.
    let (b0, b1, b2, b3) = (&b0[..len], &b1[..len], &b2[..len], &b3[..len]);
    let pairs = len / 2 * 2;
    let mut acc = [[0.0f64; 2]; 4];
    let mut t = 0;
    while t < pairs {
        let a0 = a[t];
        let a1 = a[t + 1];
        acc[0][0] += a0 * b0[t];
        acc[0][1] += a1 * b0[t + 1];
        acc[1][0] += a0 * b1[t];
        acc[1][1] += a1 * b1[t + 1];
        acc[2][0] += a0 * b2[t];
        acc[2][1] += a1 * b2[t + 1];
        acc[3][0] += a0 * b3[t];
        acc[3][1] += a1 * b3[t + 1];
        t += 2;
    }
    if pairs < len {
        let a0 = a[pairs];
        acc[0][0] += a0 * b0[pairs];
        acc[1][0] += a0 * b1[pairs];
        acc[2][0] += a0 * b2[pairs];
        acc[3][0] += a0 * b3[pairs];
    }
    [
        acc[0][0] + acc[0][1],
        acc[1][0] + acc[1][1],
        acc[2][0] + acc[2][1],
        acc[3][0] + acc[3][1],
    ]
}

/// Squared-difference sum with eight independent accumulator lanes — the
/// distance sibling of [`dot_unrolled`]. Every term is non-negative, so
/// reordering the accumulation across lanes never cancels; agreement with a
/// serial left-to-right sum is at the last-ulp level.
#[inline]
fn dist_sq_unrolled(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let octs = a.len() / 8 * 8;
    let mut acc = [0.0f64; 8];
    for (ca, cb) in a[..octs].chunks_exact(8).zip(b[..octs].chunks_exact(8)) {
        for lane in 0..8 {
            let d = ca[lane] - cb[lane];
            acc[lane] += d * d;
        }
    }
    let mut tail = 0.0;
    for (x, y) in a[octs..].iter().zip(&b[octs..]) {
        let d = x - y;
        tail += d * d;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// One row against a tile of four rows: four squared Euclidean distances
/// sharing every load of `a` — the distance sibling of [`dot_1x4`], used by
/// the DFT comparator's coefficient-distance sweep.
#[inline]
fn dist_sq_1x4(a: &[f64], b0: &[f64], b1: &[f64], b2: &[f64], b3: &[f64]) -> [f64; 4] {
    let len = a.len();
    let (b0, b1, b2, b3) = (&b0[..len], &b1[..len], &b2[..len], &b3[..len]);
    let pairs = len / 2 * 2;
    let mut acc = [[0.0f64; 2]; 4];
    let mut t = 0;
    while t < pairs {
        let a0 = a[t];
        let a1 = a[t + 1];
        let d00 = a0 - b0[t];
        let d01 = a1 - b0[t + 1];
        acc[0][0] += d00 * d00;
        acc[0][1] += d01 * d01;
        let d10 = a0 - b1[t];
        let d11 = a1 - b1[t + 1];
        acc[1][0] += d10 * d10;
        acc[1][1] += d11 * d11;
        let d20 = a0 - b2[t];
        let d21 = a1 - b2[t + 1];
        acc[2][0] += d20 * d20;
        acc[2][1] += d21 * d21;
        let d30 = a0 - b3[t];
        let d31 = a1 - b3[t + 1];
        acc[3][0] += d30 * d30;
        acc[3][1] += d31 * d31;
        t += 2;
    }
    if pairs < len {
        let a0 = a[pairs];
        let d0 = a0 - b0[pairs];
        let d1 = a0 - b1[pairs];
        let d2 = a0 - b2[pairs];
        let d3 = a0 - b3[pairs];
        acc[0][0] += d0 * d0;
        acc[1][0] += d1 * d1;
        acc[2][0] += d2 * d2;
        acc[3][0] += d3 * d3;
    }
    [
        acc[0][0] + acc[0][1],
        acc[1][0] + acc[1][1],
        acc[2][0] + acc[2][1],
        acc[3][0] + acc[3][1],
    ]
}

/// All-pairs squared Euclidean distances from a block of contiguous rows: the
/// distance-flavoured generalization of [`tiled_pair_corrs_into`], used by the
/// DFT comparator's coefficient-distance sweep.
///
/// `rows` holds `n` rows of `len` values each, contiguous per row
/// (`rows[i·len .. (i+1)·len]` is row `i`); `out` receives the `n(n−1)/2`
/// squared distances `‖r_i − r_j‖²` in packed upper-triangle order
/// ([`crate::sketch::pair_index`]). The sweep walks row `i` against 1×4 tiles
/// of later rows (same shape as the `Z·Zᵀ` sweep) so `r_i` stays cache-hot
/// while the tile rows stream past, fanned out over `runner` by whole
/// triangle rows (see [`window_corrs_into`]).
///
/// Unlike the correlation kernel there is no per-element normalization or
/// clamping, and every accumulated term is non-negative, so lane reordering
/// cannot cancel: agreement with a serial difference-square sum is at the
/// last-ulp level (the ≤ `1e-10` contract of the tiled suites holds with a
/// wide margin).
pub fn tiled_pair_dist_sq_in(
    runner: &dyn JobRunner,
    rows: &[f64],
    n: usize,
    len: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(rows.len(), n * len);
    debug_assert_eq!(out.len(), n * n.saturating_sub(1) / 2);
    if len == 0 {
        out.fill(0.0);
        return;
    }
    let row = |r: usize| &rows[r * len..(r + 1) * len];
    sweep_triangle_rows(n, runner, out, |triangle_rows, out| {
        let mut p = 0;
        for i in triangle_rows {
            let ri = row(i);
            let mut j = i + 1;
            while j + 4 <= n {
                let d = dist_sq_1x4(ri, row(j), row(j + 1), row(j + 2), row(j + 3));
                out[p..p + 4].copy_from_slice(&d);
                p += 4;
                j += 4;
            }
            while j < n {
                out[p] = dist_sq_unrolled(ri, row(j));
                p += 1;
                j += 1;
            }
        }
    });
}

/// All-pairs window correlations from a block of normalized series rows: the
/// tiled `Z·Zᵀ` kernel of the batch sketching path.
///
/// `z` holds `n` normalized rows of `len` points each, contiguous per series
/// (`z[i·len .. (i+1)·len]` is series `i`, as filled by [`normalize_into`]);
/// `out` receives the `n(n−1)/2` correlations of the window in packed
/// upper-triangle order ([`crate::sketch::pair_index`]).
///
/// The sweep walks row `i` against 1×4 tiles of later rows, so `z_i` stays
/// cache-hot (and is loaded once per tile instead of once per pair) while
/// the tile rows stream past; the remainder pairs fall back to the single
/// unrolled dot. Agreement with the scalar reference
/// ([`pair_corr_from_stats`] over the raw window) is within `1e-10`
/// absolute, pinned by the `tiled_kernel_agreement` property suite.
pub fn tiled_pair_corrs_into(z: &[f64], n: usize, len: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len(), n * n.saturating_sub(1) / 2);
    pair_corr_rows(z, n, len, 0..n, out);
}

/// Triangle rows `rows` of [`tiled_pair_corrs_into`]: the correlations of
/// every pair `(i, j)`, `i ∈ rows`, `i < j < n`, into `out`. The 1×4 grouping
/// restarts on every row `i`, so any split into whole rows writes the bits
/// the full sweep writes.
fn pair_corr_rows(z: &[f64], n: usize, len: usize, rows: Range<usize>, out: &mut [f64]) {
    debug_assert_eq!(z.len(), n * len);
    if len == 0 {
        out.fill(0.0);
        return;
    }
    let inv = 1.0 / len as f64;
    let row = |r: usize| &z[r * len..(r + 1) * len];
    let mut p = 0;
    for i in rows {
        let zi = row(i);
        let mut j = i + 1;
        while j + 4 <= n {
            let d = dot_1x4(zi, row(j), row(j + 1), row(j + 2), row(j + 3));
            out[p] = clamp_corr(d[0] * inv);
            out[p + 1] = clamp_corr(d[1] * inv);
            out[p + 2] = clamp_corr(d[2] * inv);
            out[p + 3] = clamp_corr(d[3] * inv);
            p += 4;
            j += 4;
        }
        while j < n {
            out[p] = clamp_corr(dot_unrolled(zi, row(j)) * inv);
            p += 1;
            j += 1;
        }
    }
}

/// Run `rows_into(rows, slice)` over the packed triangle `out` of `n` series,
/// split into one run of whole triangle rows per worker of `runner` (pair
/// counts as even as whole rows allow); a single worker runs it inline over
/// `0..n`. A run never starts inside a row: the tiled kernels group pairs
/// 1×4 from the start of each row, so a mid-row split would change last bits.
fn sweep_triangle_rows(
    n: usize,
    runner: &dyn JobRunner,
    out: &mut [f64],
    rows_into: impl Fn(Range<usize>, &mut [f64]) + Sync,
) {
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
/// statistics. Every series is z-normalized into the scratch `z` (resized to
/// `n × B` and reusable across windows), then the row is the tiled `Z·Zᵀ`
/// sweep of [`tiled_pair_corrs_into`], fanned out over `runner` by whole
/// triangle rows. Every site that sketches a window calls this — batch build,
/// arriving window, epoch ingest, sliding tick, pile sketching — so a row's
/// bits do not depend on who minted it or on the worker count.
pub fn window_corrs_into<S: AsRef<[f64]>>(
    window: &[S],
    stats: &[WindowStats],
    runner: &dyn JobRunner,
    z: &mut Vec<f64>,
    out: &mut [f64],
) {
    let n = window.len();
    let b = window.first().map_or(0, |points| points.as_ref().len());
    debug_assert_eq!(out.len(), n * n.saturating_sub(1) / 2);
    z.resize(n * b, 0.0);
    for ((points, stats), row) in window.iter().zip(stats).zip(z.chunks_exact_mut(b.max(1))) {
        normalize_into(points.as_ref(), stats, row);
    }
    let z = z.as_slice();
    sweep_triangle_rows(n, runner, out, |rows, out| {
        pair_corr_rows(z, n, b, rows, out)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ScopedRunner, SerialRunner};
    use proptest::prelude::*;

    fn naive_stats(values: &[f64]) -> (f64, f64) {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
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
    fn sketch_pair_agrees_with_separate_computation() {
        let x = [0.3, 1.7, -2.2, 5.0, 4.4, 0.0, 1.0];
        let y = [1.3, -0.7, 2.2, 3.0, -4.4, 2.0, 0.5];
        let (sx, sy, c) = sketch_pair(&x, &y);
        let ex = WindowStats::from_values(&x);
        let ey = WindowStats::from_values(&y);
        assert!((sx.mean - ex.mean).abs() < 1e-12);
        assert!((sy.std - ey.std).abs() < 1e-12);
        assert!((c - pearson(&x, &y)).abs() < 1e-12);
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
    }

    #[test]
    fn tiled_pair_corrs_agree_with_scalar_reference() {
        // n = 7 exercises both the 1×4 tile and the remainder path; odd
        // window length exercises the odd-element tail of the kernels.
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
        // n = 7 exercises the 1×4 tile and the remainder path; odd row
        // length exercises the odd-element tail of both kernels.
        let n = 7;
        let len = 23;
        let rows: Vec<f64> = (0..n * len)
            .map(|t| ((t * 13 + 5) % 19) as f64 * 0.31 - (t as f64 * 0.17).cos())
            .collect();
        let mut out = vec![0.0f64; n * (n - 1) / 2];
        tiled_pair_dist_sq_in(&SerialRunner, &rows, n, len, &mut out);
        let mut p = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let reference: f64 = rows[i * len..(i + 1) * len]
                    .iter()
                    .zip(&rows[j * len..(j + 1) * len])
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
        let two = [1.5, -2.25, 3.0, 1.5, -2.25, 3.0];
        let mut d = vec![9.0f64; 1];
        tiled_pair_dist_sq_in(&SerialRunner, &two, 2, 3, &mut d);
        assert_eq!(d, vec![0.0]);
        // Zero-length rows keep the 0.0 convention.
        let mut empty_out = vec![9.0f64; 1];
        tiled_pair_dist_sq_in(&SerialRunner, &[], 2, 0, &mut empty_out);
        assert_eq!(empty_out, vec![0.0]);
    }

    #[test]
    fn window_kernels_write_the_same_bits_for_any_worker_count() {
        // Splits fall on whole triangle rows only, so the 1×4 grouping — and
        // with it every last bit — is the serial sweep's, also when there are
        // more workers than rows or no pairs at all.
        for n in [0usize, 1, 2, 7, 13] {
            let len = 23;
            let window: Vec<Vec<f64>> = (0..n)
                .map(|s| {
                    (0..len)
                        .map(|t| ((t * 3 + s * 7) % 11) as f64 * 0.7 + (t as f64 * 0.21).sin())
                        .collect()
                })
                .collect();
            let stats: Vec<WindowStats> =
                window.iter().map(|r| WindowStats::from_values(r)).collect();
            let pairs = n * n.saturating_sub(1) / 2;
            let (mut z, mut serial) = (Vec::new(), vec![9.0f64; pairs]);
            window_corrs_into(&window, &stats, &SerialRunner, &mut z, &mut serial);
            let mut direct = vec![9.0f64; pairs];
            tiled_pair_corrs_into(&z, n, len, &mut direct);
            assert_eq!(serial, direct);
            let mut serial_sq = vec![9.0f64; pairs];
            tiled_pair_dist_sq_in(&SerialRunner, &z, n, len, &mut serial_sq);
            for workers in [2usize, 3, 8, 40] {
                let runner = ScopedRunner::new(workers);
                let mut pooled = vec![9.0f64; pairs];
                window_corrs_into(&window, &stats, &runner, &mut z, &mut pooled);
                assert_eq!(pooled, serial, "corrs n={n} workers={workers}");
                tiled_pair_dist_sq_in(&runner, &z, n, len, &mut pooled);
                assert_eq!(pooled, serial_sq, "dist² n={n} workers={workers}");
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
        assert_eq!(normalized_dot_corr(&z, &z), 0.0);
        assert_eq!(normalized_dot_corr(&[], &[]), 0.0);
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
