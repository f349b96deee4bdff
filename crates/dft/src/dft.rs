//! Discrete Fourier Transform primitives.
//!
//! The comparator in the paper assumes the *naive* `O(k²)` DFT: a direct sum
//! per coefficient, `B` multiply-adds each (its complexity analysis and
//! Figures 5b/5d hinge on that cost). The sketch keeps only the first `c`
//! coefficients of every series-window, so its direct sums are `B·c`
//! multiply-adds per series-window — `B²` when all are kept.
//!
//! [`window_dft_into`] is the direct-sum transform the comparator's window
//! kernel runs: a whole window at once, series eight to a packed panel, one
//! twiddle row of `B` values per kept frequency from a table the kernel
//! builds once ([`Twiddles`]), each coefficient bit-identical to
//! [`naive_dft`]'s. [`naive_dft`] is the
//! per-series reference it is pinned to. There is no fast transform: every
//! coefficient the comparator stores is one of these direct sums, at every
//! window size.

use tsubasa_core::stats::PANEL;

/// A minimal complex number. We intentionally avoid pulling in an external
/// complex crate: the comparator only needs addition, scaling of a twiddle
/// factor by a point, and magnitudes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The complex number `e^{iθ}`.
    pub fn from_angle(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Multiply by a real scalar.
    pub fn scale(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;

    fn add(self, other: Complex) -> Complex {
        Complex::new(self.re + other.re, self.im + other.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;

    fn sub(self, other: Complex) -> Complex {
        Complex::new(self.re - other.re, self.im - other.im)
    }
}

/// The unitary DFT of `x` computed naively in `O(k²)` — paper Equation 2,
/// including the `1/√k` factor so that Parseval's theorem holds exactly
/// (`Σ|X_f|² = Σ|x_i|²`) and Euclidean distances are preserved.
///
/// The per-series reference: every coefficient is a direct sum with its
/// twiddle factors computed in the innermost loop. The comparator's kernel
/// runs [`window_dft_into`], which sums the same terms in the same order
/// and so returns the same bits.
pub fn naive_dft(x: &[f64]) -> Vec<Complex> {
    let k = x.len();
    if k == 0 {
        return Vec::new();
    }
    let scale = 1.0 / (k as f64).sqrt();
    let base = -2.0 * std::f64::consts::PI / k as f64;
    (0..k)
        .map(|f| {
            let mut acc = Complex::default();
            for (i, &v) in x.iter().enumerate() {
                let angle = base * (f as f64) * (i as f64);
                acc = acc + Complex::from_angle(angle).scale(v);
            }
            acc.scale(scale)
        })
        .collect()
}

/// The twiddle factors of the first `coefficients` frequencies of a
/// `len`-point DFT: row `f` holds `e^{−2πi·f·t/len}` for `t < len`, each the
/// expression [`naive_dft`] evaluates in its inner loop. A comparator kernel
/// builds one table for its `(B, c)` and hands it to every window's
/// [`window_dft_into`], so a window computes no trig and allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Twiddles {
    len: usize,
    coefficients: usize,
    table: Vec<Complex>,
}

impl Twiddles {
    /// The `coefficients · len` twiddles of a `len`-point window.
    ///
    /// # Panics
    ///
    /// Panics when `coefficients > len`.
    pub fn new(len: usize, coefficients: usize) -> Self {
        assert!(
            coefficients <= len,
            "window_dft_into: {coefficients} coefficients of {len} points"
        );
        #[cfg(test)]
        tests::TWIDDLE_TABLES.with(|built| built.set(built.get() + 1));
        let base = -2.0 * std::f64::consts::PI / len as f64;
        let mut table = Vec::with_capacity(coefficients * len);
        for f in 0..coefficients {
            table.extend((0..len).map(|i| Complex::from_angle(base * (f as f64) * (i as f64))));
        }
        Self {
            len,
            coefficients,
            table,
        }
    }

    /// Frequencies kept.
    pub fn coefficients(&self) -> usize {
        self.coefficients
    }
}

/// The first `twiddles.coefficients()` coefficients of the unitary DFT of
/// every series of one window of `len = twiddles.len()` points, as direct
/// sums over whole panels.
///
/// `z` holds the series in the packed panel layout
/// ([`tsubasa_core::stats::packed_len`]`(n, len)`, series `i` in lane
/// `i % 8` of panel `i / 8`); `out` receives, in the same layout with `2 ·
/// coefficients` slots per lane, every series' `[re₀, im₀, re₁, im₁, …]`.
/// Frequency by frequency, every panel sums that frequency's row of `len`
/// twiddles ([`Twiddles`], built once per kernel) against its eight lanes:
/// `len` multiply-adds per series and coefficient, and no trig. Each lane's
/// sum is [`naive_dft`]'s chain — from `+0.0`, point by point, a multiply
/// then an add, then `· 1/√len` — so every coefficient has [`naive_dft`]'s
/// bits.
///
/// # Panics
///
/// Panics when `z` is not whole panels of `len` points or `out` not the
/// same panels of `2 · coefficients` slots.
pub fn window_dft_into(z: &[f64], twiddles: &Twiddles, out: &mut [f64]) {
    let (len, coefficients) = (twiddles.len, twiddles.coefficients);
    let row_len = 2 * coefficients;
    let panels = z.len().checked_div(PANEL * len).unwrap_or(0);
    assert!(
        z.len() == panels * PANEL * len && out.len() == panels * PANEL * row_len,
        "window_dft_into: {} inputs and {} outputs are not whole panels of {len} points and {row_len} slots",
        z.len(),
        out.len()
    );
    if panels == 0 {
        return;
    }
    let scale = 1.0 / (len as f64).sqrt();
    for (f, twiddles) in twiddles.table.chunks_exact(len).enumerate() {
        for (zp, op) in z
            .chunks_exact(PANEL * len)
            .zip(out.chunks_exact_mut(PANEL * row_len))
        {
            let mut re = [0.0f64; PANEL];
            let mut im = [0.0f64; PANEL];
            for (t, w) in zp.chunks_exact(PANEL).zip(twiddles) {
                let t: &[f64; PANEL] = t.try_into().expect("chunks_exact(PANEL)");
                for l in 0..PANEL {
                    re[l] += w.re * t[l];
                    im[l] += w.im * t[l];
                }
            }
            let (re_out, im_out) = op[2 * f * PANEL..(2 * f + 2) * PANEL].split_at_mut(PANEL);
            for l in 0..PANEL {
                re_out[l] = re[l] * scale;
                im_out[l] = im[l] * scale;
            }
        }
    }
}

/// Euclidean distance between the first `n` coefficients of two DFT
/// coefficient vectors — the paper's `Dist_n(X̂, Ŷ)`.
///
/// When `n` equals the full length this is the exact distance of the
/// underlying (normalized) windows by Parseval's theorem.
pub fn coefficient_distance(x: &[Complex], y: &[Complex], n: usize) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let n = n.min(x.len());
    x.iter()
        .zip(y)
        .take(n)
        .map(|(a, b)| (*a - *b).norm_sq())
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::normalize::normalize_unit_with_stats;
    use std::cell::Cell;

    thread_local! {
        /// Twiddle tables this thread has built: every trig call of the
        /// comparator's transform is made building one.
        pub(crate) static TWIDDLE_TABLES: Cell<usize> = const { Cell::new(0) };
    }
    use proptest::prelude::*;
    use tsubasa_core::stats::{packed_lane_mut, packed_len, WindowStats};

    fn euclid(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dft_of_constant_concentrates_in_dc() {
        let x = vec![2.0; 8];
        let coeffs = naive_dft(&x);
        // DC coefficient = sum / sqrt(k) = 16 / sqrt(8).
        assert!((coeffs[0].re - 16.0 / 8f64.sqrt()).abs() < 1e-9);
        for c in &coeffs[1..] {
            assert!(c.abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_holds_for_naive_dft() {
        let x: Vec<f64> = (0..13).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let energy_time: f64 = x.iter().map(|v| v * v).sum();
        let energy_freq: f64 = naive_dft(&x).iter().map(|c| c.norm_sq()).sum();
        assert!((energy_time - energy_freq).abs() < 1e-9);
    }

    #[test]
    fn full_coefficient_distance_equals_time_domain_distance() {
        let x: Vec<f64> = (0..20).map(|i| (i as f64 * 0.3).cos()).collect();
        let y: Vec<f64> = (0..20).map(|i| (i as f64 * 0.31).sin() * 1.2).collect();
        let dx = naive_dft(&x);
        let dy = naive_dft(&y);
        let d_freq = coefficient_distance(&dx, &dy, 20);
        assert!((d_freq - euclid(&x, &y)).abs() < 1e-9);
    }

    #[test]
    fn partial_coefficient_distance_is_monotone_in_n() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.2).sin()).collect();
        let y: Vec<f64> = (0..32).map(|i| (i as f64 * 0.25).sin() + 0.1).collect();
        let dx = naive_dft(&x);
        let dy = naive_dft(&y);
        let mut last = 0.0;
        for n in 1..=32 {
            let d = coefficient_distance(&dx, &dy, n);
            assert!(
                d + 1e-12 >= last,
                "distance must grow with more coefficients"
            );
            last = d;
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(naive_dft(&[]).is_empty());
    }

    /// Series `i`'s window and statistics under lane kind `kind`: finite,
    /// a NaN σ, ±∞ points under finite statistics, or a constant window.
    fn grid_series(kind: usize, i: usize, b: usize) -> (Vec<f64>, WindowStats) {
        let mut values: Vec<f64> = (0..b)
            .map(|t| ((t * 7 + i * 13) as f64 * 0.37).sin() * (1.0 + i as f64) + 0.25 * t as f64)
            .collect();
        let mut stats = WindowStats::from_values(&values);
        match kind {
            0 => {}
            1 => stats.std = f64::NAN,
            2 => {
                values[b / 2] = f64::INFINITY;
                values[b - 1] = f64::NEG_INFINITY;
            }
            _ => {
                values.fill(4.5);
                stats = WindowStats::from_values(&values);
            }
        }
        (values, stats)
    }

    #[test]
    fn window_dft_equals_naive_dft_bit_for_bit() {
        // Window sizes at and off powers of two, kept counts from one to
        // all, series counts at the edges of a panel; every lane kind at
        // every lane position, and NaN in the unused lanes of the last panel.
        for b in [1usize, 2, 3, 7, 12, 16, 50, 120, 128] {
            for n in [1usize, 7, 8, 9, 33] {
                for offset in 0..4 {
                    let mut z = vec![f64::NAN; packed_len(n, b)];
                    let mut expected = Vec::with_capacity(n);
                    for i in 0..n {
                        let (values, stats) = grid_series((i + offset) % 4, i, b);
                        let normalized = normalize_unit_with_stats(&values, &stats);
                        for (slot, &v) in packed_lane_mut(&mut z, i, b).zip(&normalized) {
                            *slot = v;
                        }
                        expected.push(naive_dft(&normalized));
                    }
                    for c in [1, b.div_ceil(4), (3 * b).div_ceil(4), b] {
                        let mut out = vec![0.0; packed_len(n, 2 * c)];
                        window_dft_into(&z, &Twiddles::new(b, c), &mut out);
                        for (i, coeffs) in expected.iter().enumerate() {
                            let got: Vec<u64> = packed_lane_mut(&mut out, i, 2 * c)
                                .map(|v| v.to_bits())
                                .collect();
                            let want: Vec<u64> = coeffs[..c]
                                .iter()
                                .flat_map(|x| [x.re.to_bits(), x.im.to_bits()])
                                .collect();
                            let kind = (i + offset) % 4;
                            assert_eq!(
                                got, want,
                                "B = {b}, c = {c}, N = {n}, series {i} of kind {kind}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not whole panels")]
    fn window_dft_refuses_partial_panels() {
        window_dft_into(
            &vec![0.0; packed_len(3, 5)],
            &Twiddles::new(5, 2),
            &mut [0.0; 7],
        );
    }

    proptest! {
        #[test]
        fn prop_parseval(
            x in proptest::collection::vec(-50.0f64..50.0, 1..50),
        ) {
            let energy_time: f64 = x.iter().map(|v| v * v).sum();
            let energy_freq: f64 = naive_dft(&x).iter().map(|c| c.norm_sq()).sum();
            prop_assert!((energy_time - energy_freq).abs() < 1e-6);
        }
    }
}
