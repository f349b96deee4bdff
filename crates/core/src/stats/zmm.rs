//! The 512-bit register tile of the pair kernel's dot step.
//!
//! This is the **only** module in `tsubasa-core` that contains `unsafe`
//! code: the `core::arch` loads and stores of eight `f64` lanes and the call
//! into the function compiled for `avx512f`. Everything outside works with a
//! [`Zmm`], which exists only once the running CPU has been seen to execute
//! `avx512f` instructions, and with safe panel slices whose bounds
//! [`Zmm::corrs`] checks once, before the tile's loop.
//!
//! Each lane of an accumulator is one pair's chain: `_mm512_fmadd_pd` rounds
//! `x·y + sum` once, exactly as the portable step `x.mul_add(y, sum)` does,
//! so a sum's bits do not depend on which tile produced it. The tile also
//! finishes its sums in registers, `clamp_corr(sum · inv)` as one multiply,
//! a select of `+0.0` for NaN and a max/min pair, the operations
//! [`clamp_corr`](super::clamp_corr) spells one pair at a time.

use super::PANEL;

/// `zmm` accumulators of one tile, `R·Q`: half the 32 registers, enough
/// chains to cover the FMA latency at two FMAs per cycle.
pub(super) const ACCUMULATORS: usize = 16;

/// Proof that the running CPU executes `avx512f` instructions: the one way
/// to reach the 512-bit tile. Uninhabited on targets other than `x86_64`.
#[derive(Clone, Copy, Debug)]
pub(super) struct Zmm(Detected);

#[cfg(target_arch = "x86_64")]
type Detected = ();
#[cfg(not(target_arch = "x86_64"))]
type Detected = std::convert::Infallible;

impl Zmm {
    /// `Some` where the CPU has `avx512f` (the answer is cached by `std`, so
    /// asking per call costs one atomic load).
    pub(super) fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Some(Zmm(()));
        }
        None
    }

    /// The finished correlations of `R` rows of panel `a` (lanes from
    /// `lane` on) against each of the `Q` column panels `b`, all of
    /// `len = a.len() / PANEL` points: `corrs[q][r][c]` is
    /// `clamp_corr(sum · inv)` of the chain
    /// `sum = a[t·PANEL + lane + r].mul_add(b[q][t·PANEL + c], sum)` over `t`
    /// from `0.0`, on `R·Q` (at most [`ACCUMULATORS`]) `zmm` accumulators.
    pub(super) fn corrs<const R: usize, const Q: usize>(
        self,
        a: &[f64],
        lane: usize,
        b: [&[f64]; Q],
        inv: f64,
    ) -> [[[f64; PANEL]; R]; Q] {
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (a, lane, b, inv);
            match self.0 {}
        }
        #[cfg(target_arch = "x86_64")]
        {
            assert!(lane + R <= PANEL, "a tile's rows sit in one panel");
            assert!(a.len().is_multiple_of(PANEL), "whole panel points");
            assert!(b.iter().all(|b| b.len() == a.len()), "equal panels");
            // SAFETY: `self` exists only if `avx512f` was detected on this
            // CPU. Row `r` reads `a[t·PANEL + lane + r]` for `t < len`, at
            // most `(len − 1)·PANEL + PANEL − 1 < a.len()` by the first two
            // asserts; panel `q` reads `b[q][t·PANEL..(t + 1)·PANEL]`, inside
            // `b[q]` by the third. With `len = 0` nothing is read.
            unsafe {
                x86::corrs::<R, Q>(
                    a.as_ptr().wrapping_add(lane),
                    b.map(<[f64]>::as_ptr),
                    a.len() / PANEL,
                    inv,
                )
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m512d, _mm512_cmp_pd_mask, _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_maskz_mov_pd,
        _mm512_max_pd, _mm512_min_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_setzero_pd,
        _mm512_storeu_pd, _CMP_ORD_Q,
    };

    use super::PANEL;

    /// The tile's loop on `R·Q` accumulators: per point, `Q` panel loads and
    /// `R` broadcasts feed `R·Q` fused multiply-adds; then each accumulator
    /// is finished in its register and stored once.
    ///
    /// # Safety
    ///
    /// The CPU executes `avx512f`; `a.add(t·PANEL + r)` for `t < len`,
    /// `r < R` and `b[q].add(t·PANEL + c)` for `c < PANEL` are readable
    /// `f64`s.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn corrs<const R: usize, const Q: usize>(
        a: *const f64,
        b: [*const f64; Q],
        len: usize,
        inv: f64,
    ) -> [[[f64; PANEL]; R]; Q] {
        let mut acc: [[__m512d; R]; Q] = [[_mm512_setzero_pd(); R]; Q];
        for t in 0..len {
            let mut cols = [_mm512_setzero_pd(); Q];
            for (col, b) in cols.iter_mut().zip(b) {
                // SAFETY: in bounds by this function's contract.
                *col = unsafe { _mm512_loadu_pd(b.add(t * PANEL)) };
            }
            for r in 0..R {
                // SAFETY: in bounds by this function's contract.
                let x = _mm512_set1_pd(unsafe { *a.add(t * PANEL + r) });
                for (acc, &col) in acc.iter_mut().zip(&cols) {
                    acc[r] = _mm512_fmadd_pd(x, col, acc[r]);
                }
            }
        }
        // `clamp_corr(sum · inv)`: NaN lanes (unordered with themselves)
        // become `+0.0`; `max` then `min` against ±1 keep every other value,
        // `±0.0` included, and clamp `±∞`, as `f64::clamp` does.
        let (inv, lo, hi) = (
            _mm512_set1_pd(inv),
            _mm512_set1_pd(-1.0),
            _mm512_set1_pd(1.0),
        );
        let mut corrs = [[[0.0; PANEL]; R]; Q];
        for (corrs, acc) in corrs.iter_mut().zip(&acc) {
            for (corr, &acc) in corrs.iter_mut().zip(acc) {
                let c = _mm512_mul_pd(acc, inv);
                let c = _mm512_maskz_mov_pd(_mm512_cmp_pd_mask::<_CMP_ORD_Q>(c, c), c);
                let c = _mm512_min_pd(_mm512_max_pd(c, lo), hi);
                // SAFETY: `corr` is eight writable `f64`s.
                unsafe { _mm512_storeu_pd(corr.as_mut_ptr(), c) };
            }
        }
        corrs
    }
}
