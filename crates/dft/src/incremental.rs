//! Incremental approximate correlation maintenance for real-time data
//! (paper §3.2.2, Equation 6).
//!
//! [`SlidingApproxNetwork`] is the DFT comparator of
//! [`tsubasa_core::incremental::SlidingNetwork`]. Both hold the same
//! [`SlidingState`] and run the same tick — arriving-window row, one Lemma 2
//! sweep over every pair, one re-threshold pass if subscribed — so the
//! accessors, the chunk checks, the sweep and the edge subscription are the
//! shared type's. This engine supplies the two things that differ. When a new
//! basic window arrives it computes that window's packed row of Equation 3
//! estimates `ĉ_{ns+1} = 1 − d²/2` through the comparator's window kernel
//! ([`ComparatorKernel`] — normalize, transform, one tiled difference-square
//! sweep; the transform is the step that makes this updater slower than
//! TSUBASA's, exactly the effect Figure 5d measures) and stores that row, and
//! it reads a stored estimate as the window correlation by clamping it, which
//! makes the shared Lemma 2 sweep the algebraic content of Equation 6.
//!
//! Initialization is the dense fill ([`fill_packed`]) of an [`ApproxPlan`]'s
//! per-series tables over the estimate table instead of per-pair
//! contribution gathering, mirroring the exact updater's plan-based
//! bootstrap.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

use tsubasa_core::error::{Error, Result};
use tsubasa_core::incremental::SlidingState;
use tsubasa_core::runner::{JobRunner, SerialRunner};
use tsubasa_core::stats::{clamp_corr, WindowStats};
use tsubasa_core::sweep::fill_packed;
use tsubasa_core::SketchSet;

use crate::plan::ApproxPlan;
use crate::sketch::{ComparatorKernel, DftSketchSet, Transform};

/// Incrementally maintained approximate all-pair correlation matrix over a
/// sliding real-time query window. The shared [`SlidingState`] (which this
/// type dereferences to) stores one packed row of per-pair Equation 3
/// *estimates* per basic window — the rows a [`DftSketchSet`] holds; only the
/// arriving-window kernel and the estimate → correlation clamp are this
/// engine's own.
#[derive(Debug, Clone)]
pub struct SlidingApproxNetwork {
    state: SlidingState,
    /// The comparator window kernel for the arriving windows (radix-2 FFT
    /// for power-of-two basic windows, naive fallback otherwise), with its
    /// reusable transform plan and scratch.
    kernel: ComparatorKernel,
}

impl Deref for SlidingApproxNetwork {
    type Target = SlidingState;

    fn deref(&self) -> &SlidingState {
        &self.state
    }
}

impl DerefMut for SlidingApproxNetwork {
    fn deref_mut(&mut self) -> &mut SlidingState {
        &mut self.state
    }
}

impl SlidingApproxNetwork {
    /// The transform behind every arriving window's row. A bootstrap sketch
    /// built with it holds rows bit-identical to the ticks', so one live
    /// state never mixes rows of two transforms (for power-of-two basic
    /// windows the radix-2 path and the naive DFT differ in the last bits).
    pub const TRANSFORM: Transform = Transform::Fft;

    /// Build the initial state from a [`DftSketchSet`]: the query window
    /// covers the most recent `query_len` sketched points (`query_len` must
    /// be a positive multiple of the basic window).
    ///
    /// The initial correlations are the dense fill of one shared
    /// [`ApproxPlan`] (batched Equation 5) rather than per-pair contribution
    /// vectors — refused with [`Error::TooLarge`] past the dense budget — and
    /// the per-window estimate rows are contiguous copies of the sketch's
    /// window-major table.
    pub fn initialize(sketch: &DftSketchSet, query_len: usize) -> Result<Self> {
        let b = sketch.basic_window();
        if query_len == 0 || !query_len.is_multiple_of(b) {
            return Err(Error::InvalidQueryWindow {
                end: 0,
                len: query_len,
                series_len: sketch.window_count() * b,
            });
        }
        let ns = query_len / b;
        let available = sketch.window_count();
        if ns > available {
            return Err(Error::SketchMismatch {
                requested: format!("{ns} basic windows"),
                available: format!("{available} sketched windows"),
            });
        }
        let first = available - ns;

        // The dense fill over the estimate table; each stored window's
        // packed per-pair estimates are one contiguous row of that table.
        let plan = ApproxPlan::build(sketch, first..available)?;
        let table = sketch.window_ests_view(first..available);
        let (corrs, _) = fill_packed(&SerialRunner, plan.query_plan(), table)?;
        let pair_windows: VecDeque<Vec<f64>> =
            (0..ns).map(|k| table.window_row(k).to_vec()).collect();

        Ok(Self {
            state: SlidingState::new(sketch.base(), first..available, pair_windows, corrs)?,
            kernel: ComparatorKernel::new(b, sketch.coefficients(), Self::TRANSFORM),
        })
    }

    /// Slide forward by one basic window given the newly arrived chunk
    /// (`chunk[i]` holds the `B` new points of series `i`). This is the
    /// Equation 6 update: the only new DFT work is for the arriving window.
    /// Runs inline on the calling thread; [`SlidingApproxNetwork::ingest_in`]
    /// is the same update fanned out over a [`JobRunner`].
    pub fn ingest(&mut self, chunk: &[Vec<f64>]) -> Result<()> {
        self.ingest_in(&SerialRunner, chunk)
    }

    /// [`SlidingApproxNetwork::ingest`] with the per-pair Equation 6 sweep
    /// split into disjoint contiguous slices of the packed correlation
    /// triangle, one per worker of `runner` — the very sweep of the exact
    /// updater's [`tsubasa_core::incremental::SlidingNetwork::ingest_in`].
    /// Hand the same reusable pool (`tsubasa_parallel::WorkerPool`) to every
    /// call so repeated slides stop paying thread startup; the result is
    /// identical to the serial path for any worker count (each pair reads
    /// only shared snapshots and its own slot).
    pub fn ingest_in(&mut self, runner: &dyn JobRunner, chunk: &[Vec<f64>]) -> Result<()> {
        let kernel = &mut self.kernel;
        // The arriving window's row comes from the shared comparator kernel
        // (inline: `runner` fans out the Equation 6 sweep only).
        let arriving_ests = |stats: &[WindowStats], row: &mut [f64]| {
            kernel.window_ests_into(chunk, stats, &SerialRunner, row);
        };
        // Equation 6 is Lemma 2 over estimate-derived window correlations
        // (the stored `ĉ = 1 − d²/2`, clamped into [-1, 1]).
        self.state
            .slide_in(runner, chunk, arriving_ests, clamp_corr)
    }

    /// Freeze the sliding state into an immutable [`DftSketchSet`] covering
    /// exactly the basic windows currently inside the query window (oldest
    /// first, re-indexed from 0), for epoch publication: the snapshot shares
    /// no storage with the live network, so readers can plan against it
    /// behind an `Arc` while ingestion keeps sliding.
    ///
    /// The approximate updater maintains per-window *estimates*, not the
    /// exact per-window pair correlations of the underlying
    /// [`SketchSet`] — so the base sketch's pair correlations are filled with
    /// NaN, the repo-wide marker for method-mismatched sketch data. The
    /// snapshot supports every [`ApproxPlan`] path bit-identically to a
    /// built sketch; exact (Lemma 1) queries against its base are answerable
    /// only through the NaN-auditing sinks and will report every pair.
    pub fn snapshot_sketch(&self) -> Result<DftSketchSet> {
        let window_ests = self.window_major_rows();
        let base = SketchSet::from_window_major(
            self.basic_window(),
            self.series_count(),
            self.series_sketches(),
            vec![f64::NAN; window_ests.len()],
        )?;
        DftSketchSet::from_parts(base, self.kernel.coefficients(), window_ests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::Transform;
    use tsubasa_core::{baseline, QueryWindow, SeriesCollection};

    fn series(seed: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                (i as f64 * 0.11 + seed as f64).sin() * 1.4
                    + ((i * (seed + 2) + 5) % 23) as f64 * 0.07
            })
            .collect()
    }

    fn full_data(n: usize, len: usize) -> Vec<Vec<f64>> {
        (0..n).map(|s| series(s, len)).collect()
    }

    #[test]
    fn initialize_matches_eq5_on_initial_window() {
        let data = full_data(4, 160);
        let c = SeriesCollection::from_rows(data).unwrap();
        let b = 20;
        let sk = DftSketchSet::build(&c, b, b, Transform::Naive).unwrap();
        let sliding = SlidingApproxNetwork::initialize(&sk, 120).unwrap();
        // With all coefficients the approximation is exact, so the initial
        // matrix matches the baseline on the last 120 points.
        let query = QueryWindow::new(159, 120).unwrap();
        let exact = baseline::correlation_matrix(&c, query).unwrap();
        assert!(sliding.correlation_matrix().max_abs_diff(&exact) < 1e-9);
    }

    #[test]
    fn full_coefficient_updates_track_exact_baseline() {
        let n = 3;
        let b = 16;
        let total = 400;
        let hist = 160;
        let query_len = 96;
        let data = full_data(n, total);
        let c =
            SeriesCollection::from_rows(data.iter().map(|s| s[..hist].to_vec()).collect()).unwrap();
        let sk = DftSketchSet::build(&c, b, b, Transform::Naive).unwrap();
        let mut sliding = SlidingApproxNetwork::initialize(&sk, query_len).unwrap();

        let mut now = hist;
        while now + b <= total {
            let chunk: Vec<Vec<f64>> = data.iter().map(|s| s[now..now + b].to_vec()).collect();
            sliding.ingest(&chunk).unwrap();
            now += b;
            let cur = SeriesCollection::from_rows(data.iter().map(|s| s[..now].to_vec()).collect())
                .unwrap();
            let query = QueryWindow::latest(now, query_len).unwrap();
            let exact = baseline::correlation_matrix(&cur, query).unwrap();
            let diff = sliding.correlation_matrix().max_abs_diff(&exact);
            assert!(diff < 1e-6, "drift {diff} at now={now}");
        }
    }

    #[test]
    fn partial_coefficients_give_bounded_error() {
        let n = 3;
        let b = 24;
        let total = 300;
        let hist = 144;
        let query_len = 96;
        let data = full_data(n, total);
        let c =
            SeriesCollection::from_rows(data.iter().map(|s| s[..hist].to_vec()).collect()).unwrap();
        let sk = DftSketchSet::build(&c, b, b * 3 / 4, Transform::Naive).unwrap();
        let mut sliding = SlidingApproxNetwork::initialize(&sk, query_len).unwrap();
        let mut now = hist;
        while now + b <= total {
            let chunk: Vec<Vec<f64>> = data.iter().map(|s| s[now..now + b].to_vec()).collect();
            sliding.ingest(&chunk).unwrap();
            now += b;
        }
        // The 75%-coefficient approximation drifts from the exact value (it
        // is an approximation, after all) but must remain a bounded, sane
        // correlation estimate.
        let cur =
            SeriesCollection::from_rows(data.iter().map(|s| s[..now].to_vec()).collect()).unwrap();
        let query = QueryWindow::latest(now, query_len).unwrap();
        let exact = baseline::correlation_matrix(&cur, query).unwrap();
        let diff = sliding.correlation_matrix().max_abs_diff(&exact);
        assert!(diff > 0.0, "partial coefficients should not be exact here");
        assert!(
            diff < 0.75,
            "approximation error unexpectedly large: {diff}"
        );
        for (_, _, c) in sliding.correlation_matrix().iter_pairs() {
            assert!((-1.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn ingest_in_is_identical_across_worker_counts() {
        use tsubasa_core::runner::ScopedRunner;
        let n = 5;
        let b = 15;
        let total = 330;
        let hist = 180;
        let data = full_data(n, total);
        let c =
            SeriesCollection::from_rows(data.iter().map(|s| s[..hist].to_vec()).collect()).unwrap();
        let sk = DftSketchSet::build(&c, b, b, Transform::Naive).unwrap();
        let serial = SlidingApproxNetwork::initialize(&sk, 90).unwrap();
        let mut nets = [serial.clone(), serial.clone(), serial];
        let runners: Vec<ScopedRunner> = [1usize, 3, 8]
            .iter()
            .map(|&w| ScopedRunner::new(w))
            .collect();
        let mut now = hist;
        while now + b <= total {
            let chunk: Vec<Vec<f64>> = data.iter().map(|s| s[now..now + b].to_vec()).collect();
            for (net, runner) in nets.iter_mut().zip(&runners) {
                net.ingest_in(runner, &chunk).unwrap();
            }
            now += b;
            let m0 = nets[0].correlation_matrix();
            assert_eq!(m0, nets[1].correlation_matrix());
            assert_eq!(m0, nets[2].correlation_matrix());
        }
        assert!(now > hist + 5 * b);
    }

    #[test]
    fn subscribed_deltas_track_full_rethreshold() {
        let n = 4;
        let b = 16;
        let total = 400;
        let hist = 160;
        let theta = 0.4;
        let data = full_data(n, total);
        let c =
            SeriesCollection::from_rows(data.iter().map(|s| s[..hist].to_vec()).collect()).unwrap();
        let sk = DftSketchSet::build(&c, b, b * 3 / 4, Transform::Naive).unwrap();
        let mut sliding = SlidingApproxNetwork::initialize(&sk, 96).unwrap();
        assert!(sliding.changed_edges().is_none());
        let mut snapshot = sliding.subscribe_edges(theta).unwrap();
        assert_eq!(snapshot, sliding.network(theta));

        let mut now = hist;
        while now + b <= total {
            let chunk: Vec<Vec<f64>> = data.iter().map(|s| s[now..now + b].to_vec()).collect();
            sliding.ingest(&chunk).unwrap();
            now += b;
            let delta = sliding.changed_edges().expect("subscribed").clone();
            delta.apply_to(&mut snapshot).unwrap();
            let expected = sliding.network(theta);
            assert_eq!(snapshot, expected, "edge drift at now={now}");
            assert_eq!(snapshot.nan_pair_count(), expected.nan_pair_count());
        }

        sliding.unsubscribe_edges();
        let chunk: Vec<Vec<f64>> = data.iter().map(|s| s[..b].to_vec()).collect();
        sliding.ingest(&chunk).unwrap();
        assert!(sliding.changed_edges().is_none());
    }

    #[test]
    fn ingest_validates_chunk_shape() {
        let data = full_data(3, 120);
        let c = SeriesCollection::from_rows(data).unwrap();
        let sk = DftSketchSet::build(&c, 20, 20, Transform::Naive).unwrap();
        let mut sliding = SlidingApproxNetwork::initialize(&sk, 80).unwrap();
        assert!(sliding.ingest(&[vec![0.0; 20]]).is_err());
        assert!(sliding
            .ingest(&[vec![0.0; 5], vec![0.0; 5], vec![0.0; 5]])
            .is_err());
    }

    #[test]
    fn initialize_validates_query_length() {
        let data = full_data(2, 100);
        let c = SeriesCollection::from_rows(data).unwrap();
        let sk = DftSketchSet::build(&c, 20, 20, Transform::Naive).unwrap();
        assert!(SlidingApproxNetwork::initialize(&sk, 0).is_err());
        assert!(SlidingApproxNetwork::initialize(&sk, 30).is_err());
        assert!(SlidingApproxNetwork::initialize(&sk, 200).is_err());
        assert!(SlidingApproxNetwork::initialize(&sk, 100).is_ok());
    }

    #[test]
    fn network_snapshot_thresholds_current_state() {
        let data = full_data(4, 160);
        let c = SeriesCollection::from_rows(data).unwrap();
        let sk = DftSketchSet::build(&c, 20, 20, Transform::Naive).unwrap();
        let sliding = SlidingApproxNetwork::initialize(&sk, 120).unwrap();
        let m = sliding.correlation_matrix();
        let g = sliding.network(0.5);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_eq!(g.has_edge(i, j), m.get(i, j) > 0.5);
                assert_eq!(sliding.correlation(i, j), m.get(i, j));
            }
        }
        assert_eq!(sliding.correlation(2, 2), 1.0);
        assert_eq!(sliding.series_count(), 4);
        assert_eq!(sliding.basic_window(), 20);
    }
}
