//! Incremental approximate correlation maintenance for real-time data
//! (paper §3.2.2, Equation 6).
//!
//! [`SlidingApproxNetwork`] is the DFT comparator of
//! [`tsubasa_core::incremental::SlidingNetwork`]. Both hold the same
//! [`SlidingState`] and run the same tick — arriving-window row, one Lemma 2
//! sweep over every pair, one edge-watch scan if subscribed — so the
//! accessors, the arrival step, the sweep and the edge subscription are
//! shared. This engine supplies the two things that differ. When a new
//! basic window arrives it computes that window's packed row of Equation 3
//! estimates `ĉ_{ns+1} = 1 − d²/2` through the comparator's window kernel
//! ([`ComparatorKernel`] — normalize, the naive DFT's direct sums, one tiled
//! difference-square sweep; the `B·c` direct sums are the step that makes
//! this updater slower than TSUBASA's, exactly the effect Figure 5d measures,
//! at every window size) and stores that row, and
//! it reads a stored estimate as the window correlation by clamping it, which
//! makes the shared Lemma 2 sweep the algebraic content of Equation 6.
//!
//! Initialization is the dense fill ([`fill_packed`]) of an [`ApproxPlan`]'s
//! per-series tables over the estimate table instead of per-pair
//! contribution gathering, mirroring the exact updater's plan-based
//! bootstrap.

use std::ops::{Deref, DerefMut};

use tsubasa_core::error::Result;
use tsubasa_core::incremental::SlidingState;
use tsubasa_core::plan::PlanMethod;
use tsubasa_core::runner::{JobRunner, SerialRunner};
use tsubasa_core::sketch::arriving_window;
use tsubasa_core::stats::clamp_corr;
use tsubasa_core::sweep::fill_packed;

use crate::plan::ApproxPlan;
use crate::sketch::{ComparatorKernel, DftSketchSet};

/// Incrementally maintained approximate all-pair correlation matrix over a
/// sliding real-time query window. The shared [`SlidingState`] (which this
/// type dereferences to) stores one packed row of per-pair Equation 3
/// *estimates* per basic window — the rows a [`DftSketchSet`] holds; only the
/// arriving-window kernel and the estimate → correlation clamp are this
/// engine's own.
#[derive(Debug, Clone)]
pub struct SlidingApproxNetwork {
    state: SlidingState,
    /// The comparator window kernel for the arriving windows (the direct
    /// sums of [`crate::dft::window_dft_into`], the kernel that minted every
    /// [`DftSketchSet`] row), with its reusable scratch.
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
    /// Build the initial state from a [`DftSketchSet`]: the query window
    /// covers the most recent `query_len` sketched points (`query_len` must
    /// be a positive multiple of the basic window).
    ///
    /// The initial correlations are the dense fill of one shared
    /// [`ApproxPlan`] (batched Equation 5) rather than per-pair contribution
    /// vectors — refused with [`Error::TooLarge`](tsubasa_core::error::Error::TooLarge) past the dense budget — and
    /// the state shares the sketch's statistics and estimate rows of those
    /// windows.
    pub fn initialize(sketch: &DftSketchSet, query_len: usize) -> Result<Self> {
        let (b, available) = (sketch.basic_window(), sketch.window_count());
        let windows = SlidingState::trailing_windows(b, available, query_len)?;

        // The dense fill over the estimate table, whose rows the state
        // shares.
        let plan = ApproxPlan::build(sketch, windows.clone())?;
        let table = sketch.ests_rows().range(windows.clone());
        let (corrs, _) = fill_packed(
            &SerialRunner,
            plan.query_plan(),
            table.view(0..windows.len()),
        )?;
        let method = PlanMethod::Approximate;
        Ok(Self {
            state: SlidingState::new(sketch.base(), windows, table, corrs, method)?,
            kernel: ComparatorKernel::new(b, sketch.coefficients()),
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
        // The arrival step, then the arriving row from the comparator kernel
        // this engine keeps (inline: `runner` fans out the Equation 6 sweep
        // only), minted as `arriving_ests` mints it but into the buffer the
        // last tick freed.
        let stats = arriving_window(chunk, self.series_count(), self.basic_window())?;
        let mut row = self.state.row_buffer();
        self.kernel
            .window_ests_into(chunk, &stats, &SerialRunner, &mut row);
        // Equation 6 is Lemma 2 over estimate-derived window correlations
        // (the stored `ĉ = 1 − d²/2`, clamped into [-1, 1]).
        self.state.slide_in(runner, stats, row, clamp_corr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::Transform;
    use tsubasa_core::error::Error;
    use tsubasa_core::incremental::SlidingNetwork;
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
        // Power-of-two B. Every tick's row is also a fresh sketch's row of
        // the same window, bit for bit: one kernel mints the bootstrap's rows
        // and the ticks'.
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

            let fresh = DftSketchSet::build(&cur, b, b, Transform::Naive).unwrap();
            let held = query_len / b;
            let first = fresh.window_count() - held;
            let (_, rows) = sliding.store();
            for k in 0..held {
                let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(rows.row(k)),
                    bits(fresh.ests_rows().row(first + k)),
                    "held window {k} at now={now}"
                );
            }
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
    fn both_initializers_reject_a_trailing_window_with_the_same_error() {
        // 130 points at B = 20: six sketched windows (points 0..120) and a
        // 10-point tail, which no real-time query window covers yet.
        let c = SeriesCollection::from_rows(full_data(3, 130)).unwrap();
        let exact = tsubasa_core::SketchSet::build(&c, 20).unwrap();
        let approx = DftSketchSet::build(&c, 20, 8, Transform::Naive).unwrap();
        let misaligned = |len| Error::InvalidQueryWindow {
            end: 119,
            len,
            series_len: 120,
        };
        for (len, expected) in [
            (0, misaligned(0)),
            (50, misaligned(50)),
            (
                140,
                Error::SketchMismatch {
                    requested: "7 basic windows".into(),
                    available: "6 sketched windows".into(),
                },
            ),
        ] {
            let exact = SlidingNetwork::initialize(&c, &exact, len).unwrap_err();
            assert_eq!(exact, expected, "exact engine, query length {len}");
            let approx = SlidingApproxNetwork::initialize(&approx, len).unwrap_err();
            assert_eq!(approx, expected, "approximate engine, query length {len}");
        }
        assert!(SlidingApproxNetwork::initialize(&approx, 120).is_ok());
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

    /// A NaN observation makes its series' pairs NaN: they are counted on
    /// the network and in every delta, and are never an edge, in the
    /// snapshot as in the replayed subscription.
    #[test]
    fn nan_pairs_are_counted_and_never_edges() {
        let (n, b, hist, theta) = (4, 16, 160, 0.3);
        let data = full_data(n, hist + 3 * b);
        let c =
            SeriesCollection::from_rows(data.iter().map(|s| s[..hist].to_vec()).collect()).unwrap();
        let sk = DftSketchSet::build(&c, b, b / 2, Transform::Naive).unwrap();
        let mut sliding = SlidingApproxNetwork::initialize(&sk, 96).unwrap();
        let mut snapshot = sliding.subscribe_edges(theta).unwrap();
        let radius = (2.0f64 * (1.0 - theta)).sqrt();
        for (tick, now) in (hist..).step_by(b).take(3).enumerate() {
            let mut chunk: Vec<Vec<f64>> = data.iter().map(|s| s[now..now + b].to_vec()).collect();
            if tick == 1 {
                chunk[2][5] = f64::NAN;
            }
            sliding.ingest(&chunk).unwrap();
            let delta = sliding.changed_edges().expect("subscribed");
            delta.apply_to(&mut snapshot).unwrap();
            let (m, net) = (sliding.correlation_matrix(), sliding.network(theta));
            let mut nan_pairs = 0;
            for (i, j, c) in m.iter_pairs() {
                nan_pairs += usize::from(c.is_nan());
                let within = !c.is_nan() && (2.0 * (1.0 - c.clamp(-1.0, 1.0))).sqrt() <= radius;
                assert_eq!(net.has_edge(i, j), within, "({i}, {j}) at {c}, tick {tick}");
            }
            assert_eq!(nan_pairs > 0, tick >= 1, "tick {tick}");
            assert_eq!(net.nan_pair_count(), nan_pairs);
            assert_eq!(snapshot, net, "tick {tick}");
            assert_eq!(snapshot.nan_pair_count(), nan_pairs);
        }
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
        // The approximate rule: within the Equation 4 radius of θ.
        let radius = (2.0f64 * (1.0 - 0.5)).sqrt();
        for i in 0..4 {
            for j in (i + 1)..4 {
                let distance = (2.0 * (1.0 - m.get(i, j).clamp(-1.0, 1.0))).sqrt();
                assert_eq!(g.has_edge(i, j), distance <= radius);
                assert_eq!(sliding.correlation(i, j), m.get(i, j));
            }
        }
        assert_eq!(sliding.correlation(2, 2), 1.0);
        assert_eq!(sliding.series_count(), 4);
        assert_eq!(sliding.basic_window(), 20);
    }
}
