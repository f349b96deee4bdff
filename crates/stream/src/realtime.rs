//! The end-to-end real-time network driver (paper Algorithm 3).
//!
//! [`RealTimeNetwork`] ties the pieces together:
//!
//! 1. construct the initial network from historical data (Algorithm 2 /
//!    Lemma 1, evaluated through the shared flat
//!    [`tsubasa_core::plan::QueryPlan`] kernel);
//! 2. buffer incoming observations until a basic window completes
//!    ([`StreamBuffer`]);
//! 3. update every pairwise correlation incrementally — exactly (Lemma 2) or
//!    approximately (Equation 6) depending on the configured
//!    [`UpdateEngine`];
//! 4. expose the current correlation matrix / thresholded network at any
//!    time.

use std::ops::{Deref, DerefMut};

use tsubasa_core::delta::EdgeDelta;
use tsubasa_core::error::Result;
use tsubasa_core::incremental::{SlidingNetwork, SlidingState};
use tsubasa_core::matrix::{AdjacencyMatrix, CorrelationMatrix};
use tsubasa_core::runner::{JobRunner, SerialRunner};
use tsubasa_core::{SeriesCollection, SketchSet};
use tsubasa_dft::sketch::{DftSketchSet, Transform};
use tsubasa_dft::SlidingApproxNetwork;

use crate::buffer::StreamBuffer;

/// Which incremental updater maintains the correlations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateEngine {
    /// Exact Lemma 2 updates (TSUBASA).
    Exact,
    /// DFT-based Equation 6 updates with the given number of coefficients
    /// (the approximate comparator).
    Approximate {
        /// Number of DFT coefficients used for the arriving windows.
        coefficients: usize,
    },
}

enum Updater {
    Exact(SlidingNetwork),
    Approx(SlidingApproxNetwork),
}

/// Everything but the arriving-window kernel is the engines' shared
/// [`SlidingState`].
impl Deref for Updater {
    type Target = SlidingState;

    fn deref(&self) -> &SlidingState {
        match self {
            Updater::Exact(net) => net,
            Updater::Approx(net) => net,
        }
    }
}

impl DerefMut for Updater {
    fn deref_mut(&mut self) -> &mut SlidingState {
        match self {
            Updater::Exact(net) => net,
            Updater::Approx(net) => net,
        }
    }
}

/// The last `len` sketched points of `history`, all a query window of `len`
/// points covers; `None` for the whole history, or a length the
/// initializers reject (they report it against the whole history).
fn trailing_points(history: &SeriesCollection, b: usize, len: usize) -> Option<SeriesCollection> {
    let end = history.series_len() / b.max(1) * b;
    (len > 0 && len.is_multiple_of(b) && len < end).then(|| {
        let rows = history.iter().map(|s| s.values()[end - len..end].to_vec());
        SeriesCollection::from_rows(rows.collect()).expect("a window of every series")
    })
}

/// A continuously maintained climate network over the `m` most recent
/// observations of a collection of streams.
pub struct RealTimeNetwork {
    buffer: StreamBuffer,
    updater: Updater,
    threshold: f64,
    observed: usize,
    updates_applied: usize,
    /// Deltas emitted by the subscribed engine since the last
    /// [`RealTimeNetwork::take_deltas`], oldest first (one per applied basic
    /// window; a burst push contributes several).
    pending_deltas: Vec<EdgeDelta>,
}

impl RealTimeNetwork {
    /// Bootstrap from historical data: sketch `historical`, build the initial
    /// network over the most recent `query_len` points of its complete basic
    /// windows (`query_len` must be a multiple of `basic_window`), and
    /// prepare for streaming ingestion: the points past the last complete
    /// window are buffered, so the first streamed points complete it.
    ///
    /// The exact path initializes all pairs through one shared
    /// [`tsubasa_core::plan::QueryPlan`] rather than per-pair contribution
    /// vectors, so bootstrap cost is dominated by the sketch pass itself.
    /// Only the query window's windows are sketched: the engine shares the
    /// sketch's rows, so it holds no other window of the history.
    pub fn new(
        historical: &SeriesCollection,
        basic_window: usize,
        query_len: usize,
        threshold: f64,
        engine: UpdateEngine,
    ) -> Result<Self> {
        let trailing = trailing_points(historical, basic_window, query_len);
        let window = trailing.as_ref().unwrap_or(historical);
        let updater = match engine {
            UpdateEngine::Exact => {
                let sketch = SketchSet::build(window, basic_window)?;
                Updater::Exact(SlidingNetwork::initialize(window, &sketch, query_len)?)
            }
            UpdateEngine::Approximate { coefficients } => {
                let sketch =
                    DftSketchSet::build(window, basic_window, coefficients, Transform::Naive)?;
                Updater::Approx(SlidingApproxNetwork::initialize(&sketch, query_len)?)
            }
        };
        Ok(Self {
            buffer: StreamBuffer::after(historical, basic_window)?,
            updater,
            threshold,
            observed: historical.series_len(),
            updates_applied: 0,
            pending_deltas: Vec::new(),
        })
    }

    /// Feed newly observed points (`updates[i]` are the new points of series
    /// `i`, any length). Complete basic windows are applied immediately;
    /// leftovers stay buffered. Returns the number of network updates applied
    /// by this call.
    pub fn ingest(&mut self, updates: &[Vec<f64>]) -> Result<usize> {
        self.ingest_in(&SerialRunner, updates)
    }

    /// [`RealTimeNetwork::ingest`] with the per-pair update sweep (Lemma 2
    /// for the exact engine, Equation 6 for the approximate one) fanned out
    /// over `runner`. Hand the same reusable worker pool
    /// (`tsubasa_parallel::WorkerPool`) to every call so continuous
    /// re-evaluations stop paying thread startup per arriving basic window;
    /// the result is identical to the serial path for any worker count.
    ///
    /// One `push` may complete several basic windows at once (e.g. after a
    /// burst of buffered observations): every released chunk is applied,
    /// oldest first, and counts as one applied update.
    pub fn ingest_in(&mut self, runner: &dyn JobRunner, updates: &[Vec<f64>]) -> Result<usize> {
        let new_points = updates.first().map(|u| u.len()).unwrap_or(0);
        let chunks = self.buffer.push(updates)?;
        let applied = chunks.len();
        for chunk in chunks {
            match &mut self.updater {
                Updater::Exact(net) => net.ingest_in(runner, &chunk)?,
                Updater::Approx(net) => net.ingest_in(runner, &chunk)?,
            }
            // A subscribed engine emits one delta per tick.
            self.pending_deltas
                .extend(self.updater.changed_edges().cloned());
        }
        self.observed += new_points;
        self.updates_applied += applied;
        Ok(applied)
    }

    /// Total observations seen so far (historical plus streamed).
    pub fn observed_points(&self) -> usize {
        self.observed
    }

    /// Number of basic-window updates applied since construction.
    pub fn updates_applied(&self) -> usize {
        self.updates_applied
    }

    /// Observations buffered but not yet folded into the network.
    pub fn pending_points(&self) -> usize {
        self.buffer.pending()
    }

    /// The current correlation matrix over the sliding query window.
    pub fn correlation_matrix(&self) -> CorrelationMatrix {
        self.updater.correlation_matrix()
    }

    /// The current climate network at the configured threshold. The lenient
    /// thresholding keeps this path infallible: NaN correlations (possible
    /// once NaN observations are streamed in — the sliding updaters keep
    /// them NaN instead of fabricating a value) are counted on the returned
    /// matrix's [`nan_pair_count`](AdjacencyMatrix::nan_pair_count), never
    /// silently dropped.
    pub fn network(&self) -> AdjacencyMatrix {
        self.updater.network(self.threshold)
    }

    /// The current climate network at an ad-hoc threshold.
    pub fn network_with_threshold(&self, theta: f64) -> AdjacencyMatrix {
        self.updater.network(theta)
    }

    /// Subscribe to edge-level changes of the θ-thresholded network: returns
    /// the baseline snapshot (identical to
    /// [`RealTimeNetwork::network_with_threshold`] at `theta`), and every
    /// subsequently applied basic window appends one [`EdgeDelta`] for
    /// [`RealTimeNetwork::take_deltas`] to drain — a burst push that
    /// completes several basic windows contributes one delta per window,
    /// oldest first. Re-subscribing replaces any previous subscription and
    /// discards undrained deltas.
    pub fn subscribe_edges(&mut self, theta: f64) -> Result<AdjacencyMatrix> {
        let baseline = self.updater.subscribe_edges(theta)?;
        self.pending_deltas.clear();
        Ok(baseline)
    }

    /// Drain the deltas accumulated since the last call (empty when nothing
    /// was applied, or without an active subscription).
    pub fn take_deltas(&mut self) -> Vec<EdgeDelta> {
        std::mem::take(&mut self.pending_deltas)
    }

    /// Drop the active edge subscription, discarding undrained deltas.
    pub fn unsubscribe_edges(&mut self) {
        self.updater.unsubscribe_edges();
        self.pending_deltas.clear();
    }

    /// Number of basic windows inside the sliding query window.
    pub fn window_count(&self) -> usize {
        self.updater.window_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsubasa_core::plan::{CorrView, QueryPlan};
    use tsubasa_core::stats::WindowStats;
    use tsubasa_core::sweep::fill_packed;
    use tsubasa_core::{baseline, QueryWindow};
    use tsubasa_data::station::{generate_ncea_like, NceaLikeConfig};

    fn data(points: usize) -> SeriesCollection {
        generate_ncea_like(&NceaLikeConfig {
            stations: 6,
            points,
            seed: 21,
            regions: 3,
            correlation_length_km: 800.0,
            missing_fraction: 0.0,
        })
        .unwrap()
    }

    #[test]
    fn exact_realtime_tracks_baseline() {
        let total = 700;
        let hist_len = 400;
        let b = 25;
        let query_len = 200;
        let full = data(total);
        let historical = full.truncate_length(hist_len).unwrap();
        let mut rt =
            RealTimeNetwork::new(&historical, b, query_len, 0.7, UpdateEngine::Exact).unwrap();

        // Stream the rest in odd-sized pieces (11 points at a time).
        let mut now = hist_len;
        while now + 11 <= total {
            let updates: Vec<Vec<f64>> = full
                .iter()
                .map(|s| s.values()[now..now + 11].to_vec())
                .collect();
            rt.ingest(&updates).unwrap();
            now += 11;
        }
        assert_eq!(rt.observed_points(), now);
        assert!(rt.updates_applied() > 5);
        assert!(rt.pending_points() < b);

        // The network reflects the last `query_len` points ending at the last
        // *completed* basic window.
        let completed = hist_len + rt.updates_applied() * b;
        let truncated = full.truncate_length(completed).unwrap();
        let query = QueryWindow::latest(completed, query_len).unwrap();
        let expected = baseline::correlation_matrix(&truncated, query).unwrap();
        let diff = rt.correlation_matrix().max_abs_diff(&expected);
        assert!(diff < 1e-7, "drift {diff}");
        assert_eq!(rt.network(), expected.threshold(0.7).unwrap());
        assert_eq!(
            rt.network_with_threshold(0.9),
            expected.threshold(0.9).unwrap()
        );
    }

    #[test]
    fn approximate_realtime_with_all_coefficients_matches_exact() {
        let total = 500;
        let hist_len = 300;
        let b = 20;
        let query_len = 160;
        let full = data(total);
        let historical = full.truncate_length(hist_len).unwrap();
        let mut exact =
            RealTimeNetwork::new(&historical, b, query_len, 0.7, UpdateEngine::Exact).unwrap();
        let mut approx = RealTimeNetwork::new(
            &historical,
            b,
            query_len,
            0.7,
            UpdateEngine::Approximate { coefficients: b },
        )
        .unwrap();

        let mut now = hist_len;
        while now + b <= total {
            let updates: Vec<Vec<f64>> = full
                .iter()
                .map(|s| s.values()[now..now + b].to_vec())
                .collect();
            exact.ingest(&updates).unwrap();
            approx.ingest(&updates).unwrap();
            now += b;
        }
        let diff = exact
            .correlation_matrix()
            .max_abs_diff(&approx.correlation_matrix());
        assert!(
            diff < 1e-6,
            "full-coefficient approximation drifted by {diff}"
        );
    }

    #[test]
    fn parallel_ingest_matches_serial_ingest_exactly() {
        use tsubasa_core::runner::ScopedRunner;
        let total = 520;
        let hist_len = 300;
        let b = 20;
        let full = data(total);
        let historical = full.truncate_length(hist_len).unwrap();
        let mut serial =
            RealTimeNetwork::new(&historical, b, 160, 0.7, UpdateEngine::Exact).unwrap();
        let mut pooled =
            RealTimeNetwork::new(&historical, b, 160, 0.7, UpdateEngine::Exact).unwrap();
        let runner = ScopedRunner::new(4);
        let mut now = hist_len;
        while now + 13 <= total {
            let updates: Vec<Vec<f64>> = full
                .iter()
                .map(|s| s.values()[now..now + 13].to_vec())
                .collect();
            serial.ingest(&updates).unwrap();
            pooled.ingest_in(&runner, &updates).unwrap();
            now += 13;
            assert_eq!(serial.correlation_matrix(), pooled.correlation_matrix());
        }
        assert!(serial.updates_applied() > 5);
    }

    #[test]
    fn one_push_releasing_many_chunks_applies_them_oldest_first() {
        // A burst delivery: one `ingest` call carries several basic windows'
        // worth of points, so `StreamBuffer::push` releases multiple complete
        // chunks at once. They must be applied oldest first and every chunk
        // must be accounted for in `updates_applied`/`observed_points` — for
        // both update engines. The drip-fed twin (one basic window per call)
        // pins the ordering: any reordering or dropped chunk diverges.
        let total = 560;
        let hist_len = 300;
        let b = 20;
        let query_len = 160;
        let full = data(total);
        let historical = full.truncate_length(hist_len).unwrap();
        let engines = [
            UpdateEngine::Exact,
            UpdateEngine::Approximate { coefficients: b },
        ];
        for engine in engines {
            let mut burst = RealTimeNetwork::new(&historical, b, query_len, 0.7, engine).unwrap();
            let mut drip = RealTimeNetwork::new(&historical, b, query_len, 0.7, engine).unwrap();

            // 13 points buffered, then a burst of 54 more: 67 buffered
            // points at B = 20, so the push releases exactly 3 complete
            // basic windows and leaves 7 pending.
            let cut = hist_len + 13;
            let first: Vec<Vec<f64>> = full
                .iter()
                .map(|s| s.values()[hist_len..cut].to_vec())
                .collect();
            assert_eq!(burst.ingest(&first).unwrap(), 0);
            let burst_end = cut + 54;
            let second: Vec<Vec<f64>> = full
                .iter()
                .map(|s| s.values()[cut..burst_end].to_vec())
                .collect();
            assert_eq!(burst.ingest(&second).unwrap(), 3);
            assert_eq!(burst.updates_applied(), 3);
            assert_eq!(burst.observed_points(), burst_end);
            assert_eq!(burst.pending_points(), burst_end - hist_len - 3 * b);

            // The drip twin sees the same points one basic window at a time.
            for k in 0..3 {
                let lo = hist_len + k * b;
                let chunk: Vec<Vec<f64>> = full
                    .iter()
                    .map(|s| s.values()[lo..lo + b].to_vec())
                    .collect();
                assert_eq!(drip.ingest(&chunk).unwrap(), 1);
            }
            assert_eq!(
                burst.correlation_matrix(),
                drip.correlation_matrix(),
                "engine {engine:?}"
            );
        }
    }

    #[test]
    fn approximate_parallel_ingest_matches_serial_ingest() {
        use tsubasa_core::runner::ScopedRunner;
        let total = 500;
        let hist_len = 300;
        let b = 20;
        let full = data(total);
        let historical = full.truncate_length(hist_len).unwrap();
        let engine = UpdateEngine::Approximate { coefficients: b };
        let mut serial = RealTimeNetwork::new(&historical, b, 160, 0.7, engine).unwrap();
        let mut pooled = RealTimeNetwork::new(&historical, b, 160, 0.7, engine).unwrap();
        let runner = ScopedRunner::new(4);
        let mut now = hist_len;
        while now + b <= total {
            let updates: Vec<Vec<f64>> = full
                .iter()
                .map(|s| s.values()[now..now + b].to_vec())
                .collect();
            serial.ingest(&updates).unwrap();
            pooled.ingest_in(&runner, &updates).unwrap();
            now += b;
            assert_eq!(serial.correlation_matrix(), pooled.correlation_matrix());
        }
        assert!(serial.updates_applied() > 5);
    }

    #[test]
    fn approximate_rows_are_fresh_sketch_rows_before_and_after_ticks() {
        // Power-of-two B: the bootstrap's rows and every tick's come from
        // the one direct-sum kernel, so one state never holds rows minted
        // two ways. The exact leg holds its rows to `SketchSet::build` the same way. Both engines'
        // statistics rows are a fresh sketch's too, so the exact store is
        // the whole input of a fresh bootstrap of the held window: a plan
        // from its statistics and a dense fill over its rows give that
        // bootstrap's correlations, bit for bit. Past `windows + 1` ticks
        // every row is minted into the buffer of a row an earlier tick
        // evicted, and is still a fresh sketch's row.
        let b = 16;
        let coefficients = 6;
        let windows = 5;
        let ticks_run = 2 * windows + 2;
        let hist_len = 12 * b;
        let full = data(hist_len + ticks_run * b);
        let n = full.len();
        let historical = full.truncate_length(hist_len).unwrap();
        let bits = |view: CorrView<'_>| -> Vec<Vec<u64>> {
            (0..windows)
                .map(|w| view.window_row(w).iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let stat_bits = |row: &[WindowStats]| -> Vec<(usize, u64, u64)> {
            row.iter()
                .map(|s| (s.len, s.mean.to_bits(), s.std.to_bits()))
                .collect()
        };
        for engine in [
            UpdateEngine::Exact,
            UpdateEngine::Approximate { coefficients },
        ] {
            let mut rt = RealTimeNetwork::new(&historical, b, windows * b, 0.7, engine).unwrap();
            for ticks in 0..=ticks_run {
                let now = hist_len + ticks * b;
                if ticks > 0 {
                    let chunk: Vec<Vec<f64>> = full
                        .iter()
                        .map(|s| s.values()[now - b..now].to_vec())
                        .collect();
                    assert_eq!(rt.ingest(&chunk).unwrap(), 1);
                }
                let seen = full.truncate_length(now).unwrap();
                let first = seen.series_len() / b - windows;
                let held = first..first + windows;
                let built = SketchSet::build(&seen, b).unwrap();
                let (stats, rows) = rt.updater.store();
                for (k, w) in held.clone().enumerate() {
                    assert_eq!(
                        stat_bits(stats.row(k)),
                        stat_bits(built.stats_rows().row(w)),
                        "{engine:?}, the statistics of window {w} after {ticks} ticks"
                    );
                }
                let live = bits(rows.view(0..windows));
                let fresh = match engine {
                    UpdateEngine::Exact => bits(built.window_corrs_view(held.clone())),
                    UpdateEngine::Approximate { .. } => {
                        let built =
                            DftSketchSet::build(&seen, b, coefficients, Transform::Naive).unwrap();
                        bits(built.window_ests_view(held.clone()))
                    }
                };
                assert_eq!(live, fresh, "{engine:?}, the rows after {ticks} ticks");

                if engine == UpdateEngine::Exact {
                    let series: Vec<Vec<WindowStats>> = (0..n)
                        .map(|i| (0..windows).map(|k| stats.row(k)[i]).collect())
                        .collect();
                    let plan = QueryPlan::from_window_stats(&series).unwrap();
                    let (anchored, _) =
                        fill_packed(&SerialRunner, &plan, rows.view(0..windows)).unwrap();
                    let window: Vec<Vec<f64>> = full
                        .iter()
                        .map(|s| s.values()[first * b..now].to_vec())
                        .collect();
                    let window = SeriesCollection::from_rows(window).unwrap();
                    let sketch = SketchSet::build(&window, b).unwrap();
                    let bootstrap = SlidingNetwork::initialize(&window, &sketch, windows * b);
                    let bootstrap = bootstrap.unwrap().correlation_matrix();
                    let anchored: Vec<u64> = anchored.iter().map(|c| c.to_bits()).collect();
                    let expected: Vec<u64> = bootstrap
                        .upper_triangle()
                        .iter()
                        .map(|c| c.to_bits())
                        .collect();
                    assert_eq!(anchored, expected, "the re-anchor after {ticks} ticks");
                }
            }
        }
    }

    #[test]
    fn a_history_tail_is_buffered_not_dropped() {
        // 410 points at B = 25: the sketch covers 16 windows, and the last
        // 10 points are the start of the 17th, which the first 15 streamed
        // points complete. Dropping them would splice the stream in after a
        // gap.
        let (total, hist_len, b, query_len) = (700, 410, 25, 200);
        let full = data(total);
        let historical = full.truncate_length(hist_len).unwrap();
        for engine in [
            UpdateEngine::Exact,
            UpdateEngine::Approximate { coefficients: b },
        ] {
            let mut rt = RealTimeNetwork::new(&historical, b, query_len, 0.7, engine).unwrap();
            assert_eq!(rt.pending_points(), hist_len % b);
            let mut now = hist_len;
            while now + 11 <= total {
                let updates: Vec<Vec<f64>> = full
                    .iter()
                    .map(|s| s.values()[now..now + 11].to_vec())
                    .collect();
                rt.ingest(&updates).unwrap();
                now += 11;
            }
            let completed = (hist_len / b + rt.updates_applied()) * b;
            assert_eq!(completed + rt.pending_points(), now, "{engine:?}");
            let truncated = full.truncate_length(completed).unwrap();
            let query = QueryWindow::latest(completed, query_len).unwrap();
            let expected = baseline::correlation_matrix(&truncated, query).unwrap();
            let diff = rt.correlation_matrix().max_abs_diff(&expected);
            assert!(diff < 1e-6, "{engine:?}: {diff} off the contiguous data");
        }
    }

    #[test]
    fn subscribed_deltas_replay_to_current_network() {
        let total = 640;
        let hist_len = 400;
        let b = 25;
        let theta = 0.6;
        let full = data(total);
        let historical = full.truncate_length(hist_len).unwrap();
        for engine in [
            UpdateEngine::Exact,
            UpdateEngine::Approximate { coefficients: b },
        ] {
            let mut rt = RealTimeNetwork::new(&historical, b, 200, theta, engine).unwrap();
            let mut snapshot = rt.subscribe_edges(theta).unwrap();
            assert_eq!(snapshot, rt.network_with_threshold(theta));
            assert!(rt.take_deltas().is_empty());

            // Odd-sized pushes: some complete no basic window, one burst
            // completes several. Each completed window must yield exactly one
            // delta, and replaying them all reaches the live network.
            let mut emitted = 0;
            let mut now = hist_len;
            for step in [11usize, 7, 60, 25, 13, 80] {
                let updates: Vec<Vec<f64>> = full
                    .iter()
                    .map(|s| s.values()[now..now + step].to_vec())
                    .collect();
                let applied = rt.ingest(&updates).unwrap();
                now += step;
                let deltas = rt.take_deltas();
                assert_eq!(deltas.len(), applied);
                emitted += deltas.len();
                for delta in &deltas {
                    delta.apply_to(&mut snapshot).unwrap();
                }
                let expected = rt.network_with_threshold(theta);
                assert_eq!(snapshot, expected, "engine {engine:?} at now={now}");
                assert_eq!(snapshot.nan_pair_count(), expected.nan_pair_count());
            }
            assert_eq!(emitted, rt.updates_applied());

            rt.unsubscribe_edges();
            let updates: Vec<Vec<f64>> = full.iter().map(|s| s.values()[..b].to_vec()).collect();
            rt.ingest(&updates).unwrap();
            assert!(rt.take_deltas().is_empty());
        }
    }

    #[test]
    fn construction_validates_inputs() {
        let historical = data(200);
        assert!(RealTimeNetwork::new(&historical, 25, 90, 0.7, UpdateEngine::Exact).is_err());
        assert!(RealTimeNetwork::new(&historical, 0, 100, 0.7, UpdateEngine::Exact).is_err());
        assert!(RealTimeNetwork::new(&historical, 25, 100, 0.7, UpdateEngine::Exact).is_ok());
    }

    #[test]
    fn ingest_rejects_malformed_updates() {
        let historical = data(200);
        let mut rt = RealTimeNetwork::new(&historical, 20, 100, 0.7, UpdateEngine::Exact).unwrap();
        assert!(rt.ingest(&[vec![1.0]]).is_err());
        let ragged: Vec<Vec<f64>> = (0..6).map(|i| vec![0.0; i % 2 + 1]).collect();
        assert!(rt.ingest(&ragged).is_err());
    }
}
