//! Property suite for the delta-maintained network layer: across both
//! sliding engines and randomized ingest sequences, replaying
//! the per-tick [`EdgeDelta`]s onto the subscription baseline must reproduce
//! the full re-threshold bit for bit — same edge set and the same
//! NaN-audited pair count — at a random threshold, and no NaN pair is ever
//! an edge. 256 deterministic cases, half with NaN observations injected
//! mid-stream, on both engines.

use std::ops::DerefMut;

use tsubasa::core::prelude::*;
use tsubasa::dft::sketch::{DftSketchSet, Transform};
use tsubasa::dft::SlidingApproxNetwork;

/// SplitMix64: deterministic, dependency-free case generator.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// Both engines dereference to the shared [`SlidingState`] (subscription,
/// deltas, network); only the ingest differs.
trait DeltaEngine: DerefMut<Target = SlidingState> {
    fn slide(&mut self, chunk: &[Vec<f64>]) -> Result<()>;
}

impl DeltaEngine for SlidingNetwork {
    fn slide(&mut self, chunk: &[Vec<f64>]) -> Result<()> {
        self.ingest(chunk)
    }
}

impl DeltaEngine for SlidingApproxNetwork {
    fn slide(&mut self, chunk: &[Vec<f64>]) -> Result<()> {
        self.ingest(chunk)
    }
}

/// Drive one engine through `slides` random chunks, asserting after every
/// tick that baseline-plus-deltas equals the full re-threshold exactly.
#[allow(clippy::too_many_arguments)]
fn run_case(
    engine: &mut dyn DeltaEngine,
    rng: &mut Rng,
    rows: &[Vec<f64>],
    basic: usize,
    query_len: usize,
    slides: usize,
    theta: f64,
    inject_nan: bool,
    label: &str,
) {
    let mut replayed = engine.subscribe_edges(theta).unwrap();
    let baseline = engine.network(theta);
    assert_eq!(replayed, baseline, "{label}: baseline mismatch");
    assert_eq!(
        replayed.nan_pair_count(),
        baseline.nan_pair_count(),
        "{label}: baseline NaN audit mismatch"
    );

    for s in 0..slides {
        let lo = query_len + s * basic;
        let mut chunk: Vec<Vec<f64>> = rows.iter().map(|r| r[lo..lo + basic].to_vec()).collect();
        if inject_nan && rng.unit() < 0.5 {
            // Poison one series' arriving window: the delta path must count
            // the pair as NaN-audited, never silently drop or mis-edge it.
            let series = rng.range(0, chunk.len());
            let point = rng.range(0, basic);
            chunk[series][point] = f64::NAN;
        }
        engine.slide(&chunk).unwrap();

        let delta = engine
            .changed_edges()
            .unwrap_or_else(|| panic!("{label}: subscribed engine must emit a delta per tick"))
            .clone();
        delta.apply_to(&mut replayed).unwrap();

        let full = engine.network(theta);
        for (i, j, c) in engine.correlation_matrix().iter_pairs() {
            let nan_edge = c.is_nan() && full.has_edge(i, j);
            assert!(
                !nan_edge,
                "{label}: NaN pair ({i}, {j}) is an edge at slide {s}"
            );
        }
        assert_eq!(replayed, full, "{label}: edge set diverged at slide {s}");
        assert_eq!(
            replayed.nan_pair_count(),
            full.nan_pair_count(),
            "{label}: NaN audit diverged at slide {s}"
        );
    }
}

#[test]
fn replayed_deltas_match_full_rethreshold_256_cases() {
    let mut rng = Rng(0x7a5b_a5a1_d317_0001);

    for case in 0..256usize {
        let n = rng.range(3, 7);
        let basic = rng.range(4, 10);
        let windows = rng.range(3, 6);
        let slides = rng.range(2, 5);
        let theta = -0.9 + 1.85 * rng.unit();
        // Both engines: the exact ones at `case % 4 == 0`, the approximate
        // ones at `case % 4 == 1`.
        let inject_nan = case % 4 < 2;
        let query_len = basic * windows;
        let series_len = query_len + basic * slides;

        // Mixed structure: a shared slow oscillation (per-series phase) plus
        // noise, so random thresholds land near real correlations and edges
        // both appear and vanish as the window slides.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|s| {
                let phase = rng.unit() * 3.0;
                let amp = 0.4 + rng.unit();
                (0..series_len)
                    .map(|t| {
                        amp * (t as f64 * 0.21 + phase).sin()
                            + (rng.unit() - 0.5) * 0.8
                            + s as f64 * 0.01
                    })
                    .collect()
            })
            .collect();
        let initial: Vec<Vec<f64>> = rows.iter().map(|r| r[..query_len].to_vec()).collect();
        let collection = SeriesCollection::from_rows(initial).unwrap();

        if case % 2 == 0 {
            let sketch = SketchSet::build(&collection, basic).unwrap();
            let mut net = SlidingNetwork::initialize(&collection, &sketch, query_len).unwrap();
            run_case(
                &mut net,
                &mut rng,
                &rows,
                basic,
                query_len,
                slides,
                theta,
                inject_nan,
                &format!("case {case} (exact, theta={theta:.3})"),
            );
        } else {
            let coefficients = (basic / 2).max(1);
            let sketch =
                DftSketchSet::build(&collection, basic, coefficients, Transform::Naive).unwrap();
            let mut net = SlidingApproxNetwork::initialize(&sketch, query_len).unwrap();
            run_case(
                &mut net,
                &mut rng,
                &rows,
                basic,
                query_len,
                slides,
                theta,
                inject_nan,
                &format!("case {case} (approx, theta={theta:.3})"),
            );
        }
    }
}
