//! Workload inputs, made from the seed alone.
//!
//! Every workload runs on the same recipe: a Berkeley-Earth-like grid
//! (`generate_berkeley_like`, 10° spacing so the cells span the globe),
//! where three series in four get 1 % of their points knocked out and
//! interpolated back, become anomalies against a 365-step climatology, and
//! lose the cross-sectional mean; every fourth series is independent AR(1)
//! noise, which gives tile pruning something to skip. Raw series would be
//! useless here: their shared seasonal cycle makes every pair an edge and
//! every streaming delta empty. The global-mean removal is what keeps edge
//! density steady over time and across seeds (without it the slow global
//! factor swings density between 0.00 and 0.56 from one window to the next).
//!
//! The threshold θ is part of the generated input too: the 92nd percentile
//! of the all-pairs correlations on a reference window, so about 8 % of
//! pairs are edges whatever the seed.

use std::time::Instant;

use tsubasa_core::stats::{normalize_into, tiled_pair_corrs_into, WindowStats};
use tsubasa_core::SeriesCollection;
use tsubasa_data::climatology::anomalies_with_period;
use tsubasa_data::prelude::*;

/// Basic-window size of every workload (the paper's B).
pub const BASIC_WINDOW: usize = 120;
/// Share of pairs that should be edges on the reference window.
pub const TARGET_DENSITY: f64 = 0.08;
/// Edge density the harness accepts on the reference query.
pub const DENSITY_RANGE: (f64, f64) = (0.01, 0.30);

/// SplitMix64: the ledger's only random source, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// A round of `len` ops holding each kind in exactly its share (`shares`
    /// are percentages; the first kind absorbs the rounding), in seeded
    /// order. Exact counts, not draws: a drawn mix would make every count
    /// and every throughput vary with the seed for no reason but sampling.
    pub fn mix<K: Copy>(&mut self, len: usize, shares: &[(K, usize)]) -> Vec<K> {
        let mut round = Vec::with_capacity(len);
        for &(kind, share) in &shares[1..] {
            round.extend(std::iter::repeat_n(kind, (len * share + 50) / 100));
        }
        while round.len() < len {
            round.push(shares[0].0);
        }
        for i in (1..round.len()).rev() {
            round.swap(i, self.range(0, i + 1));
        }
        round
    }
}

/// Generate `n` series of `points` observations for `seed`. Returns the
/// collection and the seconds the generators and transforms took.
pub fn dataset(n: usize, points: usize, seed: u64) -> (SeriesCollection, f64) {
    let started = Instant::now();
    let raw = generate_berkeley_like(&BerkeleyLikeConfig {
        cells: n,
        points,
        seed,
        resolution_deg: 10.0,
        ..BerkeleyLikeConfig::default()
    })
    .expect("the grid generator accepts any positive shape");

    let structured = |i: usize| i % 4 != 3;
    let mut rows: Vec<Vec<f64>> = raw
        .iter()
        .enumerate()
        .map(|(i, series)| {
            if structured(i) {
                let mut values = series.values().to_vec();
                inject_missing(&mut values, 0.01, seed ^ (i as u64 + 1));
                anomalies_with_period(&interpolate_missing(&values), 365)
            } else {
                Ar1::new(0.6, 1.0, seed ^ (0xA51 + i as u64)).generate(points)
            }
        })
        .collect();

    let count = (0..n).filter(|&i| structured(i)).count().max(1) as f64;
    for t in 0..points {
        let mean = (0..n)
            .filter(|&i| structured(i))
            .map(|i| rows[i][t])
            .sum::<f64>()
            / count;
        for (i, row) in rows.iter_mut().enumerate() {
            if structured(i) {
                row[t] -= mean;
            }
        }
    }

    let collection = SeriesCollection::from_rows(rows).expect("rows share one length");
    (collection, started.elapsed().as_secs_f64())
}

/// The threshold that makes [`TARGET_DENSITY`] of `corrs` edges, rounded to
/// three decimals (it travels over the wire), and the share of `corrs` it
/// actually leaves above it.
pub fn pick_theta(corrs: &[f64]) -> (f64, f64) {
    theta_for_density(corrs, TARGET_DENSITY)
}

/// The same for any target `density`.
pub fn theta_for_density(corrs: &[f64], density: f64) -> (f64, f64) {
    let mut sorted: Vec<f64> = corrs.iter().copied().filter(|c| c.is_finite()).collect();
    sorted.sort_by(f64::total_cmp);
    let q = crate::stats::percentile(&sorted, 1.0 - density);
    let theta = ((q * 1000.0).round() / 1000.0).clamp(-0.999, 0.999);
    let density = corrs.iter().filter(|&&c| c > theta).count() as f64 / corrs.len().max(1) as f64;
    (theta, density)
}

/// Sketch of one arriving basic window, from the public kernels: the
/// per-series statistics, and the packed pair-correlation row.
#[derive(Debug, Clone)]
pub struct WindowParts {
    /// `(len, mean, std)` per series.
    pub stats: Vec<WindowStats>,
    /// Correlation of every pair, packed upper-triangle order.
    pub corrs: Vec<f64>,
}

impl WindowParts {
    /// The `(len, mean, std)` triples flattened into a pile `SeriesStats` row.
    pub fn stats_row(&self) -> Vec<f64> {
        self.stats
            .iter()
            .flat_map(|s| [s.len as f64, s.mean, s.std])
            .collect()
    }
}

/// Microseconds spent in each step of [`window_parts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowPartsTiming {
    /// `WindowStats::from_values` over every series.
    pub stats_us: f64,
    /// `stats::normalize_into` over every series.
    pub normalize_us: f64,
    /// `stats::tiled_pair_corrs_into` over the `N × B` block.
    pub kernel_us: f64,
}

/// Sketch one `N × B` window (`rows[i]` are series `i`'s `B` new points)
/// with the same public kernels, in the same order, as `SketchSet::build`
/// uses per window — so the parts are bit-identical to a from-scratch
/// sketch of the same points. `z` is reusable scratch.
pub fn window_parts(rows: &[&[f64]], z: &mut Vec<f64>) -> (WindowParts, WindowPartsTiming) {
    let n = rows.len();
    let b = rows.first().map_or(0, |r| r.len());
    z.resize(n * b, 0.0);

    let t = Instant::now();
    let stats: Vec<WindowStats> = rows.iter().map(|r| WindowStats::from_values(r)).collect();
    let stats_us = t.elapsed().as_secs_f64() * 1e6;

    let t = Instant::now();
    for (i, row) in rows.iter().enumerate() {
        normalize_into(row, &stats[i], &mut z[i * b..(i + 1) * b]);
    }
    let normalize_us = t.elapsed().as_secs_f64() * 1e6;

    let t = Instant::now();
    let mut corrs = vec![0.0f64; n * n.saturating_sub(1) / 2];
    tiled_pair_corrs_into(z, n, b, &mut corrs);
    let kernel_us = t.elapsed().as_secs_f64() * 1e6;

    (
        WindowParts { stats, corrs },
        WindowPartsTiming {
            stats_us,
            normalize_us,
            kernel_us,
        },
    )
}

/// Basic window `w` of every series, as borrowed rows for [`window_parts`].
pub fn window_rows(collection: &SeriesCollection, w: usize) -> Vec<&[f64]> {
    collection
        .iter()
        .map(|s| &s.values()[w * BASIC_WINDOW..(w + 1) * BASIC_WINDOW])
        .collect()
}

/// Basic window `w` of every series as owned chunks — the shape the
/// streaming entry points (`ingest`, `push`) take.
pub fn window_chunk(collection: &SeriesCollection, w: usize) -> Vec<Vec<f64>> {
    window_rows(collection, w)
        .into_iter()
        .map(<[f64]>::to_vec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsubasa_core::SketchSet;

    #[test]
    fn same_seed_gives_the_same_inputs() {
        let (a, _) = dataset(8, 400, 5);
        let (b, _) = dataset(8, 400, 5);
        let (c, _) = dataset(8, 400, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r1 = Rng::new(9, 1);
        let mut r2 = Rng::new(9, 1);
        assert_eq!(r1.next_u64(), r2.next_u64());
        assert!((10..20).contains(&r1.range(10, 20)));
        let round = r1.mix(200, &[('a', 48), ('b', 19), ('c', 14), ('d', 14), ('e', 5)]);
        let count = |k| round.iter().filter(|&&x| x == k).count();
        assert_eq!(
            (count('a'), count('b'), count('c'), count('d'), count('e')),
            (96, 38, 28, 28, 10)
        );
        assert_ne!(
            round,
            r2.mix(200, &[('a', 48), ('b', 19), ('c', 14), ('d', 14), ('e', 5)])
        );
    }

    #[test]
    fn theta_hits_the_target_density() {
        let corrs: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        let (theta, density) = pick_theta(&corrs);
        assert!((0.91..0.93).contains(&theta), "theta {theta}");
        assert!((density - TARGET_DENSITY).abs() < 0.01, "density {density}");
    }

    #[test]
    fn window_parts_equal_the_sketch_of_the_same_points() {
        let (c, _) = dataset(9, 2 * BASIC_WINDOW, 3);
        let sketch = SketchSet::build(&c, BASIC_WINDOW).unwrap();
        let mut z = Vec::new();
        for w in 0..2 {
            let (parts, _) = window_parts(&window_rows(&c, w), &mut z);
            assert_eq!(
                parts.corrs,
                sketch.window_corrs_view(w..w + 1).window_row(0)
            );
            for (i, st) in parts.stats.iter().enumerate() {
                assert_eq!(*st, sketch.series_sketch(i).unwrap().window(w));
            }
        }
    }
}
