//! Helpers shared by the integration suites (`mod support;` in each).

use tsubasa_core::SeriesCollection;

/// The suites' one seeded series generator: point `t` of a series is
/// `amp · sin(freq · t)` plus LCG noise uniform in `[-1, 1)`, and series `s`
/// of a collection drawn at `seed` is the series of seed `seed + s · stride`.
/// Each suite fixes its own parameters.
#[derive(Debug, Clone, Copy)]
pub struct Generator {
    /// Angular step of the sine per point.
    pub freq: f64,
    /// Amplitude of the sine.
    pub amp: f64,
    /// Seed distance between consecutive series of a collection.
    pub stride: u64,
}

impl Generator {
    /// One series of `len` points.
    pub fn series(self, seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let noise = (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0;
                (i as f64 * self.freq).sin() * self.amp + noise
            })
            .collect()
    }

    /// `n` series of `len` points.
    pub fn rows(self, seed: u64, n: usize, len: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|s| self.series(seed.wrapping_add(s as u64 * self.stride), len))
            .collect()
    }

    /// [`Generator::rows`] as a collection.
    pub fn collection(self, seed: u64, n: usize, len: usize) -> SeriesCollection {
        SeriesCollection::from_rows(self.rows(seed, n, len)).unwrap()
    }
}
