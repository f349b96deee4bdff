//! Berkeley-Earth-like synthetic gridded dataset.
//!
//! Stands in for the Berkeley Earth 1°×1° land temperature grid used by the
//! paper's scalability experiments (18,638 land nodes × 3,652 daily points).
//! Each grid cell's daily anomaly combines
//!
//! * a latitude-band climatology (annual cycle whose amplitude grows with
//!   |latitude|),
//! * a slow global warming trend,
//! * an ENSO-like low-frequency oscillation whose influence on a cell decays
//!   with the cell's distance from the tropical Pacific (a crude
//!   teleconnection pattern — the kind of long-range dependence climate
//!   networks are built to reveal),
//! * spatially correlated regional AR(1) factors, and
//! * cell-local AR(1) noise.
//!
//! The number of cells and points are configurable so the scalability sweeps
//! (Figure 6) can generate exactly the sizes they need.

use tsubasa_core::error::Result;
use tsubasa_core::{GeoLocation, SeriesCollection, TimeSeries};

use crate::climatology::CycleModel;
use crate::noise::{Ar1, GaussianSampler};

/// Configuration of the Berkeley-Earth-like grid generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerkeleyLikeConfig {
    /// Number of grid cells (series). The full paper dataset has 18,638.
    pub cells: usize,
    /// Number of daily observations per cell. The paper dataset has 3,652.
    pub points: usize,
    /// Grid spacing in degrees (1.0 matches the paper's resolution).
    pub resolution_deg: f64,
    /// RNG seed.
    pub seed: u64,
    /// Number of regional factors.
    pub regions: usize,
    /// e-folding distance (km) of regional influence.
    pub correlation_length_km: f64,
    /// Per-decade warming trend in degrees.
    pub trend_per_decade: f64,
}

impl Default for BerkeleyLikeConfig {
    fn default() -> Self {
        Self {
            cells: 18_638,
            points: 3_652,
            resolution_deg: 1.0,
            seed: 4242,
            regions: 12,
            correlation_length_km: 2_000.0,
            trend_per_decade: 0.2,
        }
    }
}

impl BerkeleyLikeConfig {
    /// A scaled-down configuration sized for the scalability sweeps on a
    /// laptop-class machine.
    pub fn with_cells(cells: usize, points: usize) -> Self {
        Self {
            cells,
            points,
            ..Self::default()
        }
    }
}

/// Generate a Berkeley-Earth-like gridded collection. Cells are laid out on a
/// regular latitude/longitude grid over the (land-heavy) northern mid-latitude
/// band and wrap around as many rows as needed to reach `cells`.
pub fn generate_berkeley_like(config: &BerkeleyLikeConfig) -> Result<SeriesCollection> {
    let mut rng = GaussianSampler::new(config.seed);
    let n = config.cells.max(1);
    let len = config.points.max(2);
    let step = config.resolution_deg.max(0.1);

    // Lay the cells on a grid spanning longitudes [-180, 180) and latitudes
    // climbing from -55° in `step` increments (Berkeley Earth is land-only;
    // the exact land mask is irrelevant to the algorithms).
    let cols = (360.0 / step) as usize;
    let locations: Vec<GeoLocation> = (0..n)
        .map(|i| {
            let row = i / cols;
            let col = i % cols;
            GeoLocation::new(-55.0 + row as f64 * step, -180.0 + col as f64 * step)
        })
        .collect();

    // ENSO-like oscillation: slow quasi-periodic index.
    let enso_period_days = 4.0 * 365.0;
    let mut enso_noise = Ar1::new(0.995, 0.05, config.seed ^ 0xE150);
    let enso: Vec<f64> = (0..len)
        .map(|t| {
            (2.0 * std::f64::consts::PI * t as f64 / enso_period_days).sin()
                + enso_noise.next_value()
        })
        .collect();
    let enso_centre = GeoLocation::new(0.0, -140.0);

    // Global trend (per time step; 3652 daily points ≈ one decade).
    let trend_per_step = config.trend_per_decade / 3_652.0;
    // Global mean factor.
    let global = Ar1::new(0.99, 0.15, config.seed ^ 0x6108).generate(len);

    // Regional factors.
    let centres: Vec<GeoLocation> = (0..config.regions.max(1))
        .map(|_| GeoLocation::new(rng.uniform(-55.0, 70.0), rng.uniform(-180.0, 180.0)))
        .collect();
    let regional: Vec<Vec<f64>> = (0..centres.len())
        .map(|k| Ar1::new(0.95, 0.4, config.seed ^ (0x4E61 + k as u64)).generate(len))
        .collect();

    let mut series = Vec::with_capacity(n);
    for (s, &loc) in locations.iter().enumerate() {
        let cycle = CycleModel {
            base: 0.0,
            annual_amplitude: 0.5 + 0.08 * loc.lat.abs(),
            // Southern hemisphere seasons are flipped.
            annual_phase: if loc.lat < 0.0 { 182.0 } else { 0.0 },
            diurnal_amplitude: 0.0,
            steps_per_year: 365.0,
            steps_per_day: 0.0,
        };
        let enso_weight = (-loc.distance_km(&enso_centre) / 6_000.0).exp();
        let weights: Vec<f64> = centres
            .iter()
            .map(|c| (-loc.distance_km(c) / config.correlation_length_km).exp())
            .collect();
        let mut noise = Ar1::new(0.7, 0.5, config.seed ^ (0xCE11 + s as u64));

        let values: Vec<f64> = (0..len)
            .map(|t| {
                let regional_signal: f64 =
                    weights.iter().zip(&regional).map(|(w, r)| w * r[t]).sum();
                cycle.value(t)
                    + trend_per_step * t as f64
                    + 0.8 * global[t]
                    + 1.2 * enso_weight * enso[t]
                    + 1.5 * regional_signal
                    + noise.next_value()
            })
            .collect();

        series.push(TimeSeries::new(format!("cell-{s:05}"), loc, values));
    }
    SeriesCollection::new(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsubasa_core::stats::pearson;

    fn small(cells: usize, points: usize) -> BerkeleyLikeConfig {
        BerkeleyLikeConfig {
            cells,
            points,
            seed: 11,
            regions: 5,
            ..BerkeleyLikeConfig::default()
        }
    }

    #[test]
    fn generator_produces_requested_shape() {
        let c = generate_berkeley_like(&small(50, 730)).unwrap();
        assert_eq!(c.len(), 50);
        assert_eq!(c.series_len(), 730);
        for s in c.iter() {
            assert!(s.values().iter().all(|v| v.is_finite()));
            assert!((-90.0..=90.0).contains(&s.location.lat));
            assert!((-180.0..180.0).contains(&s.location.lon));
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = generate_berkeley_like(&small(30, 365)).unwrap();
        let b = generate_berkeley_like(&small(30, 365)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn neighbouring_cells_are_strongly_correlated() {
        let c = generate_berkeley_like(&small(40, 1460)).unwrap();
        // Cells 0 and 1 are adjacent (1° apart); cells 0 and 39 are far away.
        let near = pearson(c.get(0).unwrap().values(), c.get(1).unwrap().values());
        let far = pearson(c.get(0).unwrap().values(), c.get(39).unwrap().values());
        assert!(near > 0.5, "adjacent-cell correlation {near}");
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn grid_layout_follows_resolution() {
        let c = generate_berkeley_like(&small(10, 365)).unwrap();
        let a = c.get(0).unwrap().location;
        let b = c.get(1).unwrap().location;
        assert!((b.lon - a.lon - 1.0).abs() < 1e-9);
        assert!((b.lat - a.lat).abs() < 1e-9);
    }

    #[test]
    fn default_matches_paper_scale() {
        let d = BerkeleyLikeConfig::default();
        assert_eq!(d.cells, 18_638);
        assert_eq!(d.points, 3_652);
        assert_eq!(d.resolution_deg, 1.0);
    }

    #[test]
    fn with_cells_builder_overrides_size_only() {
        let c = BerkeleyLikeConfig::with_cells(123, 456);
        assert_eq!(c.cells, 123);
        assert_eq!(c.points, 456);
        assert_eq!(c.seed, BerkeleyLikeConfig::default().seed);
    }
}
