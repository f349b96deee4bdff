//! NCEA-like synthetic station dataset.
//!
//! Stands in for the NOAA / NCEA hourly station data used by the paper's
//! in-memory experiments: 157 stations across the contiguous US, hourly
//! resolution, ~8,760 points per year. Each synthetic station temperature is
//! the sum of
//!
//! * a shared annual cycle and a diurnal cycle (amplitudes vary with
//!   latitude), making the series strongly "uncooperative" for DFT
//!   approximation, exactly like real temperature data;
//! * a continental-scale AR(1) weather factor shared by all stations;
//! * a handful of regional AR(1) factors whose influence decays with the
//!   distance between the station and the factor's centre — this is what
//!   gives the resulting climate network its spatial structure;
//! * independent AR(1) measurement noise;
//! * optionally, missing values that are then re-interpolated (so the
//!   generated collection exercises the same cleaning path as real data).

use tsubasa_core::error::Result;
use tsubasa_core::{GeoLocation, SeriesCollection, TimeSeries};

use crate::climatology::CycleModel;
use crate::missing::{inject_missing, interpolate_missing};
use crate::noise::{Ar1, GaussianSampler};

/// Configuration of the NCEA-like station generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NceaLikeConfig {
    /// Number of stations (series). The paper's dataset has 157.
    pub stations: usize,
    /// Number of hourly observations per station. The paper's dataset has
    /// about 8,760 (one year).
    pub points: usize,
    /// RNG seed; the same seed reproduces the same dataset bit-for-bit.
    pub seed: u64,
    /// Number of regional weather factors.
    pub regions: usize,
    /// e-folding distance (km) of a regional factor's influence.
    pub correlation_length_km: f64,
    /// Fraction of observations dropped and re-interpolated (0 disables).
    pub missing_fraction: f64,
}

impl Default for NceaLikeConfig {
    fn default() -> Self {
        Self {
            stations: 157,
            points: 8_760,
            seed: 42,
            regions: 6,
            correlation_length_km: 900.0,
            missing_fraction: 0.01,
        }
    }
}

impl NceaLikeConfig {
    /// A scaled-down configuration for tests and quick examples.
    pub fn small() -> Self {
        Self {
            stations: 20,
            points: 1_200,
            ..Self::default()
        }
    }
}

/// Generate an NCEA-like station collection.
pub fn generate_ncea_like(config: &NceaLikeConfig) -> Result<SeriesCollection> {
    let mut rng = GaussianSampler::new(config.seed);
    let n = config.stations.max(1);
    let len = config.points.max(2);

    // Station locations: roughly the contiguous US bounding box.
    let locations: Vec<GeoLocation> = (0..n)
        .map(|_| GeoLocation::new(rng.uniform(25.0, 49.0), rng.uniform(-124.0, -67.0)))
        .collect();

    // Regional factor centres and their AR(1) drivers.
    let centres: Vec<GeoLocation> = (0..config.regions.max(1))
        .map(|_| GeoLocation::new(rng.uniform(25.0, 49.0), rng.uniform(-124.0, -67.0)))
        .collect();
    let regional: Vec<Vec<f64>> = (0..centres.len())
        .map(|k| Ar1::new(0.97, 0.6, config.seed ^ (0x5151 + k as u64)).generate(len))
        .collect();
    // Continental factor shared by everyone.
    let continental = Ar1::new(0.98, 0.4, config.seed ^ 0xC017).generate(len);

    let mut series = Vec::with_capacity(n);
    for (s, &loc) in locations.iter().enumerate() {
        // Higher latitudes get colder means and larger annual swings, like
        // the real continental US.
        let cycle = CycleModel {
            base: 25.0 - 0.6 * (loc.lat - 25.0),
            annual_amplitude: 8.0 + 0.4 * (loc.lat - 25.0),
            annual_phase: rng.uniform(-200.0, 200.0),
            diurnal_amplitude: 4.0 + rng.uniform(-1.0, 1.0),
            steps_per_year: 8_760.0,
            steps_per_day: 24.0,
        };
        let weights: Vec<f64> = centres
            .iter()
            .map(|c| (-loc.distance_km(c) / config.correlation_length_km).exp())
            .collect();
        let mut noise = Ar1::new(0.6, 0.8, config.seed ^ (0xBEEF + s as u64));

        let mut values: Vec<f64> = (0..len)
            .map(|t| {
                let regional_signal: f64 =
                    weights.iter().zip(&regional).map(|(w, r)| w * r[t]).sum();
                cycle.value(t) + 1.5 * continental[t] + 2.0 * regional_signal + noise.next_value()
            })
            .collect();

        if config.missing_fraction > 0.0 {
            inject_missing(
                &mut values,
                config.missing_fraction,
                config.seed ^ (0xD00D + s as u64),
            );
            values = interpolate_missing(&values);
        }

        series.push(TimeSeries::new(format!("station-{s:03}"), loc, values));
    }
    SeriesCollection::new(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsubasa_core::stats::{pearson, WindowStats};

    fn small() -> NceaLikeConfig {
        NceaLikeConfig {
            stations: 12,
            points: 2_000,
            seed: 7,
            regions: 4,
            correlation_length_km: 800.0,
            missing_fraction: 0.02,
        }
    }

    #[test]
    fn generator_produces_requested_shape() {
        let c = generate_ncea_like(&small()).unwrap();
        assert_eq!(c.len(), 12);
        assert_eq!(c.series_len(), 2_000);
        // Station metadata present and inside the US box.
        for s in c.iter() {
            assert!(s.name.starts_with("station-"));
            assert!((25.0..=49.0).contains(&s.location.lat));
            assert!((-124.0..=-67.0).contains(&s.location.lon));
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = generate_ncea_like(&small()).unwrap();
        let b = generate_ncea_like(&small()).unwrap();
        assert_eq!(a, b);
        let mut cfg = small();
        cfg.seed = 8;
        let c = generate_ncea_like(&cfg).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn no_missing_values_survive_cleaning() {
        let c = generate_ncea_like(&small()).unwrap();
        for s in c.iter() {
            assert!(s.values().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn series_have_seasonal_variance_and_plausible_means() {
        let c = generate_ncea_like(&small()).unwrap();
        for s in c.iter() {
            let stats = WindowStats::from_values(s.values());
            assert!(stats.std > 1.0, "std {}", stats.std);
            assert!((-30.0..45.0).contains(&stats.mean), "mean {}", stats.mean);
        }
    }

    #[test]
    fn nearby_stations_are_more_correlated_than_distant_ones() {
        let cfg = NceaLikeConfig {
            stations: 30,
            points: 3_000,
            missing_fraction: 0.0,
            ..small()
        };
        let c = generate_ncea_like(&cfg).unwrap();
        // Average correlation of the 5 closest vs the 5 farthest pairs.
        let mut pairs: Vec<(f64, f64)> = c
            .pairs()
            .map(|(i, j)| {
                let a = c.get(i).unwrap();
                let b = c.get(j).unwrap();
                (
                    a.location.distance_km(&b.location),
                    pearson(a.values(), b.values()),
                )
            })
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let near: f64 = pairs.iter().take(5).map(|p| p.1).sum::<f64>() / 5.0;
        let far: f64 = pairs.iter().rev().take(5).map(|p| p.1).sum::<f64>() / 5.0;
        assert!(
            near > far,
            "near-pair correlation {near} should exceed far-pair correlation {far}"
        );
    }

    #[test]
    fn default_config_matches_paper_scale() {
        let d = NceaLikeConfig::default();
        assert_eq!(d.stations, 157);
        assert_eq!(d.points, 8_760);
    }
}
