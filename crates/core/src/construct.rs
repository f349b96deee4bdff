//! High-level network construction drivers: the user-facing entry points that
//! stitch together sketching (Algorithm 1), exact recombination (Lemma 1 /
//! Algorithm 2), and the bootstrap of the real-time updater (Algorithm 3).

use crate::error::{Error, Result};
use crate::exact;
use crate::incremental::SlidingNetwork;
use crate::matrix::{AdjacencyMatrix, CorrelationMatrix};
use crate::sketch::SketchSet;
use crate::sweep::EdgeRule;
use crate::timeseries::SeriesCollection;
use crate::window::QueryWindow;

/// Configuration of a network-construction session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Basic window size `B` used for sketching.
    pub basic_window: usize,
    /// Default correlation threshold θ applied when building the boolean
    /// network matrix.
    pub threshold: f64,
}

impl NetworkConfig {
    /// Create a configuration, validating the threshold range.
    pub fn new(basic_window: usize, threshold: f64) -> Result<Self> {
        Ok(Self {
            basic_window,
            threshold: EdgeRule::check_theta(threshold)?,
        })
    }
}

/// Historical-data network builder: owns the collection and its sketch and
/// answers arbitrary query-window requests (Algorithm 2) without rescanning
/// raw data for the interior of the window.
#[derive(Debug, Clone)]
pub struct HistoricalBuilder {
    collection: SeriesCollection,
    sketch: SketchSet,
    config: NetworkConfig,
}

impl HistoricalBuilder {
    /// Ingest a collection: sketches every basic window of every series and
    /// every pair (the paper's pre-processing / data-ingestion phase).
    pub fn new(collection: SeriesCollection, config: NetworkConfig) -> Result<Self> {
        let sketch = SketchSet::build(&collection, config.basic_window)?;
        Ok(Self {
            collection,
            sketch,
            config,
        })
    }

    /// Re-use an existing sketch (e.g. re-hydrated from `tsubasa-storage`).
    pub fn with_sketch(
        collection: SeriesCollection,
        sketch: SketchSet,
        config: NetworkConfig,
    ) -> Result<Self> {
        if sketch.basic_window() != config.basic_window || sketch.series_count() != collection.len()
        {
            return Err(Error::SketchMismatch {
                requested: format!("B={} over {} series", config.basic_window, collection.len()),
                available: format!(
                    "B={} over {} series",
                    sketch.basic_window(),
                    sketch.series_count()
                ),
            });
        }
        Ok(Self {
            collection,
            sketch,
            config,
        })
    }

    /// The underlying collection.
    pub fn collection(&self) -> &SeriesCollection {
        &self.collection
    }

    /// The pre-computed sketch.
    pub fn sketch(&self) -> &SketchSet {
        &self.sketch
    }

    /// The session configuration.
    pub fn config(&self) -> NetworkConfig {
        self.config
    }

    /// Exact correlation matrix on an arbitrary query window.
    pub fn correlation_matrix(&self, query: QueryWindow) -> Result<CorrelationMatrix> {
        exact::correlation_matrix(&self.collection, &self.sketch, query)
    }

    /// Climate network on `query` at the configured threshold
    /// (Algorithm 2 end-to-end).
    pub fn network(&self, query: QueryWindow) -> Result<AdjacencyMatrix> {
        self.network_with_threshold(query, self.config.threshold)
    }

    /// Climate network on `query` at a caller-supplied threshold — the paper
    /// stresses that keeping the full correlation matrix lets users re-apply
    /// arbitrary thresholds at query time without recomputation.
    pub fn network_with_threshold(
        &self,
        query: QueryWindow,
        theta: f64,
    ) -> Result<AdjacencyMatrix> {
        EdgeRule::check_theta(theta)?;
        self.correlation_matrix(query)?.threshold(theta)
    }

    /// Bootstrap the real-time incremental engine on the most recent
    /// `query_len` points (Algorithm 3 line 2: construct the initial network,
    /// then hand over to chunked ingestion).
    pub fn into_sliding(&self, query_len: usize) -> Result<SlidingNetwork> {
        SlidingNetwork::initialize(&self.collection, &self.sketch, query_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;

    fn wave(seed: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                ((i + seed * 11) as f64 * 0.13).sin() + 0.01 * ((seed * 31 + i * 7) % 13) as f64
            })
            .collect()
    }

    fn builder() -> HistoricalBuilder {
        let c = SeriesCollection::from_rows((0..5).map(|s| wave(s, 160)).collect()).unwrap();
        HistoricalBuilder::new(c, NetworkConfig::new(20, 0.75).unwrap()).unwrap()
    }

    #[test]
    fn config_validates_threshold() {
        assert!(NetworkConfig::new(10, 2.0).is_err());
        assert!(NetworkConfig::new(10, -0.5).is_ok());
    }

    #[test]
    fn builder_matches_baseline() {
        let b = builder();
        let query = QueryWindow::new(159, 100).unwrap();
        let m = b.correlation_matrix(query).unwrap();
        let direct = baseline::correlation_matrix(b.collection(), query).unwrap();
        assert!(m.max_abs_diff(&direct) < 1e-9);
    }

    #[test]
    fn network_uses_configured_threshold() {
        let b = builder();
        let query = QueryWindow::new(159, 120).unwrap();
        let net = b.network(query).unwrap();
        let expected = b
            .correlation_matrix(query)
            .unwrap()
            .threshold(0.75)
            .unwrap();
        assert_eq!(net, expected);
    }

    #[test]
    fn network_with_custom_threshold_and_validation() {
        let b = builder();
        let query = QueryWindow::new(159, 120).unwrap();
        assert!(b.network_with_threshold(query, 1.5).is_err());
        let loose = b.network_with_threshold(query, 0.1).unwrap();
        let tight = b.network_with_threshold(query, 0.99).unwrap();
        assert!(loose.edge_count() >= tight.edge_count());
    }

    #[test]
    fn with_sketch_rejects_mismatch() {
        let b = builder();
        let other_cfg = NetworkConfig::new(10, 0.5).unwrap();
        let err =
            HistoricalBuilder::with_sketch(b.collection().clone(), b.sketch().clone(), other_cfg)
                .unwrap_err();
        assert!(matches!(err, Error::SketchMismatch { .. }));
        // Matching config round-trips fine.
        assert!(HistoricalBuilder::with_sketch(
            b.collection().clone(),
            b.sketch().clone(),
            b.config(),
        )
        .is_ok());
    }

    #[test]
    fn into_sliding_bootstraps_realtime_engine() {
        let b = builder();
        let sliding = b.into_sliding(100).unwrap();
        assert_eq!(sliding.series_count(), 5);
        assert_eq!(sliding.window_count(), 5);
        assert!(b.into_sliding(55).is_err());
    }
}
