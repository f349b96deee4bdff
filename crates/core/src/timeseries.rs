//! Geo-labeled, synchronized time-series and collections thereof.
//!
//! The paper's data model (§2.1): a collection `L = {x_1, ..., x_n}` of
//! synchronized series, one per geographical location. Every series has a
//! value at every tick of the shared time resolution; missing values are
//! interpolated and duplicate observations aggregated upstream (see
//! `tsubasa-data` for those transforms).

use crate::error::{Error, Result};

/// Identifier of a series inside a [`SeriesCollection`] (its index).
pub type SeriesId = usize;

/// A geographical location attached to a series (grid cell centre or station
/// position). Latitude/longitude are in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoLocation {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl GeoLocation {
    /// Create a new location.
    pub fn new(lat: f64, lon: f64) -> Self {
        Self { lat, lon }
    }

    /// Great-circle distance to `other` in kilometres (haversine formula,
    /// mean Earth radius 6371 km). Used by the synthetic data generators to
    /// impose distance-decaying correlation, and handy for network analysis.
    pub fn distance_km(&self, other: &GeoLocation) -> f64 {
        const R: f64 = 6371.0;
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * R * a.sqrt().asin()
    }
}

impl Default for GeoLocation {
    fn default() -> Self {
        Self { lat: 0.0, lon: 0.0 }
    }
}

/// A single geo-labeled time-series: the observed values of one climatic
/// variable at one location, one value per time-resolution tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Human-readable name (station id, grid-cell label, ...).
    pub name: String,
    /// Geographical position of the sensor / grid cell.
    pub location: GeoLocation,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Create a series from raw values.
    pub fn new(name: impl Into<String>, location: GeoLocation, values: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            location,
            values,
        }
    }

    /// Create an anonymous series located at the origin. Mostly useful in
    /// tests and benchmarks.
    pub fn from_values(values: Vec<f64>) -> Self {
        Self::new("", GeoLocation::default(), values)
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series holds no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The observed values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The sub-sequence selected by a query window (start..=end, inclusive).
    ///
    /// Returns an error if the window does not fit in the series.
    pub fn slice(&self, window: crate::window::QueryWindow) -> Result<&[f64]> {
        let len = self.values.len();
        if window.end >= len || window.len == 0 || window.len > window.end + 1 {
            return Err(Error::InvalidQueryWindow {
                end: window.end,
                len: window.len,
                series_len: len,
            });
        }
        let start = window.start();
        Ok(&self.values[start..=window.end])
    }

    /// Append newly observed points (real-time ingestion).
    pub fn extend_from_slice(&mut self, new_points: &[f64]) {
        self.values.extend_from_slice(new_points);
    }
}

/// A synchronized collection of time-series — the paper's `L`.
///
/// Invariant: every series has the same length (the series are synchronized
/// to a shared time resolution).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesCollection {
    series: Vec<TimeSeries>,
}

impl SeriesCollection {
    /// Build a collection from already-synchronized series.
    ///
    /// Fails if the collection is empty or the series lengths differ.
    pub fn new(series: Vec<TimeSeries>) -> Result<Self> {
        if series.is_empty() {
            return Err(Error::EmptyInput(
                "SeriesCollection::new received no series",
            ));
        }
        let expected = series[0].len();
        if expected == 0 {
            return Err(Error::EmptyInput(
                "series in a collection must be non-empty",
            ));
        }
        for (index, s) in series.iter().enumerate() {
            if s.len() != expected {
                return Err(Error::UnalignedSeries {
                    expected,
                    found: s.len(),
                    index,
                });
            }
        }
        Ok(Self { series })
    }

    /// Build an anonymous collection from plain rows of values. Convenient in
    /// examples, tests, and benchmarks.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        Self::new(rows.into_iter().map(TimeSeries::from_values).collect())
    }

    /// Number of series (`N` in the paper's complexity analysis).
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when the collection holds no series. Note [`SeriesCollection::new`]
    /// never produces an empty collection; this exists for completeness.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Length of each series (`L` in the paper's complexity analysis).
    pub fn series_len(&self) -> usize {
        self.series[0].len()
    }

    /// Borrow one series.
    pub fn get(&self, id: SeriesId) -> Result<&TimeSeries> {
        self.series.get(id).ok_or(Error::UnknownSeries(id))
    }

    /// Iterate over the series in id order.
    pub fn iter(&self) -> impl Iterator<Item = &TimeSeries> {
        self.series.iter()
    }

    /// Iterate over `(id, series)` pairs.
    pub fn iter_with_ids(&self) -> impl Iterator<Item = (SeriesId, &TimeSeries)> {
        self.series.iter().enumerate()
    }

    /// Iterate over the ids of all unordered pairs `(i, j)` with `i < j` —
    /// the upper triangle of the correlation matrix. Pearson correlation is
    /// symmetric so only these `N(N-1)/2` pairs are ever computed.
    pub fn pairs(&self) -> impl Iterator<Item = (SeriesId, SeriesId)> + '_ {
        let n = self.series.len();
        (0..n).flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)))
    }

    /// Number of unordered pairs.
    pub fn pair_count(&self) -> usize {
        let n = self.series.len();
        n * (n - 1) / 2
    }

    /// Append one chunk of newly observed values to every series.
    ///
    /// `chunk[i]` is appended to series `i`; all chunks must have the same
    /// length to keep the collection synchronized.
    pub fn ingest_chunk(&mut self, chunk: &[Vec<f64>]) -> Result<()> {
        if chunk.len() != self.series.len() {
            return Err(Error::UnalignedSeries {
                expected: self.series.len(),
                found: chunk.len(),
                index: 0,
            });
        }
        let expected = chunk[0].len();
        for (index, points) in chunk.iter().enumerate() {
            if points.len() != expected {
                return Err(Error::UnalignedSeries {
                    expected,
                    found: points.len(),
                    index,
                });
            }
        }
        for (series, points) in self.series.iter_mut().zip(chunk) {
            series.extend_from_slice(points);
        }
        Ok(())
    }

    /// Restrict the collection to the first `n` series (used by the
    /// scalability experiments, which sweep the number of series).
    pub fn take_series(&self, n: usize) -> Result<Self> {
        if n == 0 || n > self.series.len() {
            return Err(Error::EmptyInput("take_series requires 1 <= n <= len"));
        }
        Ok(Self {
            series: self.series[..n].to_vec(),
        })
    }

    /// Restrict every series to its first `len` observations.
    pub fn truncate_length(&self, len: usize) -> Result<Self> {
        if len == 0 || len > self.series_len() {
            return Err(Error::EmptyInput(
                "truncate_length requires 1 <= len <= series_len",
            ));
        }
        let series = self
            .series
            .iter()
            .map(|s| TimeSeries::new(s.name.clone(), s.location, s.values()[..len].to_vec()))
            .collect();
        Self::new(series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::QueryWindow;

    fn sample() -> SeriesCollection {
        SeriesCollection::from_rows(vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![4.0, 3.0, 2.0, 1.0],
            vec![1.0, 1.0, 1.0, 1.0],
        ])
        .unwrap()
    }

    #[test]
    fn collection_enforces_alignment() {
        let err = SeriesCollection::from_rows(vec![vec![1.0, 2.0], vec![1.0]]).unwrap_err();
        assert!(matches!(
            err,
            Error::UnalignedSeries {
                expected: 2,
                found: 1,
                index: 1
            }
        ));
    }

    #[test]
    fn collection_rejects_empty() {
        assert!(SeriesCollection::from_rows(vec![]).is_err());
        assert!(SeriesCollection::from_rows(vec![vec![]]).is_err());
    }

    #[test]
    fn pair_iteration_covers_upper_triangle() {
        let c = sample();
        let pairs: Vec<_> = c.pairs().collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(c.pair_count(), 3);
    }

    #[test]
    fn slice_respects_query_window() {
        let c = sample();
        let w = QueryWindow::new(3, 2).unwrap();
        assert_eq!(c.get(0).unwrap().slice(w).unwrap(), &[3.0, 4.0]);
    }

    #[test]
    fn slice_rejects_out_of_range() {
        let c = sample();
        let w = QueryWindow::new(10, 2).unwrap();
        assert!(c.get(0).unwrap().slice(w).is_err());
    }

    #[test]
    fn ingest_chunk_appends_to_every_series() {
        let mut c = sample();
        c.ingest_chunk(&[vec![5.0], vec![0.0], vec![1.0]]).unwrap();
        assert_eq!(c.series_len(), 5);
        assert_eq!(c.get(0).unwrap().values()[4], 5.0);
    }

    #[test]
    fn ingest_chunk_rejects_wrong_series_count() {
        let mut c = sample();
        assert!(c.ingest_chunk(&[vec![1.0]]).is_err());
    }

    #[test]
    fn ingest_chunk_rejects_ragged_chunk() {
        let mut c = sample();
        assert!(c
            .ingest_chunk(&[vec![1.0], vec![1.0, 2.0], vec![1.0]])
            .is_err());
    }

    #[test]
    fn take_and_truncate() {
        let c = sample();
        let t = c.take_series(2).unwrap();
        assert_eq!(t.len(), 2);
        let s = c.truncate_length(2).unwrap();
        assert_eq!(s.series_len(), 2);
        assert!(c.take_series(0).is_err());
        assert!(c.truncate_length(100).is_err());
    }

    #[test]
    fn haversine_distance_is_sane() {
        // Rochester NY to Philadelphia PA is roughly 400 km.
        let roc = GeoLocation::new(43.16, -77.61);
        let phl = GeoLocation::new(39.95, -75.17);
        let d = roc.distance_km(&phl);
        assert!((380.0..450.0).contains(&d), "distance was {d}");
        // Distance to self is zero and symmetric.
        assert!(roc.distance_km(&roc) < 1e-9);
        assert!((roc.distance_km(&phl) - phl.distance_km(&roc)).abs() < 1e-9);
    }
}
