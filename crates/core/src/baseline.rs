//! The baseline comparator: direct all-pair Pearson correlation computed from
//! raw data at query time, with no sketching.
//!
//! This is the algorithm the paper's Figure 5c compares against — query time
//! `O(l* · N²)` in the query-window length `l*`, versus TSUBASA's
//! `O(l*/B · N²)`.

use crate::error::Result;
use crate::matrix::CorrelationMatrix;
use crate::stats::pearson;
use crate::timeseries::{SeriesCollection, SeriesId};
use crate::window::QueryWindow;

/// Pearson correlation of one pair computed directly from the raw values of
/// the query window.
pub fn pair_correlation(
    collection: &SeriesCollection,
    query: QueryWindow,
    i: SeriesId,
    j: SeriesId,
) -> Result<f64> {
    let x = collection.get(i)?.slice(query)?;
    let y = collection.get(j)?.slice(query)?;
    if i == j {
        return Ok(1.0);
    }
    Ok(pearson(x, y))
}

/// All-pair correlation matrix computed directly from raw data — the paper's
/// baseline. Scans `l*` raw points for each of the `N(N-1)/2` pairs.
pub fn correlation_matrix(
    collection: &SeriesCollection,
    query: QueryWindow,
) -> Result<CorrelationMatrix> {
    let n = collection.len();
    let mut matrix = CorrelationMatrix::identity(n);
    for (i, j) in collection.pairs() {
        matrix.set(i, j, pair_correlation(collection, query, i, j)?);
    }
    Ok(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    #[test]
    fn baseline_matrix_matches_pairwise_calls() {
        let c = SeriesCollection::from_rows(vec![
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            vec![2.0, 2.5, 2.0, 4.5, 5.5, 5.0],
            vec![6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
        ])
        .unwrap();
        let w = QueryWindow::new(5, 4).unwrap();
        let m = correlation_matrix(&c, w).unwrap();
        for (i, j) in c.pairs() {
            assert_eq!(m.get(i, j), pair_correlation(&c, w, i, j).unwrap());
        }
        assert_eq!(m.get(1, 1), 1.0);
    }

    #[test]
    fn baseline_rejects_invalid_window() {
        let c = SeriesCollection::from_rows(vec![vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        let w = QueryWindow::new(5, 2).unwrap();
        assert!(correlation_matrix(&c, w).is_err());
    }

    #[test]
    fn baseline_self_correlation_is_one() {
        let c =
            SeriesCollection::from_rows(vec![vec![1.0, 2.0, 3.0], vec![3.0, 1.0, 2.0]]).unwrap();
        let w = QueryWindow::new(2, 3).unwrap();
        assert_eq!(pair_correlation(&c, w, 0, 0).unwrap(), 1.0);
    }

    #[test]
    fn the_diagonal_is_validated_like_any_pair() {
        let c =
            SeriesCollection::from_rows(vec![vec![1.0, 2.0, 3.0], vec![3.0, 1.0, 2.0]]).unwrap();
        let (ok, bad) = (
            QueryWindow::new(2, 3).unwrap(),
            QueryWindow::new(5, 2).unwrap(),
        );
        assert!(matches!(
            pair_correlation(&c, bad, 1, 1),
            Err(Error::InvalidQueryWindow { .. })
        ));
        assert!(matches!(
            pair_correlation(&c, ok, 9, 9),
            Err(Error::UnknownSeries(9))
        ));
    }
}
