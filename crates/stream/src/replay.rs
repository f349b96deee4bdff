//! Replaying a historical collection as a real-time stream.
//!
//! Examples, tests, and the Figure 5d benchmark need a stream of new
//! observations; [`StreamReplay`] produces one deterministically by walking a
//! historical [`SeriesCollection`] forward in fixed-size chunks.

use tsubasa_core::error::{Error, Result};
use tsubasa_core::SeriesCollection;

/// An iterator over per-series chunks of a historical collection, emulating
/// real-time arrival.
#[derive(Debug, Clone)]
pub struct StreamReplay<'a> {
    collection: &'a SeriesCollection,
    cursor: usize,
    chunk: usize,
}

impl<'a> StreamReplay<'a> {
    /// Replay `collection` starting at index `start`, emitting chunks of
    /// `chunk` points per series.
    pub fn new(collection: &'a SeriesCollection, start: usize, chunk: usize) -> Result<Self> {
        if chunk == 0 {
            return Err(Error::InvalidBasicWindow {
                window: 0,
                series_len: collection.series_len(),
            });
        }
        if start > collection.series_len() {
            return Err(Error::InvalidQueryWindow {
                end: start,
                len: chunk,
                series_len: collection.series_len(),
            });
        }
        Ok(Self {
            collection,
            cursor: start,
            chunk,
        })
    }

    /// Index of the next unread observation.
    pub fn position(&self) -> usize {
        self.cursor
    }
}

impl Iterator for StreamReplay<'_> {
    type Item = Vec<Vec<f64>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor + self.chunk > self.collection.series_len() {
            return None;
        }
        let lo = self.cursor;
        let hi = lo + self.chunk;
        self.cursor = hi;
        Some(
            self.collection
                .iter()
                .map(|s| s.values()[lo..hi].to_vec())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collection() -> SeriesCollection {
        SeriesCollection::from_rows(vec![
            (0..20).map(|i| i as f64).collect(),
            (0..20).map(|i| -(i as f64)).collect(),
        ])
        .unwrap()
    }

    #[test]
    fn replay_walks_the_collection_in_chunks() {
        let c = collection();
        let mut replay = StreamReplay::new(&c, 10, 4).unwrap();
        let first = replay.next().unwrap();
        assert_eq!(first[0], vec![10.0, 11.0, 12.0, 13.0]);
        assert_eq!(first[1], vec![-10.0, -11.0, -12.0, -13.0]);
        let second = replay.next().unwrap();
        assert_eq!(second[0], vec![14.0, 15.0, 16.0, 17.0]);
        // Remaining 2 points do not form a full chunk.
        assert!(replay.next().is_none());
        assert_eq!(replay.position(), 18);
    }

    #[test]
    fn replay_from_the_beginning_and_degenerate_cases() {
        let c = collection();
        let replay = StreamReplay::new(&c, 0, 5).unwrap();
        assert_eq!(replay.count(), 4);
        assert!(StreamReplay::new(&c, 0, 0).is_err());
        assert!(StreamReplay::new(&c, 21, 5).is_err());
        let empty = StreamReplay::new(&c, 20, 5).unwrap();
        assert_eq!(empty.count(), 0);
    }
}
