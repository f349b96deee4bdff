//! Accumulation of raw real-time observations into basic-window chunks.

use tsubasa_core::error::{Error, Result};
use tsubasa_core::SeriesCollection;

/// Buffers per-series observations until a complete basic window (`B` points
/// for every series) is available, then releases it as one chunk — the
/// `IngestData` / `Len(b) == B` loop of Algorithm 3.
#[derive(Debug, Clone)]
pub struct StreamBuffer {
    basic_window: usize,
    buffers: Vec<Vec<f64>>,
}

impl StreamBuffer {
    /// Create a buffer for `n_series` streams and basic windows of
    /// `basic_window` points.
    pub fn new(n_series: usize, basic_window: usize) -> Result<Self> {
        if n_series == 0 {
            return Err(Error::EmptyInput("StreamBuffer needs at least one series"));
        }
        if basic_window == 0 {
            return Err(Error::InvalidBasicWindow {
                window: 0,
                series_len: 0,
            });
        }
        Ok(Self {
            basic_window,
            buffers: vec![Vec::new(); n_series],
        })
    }

    /// A buffer that continues `historical`, whose sketch covers its complete
    /// basic windows only: the `L mod B` points past them start out pending,
    /// so the first streamed points complete that window instead of leaving
    /// a gap. Every bootstrap that sketches a history and then streams
    /// starts here.
    pub fn after(historical: &SeriesCollection, basic_window: usize) -> Result<Self> {
        let mut buffer = Self::new(historical.len(), basic_window)?;
        let sketched = historical.series_len() / basic_window * basic_window;
        for (buf, series) in buffer.buffers.iter_mut().zip(historical.iter()) {
            buf.extend_from_slice(&series.values()[sketched..]);
        }
        Ok(buffer)
    }

    /// Number of series being buffered.
    pub fn series_count(&self) -> usize {
        self.buffers.len()
    }

    /// The basic-window (chunk) size.
    pub fn basic_window(&self) -> usize {
        self.basic_window
    }

    /// Number of buffered-but-not-yet-released points per series.
    pub fn pending(&self) -> usize {
        self.buffers[0].len()
    }

    /// Push one batch of new observations (`updates[i]` are the new points of
    /// series `i`; all series must receive the same number of points to stay
    /// synchronized). Returns every complete basic-window chunk that became
    /// available, oldest first.
    pub fn push(&mut self, updates: &[Vec<f64>]) -> Result<Vec<Vec<Vec<f64>>>> {
        if updates.len() != self.buffers.len() {
            return Err(Error::UnalignedSeries {
                expected: self.buffers.len(),
                found: updates.len(),
                index: 0,
            });
        }
        let expected = updates[0].len();
        for (index, u) in updates.iter().enumerate() {
            if u.len() != expected {
                return Err(Error::UnalignedSeries {
                    expected,
                    found: u.len(),
                    index,
                });
            }
        }
        for (buf, u) in self.buffers.iter_mut().zip(updates) {
            buf.extend_from_slice(u);
        }

        let mut chunks = Vec::new();
        while self.buffers[0].len() >= self.basic_window {
            let chunk: Vec<Vec<f64>> = self
                .buffers
                .iter_mut()
                .map(|buf| buf.drain(..self.basic_window).collect())
                .collect();
            chunks.push(chunk);
        }
        Ok(chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_configuration() {
        assert!(StreamBuffer::new(0, 5).is_err());
        assert!(StreamBuffer::new(3, 0).is_err());
    }

    #[test]
    fn accumulates_until_a_full_window_is_available() {
        let mut buf = StreamBuffer::new(2, 4).unwrap();
        assert!(buf
            .push(&[vec![1.0, 2.0], vec![5.0, 6.0]])
            .unwrap()
            .is_empty());
        assert_eq!(buf.pending(), 2);
        let chunks = buf.push(&[vec![3.0, 4.0], vec![7.0, 8.0]]).unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0][0], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(chunks[0][1], vec![5.0, 6.0, 7.0, 8.0]);
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn releases_multiple_chunks_from_one_push() {
        let mut buf = StreamBuffer::new(1, 3).unwrap();
        let chunks = buf
            .push(&[vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]])
            .unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0][0], vec![1.0, 2.0, 3.0]);
        assert_eq!(chunks[1][0], vec![4.0, 5.0, 6.0]);
        assert_eq!(buf.pending(), 1);
    }

    #[test]
    fn rejects_ragged_or_mismatched_updates() {
        let mut buf = StreamBuffer::new(2, 4).unwrap();
        assert!(buf.push(&[vec![1.0]]).is_err());
        assert!(buf.push(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        // State unchanged after the failed pushes.
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn a_buffer_after_a_history_holds_its_unsketched_tail() {
        let historical =
            SeriesCollection::from_rows(vec![(0..10).map(f64::from).collect(), vec![5.0; 10]])
                .unwrap();
        let mut buf = StreamBuffer::after(&historical, 4).unwrap();
        assert_eq!(buf.pending(), 2);
        let chunks = buf.push(&[vec![10.0, 11.0], vec![6.0, 7.0]]).unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0][0], vec![8.0, 9.0, 10.0, 11.0]);
        assert_eq!(chunks[0][1], vec![5.0, 5.0, 6.0, 7.0]);
        // A history of whole windows leaves nothing pending.
        let whole = historical.truncate_length(8).unwrap();
        assert_eq!(StreamBuffer::after(&whole, 4).unwrap().pending(), 0);
        assert!(StreamBuffer::after(&historical, 0).is_err());
    }

    #[test]
    fn accessors_report_configuration() {
        let buf = StreamBuffer::new(3, 7).unwrap();
        assert_eq!(buf.series_count(), 3);
        assert_eq!(buf.basic_window(), 7);
    }
}
