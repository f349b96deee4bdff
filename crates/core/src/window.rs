//! Query windows, basic windows, and the mapping between them.
//!
//! A *query window* `w = (e, l)` selects the sub-sequence of length `l`
//! ending at (and including) timestamp `e` — exactly the paper's definition
//! (§2.1). A *basic window* of size `B` is the unit of sketching: the stream
//! is cut into consecutive chunks `[j·B, (j+1)·B)`.
//!
//! TSUBASA's Lemma 1 removes the classic restriction that `l` must be an
//! integral multiple of `B`. [`WindowSegmentation`] is the mapping that makes
//! this possible: it decomposes a query window into
//!
//! * an optional *partial head* (the tail of the basic window containing the
//!   query start),
//! * a run of *full* basic windows whose statistics come from the sketch, and
//! * an optional *partial tail* (the head of the basic window containing the
//!   query end).
//!
//! Partial spans are re-sketched from raw data at query time; full windows
//! reuse the pre-computed statistics.

use crate::error::{Error, Result};

/// A user query window `w = (e, l)`: the `l` points ending at index `e`
/// (inclusive). Indices are 0-based positions in the synchronized stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryWindow {
    /// Inclusive end index of the window.
    pub end: usize,
    /// Number of points in the window.
    pub len: usize,
}

impl QueryWindow {
    /// Create a query window ending at `end` (inclusive) containing `len`
    /// points. Fails if the window would start before index 0 or is empty.
    pub fn new(end: usize, len: usize) -> Result<Self> {
        if len == 0 || len > end + 1 {
            return Err(Error::InvalidQueryWindow {
                end,
                len,
                series_len: end + 1,
            });
        }
        Ok(Self { end, len })
    }

    /// The query window covering the `len` most recent points of a stream
    /// currently holding `now` points — the paper's `w = ("now", l)`.
    pub fn latest(now: usize, len: usize) -> Result<Self> {
        if now == 0 {
            return Err(Error::EmptyInput("latest() on an empty stream"));
        }
        Self::new(now - 1, len)
    }

    /// First index covered by the window (inclusive).
    pub fn start(&self) -> usize {
        self.end + 1 - self.len
    }

    /// Half-open span `[start, end+1)` covered by the window.
    pub fn span(&self) -> WindowSpan {
        WindowSpan {
            start: self.start(),
            end: self.end + 1,
        }
    }

    /// Check that the window fits inside a series of `series_len` points.
    pub fn validate(&self, series_len: usize) -> Result<()> {
        if self.end >= series_len {
            return Err(Error::InvalidQueryWindow {
                end: self.end,
                len: self.len,
                series_len,
            });
        }
        Ok(())
    }
}

/// A half-open index range `[start, end)` over the raw stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSpan {
    /// First index covered (inclusive).
    pub start: usize,
    /// One past the last index covered.
    pub end: usize,
}

impl WindowSpan {
    /// Number of points in the span.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for the degenerate empty span.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Slice `values` by this span.
    pub fn slice<'a>(&self, values: &'a [f64]) -> &'a [f64] {
        &values[self.start..self.end]
    }
}

/// The basic-window configuration: fixed window size `B` applied from index
/// zero of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BasicWindowing {
    /// Number of points per basic window (`B`).
    pub size: usize,
}

impl BasicWindowing {
    /// Create a basic-window configuration. `size` must be at least 1.
    pub fn new(size: usize) -> Result<Self> {
        if size == 0 {
            return Err(Error::InvalidBasicWindow {
                window: 0,
                series_len: 0,
            });
        }
        Ok(Self { size })
    }

    /// Number of *complete* basic windows available in a stream of
    /// `series_len` points. A trailing remainder shorter than `B` is not
    /// sketched (it is always re-computed from raw data when a query touches
    /// it, and the streaming layer waits for a full chunk before updating).
    pub fn complete_windows(&self, series_len: usize) -> usize {
        series_len / self.size
    }

    /// The half-open span of raw indices covered by basic window `j`.
    pub fn window_span(&self, j: usize) -> WindowSpan {
        WindowSpan {
            start: j * self.size,
            end: (j + 1) * self.size,
        }
    }

    /// Decompose a query window into partial head / full windows / partial
    /// tail. See the module documentation.
    pub fn segment(&self, query: QueryWindow) -> WindowSegmentation {
        let span = query.span();
        let b = self.size;
        let first_window = span.start / b;
        let last_window = (span.end - 1) / b; // window containing the last covered index

        if first_window == last_window {
            // The whole query lies inside a single basic window. Whether it
            // covers that window exactly or only part of it decides between a
            // single full window and a single partial span.
            let w = self.window_span(first_window);
            if w.start == span.start && w.end == span.end {
                return WindowSegmentation {
                    head: None,
                    full: first_window..first_window + 1,
                    tail: None,
                };
            }
            return WindowSegmentation {
                head: Some(span),
                full: 0..0,
                tail: None,
            };
        }

        // Partial head: the query starts inside basic window `first_window`
        // but does not cover it from the beginning.
        let head = if span.start.is_multiple_of(b) {
            None
        } else {
            Some(WindowSpan {
                start: span.start,
                end: (first_window + 1) * b,
            })
        };
        // Partial tail: the query ends inside basic window `last_window`
        // before its last point.
        let tail = if span.end.is_multiple_of(b) {
            None
        } else {
            Some(WindowSpan {
                start: last_window * b,
                end: span.end,
            })
        };

        let full_start = if head.is_some() {
            first_window + 1
        } else {
            first_window
        };
        let full_end = if tail.is_some() {
            last_window
        } else {
            last_window + 1
        };

        WindowSegmentation {
            head,
            full: full_start..full_end,
            tail,
        }
    }
}

/// Decomposition of a query window into sketched and re-computed pieces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSegmentation {
    /// Raw span preceding the first full basic window (needs on-the-fly
    /// sketching), if the query start is unaligned.
    pub head: Option<WindowSpan>,
    /// Range of basic-window indices fully covered by the query; their
    /// statistics come from the pre-computed sketch.
    pub full: std::ops::Range<usize>,
    /// Raw span following the last full basic window, if the query end is
    /// unaligned.
    pub tail: Option<WindowSpan>,
}

impl WindowSegmentation {
    /// True when the query aligns exactly with basic-window boundaries — the
    /// "special case" of Lemma 1 used by Algorithms 1–3.
    pub fn is_aligned(&self) -> bool {
        self.head.is_none() && self.tail.is_none()
    }

    /// Number of full basic windows covered.
    pub fn full_count(&self) -> usize {
        self.full.len()
    }

    /// Total number of raw points covered (sanity check against the query
    /// length).
    pub fn total_points(&self, basic_window: usize) -> usize {
        self.head.map_or(0, |s| s.len())
            + self.full.len() * basic_window
            + self.tail.map_or(0, |s| s.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_window_start_and_span() {
        let w = QueryWindow::new(9, 4).unwrap();
        assert_eq!(w.start(), 6);
        assert_eq!(w.span(), WindowSpan { start: 6, end: 10 });
        assert_eq!(w.span().len(), 4);
    }

    #[test]
    fn query_window_rejects_invalid() {
        assert!(QueryWindow::new(3, 0).is_err());
        assert!(QueryWindow::new(3, 5).is_err());
        assert!(QueryWindow::new(3, 4).is_ok()); // starts exactly at 0
    }

    #[test]
    fn latest_window_matches_now_semantics() {
        let w = QueryWindow::latest(100, 30).unwrap();
        assert_eq!(w.end, 99);
        assert_eq!(w.start(), 70);
        assert!(QueryWindow::latest(0, 1).is_err());
    }

    #[test]
    fn basic_windowing_rejects_zero() {
        assert!(BasicWindowing::new(0).is_err());
    }

    #[test]
    fn complete_windows_ignores_remainder() {
        let b = BasicWindowing::new(4).unwrap();
        assert_eq!(b.complete_windows(16), 4);
        assert_eq!(b.complete_windows(17), 4);
        assert_eq!(b.complete_windows(3), 0);
    }

    #[test]
    fn segment_aligned_query() {
        let b = BasicWindowing::new(5).unwrap();
        // Query covering indices 5..20: exactly basic windows 1, 2, 3.
        let q = QueryWindow::new(19, 15).unwrap();
        let seg = b.segment(q);
        assert!(seg.is_aligned());
        assert_eq!(seg.full, 1..4);
        assert_eq!(seg.total_points(5), 15);
    }

    #[test]
    fn segment_unaligned_both_ends() {
        let b = BasicWindowing::new(5).unwrap();
        // Indices 3..=12 (len 10): head 3..5, full window 1 (5..10), tail 10..13.
        let q = QueryWindow::new(12, 10).unwrap();
        let seg = b.segment(q);
        assert_eq!(seg.head, Some(WindowSpan { start: 3, end: 5 }));
        assert_eq!(seg.full, 1..2);
        assert_eq!(seg.tail, Some(WindowSpan { start: 10, end: 13 }));
        assert_eq!(seg.total_points(5), 10);
    }

    #[test]
    fn segment_unaligned_head_only() {
        let b = BasicWindowing::new(5).unwrap();
        // Indices 2..=9 (len 8): head 2..5, full window 1 (5..10), no tail.
        let q = QueryWindow::new(9, 8).unwrap();
        let seg = b.segment(q);
        assert_eq!(seg.head, Some(WindowSpan { start: 2, end: 5 }));
        assert_eq!(seg.full, 1..2);
        assert_eq!(seg.tail, None);
    }

    #[test]
    fn segment_unaligned_tail_only() {
        let b = BasicWindowing::new(5).unwrap();
        // Indices 5..=11 (len 7): no head, full window 1, tail 10..12.
        let q = QueryWindow::new(11, 7).unwrap();
        let seg = b.segment(q);
        assert_eq!(seg.head, None);
        assert_eq!(seg.full, 1..2);
        assert_eq!(seg.tail, Some(WindowSpan { start: 10, end: 12 }));
    }

    #[test]
    fn segment_inside_single_window() {
        let b = BasicWindowing::new(10).unwrap();
        // Indices 2..=7, entirely inside basic window 0 but not covering it.
        let q = QueryWindow::new(7, 6).unwrap();
        let seg = b.segment(q);
        assert_eq!(seg.head, Some(WindowSpan { start: 2, end: 8 }));
        assert_eq!(seg.full, 0..0);
        assert_eq!(seg.tail, None);
        assert_eq!(seg.total_points(10), 6);
    }

    #[test]
    fn segment_exactly_one_window() {
        let b = BasicWindowing::new(10).unwrap();
        let q = QueryWindow::new(19, 10).unwrap();
        let seg = b.segment(q);
        assert!(seg.is_aligned());
        assert_eq!(seg.full, 1..2);
    }

    #[test]
    fn segment_spanning_two_windows_unaligned() {
        let b = BasicWindowing::new(10).unwrap();
        // Indices 5..=14: head 5..10, tail 10..15, zero full windows.
        let q = QueryWindow::new(14, 10).unwrap();
        let seg = b.segment(q);
        assert_eq!(seg.head, Some(WindowSpan { start: 5, end: 10 }));
        assert_eq!(seg.full, 1..1);
        assert_eq!(seg.full_count(), 0);
        assert_eq!(seg.tail, Some(WindowSpan { start: 10, end: 15 }));
        assert_eq!(seg.total_points(10), 10);
    }

    #[test]
    fn window_of_and_window_span_agree() {
        let b = BasicWindowing::new(7).unwrap();
        for i in 0..100 {
            // The basic window holding raw index `i`.
            let j = i / b.size;
            let span = b.window_span(j);
            assert!(span.start <= i && i < span.end);
        }
    }
}
