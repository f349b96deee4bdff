//! Error type shared by the TSUBASA core crates.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors produced by the core sketching and correlation machinery.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A collection was constructed from series of differing lengths, or with
    /// no series at all.
    UnalignedSeries {
        /// Length of the first series.
        expected: usize,
        /// Length of the offending series.
        found: usize,
        /// Index of the offending series in the input.
        index: usize,
    },
    /// An empty series or empty collection was supplied where data is
    /// required.
    EmptyInput(&'static str),
    /// A basic-window size of zero, or larger than the series, was requested.
    InvalidBasicWindow {
        /// The requested basic window size.
        window: usize,
        /// The series length it was applied to.
        series_len: usize,
    },
    /// A query window is empty, or does not fit inside the available data.
    InvalidQueryWindow {
        /// End timestamp (inclusive index) of the query window.
        end: usize,
        /// Requested length.
        len: usize,
        /// Length of the underlying series.
        series_len: usize,
    },
    /// A series id was out of range for the collection / sketch it was used
    /// with.
    UnknownSeries(usize),
    /// A sketch was built with a different basic-window configuration than
    /// the one requested at query time.
    SketchMismatch {
        /// What the caller asked for.
        requested: String,
        /// What the sketch actually contains.
        available: String,
    },
    /// A correlation threshold outside `[-1, 1]` was supplied.
    InvalidThreshold(f64),
    /// The incremental updater was fed a chunk whose size does not match the
    /// configured basic window.
    ChunkSizeMismatch {
        /// Expected chunk length (the basic window size).
        expected: usize,
        /// Length of the chunk actually delivered.
        found: usize,
    },
    /// A query window over which at least one series is constant: the
    /// correlation denominator is non-positive and Pearson correlation is
    /// undefined. Callers that prefer the classic "constant ⇒ 0.0"
    /// convention (e.g. matrix construction) map this error to `0.0`
    /// explicitly instead of the old silent fallback.
    DegenerateWindow {
        /// Number of raw points covered by the degenerate query window.
        points: usize,
    },
    /// Thresholding (or ranking) ran into NaN correlations. NaN legitimately
    /// appears in matrices assembled from store records whose sketch method
    /// does not match the query method; treating those entries as "no edge"
    /// silently produced a plausible-looking but wrong network. The strict
    /// API surfaces them instead; the `*_lenient` variants skip and count
    /// them for callers that opt in.
    NanCorrelations {
        /// Number of pairs whose correlation was NaN.
        pairs: usize,
    },
    /// A dense all-pairs buffer would exceed the configured memory budget
    /// (`TSUBASA_DENSE_LIMIT_BYTES`, default 32 GiB). The streamed sweep API
    /// (`network_streamed` / `top_k`) covers the same queries in O(tile)
    /// memory.
    TooLarge {
        /// Bytes the dense buffer would require (u128: the product can
        /// overflow u64 for adversarial inputs).
        bytes: u128,
        /// The configured limit in bytes.
        limit: u64,
    },
    /// Two network snapshots (or a snapshot and the delta/tracker state it is
    /// applied to) cover different node sets, so edge-level comparison or
    /// delta application is undefined. Earlier versions panicked here; the
    /// dynamics path now surfaces the mismatch as a typed error. A delta whose
    /// pairs do not fit the edge set it is applied to (out of range, out of
    /// order, appearing while present or vanishing while absent) is the same
    /// error.
    Mismatch {
        /// Node count expected by the receiving side.
        expected: usize,
        /// Node count actually supplied; for a delta pair that does not fit,
        /// the higher node of the first such pair.
        found: usize,
    },
    /// Catch-all for storage-layer and I/O failures surfaced through the core
    /// API (the storage crate wraps `std::io::Error` into this).
    Storage(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnalignedSeries {
                expected,
                found,
                index,
            } => write!(
                f,
                "series {index} has length {found}, expected {expected}: all series in a \
                 collection must be synchronized to the same length"
            ),
            Error::EmptyInput(what) => write!(f, "empty input: {what}"),
            Error::InvalidBasicWindow { window, series_len } => write!(
                f,
                "invalid basic window size {window} for series of length {series_len}"
            ),
            Error::InvalidQueryWindow {
                end,
                len,
                series_len,
            } => write!(
                f,
                "query window (end={end}, len={len}) does not fit in series of length {series_len}"
            ),
            Error::UnknownSeries(id) => write!(f, "unknown series id {id}"),
            Error::SketchMismatch {
                requested,
                available,
            } => write!(
                f,
                "sketch mismatch: requested {requested}, sketch contains {available}"
            ),
            Error::InvalidThreshold(t) => {
                write!(
                    f,
                    "correlation threshold {t} outside the valid range [-1, 1]"
                )
            }
            Error::DegenerateWindow { points } => write!(
                f,
                "degenerate query window: a series is constant over all {points} covered points, \
                 so its Pearson correlation is undefined"
            ),
            Error::ChunkSizeMismatch { expected, found } => write!(
                f,
                "ingested chunk of {found} points, but the basic window size is {expected}"
            ),
            Error::NanCorrelations { pairs } => write!(
                f,
                "{pairs} pair correlation(s) are NaN (missing or method-mismatched sketch \
                 records); use the *_lenient thresholding variants to skip and count them"
            ),
            Error::TooLarge { bytes, limit } => write!(
                f,
                "dense correlation buffer would need {bytes} bytes, over the {limit}-byte \
                 budget (TSUBASA_DENSE_LIMIT_BYTES); use the streamed API \
                 (network_streamed / top_k) instead"
            ),
            Error::Mismatch { expected, found } => write!(
                f,
                "node count mismatch: snapshots must cover the same node set \
                 (expected {expected} nodes, found {found})"
            ),
            Error::Storage(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Storage(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_human_readable() {
        let e = Error::UnalignedSeries {
            expected: 10,
            found: 8,
            index: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("series 3"));
        assert!(msg.contains("length 8"));
        assert!(msg.contains("expected 10"));
    }

    #[test]
    fn io_errors_convert_to_storage() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing page");
        let e: Error = io.into();
        match e {
            Error::Storage(msg) => assert!(msg.contains("missing page")),
            other => panic!("expected Storage, got {other:?}"),
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn threshold_error_mentions_range() {
        assert!(Error::InvalidThreshold(1.5).to_string().contains("[-1, 1]"));
    }

    #[test]
    fn nan_correlations_error_counts_pairs() {
        let msg = Error::NanCorrelations { pairs: 7 }.to_string();
        assert!(msg.contains("7 pair"));
        assert!(msg.contains("lenient"));
    }

    #[test]
    fn too_large_error_points_at_streamed_api() {
        let msg = Error::TooLarge {
            bytes: 1 << 40,
            limit: 1 << 30,
        }
        .to_string();
        assert!(msg.contains("network_streamed"));
        assert!(msg.contains("TSUBASA_DENSE_LIMIT_BYTES"));
    }
}
