//! # tsubasa-storage
//!
//! Sketch persistence for the disk-based TSUBASA configuration (paper §3.4).
//!
//! The paper stores basic-window sketches in PostgreSQL, written by a single
//! dedicated database worker and read back in batches at query time. This
//! crate substitutes one purpose-built store with the same contract — the
//! sketch **pile** ([`pile`]):
//!
//! * a single-file, append-only log of checksummed segments whose payloads
//!   are window-major `f64` tables in the exact layout the query kernel
//!   consumes ([`PileWriter`] appends, [`SketchPile`] maps and validates);
//! * a [`PileBatchWriter`] that runs on its own thread and drains
//!   window-major slabs from a bounded channel — the "database worker" of
//!   the parallel engine, with an explicit durability knob ([`SyncPolicy`]);
//! * out-of-core reads: a [`SketchPile`] is a
//!   [`CorrSource`](tsubasa_core::source::CorrSource), so every query of the
//!   unified pipeline sweeps zero-copy views of the mapping instead of
//!   decoding records;
//! * space accounting ([`SketchPile::space_bytes`]) used by the Figure 6d
//!   experiment.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod pile;

pub use pile::{
    encode_series_stats, CompactStats, PileBatchWriter, PileCorrs, PileSlab, PileWriter,
    PileWriterStats, SegmentKind, SketchPile, SyncPolicy,
};
