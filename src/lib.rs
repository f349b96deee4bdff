//! # TSUBASA
//!
//! Facade crate of the TSUBASA reproduction ("TSUBASA: Climate Network
//! Construction on Historical and Real-Time Data", SIGMOD 2022). It
//! re-exports the workspace crates under a single dependency so applications
//! can write `use tsubasa::core::prelude::*;` and friends.
//!
//! The individual crates:
//!
//! * [`core`] — exact basic-window sketching, Lemma 1/2, networks.
//! * [`dft`] — the DFT-based approximate comparator (StatStream-style).
//! * [`data`] — synthetic climate data generators and dataset utilities.
//! * [`storage`] — the memory-mapped, append-only sketch pile.
//! * [`parallel`] — the partitioned parallel sketch/query engine.
//! * [`stream`] — chunked real-time ingestion and incremental updates.
//! * [`network`] — climate-network graph analysis and export.
//! * [`serve`] — epoch-published sketches, a plan cache, and a concurrent
//!   TCP query server.
//!
//! See the repository README for a walk-through and `examples/` for runnable
//! end-to-end scenarios.

#![warn(missing_docs)]

pub use tsubasa_core as core;
pub use tsubasa_data as data;
pub use tsubasa_dft as dft;
pub use tsubasa_network as network;
pub use tsubasa_parallel as parallel;
pub use tsubasa_serve as serve;
pub use tsubasa_storage as storage;
pub use tsubasa_stream as stream;

/// A single convenience prelude pulling in the most commonly used items from
/// every workspace crate.
pub mod prelude {
    pub use tsubasa_core::prelude::*;
    pub use tsubasa_data::prelude::*;
    pub use tsubasa_dft::{ApproxPlan, DftSketchSet, SlidingApproxNetwork};
    pub use tsubasa_network::{
        ApproxNetworkBuilder, ClimateNetwork, DynamicsBuilder, NetworkComparison,
    };
    pub use tsubasa_parallel::{ParallelConfig, ParallelEngine};
    pub use tsubasa_serve::{
        EpochIngest, EpochStore, PlanCache, QueryEngine, ServeClient, UnavailableReason,
    };
    pub use tsubasa_storage::{PileWriter, SketchPile};
    pub use tsubasa_stream::{RealTimeNetwork, StreamBuffer};
}
