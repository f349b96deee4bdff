//! Epoch publication: immutable sketch snapshots behind atomic `Arc` swaps.
//!
//! A query server must answer from a *consistent* view of the sketches while
//! ingestion keeps appending basic windows. The discipline here is
//! append-only publication: every completed basic window freezes the sketch
//! state into an immutable snapshot — an **epoch** — published into an
//! [`EpochStore`] by swapping an `Arc`. Readers clone the `Arc` (no data
//! copy, no lock held across a query) and compute against that snapshot for
//! as long as they like; writers never mutate a published epoch, they only
//! publish the next one. Epoch ids are assigned 1, 2, 3, … in publication
//! order, so a response tagged with an epoch id can be re-checked against
//! exactly the snapshot that produced it.
//!
//! [`EpochIngest`] is the one producer of live epochs: a [`StreamBuffer`]
//! accumulates raw observations, and each released basic-window chunk goes
//! through the one arrival step ([`arriving_window`], then each method's one
//! kernel) and is folded into the live sketch ([`SketchSet::push_window`] /
//! [`DftSketchSet::push_window`]) whose clone becomes the next epoch. The
//! clone shares every window row with the epochs before it, statistics
//! included — a row is immutable once appended — and copies no value, so
//! publishing costs the arriving window and one handle per window and
//! table, not the horizon's values.
//!
//! RAM holds a horizon, the pile holds history. An in-memory sketch keeps
//! the real-time query window `("now", m)` of Algorithm 3: as many basic
//! windows as the bootstrap history completed, the arriving window evicting
//! the oldest ([`SketchSet::drop_oldest_window`]). For served sets larger
//! than RAM, or history that must stay queryable, [`EpochIngest::pile`]
//! appends each completed window to an on-disk [`SketchPile`] instead; the
//! published epoch carries a memory-mapped snapshot of the pile
//! ([`PileWriter::snapshot`]: a mapping plus a copy of the writer's segment
//! index, nothing re-read) and queries read its window-major tables
//! zero-copy.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

use tsubasa_core::error::{Error, Result};
use tsubasa_core::plan::PlanMethod;
use tsubasa_core::sketch::{arriving_corrs, arriving_window};
use tsubasa_core::source::CorrSource;
use tsubasa_core::{SeriesCollection, SketchSet};
use tsubasa_dft::sketch::{ComparatorKernel, DftSketchSet, Transform};
use tsubasa_storage::pile::{encode_series_stats, PileWriter, SegmentKind, SketchPile};
use tsubasa_stream::StreamBuffer;

/// One immutable published snapshot: the sketches covering every basic
/// window completed up to its publication, identified by a 1-based id.
///
/// An epoch may carry an exact [`SketchSet`], a [`DftSketchSet`], both, or a
/// memory-mapped [`SketchPile`] snapshot. A comparator's base holds the exact
/// correlations, so an epoch carrying only a [`DftSketchSet`] (as
/// [`EpochIngest::dual`] publishes) answers both methods from it — the exact
/// table is published once, not once per method. At publication each payload is
/// also bound as a per-method [`CorrSource`] ([`Epoch::source`]) — the query
/// engine answers through that trait alone, so a pile whose `PairEsts`
/// segments are on disk answers approximate queries exactly like an
/// in-memory comparator. Queries for a method the epoch cannot serve fail
/// with a typed error instead of silently degrading.
#[derive(Clone)]
pub struct Epoch {
    id: u64,
    exact: Option<Arc<SketchSet>>,
    approx: Option<Arc<DftSketchSet>>,
    pile: Option<Arc<SketchPile>>,
    exact_src: Option<Arc<dyn CorrSource>>,
    approx_src: Option<Arc<dyn CorrSource>>,
}

impl std::fmt::Debug for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Epoch")
            .field("id", &self.id)
            .field("exact", &self.exact)
            .field("approx", &self.approx)
            .field("pile", &self.pile)
            .field("exact_capable", &self.exact_src.is_some())
            .field("approx_capable", &self.approx_src.is_some())
            .finish()
    }
}

impl Epoch {
    /// The 1-based publication id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The exact sketch snapshot, when this epoch carries one — its own, or
    /// the base of its comparator.
    pub fn exact(&self) -> Option<&SketchSet> {
        self.exact
            .as_deref()
            .or_else(|| self.approx.as_deref().map(DftSketchSet::base))
    }

    /// The DFT comparator snapshot, when this epoch carries one.
    pub fn approx(&self) -> Option<&Arc<DftSketchSet>> {
        self.approx.as_ref()
    }

    /// The memory-mapped pile snapshot, when this epoch carries one.
    pub fn pile(&self) -> Option<&Arc<SketchPile>> {
        self.pile.as_ref()
    }

    /// The [`CorrSource`] answering `method` queries, when the epoch can
    /// serve that method: the in-memory sketch when one is carried, else the
    /// pile snapshot when its segment coverage supports the method.
    pub fn source(&self, method: PlanMethod) -> Option<&Arc<dyn CorrSource>> {
        match method {
            PlanMethod::Exact => self.exact_src.as_ref(),
            PlanMethod::Approximate => self.approx_src.as_ref(),
        }
    }

    /// Number of series covered.
    pub fn series_count(&self) -> usize {
        match (&self.exact_src, &self.approx_src) {
            (Some(s), _) => s.series_count(),
            (None, Some(s)) => s.series_count(),
            (None, None) => 0,
        }
    }

    /// Basic windows answerable under `method` (0 when the epoch cannot
    /// serve the method at all).
    pub fn windows_for(&self, method: PlanMethod) -> usize {
        self.source(method).map_or(0, |s| s.window_count(method))
    }

    /// Number of basic windows the snapshot covers under *some* query
    /// method. For a pile-backed epoch this is the per-kind segment
    /// coverage, so an estimates-only pile counts its approximate windows.
    pub fn window_count(&self) -> usize {
        self.windows_for(PlanMethod::Exact)
            .max(self.windows_for(PlanMethod::Approximate))
    }
}

/// The published-epoch store: the latest epoch behind an `Arc` swap plus a
/// bounded history of recent epochs, retained by id so in-flight responses
/// can be re-checked against the snapshot that produced them.
///
/// Readers ([`EpochStore::latest`], [`EpochStore::get`]) take a read lock
/// only long enough to clone an `Arc`; publication takes the write lock only
/// for the swap. No lock is ever held while a query computes. Waiters for
/// the next publication ([`EpochStore::wait_for_newer`]) sleep on a condition
/// variable that every publication notifies.
#[derive(Debug)]
pub struct EpochStore {
    latest: RwLock<Option<Arc<Epoch>>>,
    /// The retained epochs, oldest first; the back one is `latest`. Ids are
    /// assigned and `latest` is swapped under this lock, so both advance
    /// together.
    recent: Mutex<VecDeque<Arc<Epoch>>>,
    /// Notified, under `recent`, after every publication.
    published_cv: Condvar,
    capacity: usize,
    published: AtomicU64,
}

impl EpochStore {
    /// A store retaining the most recent `capacity` epochs (clamped to at
    /// least 1 — the latest epoch is always retained).
    pub fn new(capacity: usize) -> Self {
        Self {
            latest: RwLock::new(None),
            recent: Mutex::new(VecDeque::new()),
            published_cv: Condvar::new(),
            capacity: capacity.max(1),
            published: AtomicU64::new(0),
        }
    }

    /// Publish the next epoch from its sketch snapshots. At least one method
    /// must be present. Returns the published epoch (already retained).
    pub fn publish(
        &self,
        exact: Option<SketchSet>,
        approx: Option<DftSketchSet>,
    ) -> Result<Arc<Epoch>> {
        if exact.is_none() && approx.is_none() {
            return Err(Error::EmptyInput("an epoch needs at least one sketch"));
        }
        self.publish_parts(exact.map(Arc::new), approx.map(Arc::new), None)
    }

    /// Publish the next epoch from a memory-mapped pile snapshot. The pile
    /// must cover at least one queryable basic window under some method —
    /// exact (statistics and pair correlations on disk) or approximate
    /// (statistics and pair estimates on disk).
    pub fn publish_pile(&self, pile: SketchPile) -> Result<Arc<Epoch>> {
        if pile.exact_query_windows() == 0 && pile.approx_query_windows() == 0 {
            return Err(Error::EmptyInput(
                "a pile epoch needs at least one queryable window",
            ));
        }
        self.publish_parts(None, None, Some(Arc::new(pile)))
    }

    fn publish_parts(
        &self,
        exact: Option<Arc<SketchSet>>,
        approx: Option<Arc<DftSketchSet>>,
        pile: Option<Arc<SketchPile>>,
    ) -> Result<Arc<Epoch>> {
        // Bind each method to its answering source at publication: a carried
        // in-memory sketch wins (a comparator answers exact queries through
        // its base), else the pile when its per-kind segment coverage
        // supports the method.
        let exact_src: Option<Arc<dyn CorrSource>> = match (&exact, &approx, &pile) {
            (Some(s), _, _) => Some(Arc::clone(s) as Arc<dyn CorrSource>),
            (None, Some(a), _) => Some(Arc::clone(a) as Arc<dyn CorrSource>),
            (None, _, Some(p)) if p.exact_query_windows() > 0 => {
                Some(Arc::clone(p) as Arc<dyn CorrSource>)
            }
            _ => None,
        };
        let approx_src: Option<Arc<dyn CorrSource>> = match (&approx, &pile) {
            (Some(s), _) => Some(Arc::clone(s) as Arc<dyn CorrSource>),
            (None, Some(p)) if p.approx_query_windows() > 0 => {
                Some(Arc::clone(p) as Arc<dyn CorrSource>)
            }
            _ => None,
        };
        // The evicted epoch may hold the last reference to its sketch rows or
        // its mapping, so it is freed when this function returns: after the
        // lock `get` takes and the one `latest` takes are both released.
        let (epoch, _evicted) = {
            let mut recent = self.recent.lock().expect("epoch store poisoned");
            let epoch = Arc::new(Epoch {
                id: self.published.fetch_add(1, Ordering::SeqCst) + 1,
                exact,
                approx,
                pile,
                exact_src,
                approx_src,
            });
            recent.push_back(Arc::clone(&epoch));
            let evicted = if recent.len() > self.capacity {
                recent.pop_front()
            } else {
                None
            };
            *self.latest.write().expect("epoch store poisoned") = Some(Arc::clone(&epoch));
            self.published_cv.notify_all();
            (epoch, evicted)
        };
        Ok(epoch)
    }

    /// The most recently published epoch, if any.
    pub fn latest(&self) -> Option<Arc<Epoch>> {
        self.latest.read().expect("epoch store poisoned").clone()
    }

    /// A retained epoch by id. `None` when the id was never published or has
    /// rolled out of the retention window.
    pub fn get(&self, id: u64) -> Option<Arc<Epoch>> {
        let recent = self.recent.lock().expect("epoch store poisoned");
        recent.iter().find(|e| e.id == id).cloned()
    }

    /// Total number of epochs published so far.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::SeqCst)
    }

    /// Block until an epoch newer than `than` is the latest one, or until
    /// `timeout` passes; returns whether one is. A publication wakes every
    /// waiter once [`EpochStore::latest`] returns the new epoch, so a waiter
    /// that returns `true` is answered from that epoch or a newer one.
    pub fn wait_for_newer(&self, than: u64, timeout: Duration) -> bool {
        let newer = |recent: &VecDeque<Arc<Epoch>>| recent.back().is_some_and(|e| e.id > than);
        let recent = self.recent.lock().expect("epoch store poisoned");
        let (recent, _) = self
            .published_cv
            .wait_timeout_while(recent, timeout, |recent| !newer(recent))
            .expect("epoch store poisoned");
        newer(&recent)
    }

    /// The oldest epoch id still retained, if any. Epochs below this have
    /// rolled out; plan caches keyed by epoch id can invalidate below it.
    pub fn oldest_retained(&self) -> Option<u64> {
        let recent = self.recent.lock().expect("epoch store poisoned");
        recent.front().map(|e| e.id)
    }
}

enum IngestSketch {
    Exact(SketchSet),
    /// The comparator sketch and the one kernel that mints every arriving
    /// window's estimate row.
    Dual(DftSketchSet, ComparatorKernel),
    Pile(PileWriter),
}

impl IngestSketch {
    /// Fold one completed basic window in: the arrival step, the kernel of
    /// each method this flavor stores, and the push or append of what they
    /// minted. An in-memory sketch then lets go of its oldest window, so it
    /// keeps the window count it was bootstrapped with: the horizon. `z` is
    /// the exact kernel's packed scratch, reused across windows.
    fn absorb(
        &mut self,
        chunk: &[Vec<f64>],
        n_series: usize,
        basic_window: usize,
        z: &mut Vec<f64>,
    ) -> Result<()> {
        let stats = arriving_window(chunk, n_series, basic_window)?;
        let corrs = arriving_corrs(chunk, &stats, z);
        match self {
            IngestSketch::Exact(sketch) => {
                sketch.push_window(stats, corrs)?;
                sketch.drop_oldest_window();
            }
            IngestSketch::Dual(sketch, kernel) => {
                let ests = kernel.arriving_ests(chunk, &stats);
                sketch.push_window(stats, corrs, ests)?;
                sketch.drop_oldest_window();
            }
            IngestSketch::Pile(writer) => {
                writer.append(SegmentKind::SeriesStats, &encode_series_stats(&stats))?;
                writer.append(SegmentKind::PairCorrs, &corrs)?;
            }
        }
        Ok(())
    }

    /// Publish the sketch as it stands as the next epoch of `store`.
    fn publish(&self, store: &EpochStore) -> Result<Arc<Epoch>> {
        match self {
            IngestSketch::Exact(sketch) => store.publish(Some(sketch.clone()), None),
            IngestSketch::Dual(sketch, _) => store.publish(None, Some(sketch.clone())),
            IngestSketch::Pile(writer) => store.publish_pile(writer.snapshot()?),
        }
    }
}

/// The producing side of epoch publication: buffer raw observations, fold
/// each completed basic window into the live sketch, and publish one epoch
/// per completed window.
///
/// Three flavors:
///
/// * [`EpochIngest::exact`] keeps a plain [`SketchSet`]; epochs answer exact
///   (Lemma 1) queries.
/// * [`EpochIngest::dual`] keeps a [`DftSketchSet`], whose
///   [`push_window`](DftSketchSet::push_window) maintains the exact base
///   correlations alongside the Equation 3 estimates — so every epoch
///   carries that one sketch and answers both query methods from it.
/// * [`EpochIngest::pile`] appends each completed window to an on-disk
///   [`SketchPile`] instead of keeping an owned sketch; epochs carry a
///   memory-mapped snapshot of the pile, so the served set can exceed RAM.
///   The appended rows are the ones the exact flavor pushes, so pile-served
///   answers are bit-identical to sketch-served ones.
///
/// The two in-memory flavors hold a **horizon**: the complete basic windows
/// of the bootstrap history, `⌊L / B⌋`. Each arriving window evicts the
/// oldest, so every epoch covers the most recent `⌊L / B⌋` windows and the
/// live state stays `⌊L / B⌋` rows per table, statistics included, however long
/// the stream runs; a request for every window (`last = 0`) is a request for
/// the horizon. The pile flavor keeps every window.
///
/// Every flavor buffers the history's unsketched tail
/// ([`StreamBuffer::after`]) and takes each completed window through the one
/// arrival step ([`arriving_window`]) and its methods' kernels.
pub struct EpochIngest {
    store: Arc<EpochStore>,
    buffer: StreamBuffer,
    sketch: IngestSketch,
}

impl EpochIngest {
    /// Bootstrap exact-only ingestion from historical data and publish the
    /// first epoch covering it; its complete windows are the horizon.
    pub fn exact(
        store: Arc<EpochStore>,
        historical: &SeriesCollection,
        basic_window: usize,
    ) -> Result<(Self, Arc<Epoch>)> {
        let sketch = SketchSet::build(historical, basic_window)?;
        Self::start(store, historical, basic_window, IngestSketch::Exact(sketch))
    }

    /// Bootstrap dual-method ingestion (exact base + DFT comparator) from
    /// historical data and publish the first epoch covering it; its complete
    /// windows are the horizon.
    pub fn dual(
        store: Arc<EpochStore>,
        historical: &SeriesCollection,
        basic_window: usize,
        coefficients: usize,
    ) -> Result<(Self, Arc<Epoch>)> {
        let sketch = DftSketchSet::build(historical, basic_window, coefficients, Transform::Naive)?;
        let kernel = ComparatorKernel::new(basic_window, coefficients);
        Self::start(
            store,
            historical,
            basic_window,
            IngestSketch::Dual(sketch, kernel),
        )
    }

    /// Bootstrap pile-backed ingestion: sketch every complete basic window
    /// of the historical data into a fresh pile file at `path` and publish
    /// the first epoch as a memory-mapped snapshot of it.
    pub fn pile(
        store: Arc<EpochStore>,
        historical: &SeriesCollection,
        basic_window: usize,
        path: &Path,
    ) -> Result<(Self, Arc<Epoch>)> {
        let (n, b) = (historical.len(), basic_window);
        let mut sketch = IngestSketch::Pile(PileWriter::create(path, n, b)?);
        // One window at a time, through the same step as a streamed window:
        // working memory is one window's rows, never the history's table.
        let mut z = Vec::new();
        for k in 0..historical.series_len() / b {
            let chunk: Vec<Vec<f64>> = historical
                .iter()
                .map(|s| s.values()[k * b..(k + 1) * b].to_vec())
                .collect();
            sketch.absorb(&chunk, n, b, &mut z)?;
        }
        if let IngestSketch::Pile(writer) = &mut sketch {
            writer.sync()?;
        }
        Self::start(store, historical, b, sketch)
    }

    /// Buffer the history's unsketched tail and publish the bootstrapped
    /// sketch as the first epoch.
    fn start(
        store: Arc<EpochStore>,
        historical: &SeriesCollection,
        basic_window: usize,
        sketch: IngestSketch,
    ) -> Result<(Self, Arc<Epoch>)> {
        let buffer = StreamBuffer::after(historical, basic_window)?;
        let first = sketch.publish(&store)?;
        let ingest = Self {
            store,
            buffer,
            sketch,
        };
        Ok((ingest, first))
    }

    /// The store this ingest publishes into.
    pub fn store(&self) -> &Arc<EpochStore> {
        &self.store
    }

    /// Feed newly observed points (`updates[i]` are the new points of series
    /// `i`, any length). Every completed basic window enters the sketch (and
    /// an in-memory sketch's oldest window leaves it) and publishes one
    /// epoch; leftovers stay buffered. Returns the epochs published by this
    /// call, oldest first.
    pub fn ingest(&mut self, updates: &[Vec<f64>]) -> Result<Vec<Arc<Epoch>>> {
        let chunks = self.buffer.push(updates)?;
        let (n, b) = (self.buffer.series_count(), self.buffer.basic_window());
        let mut published = Vec::with_capacity(chunks.len());
        // One kernel scratch per call, not per ingest: kept between calls it
        // would be an `N × B` block held beside every live sketch.
        let mut z = Vec::new();
        for chunk in chunks {
            self.sketch.absorb(&chunk, n, b, &mut z)?;
            published.push(self.sketch.publish(&self.store)?);
        }
        Ok(published)
    }
}

/// Mirror in-memory sketches into a pile, window by window: the statistics
/// row, a `PairCorrs` row per window when an exact sketch is given, and a
/// `PairEsts` row (Eq. 3 estimates `1 − d²/2`) per window when a DFT
/// comparator is given. Every row is copied verbatim from the sketches, so a
/// pile epoch built this way answers both methods bit-identically to the
/// sketch-backed epoch it mirrors. Call [`PileWriter::sync`] and snapshot
/// afterwards as usual.
pub fn mirror_sketches_to_pile(
    writer: &mut PileWriter,
    exact: Option<&SketchSet>,
    approx: Option<&DftSketchSet>,
) -> Result<()> {
    let base = match (exact, approx) {
        (Some(s), _) => s,
        (None, Some(a)) => a.base(),
        (None, None) => return Err(Error::EmptyInput("mirroring needs at least one sketch")),
    };
    if let (Some(s), Some(a)) = (exact, approx) {
        if s.series_count() != a.series_count() || s.window_count() != a.window_count() {
            return Err(Error::SketchMismatch {
                requested: format!(
                    "{} series x {} windows (exact)",
                    s.series_count(),
                    s.window_count()
                ),
                available: format!(
                    "{} series x {} windows (approx)",
                    a.series_count(),
                    a.window_count()
                ),
            });
        }
    }
    for w in 0..base.window_count() {
        let stats = base.stats_rows().row(w);
        writer.append(SegmentKind::SeriesStats, &encode_series_stats(stats))?;
        if let Some(s) = exact {
            writer.append(
                SegmentKind::PairCorrs,
                s.window_corrs_view(w..w + 1).window_row(0),
            )?;
        }
        if let Some(a) = approx {
            writer.append(
                SegmentKind::PairEsts,
                a.window_ests_view(w..w + 1).window_row(0),
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collection(n: usize, len: usize) -> SeriesCollection {
        SeriesCollection::from_rows(
            (0..n)
                .map(|s| {
                    (0..len)
                        .map(|i| {
                            (i as f64 * 0.13 + s as f64).sin() + ((i * (s + 3)) % 7) as f64 * 0.1
                        })
                        .collect()
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn store_publishes_sequential_ids_and_retains_by_capacity() {
        let c = collection(3, 60);
        let store = EpochStore::new(2);
        assert!(store.latest().is_none());
        assert!(store.publish(None, None).is_err());
        for expect in 1..=4u64 {
            let sk = SketchSet::build(&c, 20).unwrap();
            let e = store.publish(Some(sk), None).unwrap();
            assert_eq!(e.id(), expect);
            assert_eq!(store.latest().unwrap().id(), expect);
        }
        assert_eq!(store.published(), 4);
        assert_eq!(store.oldest_retained(), Some(3));
        assert!(store.get(2).is_none());
        assert_eq!(store.get(4).unwrap().id(), 4);
    }

    #[test]
    fn publication_wakes_waiters_for_a_newer_epoch() {
        let c = collection(3, 60);
        let store = EpochStore::new(2);
        assert!(!store.wait_for_newer(0, Duration::from_millis(1)));
        store
            .publish(Some(SketchSet::build(&c, 20).unwrap()), None)
            .unwrap();
        assert!(store.wait_for_newer(0, Duration::ZERO));
        assert!(!store.wait_for_newer(1, Duration::from_millis(1)));

        // A waiter with an hour to spare returns once epoch 2 is published,
        // and finds it as the latest.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let woke = store.wait_for_newer(1, Duration::from_secs(3600));
                (woke, store.latest().map(|e| e.id()))
            });
            store
                .publish(Some(SketchSet::build(&c, 20).unwrap()), None)
                .unwrap();
            assert_eq!(waiter.join().unwrap(), (true, Some(2)));
        });
    }

    /// The last `windows` basic windows of `full`, as a collection of their
    /// own.
    fn trailing(full: &SeriesCollection, windows: usize, b: usize) -> SeriesCollection {
        let from = full.series_len() / b * b - windows * b;
        let to = from + windows * b;
        SeriesCollection::from_rows(full.iter().map(|s| s.values()[from..to].to_vec()).collect())
            .unwrap()
    }

    #[test]
    fn exact_ingest_keeps_its_horizon_and_matches_rebuild() {
        let full = collection(4, 100);
        let historical = full.truncate_length(60).unwrap();
        let store = Arc::new(EpochStore::new(8));
        let (mut ingest, first) = EpochIngest::exact(Arc::clone(&store), &historical, 20).unwrap();
        assert_eq!(first.id(), 1);
        assert_eq!(first.window_count(), 3);

        // Stream the remaining 40 points in two uneven pushes.
        let push = |lo: usize, hi: usize| -> Vec<Vec<f64>> {
            full.iter().map(|s| s.values()[lo..hi].to_vec()).collect()
        };
        assert!(ingest.ingest(&push(60, 73)).unwrap().is_empty());
        let published = ingest.ingest(&push(73, 100)).unwrap();
        assert_eq!(published.len(), 2);
        assert_eq!(published[1].id(), 3);

        // Each epoch holds the bootstrap's three windows, the newest three,
        // bit-identical to a from-scratch build of them; the bootstrap epoch
        // still holds the windows it was published with.
        for (epoch, end) in [(&first, 60), (&published[0], 80), (&published[1], 100)] {
            assert_eq!(epoch.window_count(), 3);
            let seen = full.truncate_length(end).unwrap();
            let rebuilt = SketchSet::build(&trailing(&seen, 3, 20), 20).unwrap();
            assert_eq!(epoch.exact().unwrap(), &rebuilt, "epoch {}", epoch.id());
        }
    }

    #[test]
    fn pile_ingest_appends_windows_and_matches_rebuild() {
        let full = collection(4, 100);
        let historical = full.truncate_length(60).unwrap();
        let store = Arc::new(EpochStore::new(8));
        let path = std::env::temp_dir().join(format!(
            "tsubasa-serve-pile-ingest-{}.pile",
            std::process::id()
        ));
        let (mut ingest, first) =
            EpochIngest::pile(Arc::clone(&store), &historical, 20, &path).unwrap();
        assert_eq!(first.id(), 1);
        assert_eq!(first.window_count(), 3);
        assert_eq!(first.series_count(), 4);
        assert!(first.exact().is_none() && first.approx().is_none());
        assert!(first.pile().is_some());

        let push = |lo: usize, hi: usize| -> Vec<Vec<f64>> {
            full.iter().map(|s| s.values()[lo..hi].to_vec()).collect()
        };
        assert!(ingest.ingest(&push(60, 73)).unwrap().is_empty());
        let published = ingest.ingest(&push(73, 100)).unwrap();
        assert_eq!(published.len(), 2);
        assert_eq!(published[1].id(), 3);
        assert_eq!(published[1].window_count(), 5);

        // Earlier epochs are frozen snapshots: epoch 2 still covers 4 windows.
        assert_eq!(published[0].window_count(), 4);

        // The pile rows are bit-identical to a from-scratch sketch.
        let pile = published[1].pile().unwrap();
        let rebuilt = SketchSet::build(&full, 20).unwrap();
        let table = pile.pair_table(0..5, SegmentKind::PairCorrs).unwrap();
        let view = table.view();
        let rb = rebuilt.window_corrs_view(0..5);
        for k in 0..5 {
            assert_eq!(view.window_row(k), rb.window_row(k));
        }
        let stats = pile.series_stats(0..5).unwrap();
        for (i, row) in stats.iter().enumerate() {
            for (k, st) in row.iter().enumerate() {
                assert_eq!(*st, rebuilt.series_sketch(i).unwrap().window(k));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_history_tail_is_buffered_not_dropped() {
        // 67 points at B = 20: three windows are sketched and the last 7
        // points begin the fourth, which the first 13 streamed points
        // complete. Every flavor must hold the sketch of the contiguous
        // data, not one with a gap: the pile all six windows, the in-memory
        // flavors their horizon, the last three.
        let full = collection(4, 120);
        let historical = full.truncate_length(67).unwrap();
        let rest: Vec<Vec<f64>> = full.iter().map(|s| s.values()[67..].to_vec()).collect();
        let rebuilt = DftSketchSet::build(&full, 20, 20, Transform::Naive).unwrap();
        let horizon = DftSketchSet::build(&trailing(&full, 3, 20), 20, 20, Transform::Naive);
        let horizon = horizon.unwrap();
        let path = std::env::temp_dir().join(format!(
            "tsubasa-serve-tail-ingest-{}.pile",
            std::process::id()
        ));
        for flavor in ["exact", "dual", "pile"] {
            let store = Arc::new(EpochStore::new(8));
            let (mut ingest, first) = match flavor {
                "exact" => EpochIngest::exact(Arc::clone(&store), &historical, 20),
                "dual" => EpochIngest::dual(Arc::clone(&store), &historical, 20, 20),
                _ => EpochIngest::pile(Arc::clone(&store), &historical, 20, &path),
            }
            .unwrap();
            assert_eq!(first.window_count(), 3, "{flavor}");
            let published = ingest.ingest(&rest).unwrap();
            assert_eq!(published.len(), 3, "{flavor}");
            let last = &published[2];
            match (last.exact(), last.pile()) {
                (Some(exact), _) => {
                    assert_eq!(last.window_count(), 3, "{flavor}");
                    assert_eq!(exact, horizon.base(), "{flavor}");
                }
                (None, Some(pile)) => {
                    assert_eq!(last.window_count(), 6, "{flavor}");
                    let table = pile.pair_table(0..6, SegmentKind::PairCorrs).unwrap();
                    let built = rebuilt.base().window_corrs_view(0..6);
                    for k in 0..6 {
                        assert_eq!(table.view().window_row(k), built.window_row(k), "pile");
                    }
                }
                _ => unreachable!("every flavor answers exact queries"),
            }
            if let Some(approx) = last.approx() {
                assert_eq!(approx.as_ref(), &horizon, "{flavor}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dual_ingest_publishes_both_methods() {
        let full = collection(3, 80);
        let historical = full.truncate_length(40).unwrap();
        let store = Arc::new(EpochStore::new(8));
        let (mut ingest, first) =
            EpochIngest::dual(Arc::clone(&store), &historical, 20, 20).unwrap();
        assert!(first.exact().is_some() && first.approx().is_some());

        let push: Vec<Vec<f64>> = full.iter().map(|s| s.values()[40..80].to_vec()).collect();
        let published = ingest.ingest(&push).unwrap();
        assert_eq!(published.len(), 2);
        let last = &published[1];
        assert_eq!(last.window_count(), 2);

        let rebuilt = DftSketchSet::build(&trailing(&full, 2, 20), 20, 20, Transform::Naive);
        let rebuilt = rebuilt.unwrap();
        assert_eq!(last.approx().unwrap().as_ref(), &rebuilt);
        assert_eq!(last.exact().unwrap(), rebuilt.base());

        // One payload: both methods are bound to the same comparator sketch.
        let exact_src = last.source(PlanMethod::Exact).unwrap();
        let approx_src = last.source(PlanMethod::Approximate).unwrap();
        assert!(std::ptr::addr_eq(
            Arc::as_ptr(exact_src),
            Arc::as_ptr(approx_src)
        ));
        // A comparator published on its own is the same kind of epoch: its
        // base answers exact queries.
        let approx_only = store.publish(None, Some(rebuilt.clone())).unwrap();
        assert_eq!(approx_only.exact(), Some(rebuilt.base()));
        let exact_src = approx_only.source(PlanMethod::Exact).unwrap();
        assert_eq!(exact_src.window_count(PlanMethod::Exact), 2);
    }
}
