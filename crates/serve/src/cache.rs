//! The plan cache: per-key plans and correlation views, keyed by (epoch id,
//! window range, method).
//!
//! Building a [`QueryPlan`] costs `O(n·ns)` table work per query window, and
//! sweeping it costs `O(P·w)` for `P = N(N−1)/2` pairs. Epochs are immutable,
//! and both are pure functions of `(epoch, windows, method)` — the
//! [`PlanKey`] defined in `tsubasa-core` — so an entry holds, per key:
//!
//! * the built plan and its pruning bounds ([`CachedPlan`]), built by the
//!   key's first lookup;
//! * the key's **view**: its `P` correlations in packed pair order, `8·P`
//!   bytes, filled once by the first query that reads it. The query engine
//!   ([`crate::QueryEngine`]) fills it with one
//!   pooled sweep and answers every network / top-k query on the key with one
//!   pass over it.
//!
//! A cached answer is **bit-identical** to a freshly planned and swept one,
//! which the `serve_plan_cache` suite pins. The pair table a plan is swept
//! over is lent by the epoch's source and is never copied into the cache;
//! only the swept correlations are.
//!
//! Lookups are single-flight: the first lookup of a key inserts its entry and
//! counts the miss; concurrent lookups of that key find the entry, count
//! hits, and wait for its one plan build — and, in the engine, its one view
//! fill — instead of repeating them. The engine's lookups also name their
//! trailing-window request, and a key inserted for a request supersedes the
//! older epochs' key of the same request and method: a standing request
//! holds one view, which each newer epoch's view replaces. Eviction is LRU
//! over an access-stamped map; hit/miss/eviction counters and the resident
//! views' bytes are exposed for observability ([`CacheStats`]), asserted by
//! the cache tests (a repeated key must hit) and reported by the ledger's
//! `serve-live` workload (`serve.cache.hit_share`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tsubasa_core::error::Result;
use tsubasa_core::plan::PlanKey;
use tsubasa_core::sweep::CorrelationBounds;
use tsubasa_core::QueryPlan;

/// A built, shareable plan for one `(epoch, windows, method)` coordinate,
/// together with its per-tile pruning bounds (also pure functions of the
/// plan, so cached alongside it).
#[derive(Debug, Clone)]
pub enum CachedPlan {
    /// An exact Lemma 1 plan.
    Exact {
        /// The per-series recombination tables.
        plan: Arc<QueryPlan>,
        /// Equation 4 per-tile pruning bounds of `plan`.
        bounds: Arc<CorrelationBounds>,
    },
    /// An approximate Equation 5 plan: the same per-series tables, swept
    /// over the source's estimate table instead of its correlation table.
    Approx {
        /// The per-series recombination tables.
        plan: Arc<QueryPlan>,
        /// Equation 4 per-tile pruning bounds of `plan`.
        bounds: Arc<CorrelationBounds>,
    },
}

impl CachedPlan {
    /// The per-series tables and their pruning bounds, whichever the method.
    pub fn into_parts(self) -> (Arc<QueryPlan>, Arc<CorrelationBounds>) {
        match self {
            CachedPlan::Exact { plan, bounds } | CachedPlan::Approx { plan, bounds } => {
                (plan, bounds)
            }
        }
    }
}

/// Counter snapshot of a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found their key resident — including lookups that then
    /// waited for the key's first build, and queries answered from a view.
    pub hits: u64,
    /// Lookups that inserted their key (and built its plan).
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Bytes of the filled views among the resident entries: `8·P` per key
    /// whose view a query filled.
    pub view_bytes: usize,
}

/// What a key holds: its plan, built once, and its view, filled at most once.
#[derive(Default)]
struct Slot {
    /// The first lookup's build outcome; a failed build is handed to every
    /// lookup that waited for it, then the entry is dropped.
    plan: OnceLock<Result<CachedPlan>>,
    /// The key's view once a query filled it; `None` when the fill refused
    /// (past the dense budget).
    view: OnceLock<Option<Vec<f64>>>,
}

struct Entry {
    stamp: u64,
    /// The trailing-window request (`last_windows`) whose lookup inserted
    /// the entry, when the query engine made it: the same request under the
    /// same method on a newer epoch supersedes it.
    trailing: Option<u32>,
    slot: Arc<Slot>,
}

struct Inner {
    map: HashMap<PlanKey, Entry>,
    clock: u64,
}

/// One resident key as a lookup hands it out: the built plan, and the slot of
/// its correlation view. Holding it keeps the view alive after eviction.
#[derive(Clone)]
pub(crate) struct CachedEntry {
    plan: CachedPlan,
    slot: Arc<Slot>,
}

impl CachedEntry {
    /// The key's plan.
    pub(crate) fn plan(&self) -> &CachedPlan {
        &self.plan
    }

    /// The key's correlations in packed pair order, when a query filled them.
    pub(crate) fn view(&self) -> Option<&[f64]> {
        self.slot.view.get()?.as_deref()
    }

    /// The key's correlations, filled by `fill` when no query has tried yet
    /// (`None`: the fill refused, and the key stays without a view).
    /// Concurrent callers wait for the one fill in flight instead of running
    /// their own.
    pub(crate) fn view_or_fill(&self, fill: impl FnOnce() -> Option<Vec<f64>>) -> Option<&[f64]> {
        self.slot.view.get_or_init(fill).as_deref()
    }
}

/// An LRU cache of built plans and their correlation views, keyed by
/// [`PlanKey`]. Thread-safe: lookups take a short mutex; plan *building*
/// happens outside the lock, so a slow build never blocks other connections'
/// cache hits, and only lookups of the key being built wait for it.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum number of resident plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up the plan for `key`, building and inserting it on a miss.
    /// `build` runs outside the cache lock.
    pub fn get_or_build(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<CachedPlan>,
    ) -> Result<CachedPlan> {
        self.lookup(key, None, build).map(|entry| entry.plan)
    }

    /// Look up `key`, counting exactly one hit or miss: its resident entry,
    /// or a new one whose plan `build` makes. The first lookup of a key runs
    /// its build outside the cache lock; lookups of the same key meanwhile
    /// count hits and wait for that build. A failed build is returned to
    /// every lookup that waited for it and leaves no entry behind.
    ///
    /// A lookup made for the trailing-window request `trailing` that inserts
    /// its key first drops every older epoch's entry inserted for the same
    /// request and method: one entry per standing request, whose view the
    /// new key's view replaces. Superseded entries do not count as
    /// evictions.
    pub(crate) fn lookup(
        &self,
        key: PlanKey,
        trailing: Option<u32>,
        build: impl FnOnce() -> Result<CachedPlan>,
    ) -> Result<CachedEntry> {
        let slot = {
            let mut inner = self.inner.lock().expect("plan cache poisoned");
            inner.clock += 1;
            let stamp = inner.clock;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.stamp = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(&entry.slot)
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if trailing.is_some() {
                    inner.map.retain(|k, e| {
                        !(e.trailing == trailing && k.method == key.method && k.epoch < key.epoch)
                    });
                }
                let slot = Arc::new(Slot::default());
                let entry = Entry {
                    stamp,
                    trailing,
                    slot: Arc::clone(&slot),
                };
                inner.map.insert(key, entry);
                while inner.map.len() > self.capacity {
                    // Evict the least recently used entry (never the one just
                    // inserted: it carries the newest stamp).
                    let oldest = inner
                        .map
                        .iter()
                        .min_by_key(|(_, e)| e.stamp)
                        .map(|(k, _)| *k)
                        .expect("non-empty map");
                    inner.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                slot
            }
        };
        match slot.plan.get_or_init(build) {
            Ok(plan) => Ok(CachedEntry {
                plan: plan.clone(),
                slot,
            }),
            Err(e) => {
                let mut inner = self.inner.lock().expect("plan cache poisoned");
                if inner
                    .map
                    .get(&key)
                    .is_some_and(|entry| Arc::ptr_eq(&entry.slot, &slot))
                {
                    inner.map.remove(&key);
                }
                Err(e.clone())
            }
        }
    }

    /// Drop every cached plan and view whose epoch id is below `min_epoch` —
    /// the query engine's retirement of epochs older than the two newest it
    /// answered on, or a rollover at [`crate::EpochStore::oldest_retained`].
    /// Dropped entries do not count as evictions (they were invalidated, not
    /// displaced).
    pub fn invalidate_below(&self, min_epoch: u64) {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.map.retain(|k, _| k.epoch >= min_epoch);
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let (len, view_bytes) = {
            let inner = self.inner.lock().expect("plan cache poisoned");
            let views = inner
                .map
                .values()
                .filter_map(|e| e.slot.view.get()?.as_ref());
            let bytes = views.map(|v| v.len() * std::mem::size_of::<f64>()).sum();
            (inner.map.len(), bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len,
            view_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsubasa_core::error::Error;
    use tsubasa_core::plan::PlanMethod;
    use tsubasa_core::{SeriesCollection, SketchSet};

    fn sketch() -> SketchSet {
        let c = SeriesCollection::from_rows(
            (0..3)
                .map(|s| (0..80).map(|i| (i as f64 * 0.2 + s as f64).cos()).collect())
                .collect(),
        )
        .unwrap();
        SketchSet::build(&c, 20).unwrap()
    }

    fn build_exact(sk: &SketchSet, windows: std::ops::Range<usize>) -> Result<CachedPlan> {
        let plan = QueryPlan::build_aligned(sk, windows)?;
        let bounds = CorrelationBounds::from_plan(&plan);
        Ok(CachedPlan::Exact {
            plan: Arc::new(plan),
            bounds: Arc::new(bounds),
        })
    }

    #[test]
    fn hits_misses_and_lru_eviction() {
        let sk = sketch();
        let cache = PlanCache::new(2);
        let key = |e: u64, w: std::ops::Range<usize>| PlanKey::new(e, w, PlanMethod::Exact);

        cache
            .get_or_build(key(1, 0..4), || build_exact(&sk, 0..4))
            .unwrap();
        cache
            .get_or_build(key(1, 0..4), || panic!("must hit"))
            .unwrap();
        cache
            .get_or_build(key(1, 1..4), || build_exact(&sk, 1..4))
            .unwrap();
        // Touch the first key so the second is now least recently used.
        cache
            .get_or_build(key(1, 0..4), || panic!("must hit"))
            .unwrap();
        cache
            .get_or_build(key(1, 2..4), || build_exact(&sk, 2..4))
            .unwrap();
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions, stats.len),
            (2, 3, 1, 2)
        );
        // The evicted entry was the LRU one (1..4); 0..4 must still hit.
        cache
            .get_or_build(key(1, 0..4), || panic!("must hit"))
            .unwrap();
        cache
            .get_or_build(key(1, 1..4), || build_exact(&sk, 1..4))
            .unwrap();
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn a_failed_build_leaves_no_entry() {
        let sk = sketch();
        let cache = PlanCache::new(4);
        let key = PlanKey::new(1, 0..4, PlanMethod::Exact);
        let failed = cache.lookup(key, None, || Err(Error::EmptyInput("no statistics")));
        assert!(matches!(failed, Err(Error::EmptyInput(_))));
        assert_eq!(cache.stats().len, 0);
        // The next lookup of the key builds again, and its entry stays.
        let entry = cache.lookup(key, None, || build_exact(&sk, 0..4)).unwrap();
        assert!(entry.view().is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 2, 1));
        let filled = entry.view_or_fill(|| Some(vec![0.5; 3])).unwrap();
        assert_eq!(filled.len(), 3);
        assert_eq!(cache.stats().view_bytes, 3 * 8);
    }

    #[test]
    fn invalidate_below_drops_stale_epochs_without_eviction_counts() {
        let sk = sketch();
        let cache = PlanCache::new(8);
        for e in 1..=4u64 {
            cache
                .get_or_build(PlanKey::new(e, 0..4, PlanMethod::Exact), || {
                    build_exact(&sk, 0..4)
                })
                .unwrap();
        }
        cache.invalidate_below(3);
        let stats = cache.stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.evictions, 0);
        cache
            .get_or_build(PlanKey::new(2, 0..4, PlanMethod::Exact), || {
                build_exact(&sk, 0..4)
            })
            .unwrap();
        assert_eq!(cache.stats().misses, 5);
    }

    #[test]
    fn a_newer_epochs_key_supersedes_the_same_request_only() {
        let sk = sketch();
        let cache = PlanCache::new(8);
        let look = |e: u64, w: std::ops::Range<usize>, m: PlanMethod, t: Option<u32>| {
            let entry = cache.lookup(PlanKey::new(e, w.clone(), m), t, || build_exact(&sk, w));
            let entry = entry.unwrap();
            entry.view_or_fill(|| Some(vec![0.5; 3])).unwrap().len()
        };
        // Epoch 1: trailing-2 and trailing-3 exact, trailing-2 approximate,
        // and a plain key made outside the engine.
        look(1, 2..4, PlanMethod::Exact, Some(2));
        look(1, 1..4, PlanMethod::Exact, Some(3));
        look(1, 2..4, PlanMethod::Approximate, Some(2));
        look(1, 0..4, PlanMethod::Exact, None);
        assert_eq!(cache.stats().len, 4);
        // Epoch 2's exact trailing-2 key replaces epoch 1's, and only it: the
        // cache holds as many views as before.
        look(2, 2..4, PlanMethod::Exact, Some(2));
        let stats = cache.stats();
        assert_eq!(
            (stats.len, stats.view_bytes, stats.evictions),
            (4, 4 * 3 * 8, 0)
        );
        // Epoch 1's trailing-2 key is gone (asking it again misses), and
        // inserting it again does not drop epoch 2's.
        look(1, 2..4, PlanMethod::Exact, Some(2));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.len), (6, 5));
        // A hit supersedes nothing.
        look(2, 2..4, PlanMethod::Exact, Some(2));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.len), (1, 5));
    }
}
