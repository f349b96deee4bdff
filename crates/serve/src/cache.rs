//! The plan cache: built query plans keyed by (epoch id, window range,
//! method).
//!
//! Building a [`QueryPlan`] costs `O(n·ns)` table work per query window.
//! Because epochs are immutable and a plan is a pure function of
//! `(epoch, windows, method)` — the [`PlanKey`] defined in `tsubasa-core` —
//! repeated query windows against the same epoch can reuse the built plan
//! (and its pruning bounds) without any correctness risk: a cached plan is
//! **bit-identical** to a freshly built one, which the `serve_plan_cache`
//! suite pins. An entry holds the per-series tables only, under either
//! method: the pair table a query sweeps is lent by the epoch's source at
//! query time and is never copied into the cache.
//!
//! Eviction is LRU over an access-stamped map; hit/miss/eviction counters
//! are exposed for observability and asserted by the cache tests and the
//! `fig_serve_qps` benchmark (a repeated-window workload must show
//! hits > misses).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
}

struct Entry {
    stamp: u64,
    plan: CachedPlan,
}

struct Inner {
    map: HashMap<PlanKey, Entry>,
    clock: u64,
}

/// An LRU cache of built plans keyed by [`PlanKey`]. Thread-safe: lookups
/// take a short mutex; plan *building* happens outside the lock, so a slow
/// build never blocks other connections' cache hits. Two threads missing on
/// the same key concurrently may both build — harmless, since plans for the
/// same key are bit-identical by construction; one of the two instances is
/// kept.
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
        {
            let mut inner = self.inner.lock().expect("plan cache poisoned");
            inner.clock += 1;
            let stamp = inner.clock;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.stamp = stamp;
                let plan = entry.plan.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(plan);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = build()?;
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.clock += 1;
        let stamp = inner.clock;
        inner.map.insert(
            key,
            Entry {
                stamp,
                plan: plan.clone(),
            },
        );
        while inner.map.len() > self.capacity {
            // Evict the least recently used entry.
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .expect("non-empty map");
            inner.map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(plan)
    }

    /// Drop every cached plan whose epoch id is below `min_epoch` — the
    /// rollover invalidation matching [`crate::EpochStore::oldest_retained`].
    /// Dropped entries do not count as evictions (they were invalidated, not
    /// displaced).
    pub fn invalidate_below(&self, min_epoch: u64) {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.map.retain(|k, _| k.epoch >= min_epoch);
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let len = self.inner.lock().expect("plan cache poisoned").map.len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
