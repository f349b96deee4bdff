//! Query evaluation against a published epoch: one plan-cache lookup, then
//! one pass over the key's correlation view.
//!
//! Every result is **bit-identical** to the serial [`SourcePlan`] of the same
//! epoch's source, method and windows — network
//! ([`SourcePlan::network`], the method's edge rule of
//! [`EdgeRule::for_method`]: `c > θ` exact, the Equation 4 radius
//! approximate) and top-k ([`SourcePlan::top_k`], total [`f64::total_cmp`]
//! ranking, ties by ascending pair index), on a serial runner with the
//! table audit off. Like those calls it counts NaN *outputs*; the kernel
//! clamps a NaN table value to `0.0`, so the table itself is not audited
//! here (the parallel engine's queries do audit it).
//!
//! A query at one `(epoch, method, windows)` key computes the same
//! `P = N(N−1)/2` correlations as every other query at that key, so it runs
//! in three steps whatever the method or the epoch's backend:
//!
//! 1. one [`PlanCache`] lookup: the per-series tables, built by the key's
//!    first query;
//! 2. on the key's first query only, the **view fill**: the dense fill
//!    ([`fill_packed`], which the parallel engine's dense query also calls)
//!    on the pool over the table the epoch's source lends
//!    ([`CorrSource::lent_table`] — shared sketch rows or mapped pile rows,
//!    never copied), each worker writing its contiguous run of pairs in
//!    place into one `P`-length buffer, which moves into the cache entry;
//! 3. one sink pass over the view on the connection thread
//!    ([`sweep_packed`]): an [`EdgeSink`] under the method's rule for a
//!    network, a [`TopKSink`] for a top-k, one scan of the subscriber's
//!    [`EdgeWatch`] for a subscription frame ([`QueryEngine::observe`]).
//!    The pool is not woken.
//!
//! A single-run sweep (`sweep_run`) prunes tiles under Equation 4 where the
//! sink allows (approximate network, both top-k); pruning is sound — it drops
//! only tiles no pair of which could reach the answer — so a pass over every
//! pair gives the same edges, order, correlation bits and NaN count. The view
//! holds the same bits as that sweep because no tile or run boundary ever
//! changes a pair's arithmetic.
//!
//! A view the dense fill refuses — past the dense budget
//! ([`tsubasa_core::capacity::check_dense_budget`]`(P, 1)`) — is never held:
//! such a query is the key's [`SourcePlan`] answered on the pool.
//!
//! Memory: one `8·P` view per standing request — a method and a trailing
//! window count — from the newest answered epoch, or from the one before it
//! until the request is asked on the newest. A request's first query on a
//! newer epoch drops the older epochs' key of that request before filling
//! its own view, and the first answer on an epoch newer than any the engine
//! answered on retires every key older than the previously newest epoch
//! ([`PlanCache::invalidate_below`]). Both are safe because
//! [`QueryEngine::network`] and [`QueryEngine::top_k`] only ever answer the
//! latest epoch. So a new epoch swaps views one for one: what the cache
//! holds does not depend on how many of the requests the newest epoch has
//! been asked yet. The `serve_concurrency` suite pins the bit identity
//! across worker counts under live ingest.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tsubasa_core::delta::EdgeWatch;
use tsubasa_core::error::Error;
use tsubasa_core::plan::{PlanKey, PlanMethod};
use tsubasa_core::source::{CorrSource, SourcePlan};
use tsubasa_core::sweep::{
    fill_packed, sweep_packed, CorrelationBounds, EdgeList, EdgeRule, EdgeSink, TableAudit, TopK,
    TopKSink, DEFAULT_TILE_PAIRS,
};
use tsubasa_core::QueryPlan;
use tsubasa_parallel::WorkerPool;

use crate::cache::{CachedEntry, CachedPlan, PlanCache};
use crate::epoch::{Epoch, EpochStore};

/// Why a query could not be answered *yet* — distinct from a rejection:
/// nothing about the request is wrong, the serving state just cannot satisfy
/// it. Each reason maps to its own protocol error code so clients can react
/// (wait for an epoch vs. switch method) without parsing prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnavailableReason {
    /// No epoch has been published yet.
    NoEpoch,
    /// The epoch carries no exact-capable source (no exact sketch, and no
    /// pile coverage of statistics + pair correlations).
    NoExact,
    /// The epoch carries no approximate-capable source (no DFT comparator,
    /// and no pile coverage of statistics + pair estimates).
    NoApprox,
}

impl UnavailableReason {
    /// The reason reported when `method` has no answering source.
    pub fn for_method(method: PlanMethod) -> Self {
        match method {
            PlanMethod::Exact => UnavailableReason::NoExact,
            PlanMethod::Approximate => UnavailableReason::NoApprox,
        }
    }
}

impl std::fmt::Display for UnavailableReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnavailableReason::NoEpoch => write!(f, "no epoch published yet"),
            UnavailableReason::NoExact => write!(f, "epoch carries no exact source"),
            UnavailableReason::NoApprox => write!(f, "epoch carries no approximate source"),
        }
    }
}

/// Failures answering a query.
#[derive(Debug)]
pub enum QueryError {
    /// The server cannot answer yet: no epoch published, or the epoch
    /// carries no source for the requested method.
    Unavailable(UnavailableReason),
    /// The query parameters were rejected (bad θ, window out of range, …).
    Rejected(Error),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Unavailable(reason) => write!(f, "unavailable: {reason}"),
            QueryError::Rejected(e) => write!(f, "rejected: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<Error> for QueryError {
    fn from(e: Error) -> Self {
        QueryError::Rejected(e)
    }
}

/// Resolve a trailing-window request against a source answering `method`
/// over `available` basic windows. `0` selects every available window; a
/// request for more windows than exist is rejected, never silently clamped.
/// Zero available windows reports the method as unavailable — the source
/// exists but cannot answer anything yet.
pub fn resolve_windows(
    available: usize,
    last_windows: u32,
    method: PlanMethod,
) -> Result<Range<usize>, QueryError> {
    if available == 0 {
        return Err(QueryError::Unavailable(UnavailableReason::for_method(
            method,
        )));
    }
    let lw = last_windows as usize;
    if lw == 0 {
        return Ok(0..available);
    }
    if lw > available {
        return Err(QueryError::Rejected(Error::SketchMismatch {
            requested: format!("trailing {lw} basic windows"),
            available: format!("{available} basic windows"),
        }));
    }
    Ok(available - lw..available)
}

/// Where a query's correlations come from ([`QueryEngine::answer`]).
enum Corrs<'a> {
    /// The key's view: its `P` correlations in packed pair order.
    View(&'a [f64]),
    /// The key's plan, for a key past the dense budget.
    Plan(&'a SourcePlan<'a>),
}

/// The serving-side query engine: answers network / top-k requests from the
/// latest published epoch, each from the correlation view its
/// `(epoch, method, windows)` key holds in a [`PlanCache`] — filled once per
/// key by a sweep fanned over a shared [`WorkerPool`].
///
/// All methods take `&self`; the engine is shared across connection threads
/// behind an `Arc`.
#[derive(Debug)]
pub struct QueryEngine {
    store: Arc<EpochStore>,
    cache: Arc<PlanCache>,
    pool: Arc<WorkerPool>,
    /// The newest epoch id any lookup was made on (0 before the first).
    newest: AtomicU64,
}

impl QueryEngine {
    /// An engine answering from `store`, caching plans and views in `cache`,
    /// filling views on `pool`.
    pub fn new(store: Arc<EpochStore>, cache: Arc<PlanCache>, pool: Arc<WorkerPool>) -> Self {
        Self {
            store,
            cache,
            pool,
            newest: AtomicU64::new(0),
        }
    }

    /// The epoch store answered from.
    pub fn store(&self) -> &Arc<EpochStore> {
        &self.store
    }

    /// The plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The worker pool view fills fan out over.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    fn latest(&self) -> Result<Arc<Epoch>, QueryError> {
        self.store
            .latest()
            .ok_or(QueryError::Unavailable(UnavailableReason::NoEpoch))
    }

    /// Thresholded network over the trailing windows of the latest epoch.
    /// Returns the answering epoch's id alongside the edge list.
    pub fn network(
        &self,
        method: PlanMethod,
        last_windows: u32,
        theta: f64,
    ) -> Result<(u64, EdgeList), QueryError> {
        let epoch = self.latest()?;
        let edges = self.network_on(&epoch, method, last_windows, theta)?;
        Ok((epoch.id(), edges))
    }

    /// Top-k strongest pairs over the trailing windows of the latest epoch.
    /// Returns the answering epoch's id alongside the ranked edges.
    pub fn top_k(
        &self,
        method: PlanMethod,
        last_windows: u32,
        k: u32,
    ) -> Result<(u64, TopK), QueryError> {
        let epoch = self.latest()?;
        let ranked = self.top_k_on(&epoch, method, last_windows, k)?;
        Ok((epoch.id(), ranked))
    }

    /// [`QueryEngine::network`] against a specific epoch (used by tests to
    /// re-check a response against the snapshot that produced it).
    pub fn network_on(
        &self,
        epoch: &Epoch,
        method: PlanMethod,
        last_windows: u32,
        theta: f64,
    ) -> Result<EdgeList, QueryError> {
        let rule = EdgeRule::for_method(method, theta)?;
        self.answer(epoch, method, last_windows, |n, corrs| match corrs {
            Corrs::View(view) => {
                let mut sink = EdgeSink::with_rule(rule);
                sweep_packed(n, view, DEFAULT_TILE_PAIRS, &mut sink);
                Ok(sink.finish(n))
            }
            Corrs::Plan(plan) => Ok(plan
                .network(&*self.pool, theta, DEFAULT_TILE_PAIRS, TableAudit::Off)?
                .0),
        })
    }

    /// [`QueryEngine::top_k`] against a specific epoch.
    pub fn top_k_on(
        &self,
        epoch: &Epoch,
        method: PlanMethod,
        last_windows: u32,
        k: u32,
    ) -> Result<TopK, QueryError> {
        let k = k as usize;
        self.answer(epoch, method, last_windows, |n, corrs| match corrs {
            Corrs::View(view) => {
                let mut sink = TopKSink::new(k);
                sweep_packed(n, view, DEFAULT_TILE_PAIRS, &mut sink);
                Ok(sink.finish())
            }
            Corrs::Plan(plan) => Ok(plan
                .top_k(&*self.pool, k, DEFAULT_TILE_PAIRS, TableAudit::Off)
                .0),
        })
    }

    /// One scan of `watch`, under `method`'s rule, over the latest epoch's
    /// trailing windows: of the key's view ([`EdgeWatch::observe`]), or past
    /// the dense budget the pooled [`SourcePlan::scan`]. The watch's delta is
    /// then the change from its previous scan, and its network equals
    /// [`QueryEngine::network`]'s on the same epoch. Returns the scanned
    /// epoch's id; an epoch of another node count than the watch's is
    /// [`Error::Mismatch`].
    pub fn observe(
        &self,
        watch: &mut EdgeWatch,
        method: PlanMethod,
        last_windows: u32,
    ) -> Result<u64, QueryError> {
        let epoch = self.latest()?;
        let expected = watch.delta().nodes;
        self.answer(&epoch, method, last_windows, |found, corrs| {
            if found != expected {
                return Err(Error::Mismatch { expected, found }.into());
            }
            match corrs {
                Corrs::View(view) => {
                    watch.observe(view);
                }
                Corrs::Plan(plan) => plan.scan(&*self.pool, watch, DEFAULT_TILE_PAIRS),
            }
            Ok(epoch.id())
        })
    }

    /// Answer one query of `method` over the trailing `last_windows` of
    /// `epoch`: `answer` gets the series count and the key's correlations —
    /// its view, when held or within the dense budget (the key's first query
    /// fills it), or else the key's [`SourcePlan`], which the caller sweeps
    /// off the lent table. Fewer than two series are an empty view. No table
    /// audit on either path: the contract is the single-run library answer,
    /// NaN count included, and the library paths audit outputs only.
    fn answer<T>(
        &self,
        epoch: &Epoch,
        method: PlanMethod,
        last_windows: u32,
        answer: impl FnOnce(usize, Corrs<'_>) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let source =
            epoch
                .source(method)
                .ok_or(QueryError::Unavailable(UnavailableReason::for_method(
                    method,
                )))?;
        let windows = resolve_windows(source.window_count(method), last_windows, method)?;
        let n = source.series_count();
        if n < 2 {
            return answer(n, Corrs::View(&[]));
        }
        let key = PlanKey::new(epoch.id(), windows.clone(), method);
        let entry = self.lookup(key, last_windows, source.as_ref())?;
        if let Some(view) = entry.view() {
            return answer(n, Corrs::View(view));
        }
        let table = source.lent_table(windows.clone(), method)?;
        let (plan, _) = entry.plan().clone().into_parts();
        // The dense fill refuses only past the dense budget: such a key holds
        // no view.
        let filled = entry.view_or_fill(|| {
            fill_packed(&*self.pool, &plan, table.view())
                .ok()
                .map(|(values, _)| values)
        });
        match filled {
            Some(view) => answer(n, Corrs::View(view)),
            None => answer(
                n,
                Corrs::Plan(&SourcePlan::new(&**source, windows, method)?),
            ),
        }
    }

    /// The cache entry of `key` on an epoch's source: the per-series tables
    /// built from the source's window-statistics rows
    /// ([`QueryPlan::from_window_stats`] — numerically identical whichever
    /// backend the statistics come from, and the same tables for Lemma 1 and
    /// Equation 5) plus their pruning bounds.
    ///
    /// Retention, so that views do not pile up: a key inserted for a
    /// trailing-window request supersedes the older epochs' key of the same
    /// request and method ([`PlanCache`]), and the first lookup on an epoch
    /// newer than any answered before retires every key older than the
    /// previously newest epoch — `network` and `top_k` never answer an older
    /// epoch again. The previously newest epoch's keys stay until their own
    /// requests replace them, so a new epoch swaps views one for one instead
    /// of dropping them all at its first answer.
    fn lookup(
        &self,
        key: PlanKey,
        last_windows: u32,
        source: &dyn CorrSource,
    ) -> Result<CachedEntry, QueryError> {
        let previous = self.newest.fetch_max(key.epoch, Ordering::Relaxed);
        if previous < key.epoch {
            self.cache.invalidate_below(previous);
        }
        let (windows, method) = (key.windows(), key.method);
        Ok(self.cache.lookup(key, Some(last_windows), || {
            let stats = source.series_stats(windows)?;
            let plan = Arc::new(QueryPlan::from_window_stats(&stats)?);
            let bounds = Arc::new(CorrelationBounds::from_plan(&plan));
            Ok(match method {
                PlanMethod::Exact => CachedPlan::Exact { plan, bounds },
                PlanMethod::Approximate => CachedPlan::Approx { plan, bounds },
            })
        })?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsubasa_core::runner::SerialRunner;
    use tsubasa_core::SeriesCollection;
    use tsubasa_dft::sketch::{DftSketchSet, Transform};

    fn engine(workers: usize) -> (QueryEngine, DftSketchSet) {
        let c = SeriesCollection::from_rows(
            (0..6)
                .map(|s| {
                    (0..120)
                        .map(|i| {
                            (i as f64 * 0.11 + s as f64 * 0.7).sin()
                                + ((i * (s + 2)) % 11) as f64 * 0.05
                        })
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        let dft = DftSketchSet::build(&c, 24, 24, Transform::Naive).unwrap();
        let store = Arc::new(EpochStore::new(4));
        store
            .publish(Some(dft.base().clone()), Some(dft.clone()))
            .unwrap();
        let eng = QueryEngine::new(
            store,
            Arc::new(PlanCache::new(8)),
            Arc::new(WorkerPool::new(workers)),
        );
        (eng, dft)
    }

    fn assert_edges_eq(a: &EdgeList, b: &EdgeList) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.nan_pair_count(), b.nan_pair_count());
    }

    #[test]
    fn parallel_queries_match_serial_bit_for_bit() {
        for workers in [1usize, 3] {
            let (eng, dft) = engine(workers);
            let base = dft.base();

            let wc = base.window_count();
            let serial = |windows, method| SourcePlan::new(&dft, windows, method).unwrap();
            let (epoch, net) = eng.network(PlanMethod::Exact, 0, 0.2).unwrap();
            assert_eq!(epoch, 1);
            let (serial_net, _) = serial(0..wc, PlanMethod::Exact)
                .network(&SerialRunner, 0.2, DEFAULT_TILE_PAIRS, TableAudit::Off)
                .unwrap();
            assert_edges_eq(&net, &serial_net);

            let (_, trailing) = eng.network(PlanMethod::Exact, 2, 0.2).unwrap();
            let (serial_net, _) = serial(wc - 2..wc, PlanMethod::Exact)
                .network(&SerialRunner, 0.2, DEFAULT_TILE_PAIRS, TableAudit::Off)
                .unwrap();
            assert_edges_eq(&trailing, &serial_net);

            let (_, top) = eng.top_k(PlanMethod::Exact, 0, 7).unwrap();
            let (serial_top, _) = serial(0..wc, PlanMethod::Exact).top_k(
                &SerialRunner,
                7,
                DEFAULT_TILE_PAIRS,
                TableAudit::Off,
            );
            assert_eq!(top.edges, serial_top.edges);

            let plan = tsubasa_dft::ApproxPlan::build(&dft, 0..dft.window_count()).unwrap();
            let (_, net) = eng.network(PlanMethod::Approximate, 0, 0.2).unwrap();
            assert_edges_eq(&net, &plan.network_streamed(0.2).unwrap());
            let (_, top) = eng.top_k(PlanMethod::Approximate, 0, 5).unwrap();
            assert_eq!(top.edges, plan.top_k(5).edges);
        }
    }

    #[test]
    fn pile_backed_epochs_answer_exact_queries_bit_identically() {
        use crate::epoch::EpochIngest;

        let c = SeriesCollection::from_rows(
            (0..6)
                .map(|s| {
                    (0..120)
                        .map(|i| {
                            (i as f64 * 0.11 + s as f64 * 0.7).sin()
                                + ((i * (s + 2)) % 11) as f64 * 0.05
                        })
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        for workers in [1usize, 3] {
            let dft = DftSketchSet::build(&c, 24, 24, Transform::Naive).unwrap();
            let store = Arc::new(EpochStore::new(4));
            let sketch_epoch = store
                .publish(Some(dft.base().clone()), Some(dft.clone()))
                .unwrap();
            let path = std::env::temp_dir().join(format!(
                "tsubasa-serve-pile-query-{}-{workers}.pile",
                std::process::id()
            ));
            let (_ingest, pile_epoch) =
                EpochIngest::pile(Arc::clone(&store), &c, 24, &path).unwrap();
            assert!(pile_epoch.exact().is_none());
            assert_eq!(pile_epoch.window_count(), sketch_epoch.window_count());
            let eng = QueryEngine::new(
                store,
                Arc::new(PlanCache::new(8)),
                Arc::new(WorkerPool::new(workers)),
            );

            for (lw, theta) in [(0u32, 0.2), (2, 0.0), (0, 0.8)] {
                let from_sketch = eng
                    .network_on(&sketch_epoch, PlanMethod::Exact, lw, theta)
                    .unwrap();
                let from_pile = eng
                    .network_on(&pile_epoch, PlanMethod::Exact, lw, theta)
                    .unwrap();
                assert_edges_eq(&from_sketch, &from_pile);
            }
            for (lw, k) in [(0u32, 7u32), (3, 5)] {
                let from_sketch = eng
                    .top_k_on(&sketch_epoch, PlanMethod::Exact, lw, k)
                    .unwrap();
                let from_pile = eng.top_k_on(&pile_epoch, PlanMethod::Exact, lw, k).unwrap();
                assert_eq!(from_sketch.edges, from_pile.edges);
            }
            // This pile carries correlation rows but no estimate rows:
            // approximate queries fail typed, they do not silently degrade.
            assert!(matches!(
                eng.network_on(&pile_epoch, PlanMethod::Approximate, 0, 0.2),
                Err(QueryError::Unavailable(UnavailableReason::NoApprox))
            ));
            // Repeated windows against the pile epoch hit the plan cache.
            let stats = eng.cache().stats();
            assert!(stats.hits > 0, "pile plans should be cache-reused");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn approx_queries_on_mirrored_pile_epoch_match_sketch_epoch() {
        use crate::epoch::mirror_sketches_to_pile;
        use tsubasa_storage::pile::PileWriter;

        let c = SeriesCollection::from_rows(
            (0..6)
                .map(|s| {
                    (0..120)
                        .map(|i| {
                            (i as f64 * 0.11 + s as f64 * 0.7).sin()
                                + ((i * (s + 2)) % 11) as f64 * 0.05
                        })
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        for workers in [1usize, 3] {
            let dft = DftSketchSet::build(&c, 24, 24, Transform::Naive).unwrap();
            let store = Arc::new(EpochStore::new(4));
            let sketch_epoch = store
                .publish(Some(dft.base().clone()), Some(dft.clone()))
                .unwrap();
            let path = std::env::temp_dir().join(format!(
                "tsubasa-serve-pile-approx-{}-{workers}.pile",
                std::process::id()
            ));
            let mut writer = PileWriter::create(&path, c.len(), 24).unwrap();
            mirror_sketches_to_pile(&mut writer, Some(dft.base()), Some(&dft)).unwrap();
            writer.sync().unwrap();
            let pile_epoch = store.publish_pile(writer.snapshot().unwrap()).unwrap();
            assert!(pile_epoch.approx().is_none() && pile_epoch.exact().is_none());
            assert_eq!(
                pile_epoch.windows_for(PlanMethod::Approximate),
                sketch_epoch.windows_for(PlanMethod::Approximate)
            );
            let eng = QueryEngine::new(
                store,
                Arc::new(PlanCache::new(8)),
                Arc::new(WorkerPool::new(workers)),
            );

            // Approximate answers from the pile's stored estimate rows are
            // bit-identical to the in-memory comparator's.
            for (lw, theta) in [(0u32, 0.2), (2, 0.0), (0, 0.8)] {
                let from_sketch = eng
                    .network_on(&sketch_epoch, PlanMethod::Approximate, lw, theta)
                    .unwrap();
                let from_pile = eng
                    .network_on(&pile_epoch, PlanMethod::Approximate, lw, theta)
                    .unwrap();
                assert_edges_eq(&from_sketch, &from_pile);
            }
            for (lw, k) in [(0u32, 7u32), (3, 5)] {
                let from_sketch = eng
                    .top_k_on(&sketch_epoch, PlanMethod::Approximate, lw, k)
                    .unwrap();
                let from_pile = eng
                    .top_k_on(&pile_epoch, PlanMethod::Approximate, lw, k)
                    .unwrap();
                assert_eq!(from_sketch.edges, from_pile.edges);
            }
            // The mirror also wrote correlation rows, so the same pile epoch
            // answers exact queries bit-identically too.
            let from_sketch = eng
                .network_on(&sketch_epoch, PlanMethod::Exact, 0, 0.2)
                .unwrap();
            let from_pile = eng
                .network_on(&pile_epoch, PlanMethod::Exact, 0, 0.2)
                .unwrap();
            assert_edges_eq(&from_sketch, &from_pile);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn window_resolution_rejects_out_of_range() {
        assert!(matches!(
            resolve_windows(5, 6, PlanMethod::Exact),
            Err(QueryError::Rejected(Error::SketchMismatch { .. }))
        ));
        assert!(matches!(
            resolve_windows(0, 0, PlanMethod::Approximate),
            Err(QueryError::Unavailable(UnavailableReason::NoApprox))
        ));
        assert_eq!(resolve_windows(5, 0, PlanMethod::Exact).unwrap(), 0..5);
        assert_eq!(resolve_windows(5, 2, PlanMethod::Exact).unwrap(), 3..5);
        let (eng, _) = engine(2);
        assert!(matches!(
            eng.network(PlanMethod::Exact, 0, 1.5),
            Err(QueryError::Rejected(Error::InvalidThreshold(_)))
        ));
        assert!(matches!(
            eng.network(PlanMethod::Exact, 99, 0.5),
            Err(QueryError::Rejected(Error::SketchMismatch { .. }))
        ));
    }
}
