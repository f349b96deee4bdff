//! Query evaluation against a published epoch: one plan-cache lookup, then
//! one pass over the key's correlation view.
//!
//! Every result is **bit-identical** to the serial library call against the
//! same epoch's sketch:
//!
//! * exact network ≡ [`tsubasa_core::exact::network_streamed_aligned`] —
//!   strict `c > θ` rule; like that path it counts NaN *outputs*, and the
//!   kernel clamps a NaN table value to `0.0`, so the table itself is not
//!   audited here (the parallel engine's queries do audit it);
//! * exact top-k ≡ [`tsubasa_core::exact::top_k_aligned`] — total
//!   [`f64::total_cmp`] ranking, ties by ascending pair index;
//! * approximate network ≡ [`tsubasa_dft::ApproxPlan::network_streamed`] —
//!   the Equation 4 radius predicate;
//! * approximate top-k ≡ [`tsubasa_dft::ApproxPlan::top_k`].
//!
//! A query at one `(epoch, method, windows)` key computes the same
//! `P = N(N−1)/2` correlations as every other query at that key, so it runs
//! in three steps whatever the method or the epoch's backend:
//!
//! 1. one [`PlanCache`] lookup: the per-series tables, built by the key's
//!    first query;
//! 2. on the key's first query only, the **view fill**: one pooled sweep
//!    ([`sweep_pooled`], the sweep the parallel engine also calls) over the
//!    table the epoch's source lends ([`CorrSource::lent_table`] — shared
//!    sketch rows or mapped pile rows, never copied), with no bounds and no
//!    threshold, each worker writing its contiguous run of pairs in place
//!    into one `P`-length buffer that the cache entry keeps;
//! 3. one sink pass over the view on the connection thread
//!    ([`sweep_packed`]): an [`EdgeSink`] or a [`RadiusEdgeSink`] for a
//!    network, a [`TopKSink`] for a top-k. The pool is not woken.
//!
//! The method picks the table and the sink; nothing else forks. The serial
//! paths prune tiles under Equation 4 where the sink allows (approximate
//! network, both top-k); pruning is sound — it drops only tiles no pair of
//! which could reach the answer — so a pass over every pair gives the same
//! edges, order, correlation bits and NaN count. The view holds the same
//! bits as the serial sweep because no tile or run boundary ever changes a
//! pair's arithmetic.
//!
//! A view that would not fit the dense budget
//! ([`tsubasa_core::capacity::check_dense_budget`]`(P, 1)`) is never
//! filled: such a query streams the pooled sweep into per-run sinks instead
//! — pruning tiles like the serial path — and merges them in run order.
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

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tsubasa_core::capacity::check_dense_budget;
use tsubasa_core::error::Error;
use tsubasa_core::plan::{runs_for_workers, CorrView, PlanKey, PlanMethod};
use tsubasa_core::runner::JobRunner;
use tsubasa_core::sketch::packed_pairs;
use tsubasa_core::source::CorrSource;
use tsubasa_core::sweep::{
    sweep_packed, sweep_pooled, CorrelationBounds, EdgeList, EdgeSink, TableAudit, TileSink, TopK,
    TopKSink, DEFAULT_TILE_PAIRS,
};
use tsubasa_core::QueryPlan;
use tsubasa_dft::plan::RadiusEdgeSink;
use tsubasa_parallel::WorkerPool;
use tsubasa_storage::pile::SketchPile;
use tsubasa_stream::EpochSketches;

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

    /// Publish the next epoch and drop cached plans for epochs that rolled
    /// out of retention.
    pub fn publish(&self, sketches: EpochSketches) -> tsubasa_core::error::Result<Arc<Epoch>> {
        let epoch = self.store.publish_sketches(sketches)?;
        if let Some(oldest) = self.store.oldest_retained() {
            self.cache.invalidate_below(oldest);
        }
        Ok(epoch)
    }

    /// Publish the next epoch from a memory-mapped pile snapshot, with the
    /// same cache invalidation as [`QueryEngine::publish`].
    pub fn publish_pile(&self, pile: SketchPile) -> tsubasa_core::error::Result<Arc<Epoch>> {
        let epoch = self.store.publish_pile(pile)?;
        if let Some(oldest) = self.store.oldest_retained() {
            self.cache.invalidate_below(oldest);
        }
        Ok(epoch)
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
        if !(-1.0..=1.0).contains(&theta) {
            return Err(QueryError::Rejected(Error::InvalidThreshold(theta)));
        }
        let source =
            epoch
                .source(method)
                .ok_or(QueryError::Unavailable(UnavailableReason::for_method(
                    method,
                )))?;
        let windows = resolve_windows(source.window_count(method), last_windows, method)?;
        let n = source.series_count();
        if n < 2 {
            return Ok(EdgeList::from_parts(n, Vec::new(), 0));
        }
        let (key, source) = (PlanKey::new(epoch.id(), windows, method), source.as_ref());
        Ok(match method {
            // Exact network: the strict `c > θ` rule and no pruning, as on
            // the serial streamed path.
            PlanMethod::Exact => {
                let sinks =
                    self.answer(key, last_windows, source, false, || EdgeSink::new(theta))?;
                merge_edges(sinks.into_iter().map(|sink| sink.finish(n)))
            }
            // Approximate network: the Equation 4 radius predicate.
            PlanMethod::Approximate => {
                let sink = RadiusEdgeSink::new(theta)?;
                let sinks = self.answer(key, last_windows, source, true, || sink.clone())?;
                merge_edges(sinks.into_iter().map(|sink| sink.finish(n)))
            }
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
        let source =
            epoch
                .source(method)
                .ok_or(QueryError::Unavailable(UnavailableReason::for_method(
                    method,
                )))?;
        let windows = resolve_windows(source.window_count(method), last_windows, method)?;
        if source.series_count() < 2 {
            return Ok(TopKSink::new(k).finish());
        }
        let key = PlanKey::new(epoch.id(), windows, method);
        let sinks = self.answer(key, last_windows, source.as_ref(), true, || {
            TopKSink::new(k)
        })?;
        Ok(merge_top_k(sinks))
    }

    /// Feed one query's sinks every pair of its key, in pair order: one sink
    /// and one pass over the key's view when the view is held or fits the
    /// dense budget (the key's first query fills it), else one sink per run
    /// of the pooled sweep streamed off the lent table, tiles pruned when
    /// `prune`. The sinks come back in pair order. `last_windows` is the
    /// trailing-window request the key resolves.
    fn answer<K: TileSink + Send>(
        &self,
        key: PlanKey,
        last_windows: u32,
        source: &dyn CorrSource,
        prune: bool,
        make_sink: impl Fn() -> K,
    ) -> Result<Vec<K>, QueryError> {
        let entry = self.lookup(key, last_windows, source)?;
        let (windows, method) = (key.windows(), key.method);
        let (plan, bounds) = entry.plan().clone().into_parts();
        let n = plan.series_count();
        let view = match entry.view() {
            Some(view) => Some(view),
            None if check_dense_budget(packed_pairs(n), 1).is_ok() => {
                let table = source.lent_table(windows.clone(), method)?;
                Some(entry.view_or_fill(|| self.fill_view(&plan, table.view())))
            }
            None => None,
        };
        if let Some(view) = view {
            let mut sink = make_sink();
            sweep_packed(n, view, DEFAULT_TILE_PAIRS, &mut sink);
            return Ok(vec![sink]);
        }
        let table = source.lent_table(windows, method)?;
        Ok(self.sweep(&plan, table.view(), prune.then_some(&*bounds), make_sink))
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

    /// A key's view: the pooled sweep of every pair — no bounds, no
    /// threshold — with each run's tiles written in place into that run's
    /// span of one `P`-length buffer.
    fn fill_view(&self, plan: &QueryPlan, table: CorrView<'_>) -> Arc<[f64]> {
        let pairs = packed_pairs(plan.series_count());
        let mut view: Arc<[f64]> = std::iter::repeat_n(0.0, pairs).collect();
        {
            let mut rest = Arc::get_mut(&mut view).expect("a fresh view is unshared");
            let mut spans = Vec::new();
            // The runs `sweep_pooled` cuts, in the order it asks for sinks.
            for run in runs_for_workers(pairs, self.pool.worker_count()) {
                let (out, tail) = std::mem::take(&mut rest).split_at_mut(run.len());
                spans.push(SpanSink {
                    start: run.start,
                    out,
                });
                rest = tail;
            }
            let spans = RefCell::new(spans.into_iter());
            self.sweep(plan, table, None, || {
                spans.borrow_mut().next().expect("one span per run")
            });
        }
        view
    }

    /// Fan one streamed sweep over the worker pool; sinks come back in run
    /// order. No table audit: the contract is the serial library answer, NaN
    /// count included, and the serial paths audit outputs only.
    fn sweep<K: TileSink + Send>(
        &self,
        plan: &QueryPlan,
        view: CorrView<'_>,
        bounds: Option<&CorrelationBounds>,
        make_sink: impl Fn() -> K,
    ) -> Vec<K> {
        let (tile, audit) = (DEFAULT_TILE_PAIRS, TableAudit::Off);
        sweep_pooled(&*self.pool, plan, view, bounds, tile, audit, make_sink).0
    }
}

/// The sink of one run of a view fill: copies each tile to its pairs' slots
/// of the run's span (`out[p − start]` holds pair `p`).
struct SpanSink<'a> {
    start: usize,
    out: &'a mut [f64],
}

impl TileSink for SpanSink<'_> {
    fn consume(&mut self, _i: usize, _j0: usize, pair0: usize, corrs: &[f64]) {
        let at = pair0 - self.start;
        self.out[at..at + corrs.len()].copy_from_slice(corrs);
    }
}

/// Merge per-run edge lists in run order. Runs are contiguous ascending pair
/// ranges, so appending in order reproduces the serial emission order
/// exactly.
fn merge_edges(parts: impl Iterator<Item = EdgeList>) -> EdgeList {
    let mut parts = parts;
    let mut merged = parts.next().expect("at least one run");
    for part in parts {
        merged.absorb(part);
    }
    merged
}

/// Merge per-run top-k heaps, then rank. The merged heap holds the k best
/// of the union, identical to the serial single-sink heap.
fn merge_top_k(sinks: Vec<TopKSink>) -> TopK {
    let mut sinks = sinks.into_iter();
    let mut merged = sinks.next().expect("at least one run");
    for sink in sinks {
        merged.absorb(sink);
    }
    merged.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsubasa_core::exact;
    use tsubasa_core::SeriesCollection;
    use tsubasa_dft::sketch::{DftSketchSet, Transform};
    use tsubasa_dft::ApproxPlan;

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

            let (epoch, net) = eng.network(PlanMethod::Exact, 0, 0.2).unwrap();
            assert_eq!(epoch, 1);
            let serial =
                exact::network_streamed_aligned(base, 0..base.window_count(), 0.2).unwrap();
            assert_edges_eq(&net, &serial);

            let (_, trailing) = eng.network(PlanMethod::Exact, 2, 0.2).unwrap();
            let serial = exact::network_streamed_aligned(
                base,
                base.window_count() - 2..base.window_count(),
                0.2,
            )
            .unwrap();
            assert_edges_eq(&trailing, &serial);

            let (_, top) = eng.top_k(PlanMethod::Exact, 0, 7).unwrap();
            let serial = exact::top_k_aligned(base, 0..base.window_count(), 7).unwrap();
            assert_eq!(top.edges, serial.edges);

            let plan = ApproxPlan::build(&dft, 0..dft.window_count()).unwrap();
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
