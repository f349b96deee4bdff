//! Query evaluation against a published epoch: plan-cache lookup, then a
//! partitioned streaming sweep fanned out over a [`WorkerPool`].
//!
//! Every result is **bit-identical** to the serial library call against the
//! same epoch's sketch:
//!
//! * exact network ≡ [`tsubasa_core::exact::network_streamed_aligned`] — no
//!   pruning, strict `c > θ` rule; like that path it counts NaN *outputs*,
//!   and the kernel clamps a NaN table value to `0.0`, so the table itself is
//!   not audited here (the parallel engine's queries do audit it);
//! * exact top-k ≡ [`tsubasa_core::exact::top_k_aligned`] — Equation 4
//!   tile pruning, total [`f64::total_cmp`] ranking;
//! * approximate network ≡ [`tsubasa_dft::ApproxPlan::network_streamed`] —
//!   Equation 4 radius predicate with tile pruning;
//! * approximate top-k ≡ [`tsubasa_dft::ApproxPlan::top_k`].
//!
//! Every query is the same four steps whatever the method or the epoch's
//! backend: one plan lookup (the per-series tables, cached), one table lent by
//! the epoch's source ([`CorrSource::full_table`] — shared sketch rows or
//! mapped pile rows, never copied), one fan-out over contiguous pair runs
//! ([`sweep_pooled`], the pooled sweep the parallel engine also calls), and a
//! merge. The method picks the table, the sink and whether tiles are pruned;
//! nothing else forks.
//!
//! The equivalence rests on the PR 6 invariant (tile and run boundaries
//! never change any pair's arithmetic) plus ordered merging: runs are
//! contiguous ascending pair ranges, so absorbing per-run edge lists in run
//! order reproduces the serial emission order, and the top-k heap merge is
//! order-insensitive by construction. The `serve_concurrency` suite pins
//! this bit-for-bit across worker counts.

use std::ops::Range;
use std::sync::Arc;

use tsubasa_core::error::Error;
use tsubasa_core::plan::{CorrView, PlanKey, PlanMethod};
use tsubasa_core::source::CorrSource;
use tsubasa_core::sweep::{
    sweep_pooled, CorrelationBounds, EdgeList, EdgeSink, TableAudit, TileSink, TopK, TopKSink,
    DEFAULT_TILE_PAIRS,
};
use tsubasa_core::QueryPlan;
use tsubasa_dft::plan::RadiusEdgeSink;
use tsubasa_parallel::WorkerPool;
use tsubasa_storage::pile::SketchPile;
use tsubasa_stream::EpochSketches;

use crate::cache::{CachedPlan, PlanCache};
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
/// latest published epoch, reusing built plans through a [`PlanCache`] and
/// fanning the sweep over a shared [`WorkerPool`].
///
/// All methods take `&self`; the engine is shared across connection threads
/// behind an `Arc`.
#[derive(Debug)]
pub struct QueryEngine {
    store: Arc<EpochStore>,
    cache: Arc<PlanCache>,
    pool: Arc<WorkerPool>,
}

impl QueryEngine {
    /// An engine answering from `store`, caching plans in `cache`, sweeping
    /// on `pool`.
    pub fn new(store: Arc<EpochStore>, cache: Arc<PlanCache>, pool: Arc<WorkerPool>) -> Self {
        Self { store, cache, pool }
    }

    /// The epoch store answered from.
    pub fn store(&self) -> &Arc<EpochStore> {
        &self.store
    }

    /// The plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The worker pool sweeps fan out over.
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
        let (plan, bounds) = self.plan(epoch.id(), source.as_ref(), &windows, method)?;
        let table = source.lent_table(windows, method)?;
        Ok(match method {
            // Exact network: the strict `c > θ` rule and no pruning, as on
            // the serial streamed path (every pair reaches the sink).
            PlanMethod::Exact => {
                let sinks = self.sweep(&plan, table.view(), None, || EdgeSink::new(theta));
                merge_edges(sinks.into_iter().map(|sink| sink.finish(n)))
            }
            // Approximate network: the Equation 4 radius predicate, with
            // tile pruning.
            PlanMethod::Approximate => {
                let sink = RadiusEdgeSink::new(theta)?;
                let sinks = self.sweep(&plan, table.view(), Some(&bounds), || sink.clone());
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
        let n = source.series_count();
        if n < 2 {
            return Ok(TopKSink::new(k).finish());
        }
        let (plan, bounds) = self.plan(epoch.id(), source.as_ref(), &windows, method)?;
        let table = source.lent_table(windows, method)?;
        // Equation 4 tile pruning holds for exact and approximate
        // recombination alike.
        let sinks = self.sweep(&plan, table.view(), Some(&bounds), || TopKSink::new(k));
        Ok(merge_top_k(sinks))
    }

    /// The plan for an epoch's source under `method`: the per-series tables
    /// built from the source's window-statistics rows
    /// ([`QueryPlan::from_window_stats`] — numerically identical whichever
    /// backend the statistics come from, and the same tables for Lemma 1 and
    /// Equation 5) plus their pruning bounds, cached under the
    /// `(epoch, windows, method)` key.
    fn plan(
        &self,
        epoch_id: u64,
        source: &dyn CorrSource,
        windows: &Range<usize>,
        method: PlanMethod,
    ) -> Result<(Arc<QueryPlan>, Arc<CorrelationBounds>), QueryError> {
        let key = PlanKey::new(epoch_id, windows.clone(), method);
        let cached = self.cache.get_or_build(key, || {
            let stats = source.series_stats(windows.clone())?;
            let plan = Arc::new(QueryPlan::from_window_stats(&stats)?);
            let bounds = Arc::new(CorrelationBounds::from_plan(&plan));
            Ok(match method {
                PlanMethod::Exact => CachedPlan::Exact { plan, bounds },
                PlanMethod::Approximate => CachedPlan::Approx { plan, bounds },
            })
        })?;
        Ok(cached.into_parts())
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
