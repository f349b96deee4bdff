//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end metric
//! each should move. `BENCHMARK.json` at the repository root repeats the
//! names, units, directions and bounds; `tests/smoke.rs` fails when the two
//! drift apart. Later issues cite these names.

use crate::json::{obj, Value};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload: its name and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hist-mem",
        why: "Fig. 5: in-memory sketch build, arbitrary-window exact/top-k/approx queries, window appends; core sketch/plan/sweep and dft do all the work, storage/stream/serve/parallel none",
    },
    Workload {
        name: "realtime",
        why: "Fig. 5d / Lemma 2: sliding-window updates with edge deltas; core incremental/delta, the arriving-window kernel and stream do the work, plan/sweep/storage/serve none",
    },
    Workload {
        name: "pile-ooc",
        why: "Fig. 6: sketch to a mapped pile past the dense budget, queries through the worker pool, appends beside reads; storage.pile and parallel do the work, the sweep kernel is shared with hist-mem",
    },
    Workload {
        name: "serve-live",
        why: "Serving: open-loop epoch ingest beside a closed-loop TCP client; a query is a pooled sweep plus serve proto/server/cache and the hand-offs; every epoch adds plan keys; reads run beside the writer",
    },
];

/// An end-to-end metric: something a user of the system sees. Reported on
/// every workload, from untraced runs only.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it means, and what it is on each workload.
    pub meaning: &'static str,
}

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "data generation, transforms, comparator sketches, replay materialization — everything untimed below; median of 3-15 full set-ups",
    },
    EndToEnd {
        name: "sketch_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "raw series to queryable sketches, fastest of the repetitions spread over the run, on inputs cut to take 40-70 ms: SketchSet::build of the first 10 windows (hist-mem), RealTimeNetwork::new + subscribe_edges over the 12-window history (realtime), sketch_to_pile of the first 4 windows incl. final sync (pile-ooc), EpochIngest::exact over the 30-window history incl. first epoch (serve-live)",
    },
    EndToEnd {
        name: "query_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "call to edge list / top-k in hand, median over the positions of the replayed round of each position's fastest repetition, whole op mix: library calls (hist-mem), network_with_threshold reads beside the writes (realtime), ParallelEngine over the pile (pile-ooc), over TCP (serve-live)",
    },
    EndToEnd {
        name: "query_ms_p95",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "same, tail (the unaligned class on hist-mem)",
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "queries of the round per second of its positions' summed fastest repetitions (closed loop, one client)",
    },
    EndToEnd {
        name: "update_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "a completed basic window arrives to its effect being readable: appended to the sketch (hist-mem), its EdgeDelta drained (realtime), append + sync + snapshot (pile-ooc) — over positions of the round as for queries; epoch published, from the due time, median over every tick (serve-live)",
    },
    EndToEnd {
        name: "updates_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "completed windows of the round per second of its positions' summed fastest repetitions (closed loop); on serve-live 1000 / update_ms_p50, the rate the writer sustains",
    },
    EndToEnd {
        name: "peak_alloc_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        meaning: "peak heap growth above the level at measured-phase start, over the counted prefix of the phase (counting global allocator in the ledger binary); on pile-ooc the first query round and the first appends, not the sketching",
    },
    EndToEnd {
        name: "stored_bytes_per_value",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
        meaning: "bytes held per stored f64 sketch value (windows x (3N + pairs) x 8 bytes): heap of the 10-window prefix SketchSet (hist-mem), of the RealTimeNetwork (realtime), compacted pile file (pile-ooc), epoch store + ingest state (serve-live)",
    },
];

/// A per-layer metric: measured only in the traced run, from ledger code,
/// around public calls. Reported on every workload; 0 where the layer does
/// no work on that workload.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, prefixed by the layer (crate.module).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The public call(s) it is measured around.
    pub how: &'static str,
    /// The end-to-end metric@workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    how: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        how,
        moves,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics.
pub const PER_LAYER: [Layer; 65] = [
    layer("data.generate_s", "s", Lower, "generators + gap-fill + anomalies + global-mean removal", "setup_s@all"),
    layer("core.sketch.build_ms", "ms", Lower, "SketchSet::build, fastest warm repetition", "sketch_s@hist-mem"),
    layer("core.sketch.cold_build_ms", "ms", Lower, "first SketchSet::build in the process (excluded from sketch_s)", "setup_s@hist-mem"),
    layer("core.sketch.ns_per_pair_point", "ns", Lower, "SketchSet::build / (pairs x points)", "sketch_s@hist-mem"),
    layer("core.stats.normalize_ms", "ms", Lower, "stats::normalize_into over every window of every series", "sketch_s@hist-mem,pile-ooc"),
    layer("core.stats.pair_kernel_ms", "ms", Lower, "stats::tiled_pair_corrs_into over every window", "sketch_s@hist-mem,pile-ooc"),
    layer("core.stats.arriving_kernel_us", "us", Lower, "normalize_into + tiled_pair_corrs_into on one N x B window (probe)", "update_ms_p50@realtime,hist-mem,serve-live"),
    layer("core.plan.build_aligned_us", "us", Lower, "QueryPlan::build, aligned window", "query_ms_p50@hist-mem; query_ms_p50@serve-live on cache misses"),
    layer("core.plan.build_unaligned_us", "us", Lower, "QueryPlan::build, window cutting head and tail basic windows", "query_ms_p95@hist-mem"),
    layer("core.plan.bounds_us", "us", Lower, "CorrelationBounds::from_plan", "query_ms_p50@hist-mem,pile-ooc (top-k ops)"),
    layer("core.sweep.kernel_ms", "ms", Lower, "sweep::sweep_run into StatsSink, no bounds", "query_ms_p50@hist-mem,pile-ooc"),
    layer("core.sweep.ns_per_pair_window", "ns", Lower, "kernel_ms / (pairs x windows)", "query_ms_p50@hist-mem,pile-ooc"),
    layer("core.sweep.edge_sink_ms", "ms", Lower, "EdgeSink sweep minus kernel", "query_ms_p50@hist-mem,pile-ooc"),
    layer("core.sweep.topk_ms", "ms", Lower, "bounds + TopKSink sweep", "query_ms_p50@hist-mem,pile-ooc"),
    layer("core.sweep.skipped_pair_share", "ratio", Higher, "TopKSink::skipped_pairs / pairs on the reference query (count)", "query_ms_p50@hist-mem,pile-ooc"),
    layer("core.sweep.edges_per_query", "count", Lower, "edges returned by the reference network query (count)", "query_ms_p50@hist-mem,serve-live"),
    layer("dft.sketch_build_ms", "ms", Lower, "DftSketchSet::build over the comparator prefix", "setup_s@hist-mem"),
    layer("dft.plan_build_us", "us", Lower, "ApproxPlan::build", "query_ms_p95@hist-mem"),
    layer("dft.sweep_ms", "ms", Lower, "ApproxPlan::network_streamed", "query_ms_p95@hist-mem"),
    layer("dft.superset_share", "ratio", Higher, "share of exact edges present in the approximate answer; must be 1 (count)", "failed@hist-mem"),
    layer("core.incremental.ingest_ms", "ms", Lower, "SlidingNetwork::ingest, unsubscribed, same chunk sequence (probe)", "update_ms_p50@realtime"),
    layer("core.delta.tick_extra_ms", "ms", Lower, "subscribed minus unsubscribed SlidingNetwork::ingest (probe)", "update_ms_p50@realtime"),
    layer("core.delta.rechecked_share", "ratio", Lower, "EdgeDelta rechecked_pairs / total_pairs over the counted ticks (count)", "update_ms_p50@realtime"),
    layer("core.delta.changed_edges_per_tick", "count", Lower, "EdgeDelta appeared + vanished per counted tick (count)", "update_ms_p50@realtime"),
    layer("stream.buffer.push_us", "us", Lower, "StreamBuffer::push on the same pushes (probe)", "update_ms_p50@realtime"),
    layer("stream.realtime.noncompleting_push_us", "us", Lower, "RealTimeNetwork::ingest that completes no window", "updates_per_s@realtime"),
    layer("stream.realtime.bootstrap_ms", "ms", Lower, "RealTimeNetwork::new + subscribe_edges", "sketch_s@realtime"),
    layer("stream.realtime.update_ms_p95", "ms", Lower, "completing push to delta drained, tail (too few samples on the other workloads to be end-to-end)", "update_ms_p50@realtime"),
    layer("parallel.pool.dispatch_us", "us", Lower, "WorkerPool::run_jobs with one empty job per worker", "query_ms_p50@pile-ooc,serve-live"),
    layer("parallel.engine.sketch_compute_ms", "ms", Lower, "SketchReport::compute_time of sketch_to_pile", "sketch_s@pile-ooc"),
    layer("parallel.engine.sketch_write_ms", "ms", Lower, "SketchReport::write_time of sketch_to_pile", "sketch_s@pile-ooc"),
    layer("parallel.engine.query_read_ms", "ms", Lower, "QueryReport::read_time of ParallelEngine::network", "query_ms_p50@pile-ooc"),
    layer("parallel.engine.query_compute_ms", "ms", Lower, "QueryReport::compute_time of ParallelEngine::network", "query_ms_p50@pile-ooc"),
    layer("storage.pile.append_mib_per_s", "MiB/s", Higher, "PileWriter::append of one stats row + one pair row", "update_ms_p50@pile-ooc"),
    layer("storage.pile.sync_ms", "ms", Lower, "PileWriter::sync", "update_ms_p50@pile-ooc"),
    layer("storage.pile.snapshot_ms", "ms", Lower, "PileWriter::snapshot", "update_ms_p50@pile-ooc"),
    layer("storage.pile.compact_ms", "ms", Lower, "SketchPile::compact", "setup of the query phase@pile-ooc"),
    layer("storage.pile.open_ms", "ms", Lower, "SketchPile::open", "update_ms_p50@pile-ooc (snapshot reopens)"),
    layer("storage.pile.pair_table_us", "us", Lower, "SketchPile::pair_table, full range", "query_ms_p50@pile-ooc"),
    layer("storage.pile.series_stats_us", "us", Lower, "SketchPile::series_stats, full range", "query_ms_p50@pile-ooc"),
    layer("storage.pile.gathered_query_ms", "ms", Lower, "trailing-range network query on a post-append snapshot (spans segments)", "updates_per_s@pile-ooc"),
    layer("storage.pile.zero_copy_share", "ratio", Higher, "PairTable::is_zero_copy over the query-phase ranges (count)", "query_ms_p50, peak_alloc_mib@pile-ooc"),
    layer("storage.pile.gathered_mib_per_query", "MiB", Lower, "bytes copied into owned tables per query-phase query (count)", "query_ms_p50, peak_alloc_mib@pile-ooc"),
    layer("storage.pile.segments_after_compact", "count", Lower, "SketchPile::segment_count after compact + open (count)", "query_ms_p50@pile-ooc"),
    layer("storage.pile.syncs", "count", Lower, "PileWriter::syncs over the counted appends (count)", "update_ms_p50@pile-ooc"),
    layer("storage.pile.bytes_written", "bytes", Lower, "PileWriter::len_bytes growth over the counted appends (count)", "update_ms_p50@pile-ooc"),
    layer("serve.epoch.ingest_ms", "ms", Lower, "EpochIngest::ingest of one basic window", "update_ms_p50@serve-live"),
    layer("serve.epoch.ingest_q1_ms", "ms", Lower, "same, first quarter of a segment's ticks", "update_ms_p50@serve-live"),
    layer("serve.epoch.ingest_q4_ms", "ms", Lower, "same, last quarter of a segment's ticks (shows O(history) growth)", "update_ms_p50, peak_alloc_mib@serve-live"),
    layer("serve.epoch.late_ms_p95", "ms", Lower, "how late the open-loop generator started a tick", "update_ms_p50@serve-live"),
    layer("serve.epoch.first_served_lag_ms", "ms", Lower, "epoch published to first reply tagged with it", "update_ms_p50@serve-live"),
    layer("serve.cache.hit_share", "ratio", Higher, "StatsReply cache_hits / (hits + misses)", "query_ms_p50@serve-live"),
    layer("serve.cache.hit_us", "us", Lower, "PlanCache::get_or_build on a resident key (probe)", "query_ms_p50@serve-live"),
    layer("serve.cache.miss_build_us", "us", Lower, "PlanCache::get_or_build building a plan (probe)", "query_ms_p95@serve-live"),
    layer("serve.query.inproc_us", "us", Lower, "QueryEngine::network / top_k, same request, no socket", "query_ms_p50@serve-live"),
    layer("serve.proto.encode_us", "us", Lower, "proto::encode_response on captured replies", "query_ms_p50@serve-live"),
    layer("serve.proto.decode_us", "us", Lower, "proto::decode_response on captured replies", "query_ms_p50@serve-live"),
    layer("serve.proto.bytes_per_reply", "bytes", Lower, "encoded reply size, mean over captured replies (count)", "query_ms_p50@serve-live"),
    layer("serve.server.wire_overhead_us", "us", Lower, "client latency minus in-process minus codec", "query_ms_p50@serve-live"),
    layer("serve.server.query_ms_p99", "ms", Lower, "client latency, p99", "query_ms_p95@serve-live"),
    layer("serve.server.requests", "count", Higher, "StatsReply requests", "queries_per_s@serve-live"),
    layer("serve.server.errors", "count", Lower, "StatsReply errors", "failed@serve-live"),
    layer("machine.calib_ms", "ms", Lower, "fixed tiled_pair_corrs_into spin before and after the workload; flags noisy-neighbour runs", "every timing"),
    layer("trace.overhead_share", "ratio", Lower, "traced over untraced wall of the same opaque ops, minus 1", "none (tracing cost)"),
    layer("trace.decomposed_ratio", "ratio", Lower, "summed decomposed steps over the opaque call they reproduce", "none (attribution closure)"),
];

/// One measured value and how many samples are behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value, in the metric's declared unit.
    pub value: f64,
    /// Samples it summarizes (1 for a single reading or a count).
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted in measured phases, oracle checks included.
    pub attempted: u64,
    /// Operations that errored, were refused, or failed an oracle check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    values: Vec<(&'static str, Measured)>,
}

impl Report {
    /// Record `value` for the declared metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "undeclared metric {name}"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = Measured { value, samples },
            None => self.values.push((name, Measured { value, samples })),
        }
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<Measured> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, m)| *m)
    }

    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one failed operation and keep its description.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what.into());
        }
    }

    /// Count one attempted check, failing it when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// The `metrics` object of the result line: every end-to-end metric
    /// (untraced run) or every per-layer metric (traced run), by name, with
    /// value and unit. `Err` names the end-to-end metrics a workload failed
    /// to report or reported as zero or non-finite; an unreported per-layer
    /// metric is 0 (the layer did no work on this workload).
    pub fn metrics_json(&self, trace: bool) -> Result<Value, String> {
        let mut entries = Vec::new();
        let mut bad = Vec::new();
        let mut push = |name: &'static str, unit: &'static str, value: f64| {
            entries.push((
                name.to_string(),
                obj([("value", value.into()), ("unit", unit.into())]),
            ));
        };
        if trace {
            for m in &PER_LAYER {
                let value = self.get(m.name).map_or(0.0, |v| v.value);
                push(m.name, m.unit, if value.is_finite() { value } else { 0.0 });
            }
        } else {
            for m in &END_TO_END {
                match self.get(m.name) {
                    Some(v) if v.value.is_finite() && v.value != 0.0 => {
                        push(m.name, m.unit, v.value)
                    }
                    _ => bad.push(m.name),
                }
            }
        }
        if bad.is_empty() {
            Ok(Value::Obj(entries))
        } else {
            Err(format!(
                "end-to-end metrics missing or zero: {}",
                bad.join(", ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn declared_names_units_and_bounds_obey_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(m.unit.len() <= 16);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16 && !m.moves.is_empty() && !m.how.is_empty());
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn report_refuses_a_missing_or_zero_end_to_end_metric() {
        let mut r = Report::default();
        for m in &END_TO_END {
            r.set(m.name, 1.5, 3);
        }
        assert!(r.metrics_json(false).is_ok());
        r.set("sketch_s", 0.0, 3);
        assert!(r.metrics_json(false).unwrap_err().contains("sketch_s"));
        // Per-layer metrics default to 0 where a layer did no work.
        let layers = r.metrics_json(true).unwrap();
        assert_eq!(layers.as_object().unwrap().len(), PER_LAYER.len());
    }

    #[test]
    fn failures_are_counted_against_attempts() {
        let mut r = Report::default();
        r.attempt(10);
        r.check(true, || unreachable!());
        r.check(false, || "oracle mismatch".to_string());
        assert_eq!((r.attempted, r.failed), (12, 1));
        assert_eq!(r.failures, vec!["oracle mismatch".to_string()]);
    }
}
