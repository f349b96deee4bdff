//! `pile-ooc` — the paper's Figure 6 / out-of-core setting: sketch into a
//! memory-mapped pile, query it through the worker pool with the dense
//! budget set below the pair table (so only streamed paths are legal), then
//! append live windows beside reads.
//!
//! `storage::pile` + `parallel` do the work. The sweep is the same
//! `block_kernel` as `hist-mem`, fed from a mapping: a sweep gain must show
//! in both workloads, a storage gain only here; appends beside reads show a
//! write-path change that costs reads.

use std::ops::Range;
use std::path::Path;

use tsubasa_core::plan::CorrView;
use tsubasa_core::prelude::*;
use tsubasa_core::sweep::{sweep_run, CorrelationBounds, DEFAULT_TILE_PAIRS};
use tsubasa_core::Job;
use tsubasa_parallel::{
    partition_pairs, PairPartition, ParallelConfig, ParallelEngine, QueryMethod, SketchMethod,
};
use tsubasa_storage::{PileWriter, SegmentKind, SketchPile};

use crate::alloc;
use crate::data::{dataset, pick_theta, window_parts, window_rows, Rng, WindowParts, BASIC_WINDOW};
use crate::harness::{
    check_density, fastest, pool_dispatch_us, record_trace_cost, repeat_setup, save_trace,
    sweep_probe, time_ms, Class, Deadline, Env, Replay, Scale, TOP_K,
};
use crate::metrics::Report;
use crate::stats::median;
use crate::tmp::TmpDir;
use crate::trace::Tracer;

/// Appends in one round of the append phase, and in the counted prefix
/// (sync count, bytes written, peak).
const COUNTED_APPENDS: usize = 8;
/// Windows of a sub-range query.
const SUB_RANGE: usize = 8;
/// `ParallelConfig::batch_pairs`: pairs per chunk of the engine's sweep.
const BATCH_PAIRS: usize = 256;

#[derive(Debug, Clone, Copy)]
struct Size {
    /// Series. Past 512 one pair row exceeds the 1 MiB chunk `compact`
    /// copies in, which is what the compaction finding needs.
    n: usize,
    /// Historical basic windows sketched into the pile.
    windows: usize,
    /// Basic windows of the prefix the timed `sketch_to_pile` sketches: short
    /// enough for some repetition to run undisturbed on a shared box.
    sketch_windows: usize,
    /// Queries in one seeded round.
    round_ops: usize,
}

impl Size {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                n: 600,
                windows: 12,
                sketch_windows: 4,
                round_ops: 40,
            },
            Scale::Smoke => Self {
                n: 48,
                windows: 10,
                sketch_windows: 4,
                round_ops: 12,
            },
        }
    }

    fn pairs(&self) -> usize {
        self.n * (self.n - 1) / 2
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Exact θ-network over `windows` (the full range or an 8-window slice).
    Network { windows: Range<usize> },
    /// Exact top-k over the full range.
    TopK,
}

#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Edges(EdgeList),
    Ranked(TopK),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Full,
    Sub,
    TopK,
}

/// Exactly 60 % full-range network, 25 % 8-window sub-range network and
/// 15 % top-k, in seeded order.
fn make_ops(size: &Size, seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x9113);
    let sub = SUB_RANGE.min(size.windows - 1);
    rng.mix(
        size.round_ops,
        &[(Kind::Full, 60), (Kind::Sub, 25), (Kind::TopK, 15)],
    )
    .into_iter()
    .map(|kind| match kind {
        Kind::Full => Op::Network {
            windows: 0..size.windows,
        },
        Kind::Sub => {
            let start = rng.range(0, size.windows - sub + 1);
            Op::Network {
                windows: start..start + sub,
            }
        }
        Kind::TopK => Op::TopK,
    })
    .collect()
}

struct Setup {
    historical: SeriesCollection,
    /// The first `sketch_windows` basic windows of the history.
    prefix: SeriesCollection,
    /// In-memory sketch of the same history: the ≤1e-10 yardstick for the
    /// pile's table, and the source of θ.
    memory: SketchSet,
    /// Rows of the live windows, sketched ahead of the append phase.
    live: Vec<WindowParts>,
    theta: f64,
    density: f64,
    ops: Vec<Op>,
    generate_s: f64,
}

fn set_up(size: &Size, seed: u64) -> Setup {
    let points = (size.windows + COUNTED_APPENDS) * BASIC_WINDOW;
    let (data, generate_s) = dataset(size.n, points, seed);
    let historical = data
        .truncate_length(size.windows * BASIC_WINDOW)
        .expect("history inside the data");
    let memory = SketchSet::build(&historical, BASIC_WINDOW).expect("sketch the history");
    let mut z = Vec::new();
    let prefix = historical
        .truncate_length(size.sketch_windows * BASIC_WINDOW)
        .expect("prefix inside the history");
    let live = (size.windows..size.windows + COUNTED_APPENDS)
        .map(|w| window_parts(&window_rows(&data, w), &mut z).0)
        .collect();

    let whole = QueryWindow::new(size.windows * BASIC_WINDOW - 1, size.windows * BASIC_WINDOW)
        .expect("whole history");
    let matrix = exact::correlation_matrix(&historical, &memory, whole).expect("reference query");
    let (theta, density) = pick_theta(matrix.upper_triangle());

    Setup {
        ops: make_ops(size, seed),
        historical,
        prefix,
        memory,
        live,
        theta,
        density,
        generate_s,
    }
}

fn run_opaque(
    op: &Op,
    engine: &ParallelEngine,
    pile: &SketchPile,
    full: Range<usize>,
    theta: f64,
) -> tsubasa_core::Result<(Answer, tsubasa_parallel::QueryReport)> {
    Ok(match op {
        Op::Network { windows } => {
            let (edges, timing) =
                engine.network(pile, windows.clone(), QueryMethod::Exact, theta)?;
            (Answer::Edges(edges), timing)
        }
        Op::TopK => {
            let (top, timing) = engine.top_k(pile, full, QueryMethod::Exact, TOP_K)?;
            (Answer::Ranked(top), timing)
        }
    })
}

/// The pooled half of a decomposed query: one job per worker over its
/// contiguous run of the packed triangle.
struct Pooled<'a> {
    engine: &'a ParallelEngine,
    plan: &'a QueryPlan,
    view: CorrView<'a>,
    partitions: &'a [PairPartition],
}

impl Pooled<'_> {
    /// Two pooled passes into `sinks` (one per partition), each under its
    /// own span. The engine audits every chunk for NaN windows before it
    /// recombines it; here the audit is a pass of its own so its cost shows
    /// as a step.
    fn audit_and_sweep<K: TileSink + Send>(
        &self,
        tracer: &mut Tracer,
        id: u64,
        bounds: Option<&CorrelationBounds>,
        sinks: &mut [K],
    ) {
        let (n, view, plan) = (self.plan.series_count(), self.view, self.plan);
        let span = tracer.begin("core.source.audit_nan_chunk", id);
        let jobs: Vec<Job<'_>> = self
            .partitions
            .iter()
            .zip(sinks.iter_mut())
            .map(|(part, sink)| {
                Box::new(move || {
                    for chunk in part.pairs.chunks(BATCH_PAIRS) {
                        audit_nan_chunk(view, chunk, n, sink);
                    }
                }) as Job<'_>
            })
            .collect();
        self.engine.pool().run_jobs(jobs);
        tracer.end(span);

        let span = tracer.begin("core.sweep.run", id);
        let mut start = 0;
        let jobs: Vec<Job<'_>> = self
            .partitions
            .iter()
            .zip(sinks.iter_mut())
            .map(|(part, sink)| {
                let run = start..start + part.len();
                start = run.end;
                Box::new(move || sweep_run(plan, &view, bounds, run, DEFAULT_TILE_PAIRS, sink))
                    as Job<'_>
            })
            .collect();
        self.engine.pool().run_jobs(jobs);
        tracer.end(span);
    }
}

/// The op decomposed into its public steps — `series_stats` → plan →
/// `pair_table` → `partition_pairs` → pooled `audit_nan_chunk` → pooled
/// `sweep_run` → merge — each under a child span.
/// Also returns whether the table was a zero-copy borrow and its size.
fn run_decomposed(
    op: &Op,
    id: u64,
    tracer: &mut Tracer,
    engine: &ParallelEngine,
    pile: &SketchPile,
    full: Range<usize>,
    theta: f64,
) -> tsubasa_core::Result<(Answer, bool, usize)> {
    let n = pile.n_series();
    let pairs = pile.pair_count();
    let windows = match op {
        Op::Network { windows } => windows.clone(),
        Op::TopK => full,
    };
    let span = tracer.begin("storage.pile.series_stats_us", id);
    let stats = pile.series_stats(windows.clone())?;
    tracer.end(span);
    let span = tracer.begin("core.plan.from_window_stats", id);
    let plan = QueryPlan::from_window_stats(&stats)?;
    tracer.end(span);
    let span = tracer.begin("storage.pile.pair_table_us", id);
    let table = pile.pair_table(windows.clone(), SegmentKind::PairCorrs)?;
    tracer.end(span);
    let table_bytes = pairs * windows.len() * 8;

    // One contiguous run of the packed triangle per worker, materialized
    // as the engine materializes it.
    let span = tracer.begin("parallel.partition_pairs", id);
    let partitions: Vec<_> = partition_pairs(n, engine.pool().size())
        .into_iter()
        .filter(|p| !p.is_empty())
        .collect();
    tracer.end(span);
    let pooled = Pooled {
        engine,
        plan: &plan,
        view: table.view(),
        partitions: &partitions,
    };

    let answer = match op {
        Op::Network { .. } => {
            let mut sinks: Vec<EdgeSink> =
                partitions.iter().map(|_| EdgeSink::new(theta)).collect();
            pooled.audit_and_sweep(tracer, id, None, &mut sinks);
            let span = tracer.begin("core.sweep.finish", id);
            let mut edges = EdgeList::from_parts(n, Vec::new(), 0);
            for sink in sinks {
                edges.absorb(sink.finish(n));
            }
            tracer.end(span);
            Answer::Edges(edges)
        }
        Op::TopK => {
            let bounds = tracer.span("core.plan.bounds_us", id, || {
                CorrelationBounds::from_plan(&plan)
            });
            let mut sinks: Vec<TopKSink> =
                partitions.iter().map(|_| TopKSink::new(TOP_K)).collect();
            pooled.audit_and_sweep(tracer, id, Some(&bounds), &mut sinks);
            let span = tracer.begin("core.sweep.finish", id);
            let mut merged = TopKSink::new(TOP_K);
            for sink in sinks {
                merged.absorb(sink);
            }
            let top = merged.finish();
            tracer.end(span);
            Answer::Ranked(top)
        }
    };
    Ok((answer, table.is_zero_copy(), table_bytes))
}

/// An in-memory `SketchSet` holding exactly the pile's values for windows
/// `0..windows`: the comparator every pile answer must equal bit for bit.
/// (`sketch_to_pile` and `SketchSet::build` use different dot-product
/// kernels, so a sketch built from the raw data agrees to 1e-10, not to
/// the bit — that is checked separately.)
fn mirror(pile: &SketchPile, windows: usize) -> tsubasa_core::Result<SketchSet> {
    let n = pile.n_series();
    let stats = pile.series_stats(0..windows)?;
    let table = pile.pair_table(0..windows, SegmentKind::PairCorrs)?;
    let view = table.view();
    let series = stats
        .into_iter()
        .enumerate()
        .map(|(series, windows)| SeriesSketch { series, windows })
        .collect();
    let mut pairs = Vec::with_capacity(pile.pair_count());
    let mut p = 0;
    for a in 0..n {
        for b in a + 1..n {
            pairs.push(PairSketch {
                a,
                b,
                corrs: (0..windows).map(|k| view.window_row(k)[p]).collect(),
            });
            p += 1;
        }
    }
    SketchSet::from_parts(pile.basic_window(), n, series, pairs)
}

/// What the append phase did to one live window.
struct Appended {
    /// Window index in the pile.
    window: usize,
    /// Index into `Setup::live` of the rows appended.
    live: usize,
}

/// Run the workload.
pub fn run(env: &Env, report: &mut Report) {
    let size = Size::of(env.scale);
    let tmp = TmpDir::new("pile-ooc").expect("create the temp directory");
    let (setup, setup_seconds) = repeat_setup(|_| set_up(&size, env.seed));
    report.set("setup_s", median(&setup_seconds), setup_seconds.len());
    check_density("pile-ooc", setup.density, report);

    let pairs = size.pairs();
    let table_bytes = pairs * size.windows * 8;
    // The dense guard prices the all-pairs result (pairs × 8 bytes); half of
    // that is far below the pair table, so every dense path must refuse.
    let dense_limit = (pairs * 8 / 2).max(1);
    eprintln!(
        "pile-ooc: N={} windows={} pair table {:.1} MiB, dense limit {} B, theta={} density={:.3}",
        size.n,
        size.windows,
        alloc::mib(table_bytes),
        dense_limit,
        setup.theta,
        setup.density
    );
    std::env::set_var("TSUBASA_DENSE_LIMIT_BYTES", dense_limit.to_string());

    let engine = ParallelEngine::new(ParallelConfig {
        workers: env.nproc,
        batch_pairs: BATCH_PAIRS,
        sketch_method: SketchMethod::Exact,
        audit_pruned_chunks: false,
    });
    let mut tracer = Tracer::new(std::time::Instant::now());
    let path = tmp.file("sketch.pile");
    // Sketch the history into the pile the queries run on; then, before
    // every round of queries, the history's prefix into a scratch file, so
    // the timed repetitions are short and spread over the run. Each is
    // timed to its final sync; the fastest is reported.
    let (mut walls, mut computes, mut writes) = (Vec::new(), Vec::new(), Vec::new());
    let scratch = tmp.file("scratch.pile");
    let sketch_into = |file: &Path, data: &SeriesCollection, report: &mut Report| {
        let (built, ms) = time_ms(|| {
            let writer = PileWriter::create(file, size.n, BASIC_WINDOW)?;
            engine.sketch_to_pile(data, BASIC_WINDOW, writer)
        });
        report.attempt(1);
        match built {
            Ok((timing, pile)) => {
                drop(pile);
                Some((
                    ms,
                    timing.compute_time.as_secs_f64() * 1e3,
                    timing.write_time.as_secs_f64() * 1e3,
                ))
            }
            Err(e) => {
                report.fail(format!("pile-ooc sketch_to_pile: {e}"));
                None
            }
        }
    };
    if sketch_into(&path, &setup.historical, report).is_none() {
        return;
    }

    let (compacted, compact_ms) = time_ms(|| SketchPile::compact(&path));
    let (opened, open_ms) = time_ms(|| SketchPile::open(&path));
    report.attempt(2);
    let (Ok(compacted), Ok(pile)) = (compacted, opened) else {
        report.fail("pile-ooc compact/open failed");
        return;
    };
    let stored_values = size.windows * (3 * size.n + pairs);
    let stored_ratio = pile.space_bytes() as f64 / (8 * stored_values) as f64;
    let segments_after = pile.segment_count();
    eprintln!(
        "pile-ooc: compact reported {} -> {} segments; the reopened pile has {}",
        compacted.segments_before, compacted.segments_after, segments_after
    );

    // One dense query must refuse: a check, not an op.
    let dense = engine.query(&pile, 0..size.windows, QueryMethod::Exact);
    report.check(matches!(dense, Err(Error::TooLarge { .. })), || {
        "pile-ooc: the dense query did not trip the budget guard".to_string()
    });

    // Query phase: one seeded round of queries through the engine with the
    // pile as source, then one scratch sketch, until the time is up.
    // `peak_alloc_mib` counts the first query round and the first appends,
    // not the sketching: how many slabs `sketch_to_pile` has in flight to
    // its writer thread depends on thread timing.
    let base = alloc::mark();
    let mut peak = 0;
    let full = 0..size.windows;
    let deadline = Deadline::after(env.seconds * 0.6);
    let mut queries = Replay::default();
    let (mut read_ms, mut compute_ms) = (Vec::new(), Vec::new());
    let mut samples: Vec<(usize, Answer)> = Vec::new();
    let (mut zero_copy, mut gathered_bytes, mut tables) = (0usize, 0usize, 0usize);
    let (mut untraced_ms, mut traced_ms, mut decomposed_ms) = (0.0, 0.0, 0.0);
    let mut op_id = 0u64;
    loop {
        for (index, op) in setup.ops.iter().enumerate() {
            op_id += 1;
            let plain_first = op_id.is_multiple_of(2);
            let mut plain_ms = 0.0;
            if env.trace && plain_first {
                plain_ms = time_ms(|| run_opaque(op, &engine, &pile, full.clone(), setup.theta)).1;
            }
            let span = env.trace.then(|| tracer.begin("op.opaque", op_id));
            let (outcome, ms) =
                time_ms(|| run_opaque(op, &engine, &pile, full.clone(), setup.theta));
            if let Some(span) = span {
                tracer.end(span);
            }
            if env.trace && !plain_first {
                plain_ms = time_ms(|| run_opaque(op, &engine, &pile, full.clone(), setup.theta)).1;
            }
            report.attempt(1);
            queries.record(Class::Query, ms);
            let (answer, timing) = match outcome {
                Ok(pair) => pair,
                Err(e) => {
                    report.fail(format!("pile-ooc op {index}: {e}"));
                    continue;
                }
            };
            if matches!(op, Op::Network { .. }) {
                read_ms.push(timing.read_time.as_secs_f64() * 1e3);
                compute_ms.push(timing.compute_time.as_secs_f64() * 1e3);
            }
            if env.trace {
                let span = tracer.begin("op.decomposed", op_id);
                let decomposed = run_decomposed(
                    op,
                    op_id,
                    &mut tracer,
                    &engine,
                    &pile,
                    full.clone(),
                    setup.theta,
                );
                let decomposed_us = tracer.end(span);
                match decomposed {
                    Ok((steps, borrowed, bytes)) => {
                        untraced_ms += plain_ms;
                        traced_ms += ms;
                        decomposed_ms += decomposed_us / 1e3;
                        tables += 1;
                        zero_copy += borrowed as usize;
                        gathered_bytes += if borrowed { 0 } else { bytes };
                        report.check(steps == answer, || {
                            format!(
                                "pile-ooc op {index}: decomposed steps differ from the opaque call"
                            )
                        });
                    }
                    Err(e) => report.fail(format!("pile-ooc decomposed op {index}: {e}")),
                }
            }
            if queries.rounds() == 0 && samples.len() < 8 {
                samples.push((index, answer));
            }
        }
        if queries.rounds() == 0 {
            peak = alloc::peak_above(base);
        }
        queries.end_round();
        if let Some((wall, compute, write)) = sketch_into(&scratch, &setup.prefix, report) {
            walls.push(wall);
            computes.push(compute);
            writes.push(write);
        }
        if queries.rounds() >= 3 && deadline.passed() {
            break;
        }
    }
    let sweep = env.trace.then(|| {
        let stats = pile.series_stats(full.clone()).expect("probe stats");
        let plan = QueryPlan::from_window_stats(&stats).expect("probe plan");
        let table = pile
            .pair_table(full.clone(), SegmentKind::PairCorrs)
            .expect("probe table");
        sweep_probe(&plan, table.view(), setup.theta, 5)
    });
    drop(pile);

    // Append phase: live windows land beside reads. One round is
    // `COUNTED_APPENDS` appends onto the compacted history, each followed by
    // a trailing query on its snapshot; every round starts from the same
    // file, cut back to the history, so position `i` of every round appends
    // to a pile of the same length.
    alloc::mark();
    let deadline = Deadline::after(env.seconds * 0.4);
    let mut appends = Replay::default();
    let (mut append_ms, mut sync_ms, mut snapshot_ms, mut gathered) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut appended: Vec<Appended> = Vec::new();
    let (mut counted_syncs, mut counted_bytes) = (0usize, 0u64);
    let row_bytes = (3 * size.n + pairs) * 8;
    let history_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    'rounds: loop {
        let reopened = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|file| file.set_len(history_bytes))
            .map_err(Error::from)
            .and_then(|()| PileWriter::open_append(&path));
        let mut writer = match reopened {
            Ok(writer) => writer,
            Err(e) => {
                report.attempt(1);
                report.fail(format!("pile-ooc open_append: {e}"));
                break;
            }
        };
        appended.clear();
        for (live, parts) in setup.live.iter().enumerate() {
            let stats_row = parts.stats_row();
            let t = std::time::Instant::now();
            let wrote = writer
                .append(SegmentKind::SeriesStats, &stats_row)
                .and_then(|_| writer.append(SegmentKind::PairCorrs, &parts.corrs));
            let t_append = t.elapsed();
            let synced = wrote.and_then(|_| writer.sync());
            let t_sync = t.elapsed();
            let snapshot = synced.and_then(|_| writer.snapshot());
            let t_snapshot = t.elapsed();
            report.attempt(1);
            let snapshot = match snapshot {
                Ok(snapshot) => snapshot,
                Err(e) => {
                    report.fail(format!("pile-ooc append {live}: {e}"));
                    break 'rounds;
                }
            };
            appends.record(Class::Update, t_snapshot.as_secs_f64() * 1e3);
            append_ms.push(t_append.as_secs_f64() * 1e3);
            sync_ms.push((t_sync - t_append).as_secs_f64() * 1e3);
            snapshot_ms.push((t_snapshot - t_sync).as_secs_f64() * 1e3);
            appended.push(Appended {
                window: size.windows + live,
                live,
            });

            // One trailing query on the snapshot: its range spans
            // segments, so the table is gathered.
            let have = snapshot.exact_query_windows();
            let (read, ms) = time_ms(|| {
                engine.network(
                    &snapshot,
                    have - size.windows..have,
                    QueryMethod::Exact,
                    setup.theta,
                )
            });
            report.attempt(1);
            appends.record(Class::Other, ms);
            match read {
                Ok(_) => gathered.push(ms),
                Err(e) => report.fail(format!("pile-ooc trailing query: {e}")),
            }
        }
        if appends.rounds() == 0 {
            counted_syncs = writer.syncs();
            counted_bytes = writer.len_bytes() - history_bytes;
            peak = peak.max(alloc::peak_above(base));
        }
        appends.end_round();
        if let Err(e) = writer.finish() {
            report.fail(format!("pile-ooc finish: {e}"));
        }
        if appends.rounds() >= 3 && deadline.passed() {
            break;
        }
    }
    std::env::remove_var("TSUBASA_DENSE_LIMIT_BYTES");

    check_pile(&size, &setup, &engine, &path, &samples, &appended, report);

    if env.trace {
        report.set("data.generate_s", setup.generate_s, 1);
        report.set(
            "parallel.engine.sketch_compute_ms",
            median(&computes),
            computes.len(),
        );
        report.set(
            "parallel.engine.sketch_write_ms",
            median(&writes),
            writes.len(),
        );
        report.set(
            "parallel.engine.query_read_ms",
            median(&read_ms),
            read_ms.len(),
        );
        report.set(
            "parallel.engine.query_compute_ms",
            median(&compute_ms),
            compute_ms.len(),
        );
        report.set(
            "parallel.pool.dispatch_us",
            pool_dispatch_us(engine.pool(), 200),
            200,
        );
        report.set("storage.pile.compact_ms", compact_ms, 1);
        report.set("storage.pile.open_ms", open_ms, 1);
        report.set(
            "storage.pile.segments_after_compact",
            segments_after as f64,
            1,
        );
        report.set(
            "storage.pile.append_mib_per_s",
            alloc::mib(row_bytes) / (median(&append_ms) / 1e3),
            append_ms.len(),
        );
        report.set("storage.pile.sync_ms", median(&sync_ms), sync_ms.len());
        report.set(
            "storage.pile.snapshot_ms",
            median(&snapshot_ms),
            snapshot_ms.len(),
        );
        report.set(
            "storage.pile.gathered_query_ms",
            median(&gathered),
            gathered.len(),
        );
        report.set("storage.pile.syncs", counted_syncs as f64, 1);
        report.set("storage.pile.bytes_written", counted_bytes as f64, 1);
        report.set(
            "storage.pile.zero_copy_share",
            zero_copy as f64 / tables.max(1) as f64,
            tables,
        );
        report.set(
            "storage.pile.gathered_mib_per_query",
            alloc::mib(gathered_bytes) / tables.max(1) as f64,
            tables,
        );
        for name in [
            "storage.pile.pair_table_us",
            "storage.pile.series_stats_us",
            "core.plan.bounds_us",
        ] {
            let samples = tracer.durations_us(name);
            if !samples.is_empty() {
                report.set(name, median(&samples), samples.len());
            }
        }
        if let Some(sweep) = sweep {
            sweep.record(report);
        }
        record_trace_cost(
            report,
            untraced_ms,
            traced_ms,
            decomposed_ms,
            op_id as usize,
        );
        save_trace("pile-ooc", &tracer);
        return;
    }

    report.set("sketch_s", fastest(&walls) / 1e3, walls.len());
    eprintln!("{}", queries.describe_rounds("pile-ooc queries"));
    let asked = queries.samples(Class::Query);
    report.set(
        "query_ms_p50",
        queries.percentile(Class::Query, 0.50),
        asked,
    );
    report.set(
        "query_ms_p95",
        queries.percentile(Class::Query, 0.95),
        asked,
    );
    report.set("queries_per_s", queries.per_s(Class::Query), asked);
    eprintln!("{}", appends.describe_rounds("pile-ooc appends"));
    let landed = appends.samples(Class::Update);
    report.set(
        "update_ms_p50",
        appends.percentile(Class::Update, 0.50),
        landed,
    );
    report.set("updates_per_s", appends.per_s(Class::Update), landed);
    report.set("peak_alloc_mib", alloc::mib(peak), 1);
    report.set("stored_bytes_per_value", stored_ratio, 1);
}

/// The oracles, outside every timed region: the pile's table agrees with an
/// in-memory sketch of the same history to 1e-10; pile answers equal the
/// in-memory pipeline over the pile's own values bit for bit; the reopened
/// pile holds exactly what was appended.
fn check_pile(
    size: &Size,
    setup: &Setup,
    engine: &ParallelEngine,
    path: &Path,
    samples: &[(usize, Answer)],
    appended: &[Appended],
    report: &mut Report,
) {
    let pile = match SketchPile::open(path) {
        Ok(pile) => pile,
        Err(e) => {
            report.attempt(1);
            report.fail(format!("pile-ooc reopen: {e}"));
            return;
        }
    };
    report.check(
        pile.exact_query_windows() == size.windows + appended.len(),
        || {
            format!(
                "pile-ooc: reopened pile covers {} windows, expected {}",
                pile.exact_query_windows(),
                size.windows + appended.len()
            )
        },
    );

    let table = pile
        .pair_table(0..size.windows, SegmentKind::PairCorrs)
        .expect("history table");
    let memory = setup.memory.window_corrs_view(0..size.windows);
    let worst = (0..size.windows)
        .flat_map(|k| {
            table
                .view()
                .window_row(k)
                .iter()
                .zip(memory.window_row(k))
                .map(|(a, b)| (a - b).abs())
                .collect::<Vec<_>>()
        })
        .fold(0.0f64, f64::max);
    report.check(worst <= 1e-10, || {
        format!("pile-ooc: pile table differs from the in-memory sketch by {worst:e}")
    });
    drop(table);

    let mirror = mirror(&pile, size.windows).expect("mirror the pile in memory");
    for (index, answer) in samples {
        let expected = run_opaque(
            &setup.ops[*index],
            engine,
            &pile,
            0..size.windows,
            setup.theta,
        )
        .map(|(a, _)| a);
        let in_memory = match &setup.ops[*index] {
            Op::Network { windows } => engine
                .network(&mirror, windows.clone(), QueryMethod::Exact, setup.theta)
                .map(|(e, _)| Answer::Edges(e)),
            Op::TopK => engine
                .top_k(&mirror, 0..size.windows, QueryMethod::Exact, TOP_K)
                .map(|(t, _)| Answer::Ranked(t)),
        };
        let same = matches!((&expected, &in_memory), (Ok(a), Ok(b)) if a == answer && b == answer);
        report.check(same, || {
            format!(
                "pile-ooc op {index}: pile answer differs from the in-memory sketch as CorrSource"
            )
        });
    }

    // First few and the last appended window, bit for bit.
    let last = appended.len().saturating_sub(1);
    for entry in appended.iter().take(4).chain(appended.get(last)) {
        let parts = &setup.live[entry.live];
        let row = pile
            .pair_table(entry.window..entry.window + 1, SegmentKind::PairCorrs)
            .map(|t| t.view().window_row(0) == parts.corrs.as_slice());
        let stats = pile.series_stats(entry.window..entry.window + 1).map(|s| {
            s.iter()
                .zip(&parts.stats)
                .all(|(got, want)| got[0] == *want)
        });
        report.check(matches!((row, stats), (Ok(true), Ok(true))), || {
            format!(
                "pile-ooc: reopened window {} differs from what was appended",
                entry.window
            )
        });
    }
}
