//! "Stored once": the window-major table is the sketch, there is no second
//! per-pair copy of it — not in the sketch, and not in its clones.
//!
//! Measured with a counting allocator local to this test binary: a built
//! `SketchSet` holds ψ = ns·(3N + P) eight-byte values (per series and window
//! a `WindowStats` of three words, per pair and window one `c_j`), a
//! `DftSketchSet` adds one `ns × P` distance table on top of its base, and an
//! arriving window extends them with a constant number of allocations — one
//! row per table and the growth of each table's list of rows — never one per
//! series or per pair, and never a regrown table. A clone shares every row of
//! every table, statistics included, so `k` clones (or `k` published epochs)
//! of a `W`-window sketch own `k` lists of `W` row handles per table plus the
//! `k` appended rows, not `k` tables and no statistics. A live in-memory
//! ingest keeps its bootstrap's horizon of windows, so what it and the
//! store's retained epochs hold stays flat however many windows stream
//! through, and each epoch is the from-scratch sketch of the trailing
//! horizon windows. A sliding engine shares the rows of its query window
//! with the sketch it was bootstrapped from; a real-time network sketches
//! only that window, so it holds its own window's rows, never the
//! history's, and an engine bootstrapped from a longer sketch holds that
//! sketch's block only until its shared rows have slid out. Once its own
//! rows are sliding out, a tick mints the arriving row into the row the
//! previous tick evicted: no allocation of a row's size, and the same number
//! of calls at every `N`. A streamed engine
//! query borrows that table and sweeps it tile by tile: it allocates no
//! `O(P)` buffer, and no buffer per tile. Nor does an unaligned streamed
//! query: its partial head and tail windows are minted a few triangle rows at
//! a time into a scratch of `2 · 4 · (N − 1)` values.

use std::sync::Arc;

use tsubasa_core::prelude::*;
use tsubasa_core::sketch::{arriving_corrs, arriving_window};
use tsubasa_core::stats::{normalize_into, tiled_pair_corrs_into, WindowStats};
use tsubasa_core::sweep::DEFAULT_TILE_PAIRS;
use tsubasa_dft::sketch::{ComparatorKernel, DftSketchSet, Transform};
use tsubasa_dft::SlidingApproxNetwork;
use tsubasa_parallel::{ParallelConfig, ParallelEngine, QueryMethod, SketchMethod};
use tsubasa_serve::{EpochIngest, EpochStore};
use tsubasa_storage::pile::SegmentKind;
use tsubasa_stream::{RealTimeNetwork, UpdateEngine};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{gross, largest, measured, LIVE};

const N: usize = 64;
const PAIRS: usize = N * (N - 1) / 2;
const B: usize = 16;
const WINDOWS: usize = 20;
/// Bytes of one window row of a pair table.
const ROW: usize = 8 * PAIRS;
/// Bytes of one window row of the statistics table.
const STATS_ROW: usize = 24 * N;
/// Bytes the table allocates beside a row's values: the shared handle's
/// reference counts and the row vector's header.
const ROW_HEADER: usize = 40;
/// Bytes of one `ns × P` pair table of the built sketches.
const TABLE: usize = WINDOWS * ROW;

/// Bytes a clone of a `windows`-window sketch owns for itself: one
/// three-word handle per shared row of its statistics table and of each of
/// its `tables` pair tables.
fn clone_bytes(windows: usize, tables: usize) -> usize {
    (1 + tables) * 24 * windows
}

fn rows(len: usize) -> Vec<Vec<f64>> {
    series_rows(N, len)
}

fn series_rows(n: usize, len: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|s| {
            (0..len)
                .map(|i| (i as f64 * 0.19 + s as f64).sin() + ((i * (s + 5)) % 11) as f64 * 0.05)
                .collect()
        })
        .collect()
}

#[test]
fn sketches_store_every_value_once() {
    let c = SeriesCollection::from_rows(rows(WINDOWS * B)).unwrap();
    let table = TABLE;
    let psi = 8 * WINDOWS * 3 * N + table;

    let (exact, held, _) = measured(|| SketchSet::build(&c, B).unwrap());
    assert_eq!(exact.window_count(), WINDOWS);
    assert!(
        held as f64 <= 1.05 * psi as f64,
        "a built SketchSet holds {held} bytes for ψ = {psi} bytes of sketch"
    );

    let (dft, held_dft, _) = measured(|| DftSketchSet::build(&c, B, 8, Transform::Naive).unwrap());
    assert_eq!(dft.base(), &exact);
    assert!(
        (held_dft - held) as f64 <= 1.05 * table as f64,
        "a DftSketchSet holds {} bytes beyond its base for one {table}-byte table",
        held_dft - held
    );
}

#[test]
fn an_arriving_window_costs_a_constant_number_of_allocations() {
    let c = SeriesCollection::from_rows(rows(WINDOWS * B)).unwrap();
    let chunk: Vec<Vec<f64>> = rows((WINDOWS + 1) * B)
        .into_iter()
        .map(|r| r[WINDOWS * B..].to_vec())
        .collect();

    // The first append after a build is the expensive one: every vector the
    // sketch owns is at exact capacity and has to grow.
    let mut exact = SketchSet::build(&c, B).unwrap();
    let stats: Vec<WindowStats> = chunk.iter().map(|p| WindowStats::from_values(p)).collect();
    let mut z = vec![0.0f64; N * B];
    for (i, points) in chunk.iter().enumerate() {
        normalize_into(points, &stats[i], &mut z[i * B..(i + 1) * B]);
    }
    let mut corrs = vec![0.0f64; PAIRS];
    tiled_pair_corrs_into(&z, N, B, &mut corrs);
    // Each arriving buffer gets its shared handle and each table's list of
    // rows may grow: what stays allocated is that growth and the handles —
    // no statistics vector per series, and the rows of the earlier windows
    // are not reallocated.
    let ((), held, calls) = measured(|| exact.push_window(stats, corrs).unwrap());
    assert!(
        calls <= 4,
        "SketchSet::push_window made {calls} allocations for {N} series / {PAIRS} pairs"
    );
    let growth = clone_bytes(WINDOWS, 1) + 2 * ROW_HEADER;
    assert!(
        held <= growth,
        "SketchSet::push_window kept {held} bytes beside its two rows, against {growth}"
    );

    // The comparator's append, measured with the minting of what it takes
    // (statistics, z rows, a kernel with its panel scratch and twiddle row):
    // a constant count, the same for 8 series as for 64 — no allocation per
    // series.
    let (dft, held, calls) = comparator_append(N);
    let (_, _, calls_8) = comparator_append(8);
    assert!(
        calls == calls_8 && calls <= COMPARATOR_APPEND_CALLS,
        "DftSketchSet::push_window made {calls} allocations for {N} series / {PAIRS} pairs \
         and {calls_8} for 8 series, against {COMPARATOR_APPEND_CALLS}"
    );
    let rows = 2 * ROW + STATS_ROW + 3 * ROW_HEADER;
    assert!(
        held <= rows + clone_bytes(WINDOWS, 2),
        "DftSketchSet::push_window kept {held} bytes for two {ROW}-byte rows and one \
         {STATS_ROW}-byte row of statistics"
    );
    assert_eq!(dft.base(), &exact);
}

/// Allocation calls a comparator append may make, whatever the series count.
const COMPARATOR_APPEND_CALLS: usize = 13;

/// A comparator sketch of `n` series over `WINDOWS` windows, grown by one
/// arriving window: the grown sketch, and the bytes and allocation calls the
/// arrival (statistics, correlations, estimates and the append) left held
/// and made.
fn comparator_append(n: usize) -> (DftSketchSet, usize, usize) {
    let c = SeriesCollection::from_rows(series_rows(n, WINDOWS * B)).unwrap();
    let chunk: Vec<Vec<f64>> = series_rows(n, (WINDOWS + 1) * B)
        .into_iter()
        .map(|r| r[WINDOWS * B..].to_vec())
        .collect();
    let mut dft = DftSketchSet::build(&c, B, 8, Transform::Naive).unwrap();
    let ((), held, calls) = measured(|| {
        let stats = arriving_window(&chunk, n, B).unwrap();
        let corrs = arriving_corrs(&chunk, &stats, &mut Vec::new());
        let ests = ComparatorKernel::new(B, 8).arriving_ests(&chunk, &stats);
        dft.push_window(stats, corrs, ests).unwrap()
    });
    (dft, held, calls)
}

#[test]
fn clones_share_every_row() {
    const K: usize = 8;
    let c = SeriesCollection::from_rows(rows(WINDOWS * B)).unwrap();

    let exact = SketchSet::build(&c, B).unwrap();
    let (clones, held, _) = measured(|| vec![exact.clone(); K]);
    let own = K * (size_of::<SketchSet>() + clone_bytes(WINDOWS, 1));
    assert!(
        held <= own,
        "{K} SketchSet clones hold {held} bytes: {own} of their own, one table is {TABLE}"
    );
    assert!(clones.iter().all(|clone| clone == &exact));

    let dft = DftSketchSet::build(&c, B, 8, Transform::Naive).unwrap();
    let (clones, held, _) = measured(|| vec![dft.clone(); K]);
    let own = K * (size_of::<DftSketchSet>() + clone_bytes(WINDOWS, 2));
    assert!(
        held <= own,
        "{K} DftSketchSet clones hold {held} bytes: {own} of their own, one table is {TABLE}"
    );
    assert!(clones.iter().all(|clone| clone == &dft));
}

#[test]
fn published_epochs_hold_one_new_row_each() {
    const K: usize = 8;
    let full = rows((WINDOWS + K) * B);
    let historical = SeriesCollection::from_rows(rows(WINDOWS * B)).unwrap();
    let ticks: Vec<Vec<Vec<f64>>> = (0..K)
        .map(|t| {
            let at = (WINDOWS + t) * B;
            full.iter().map(|r| r[at..at + B].to_vec()).collect()
        })
        .collect();
    // Per epoch: the arriving row of each table, statistics included, the
    // clone's own row handles over the horizon, and the epoch's fixed-size
    // bookkeeping. Once: the live sketch's lists of rows doubling, and the
    // stream buffer's points.
    let budget = |tables: usize| {
        let rows = tables * ROW + STATS_ROW;
        K * (rows + clone_bytes(WINDOWS, tables) + 1024)
            + 2 * clone_bytes(WINDOWS, tables)
            + N * (24 + 8 * 2 * B)
    };

    let store = Arc::new(EpochStore::new(K + 1));
    let (mut ingest, _) = EpochIngest::exact(Arc::clone(&store), &historical, B).unwrap();
    let ((), held, _) = measured(|| {
        for tick in &ticks {
            assert_eq!(ingest.ingest(tick).unwrap().len(), 1);
        }
    });
    assert_eq!(store.published(), 1 + K as u64);
    assert!(
        held <= budget(1),
        "{K} exact epochs hold {held} bytes against a budget of {}; {K} tables are {}",
        budget(1),
        K * TABLE
    );
    assert!(budget(1) < K * TABLE / 4);

    let store = Arc::new(EpochStore::new(K + 1));
    let (mut ingest, _) = EpochIngest::dual(Arc::clone(&store), &historical, B, 8).unwrap();
    let ((), held, _) = measured(|| {
        for tick in &ticks {
            assert_eq!(ingest.ingest(tick).unwrap().len(), 1);
        }
    });
    assert!(
        held <= budget(2),
        "{K} dual epochs hold {held} bytes against a budget of {}; {K} table pairs are {}",
        budget(2),
        2 * K * TABLE
    );
    let latest = store.latest().unwrap();
    let horizon: Vec<Vec<f64>> = full.iter().map(|r| r[K * B..].to_vec()).collect();
    let horizon = SeriesCollection::from_rows(horizon).unwrap();
    let rebuilt = DftSketchSet::build(&horizon, B, 8, Transform::Naive).unwrap();
    assert_eq!(latest.approx().unwrap().as_ref(), &rebuilt);

    // The pile keeps the history: its last epoch holds every window.
    let path = std::env::temp_dir().join(format!(
        "tsubasa-footprint-pile-{}.pile",
        std::process::id()
    ));
    let store = Arc::new(EpochStore::new(K + 1));
    let (mut ingest, _) = EpochIngest::pile(Arc::clone(&store), &historical, B, &path).unwrap();
    for tick in &ticks {
        assert_eq!(ingest.ingest(tick).unwrap().len(), 1);
    }
    let pile = Arc::clone(store.latest().unwrap().pile().unwrap());
    let everything = SeriesCollection::from_rows(full).unwrap();
    let rebuilt = SketchSet::build(&everything, B).unwrap();
    let table = pile
        .pair_table(0..WINDOWS + K, SegmentKind::PairCorrs)
        .unwrap();
    let built = rebuilt.window_corrs_view(0..WINDOWS + K);
    for k in 0..WINDOWS + K {
        assert_eq!(
            table.view().window_row(k),
            built.window_row(k),
            "window {k}"
        );
    }
    drop((ingest, store, pile));
    std::fs::remove_file(&path).ok();
}

/// Points `t0..t0 + len` of the soak stream's series `s`: seeded noise on a
/// slow cycle, so no window is constant.
fn soak_points(s: usize, t0: usize, len: usize) -> Vec<f64> {
    (t0..t0 + len)
        .map(|t| {
            let h = (t as u64 ^ (s as u64) << 40).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (t as f64 * 0.07 + s as f64).sin() + (h >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// The soak stream's points `t0..t0 + len`, every series.
fn soak_rows(t0: usize, len: usize) -> Vec<Vec<f64>> {
    (0..N).map(|s| soak_points(s, t0, len)).collect()
}

#[test]
fn a_live_ingest_holds_its_horizon_however_long_it_runs() {
    // Ten thousand windows through each in-memory flavor. After a warm-up
    // that evicts the bootstrap's rows, every tick allocates one row per
    // table and the oldest retained epoch frees one: the bytes held by the
    // ingest and the store stay where they were, within the horizon's rows
    // plus the retained epochs' row handles.
    const HORIZON: usize = 4;
    const RETAINED: usize = 3;
    const TICKS: usize = 10_000;
    const WARM_UP: usize = 2 * (HORIZON + RETAINED);
    let historical = SeriesCollection::from_rows(soak_rows(0, HORIZON * B)).unwrap();
    for (flavor, tables) in [("exact", 1), ("dual", 2)] {
        let (result, held, _) = measured(|| {
            let store = Arc::new(EpochStore::new(RETAINED));
            let (mut ingest, _) = match flavor {
                "exact" => EpochIngest::exact(Arc::clone(&store), &historical, B),
                _ => EpochIngest::dual(Arc::clone(&store), &historical, B, 8),
            }
            .unwrap();
            let mut warm = 0isize;
            let mut drift = Vec::with_capacity(TICKS / 1000);
            for tick in 0..TICKS {
                let chunk = soak_rows((HORIZON + tick) * B, B);
                assert_eq!(ingest.ingest(&chunk).unwrap().len(), 1);
                if tick + 1 == WARM_UP {
                    warm = LIVE.get();
                } else if tick + 1 > WARM_UP && (tick + 1) % 1000 == 0 {
                    drift.push(LIVE.get() - warm);
                }
            }
            (store.latest().unwrap(), ingest, store, drift)
        });
        let (latest, _ingest, _store, drift) = result;
        assert!(
            drift.iter().all(|&d| d == 0),
            "{flavor}: live bytes moved after warm-up, every 1000 ticks: {drift:?}"
        );
        // The horizon's rows and one more per retained epoch but the latest
        // (which holds the live rows), statistics included, each epoch's own
        // handles, the live sketch's lists of rows at twice their length, the
        // kernel's scratch and the buffer's points.
        let budget = (HORIZON + RETAINED - 1) * (tables * ROW + STATS_ROW)
            + (RETAINED + 2) * (clone_bytes(HORIZON, tables) + 1024)
            + tables * 8 * N.div_ceil(8) * 8 * 2 * 8
            + N * (24 + 8 * 2 * B);
        assert!(
            held <= budget,
            "{flavor}: {held} bytes held after {TICKS} windows against a budget of {budget}"
        );

        // The last epoch is the from-scratch sketch of the trailing horizon.
        let trailing = SeriesCollection::from_rows(soak_rows(TICKS * B, HORIZON * B)).unwrap();
        assert_eq!(latest.window_count(), HORIZON, "{flavor}");
        assert_eq!(
            latest.exact().unwrap(),
            &SketchSet::build(&trailing, B).unwrap(),
            "{flavor}"
        );
        if let Some(approx) = latest.approx() {
            let built = DftSketchSet::build(&trailing, B, 8, Transform::Naive).unwrap();
            assert_eq!(approx.as_ref(), &built);
        }
    }
}

#[test]
fn a_sliding_engine_holds_its_query_window_not_its_history() {
    // A bootstrap over ten query windows of history, then W ticks. An engine
    // holds its query window's rows in one block per table, and a block
    // lives while any of its rows is held: until the W-th tick the engine
    // holds the block and the rows that arrived since, and from then on its
    // W windows' rows alone. A real-time network sketches only its query
    // window and shares that sketch's block; a `SlidingNetwork` bootstrapped
    // from a sketch of the whole history holds a copy of its window's rows
    // (`WindowRows::range`), never the history's block.
    const W: usize = 8;
    let total = 11 * W * B;
    let full = rows(total);
    let history: Vec<Vec<f64>> = full.iter().map(|r| r[..10 * W * B].to_vec()).collect();
    let history = SeriesCollection::from_rows(history).unwrap();
    let ticks: Vec<Vec<Vec<f64>>> = (10 * W..11 * W)
        .map(|w| {
            full.iter()
                .map(|r| r[w * B..(w + 1) * B].to_vec())
                .collect()
        })
        .collect();
    // Per held window a row of each table with its handle; the correlations
    // and the per-series aggregates; one arriving window's rows; the kernel's
    // packed scratch (exact `z`, or the comparator's `z` and coefficient
    // lanes) and the stream buffer's points.
    let budget = W * (ROW + STATS_ROW + 2 * 24)
        + 2 * ROW_HEADER
        + ROW
        + STATS_ROW
        + (ROW + STATS_ROW + 2 * ROW_HEADER)
        + 8 * N.div_ceil(8) * 8 * B * 2
        + 4096;
    assert!(budget < 2 * W * ROW, "the budget has room for W more rows");
    // After `t` ticks from a bootstrap block of the W windows.
    let window = ROW + STATS_ROW + 2 * ROW_HEADER;
    let limit = |t: usize| if t < W { budget + t * window } else { budget };
    let check = |engine: &str, held: isize, t: usize| {
        let limit = limit(t);
        assert!(
            held <= limit as isize,
            "{engine}: {held} bytes held after {t} ticks, against {limit} (its {W} windows: {budget})"
        );
    };

    for engine in [
        UpdateEngine::Exact,
        UpdateEngine::Approximate { coefficients: 8 },
    ] {
        let label = format!("RealTimeNetwork {engine:?}");
        let start = LIVE.get();
        let mut net = RealTimeNetwork::new(&history, B, W * B, 0.7, engine).unwrap();
        check(&label, LIVE.get() - start, 0);
        for (t, tick) in ticks.iter().enumerate() {
            assert_eq!(net.ingest(tick).unwrap(), 1);
            check(&label, LIVE.get() - start, t + 1);
        }
        assert_eq!(net.window_count(), W);
    }

    let start = LIVE.get();
    let mut sliding = {
        let sketch = SketchSet::build(&history, B).unwrap();
        SlidingNetwork::initialize(&history, &sketch, W * B).unwrap()
    };
    check("SlidingNetwork", LIVE.get() - start, 0);
    for (t, tick) in ticks.iter().enumerate() {
        sliding.ingest(tick).unwrap();
        check("SlidingNetwork", LIVE.get() - start, t + 1);
    }
    assert_eq!(sliding.window_count(), W);
}

#[test]
fn a_steady_sliding_tick_allocates_no_row() {
    // Bootstrapped over W windows, both engines hold those windows' rows in
    // the bootstrap's block and no spare row: the bytes held right after
    // `initialize` are the W windows, the correlations, the per-series
    // aggregates and the handles (and the comparator kernel's twiddles),
    // short of one more row. After W + 1 ticks every evicted row is one the
    // engine minted and no clone shares, so each tick mints its arriving
    // row into the row the previous tick evicted: a tick makes no
    // allocation of a row's `P · 8` bytes or more, and
    // `STEADY_TICK_CALLS` allocation calls at 8, 64 and 128 series, none per
    // series or per pair.
    const W: usize = 4;
    const COEFFICIENTS: usize = 6;
    let mut calls = Vec::new();
    for n in [8usize, 64, 128] {
        let row = 8 * n * (n - 1) / 2;
        let full = series_rows(n, (2 * W + 2) * B);
        let window = |w: usize| -> Vec<Vec<f64>> {
            full.iter()
                .map(|r| r[w * B..(w + 1) * B].to_vec())
                .collect()
        };
        let history: Vec<Vec<f64>> = full.iter().map(|r| r[..W * B].to_vec()).collect();
        let history = SeriesCollection::from_rows(history).unwrap();
        // Per table a block handle and a three-word handle per window.
        let handles = 2 * (ROW_HEADER + 24 * W);
        let own = (W + 1) * row + (W + 1) * 24 * n + handles;
        let twiddles = 16 * COEFFICIENTS * B;

        let start = LIVE.get();
        let mut exact = {
            let sketch = SketchSet::build(&history, B).unwrap();
            SlidingNetwork::initialize(&history, &sketch, W * B).unwrap()
        };
        let exact_held = (LIVE.get() - start) as usize;
        let start = LIVE.get();
        let mut approx = {
            let sketch = DftSketchSet::build(&history, B, COEFFICIENTS, Transform::Naive).unwrap();
            SlidingApproxNetwork::initialize(&sketch, W * B).unwrap()
        };
        let approx_held = (LIVE.get() - start) as usize;
        for (engine, held, budget) in [
            ("exact", exact_held, own),
            ("approximate", approx_held, own + twiddles),
        ] {
            assert!(
                held <= budget && budget < held + row,
                "{engine}, N = {n}: {held} bytes held after initialize, against {budget}"
            );
        }

        for w in W..2 * W + 1 {
            exact.ingest(&window(w)).unwrap();
            approx.ingest(&window(w)).unwrap();
        }
        let tick = window(2 * W + 1);
        let ((), exact_largest, exact_calls) = largest(|| exact.ingest(&tick).unwrap());
        let ((), approx_largest, approx_calls) = largest(|| approx.ingest(&tick).unwrap());
        for (engine, largest) in [("exact", exact_largest), ("approximate", approx_largest)] {
            assert!(
                largest < row,
                "{engine}, N = {n}: a steady tick allocated {largest} bytes at once, a row is {row}"
            );
        }
        calls.push((exact_calls, approx_calls));
    }
    assert!(
        calls
            .iter()
            .all(|&c| c == (STEADY_TICK_CALLS, STEADY_TICK_CALLS)),
        "allocation calls of a steady (exact, approximate) tick at N = 8, 64, 128: {calls:?}, \
         against {STEADY_TICK_CALLS} each"
    );
}

/// Allocation calls of a steady sliding tick, on either engine, whatever
/// the series count: the arrival step's statistics `Vec` (1), the ten
/// per-series columns of Lemma 2's terms (`σ`, `T·σ`, `σ_1`, `σ_{ns+1}`,
/// `δ_1`, `δ_{ns+1}`, `α`, `T'·α`, the variance term and its root: 10), and
/// the shared handles of the two rows the tick pushes, its statistics and
/// its pair row (2). The pair sweep runs on the calling thread and
/// allocates nothing.
const STEADY_TICK_CALLS: usize = 13;

#[test]
fn every_evicted_epoch_is_the_sketch_of_its_trailing_horizon() {
    // A history of 5 windows and a 7-point tail, then odd-sized pushes: the
    // first streamed points complete the tail's window, and every epoch
    // after it, exact and dual, equals the from-scratch build of the five
    // windows that end at its last completed point.
    const HORIZON: usize = 5;
    const TAIL: usize = 7;
    let total = (HORIZON + 9) * B + 3;
    let full = series_rows(6, total);
    let historical: Vec<Vec<f64>> = full
        .iter()
        .map(|r| r[..HORIZON * B + TAIL].to_vec())
        .collect();
    let historical = SeriesCollection::from_rows(historical).unwrap();
    for flavor in ["exact", "dual"] {
        let store = Arc::new(EpochStore::new(2));
        let (mut ingest, _) = match flavor {
            "exact" => EpochIngest::exact(Arc::clone(&store), &historical, B),
            _ => EpochIngest::dual(Arc::clone(&store), &historical, B, 6),
        }
        .unwrap();
        let (mut now, mut completed, mut epochs) = (HORIZON * B + TAIL, HORIZON, 0);
        for step in [5usize, 21, 3, 40, 17, 33, 9].iter().cycle() {
            let step = (*step).min(total - now);
            if step == 0 {
                break;
            }
            let push: Vec<Vec<f64>> = full.iter().map(|r| r[now..now + step].to_vec()).collect();
            now += step;
            for epoch in ingest.ingest(&push).unwrap() {
                completed += 1;
                epochs += 1;
                let from = (completed - HORIZON) * B;
                let window: Vec<Vec<f64>> = full
                    .iter()
                    .map(|r| r[from..completed * B].to_vec())
                    .collect();
                let window = SeriesCollection::from_rows(window).unwrap();
                let label = format!("{flavor}, epoch {}", epoch.id());
                assert_eq!(epoch.window_count(), HORIZON, "{label}");
                match epoch.approx() {
                    Some(approx) => {
                        let built = DftSketchSet::build(&window, B, 6, Transform::Naive).unwrap();
                        assert_eq!(approx.as_ref(), &built, "{label}");
                        assert_eq!(epoch.exact().unwrap(), built.base(), "{label}");
                    }
                    None => {
                        let built = SketchSet::build(&window, B).unwrap();
                        assert_eq!(epoch.exact().unwrap(), &built, "{label}");
                    }
                }
            }
        }
        assert_eq!(epochs, (total - HORIZON * B) / B, "{flavor}");
    }
}

#[test]
fn a_streamed_engine_query_allocates_no_per_pair_buffer() {
    // A 1-worker engine runs its jobs inline, so this thread's counters see
    // the whole query: statistics, plan and bounds (`O(N · w)`), one output
    // tile and one short list of row segments per run, the answer. Nothing
    // is sized by the pair count, and nothing is allocated per tile.
    const SERIES: usize = 200;
    const W: usize = 6;
    let pairs = SERIES * (SERIES - 1) / 2;
    let c = SeriesCollection::from_rows(series_rows(SERIES, W * B)).unwrap();
    let sketch = SketchSet::build(&c, B).unwrap();

    let mut calls = Vec::new();
    for batch_pairs in [16, 4096] {
        let eng = ParallelEngine::new(ParallelConfig {
            workers: 1,
            batch_pairs,
            sketch_method: SketchMethod::Exact,
            audit_pruned_chunks: false,
        });
        let ((edges, _), net_bytes, net_calls) =
            gross(|| eng.network(&sketch, 0..W, QueryMethod::Exact, 0.9).unwrap());
        let ((top, _), top_bytes, top_calls) =
            gross(|| eng.top_k(&sketch, 0..W, QueryMethod::Exact, 10).unwrap());
        assert_eq!(top.edges.len(), 10);
        // The sink's edge vector grows to its final capacity and the merge
        // copies it once: three times the returned edges bounds both.
        let answer = 3 * 16 * edges.edge_count();
        assert!(
            net_bytes < 8 * pairs + answer && top_bytes < 8 * pairs,
            "batch_pairs={batch_pairs}: network allocated {net_bytes} bytes ({answer} for \
             {} edges), top_k {top_bytes}, against {} for one value per pair",
            edges.edge_count(),
            8 * pairs
        );
        calls.push((net_calls, top_calls));
    }
    assert_eq!(
        calls[0], calls[1],
        "allocation calls must not depend on pairs / batch_pairs"
    );
}

#[test]
fn an_unaligned_streamed_query_allocates_no_per_pair_buffer() {
    // What `exact::network_streamed` may allocate on a window that cuts a
    // head and a tail basic window: the plan's per-series tables (`O(N · w)`),
    // the z-scores of the two partial windows (`O(N · B)`), the partial
    // correlations of one group of four triangle rows (`O(N)`), one output
    // tile, the list of row segments, the answer. The partial windows' `c`
    // rows are never materialized for all pairs.
    const SERIES: usize = 200;
    const W: usize = 6;
    const HEAD: usize = 11;
    const TAIL: usize = 9;
    let pairs = SERIES * (SERIES - 1) / 2;
    let c = SeriesCollection::from_rows(series_rows(SERIES, W * B)).unwrap();
    let sketch = SketchSet::build(&c, B).unwrap();
    // Indices 5..89: the head, basic windows 1..5, the tail.
    let query = QueryWindow::new(5 * B + TAIL - 1, HEAD + 4 * B + TAIL).unwrap();
    let (edges, bytes, _) = gross(|| exact::network_streamed(&c, &sketch, query, 0.995).unwrap());
    assert!(edges.edge_count() > 0);

    // The window-major σ and δ tables, means, denominators, lengths; the two
    // pushed-to vectors of partial-window statistics at up to twice their
    // length; one series' row of statistics.
    let plan = 8 * (2 * SERIES * W + 2 * SERIES + W) + 2 * (2 * 24 * SERIES) + 24 * W;
    let packed_z = 8 * SERIES.div_ceil(8) * 8 * (HEAD + TAIL);
    let scratch = 8 * 2 * 4 * SERIES;
    let tile = 8 * DEFAULT_TILE_PAIRS;
    let segments = 2 * 24 * SERIES;
    let answer = 3 * 16 * edges.edge_count();
    let budget = plan + packed_z + scratch + tile + segments + answer;
    assert!(
        bytes <= budget,
        "an unaligned network_streamed allocated {bytes} bytes against {budget}: plan {plan}, \
         packed z {packed_z}, scratch {scratch}, tile {tile}, segments {segments}, answer {answer}"
    );
    assert!(
        budget < bytes + 8 * pairs,
        "the budget of {budget} bytes has room for a buffer of one value per pair ({} bytes) \
         beside the {bytes} allocated",
        8 * pairs
    );
}
