//! Plan-cache guards (PR 7).
//!
//! A cache entry must be indistinguishable from a fresh plan and sweep — the
//! cache is a pure memoization of `(epoch, windows, method) → (plan,
//! correlations)` — and the LRU/invalidation machinery must never change
//! results, only counters.
//!
//! * a 64-case property suite pins that after a key's one miss every
//!   network and top-k on it is a hit, answered from the key's correlation
//!   view, **bit-equal** to the serial library reference, for both methods;
//! * deterministic tests pin the same against epochs with a NaN point or a
//!   constant series and against a pile-backed epoch, one view fill for
//!   concurrent first queries, one view per standing request as epochs
//!   advance, the LRU behavior at capacity 1 (the thrash floor), the
//!   epoch-rollover invalidation, and the hit/miss/eviction counters.

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::{Arc, Barrier};
use std::thread;

use proptest::prelude::*;
use tsubasa_core::plan::PlanMethod;
use tsubasa_core::sweep::{EdgeList, TableAudit, TopK, DEFAULT_TILE_PAIRS};
use tsubasa_core::{SerialRunner, SeriesCollection, SourcePlan};
use tsubasa_dft::sketch::{DftSketchSet, Transform};
use tsubasa_parallel::WorkerPool;
use tsubasa_serve::{
    mirror_sketches_to_pile, EpochIngest, EpochStore, Method, PlanCache, QueryEngine, ServeClient,
};
use tsubasa_storage::pile::PileWriter;

fn lcg_series(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0;
            (i as f64 * 0.23).sin() * 1.5 + noise
        })
        .collect()
}

fn rows(seed: u64, n: usize, len: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|s| lcg_series(seed.wrapping_add(s as u64 * 7919), len))
        .collect()
}

fn collection(seed: u64, n: usize, len: usize) -> SeriesCollection {
    SeriesCollection::from_rows(rows(seed, n, len)).unwrap()
}

const BASIC: usize = 20;
/// Pairs of the six-series epochs `engine` publishes.
const PAIRS: usize = 15;

/// A dual-method epoch (exact base + DFT comparator) over `dft` published
/// into a fresh engine.
fn engine_over(dft: &DftSketchSet, cache_capacity: usize, store_capacity: usize) -> QueryEngine {
    let store = Arc::new(EpochStore::new(store_capacity));
    store
        .publish(Some(dft.base().clone()), Some(dft.clone()))
        .unwrap();
    QueryEngine::new(
        store,
        Arc::new(PlanCache::new(cache_capacity)),
        Arc::new(WorkerPool::new(2)),
    )
}

/// [`engine_over`] six series of seeded data.
fn engine(seed: u64, cache_capacity: usize, store_capacity: usize) -> (QueryEngine, DftSketchSet) {
    let dft =
        DftSketchSet::build(&collection(seed, 6, 160), BASIC, BASIC, Transform::Naive).unwrap();
    (engine_over(&dft, cache_capacity, store_capacity), dft)
}

/// The trailing-window range a served query resolves `last_windows` to.
fn trailing(window_count: usize, last_windows: u32) -> Range<usize> {
    if last_windows == 0 {
        0..window_count
    } else {
        window_count - last_windows as usize..window_count
    }
}

/// The serial library answers to a served network(θ) and top_k(k).
fn serial(
    dft: &DftSketchSet,
    method: PlanMethod,
    windows: Range<usize>,
    theta: f64,
    k: usize,
) -> (EdgeList, TopK) {
    let plan = SourcePlan::new(dft, windows, method).unwrap();
    let (net, _) = plan
        .network(&SerialRunner, theta, DEFAULT_TILE_PAIRS, TableAudit::Off)
        .unwrap();
    let (top, _) = plan.top_k(&SerialRunner, k, DEFAULT_TILE_PAIRS, TableAudit::Off);
    (net, top)
}

/// A top-k answer with its correlations by bit pattern.
fn ranked(top: &TopK) -> (Vec<(usize, usize, u64)>, usize) {
    let edges = top.edges.iter().map(|e| (e.i, e.j, e.corr.to_bits()));
    (edges.collect(), top.nan_pairs)
}

/// A network answer: its edges in order and its NaN count.
fn edges(net: &EdgeList) -> (Vec<(usize, usize)>, usize) {
    (net.edges().to_vec(), net.nan_pair_count())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After a key's one miss, three networks and three top-k on that key
    /// are all hits, answered from its view, and each equals the serial
    /// library reference: the same edges in the same order, the same
    /// correlation bits and the same NaN counts.
    #[test]
    fn prop_cached_plan_results_bit_equal_fresh(
        seed in 0u64..1_000_000,
        thetas in collection::vec(-0.9f64..0.9, 3),
        last_windows in 0u32..6,
        ks in collection::vec(0u32..18, 3),
        method_sel in 0u8..2,
    ) {
        let (eng, dft) = engine(seed, 64, 4);
        let method = if method_sel == 1 { PlanMethod::Approximate } else { PlanMethod::Exact };
        let windows = trailing(dft.window_count(), last_windows);

        let (_, first) = eng.network(method, last_windows, thetas[0]).unwrap();
        let stats = eng.cache().stats();
        prop_assert_eq!((stats.hits, stats.misses), (0, 1));
        prop_assert_eq!(stats.view_bytes, 8 * PAIRS);
        let (want, _) = serial(&dft, method, windows.clone(), thetas[0], 0);
        prop_assert_eq!(edges(&first), edges(&want));

        for (&theta, &k) in thetas.iter().zip(&ks) {
            let (_, net) = eng.network(method, last_windows, theta).unwrap();
            let (_, top) = eng.top_k(method, last_windows, k).unwrap();
            let (want_net, want_top) = serial(&dft, method, windows.clone(), theta, k as usize);
            prop_assert_eq!(edges(&net), edges(&want_net));
            prop_assert_eq!(ranked(&top), ranked(&want_top));
        }
        let stats = eng.cache().stats();
        // Every repeat on the key hits.
        prop_assert_eq!((stats.hits, stats.misses, stats.len), (6, 1, 1));
    }
}

/// Epochs holding a series with a NaN point, or a constant series, answer
/// like the serial calls too, NaN counts included. `k = 20` of the 28 pairs
/// reaches the negative correlations, where the serial top-k's pruning meets
/// the NaN series' bounds.
#[test]
fn nan_and_constant_epochs_answer_like_the_serial_calls() {
    let mut planted = rows(0x0a0a, 8, 160);
    planted[2][37] = f64::NAN;
    let mut constant = rows(0x0b0b, 8, 160);
    constant[5] = vec![3.0; 160];
    for (name, rows) in [("planted NaN", planted), ("constant series", constant)] {
        let c = SeriesCollection::from_rows(rows).unwrap();
        let dft = DftSketchSet::build(&c, BASIC, BASIC, Transform::Naive).unwrap();
        let eng = engine_over(&dft, 16, 4);
        for method in [PlanMethod::Exact, PlanMethod::Approximate] {
            for last_windows in [0u32, 3] {
                let windows = trailing(dft.window_count(), last_windows);
                for (theta, k) in [(-0.5, 1u32), (0.0, 5), (0.4, 20), (0.9, 50)] {
                    let (_, net) = eng.network(method, last_windows, theta).unwrap();
                    let (_, top) = eng.top_k(method, last_windows, k).unwrap();
                    let (want_net, want_top) =
                        serial(&dft, method, windows.clone(), theta, k as usize);
                    let case = format!("{name} {method:?} last {last_windows} θ {theta} k {k}");
                    assert_eq!(edges(&net), edges(&want_net), "{case}");
                    assert_eq!(ranked(&top), ranked(&want_top), "{case}");
                }
            }
        }
        let stats = eng.cache().stats();
        assert_eq!((stats.misses, stats.len), (4, 4), "{name}");
    }
}

/// A delta subscription per method over the planted-NaN epoch, then over a
/// clean one: the baseline and the replayed delta equal `network_on` of the
/// epoch each frame names, NaN count included. (The kernel clamps the NaN
/// table values, so a served view holds no NaN pair.)
#[test]
fn subscriptions_over_a_nan_epoch_replay_to_the_served_network() {
    let mut planted = rows(0x0a0a, 8, 160);
    planted[2][37] = f64::NAN;
    let build = |rows| {
        let c = SeriesCollection::from_rows(rows).unwrap();
        DftSketchSet::build(&c, BASIC, BASIC, Transform::Naive).unwrap()
    };
    let (nan_epoch, clean) = (build(planted), build(rows(0x0c0c, 8, 160)));
    let eng = Arc::new(engine_over(&nan_epoch, 16, 4));
    let handle = tsubasa_serve::start(Arc::clone(&eng), "127.0.0.1:0").unwrap();
    let theta = 0.2;
    let served = |epoch: u64, method| {
        let epoch = eng.store().get(epoch).unwrap();
        edges(&eng.network_on(&epoch, method, 0, theta).unwrap())
    };
    let wire_pair = |&(i, j): &(u32, u32)| (i as usize, j as usize);
    let mut subscriptions = Vec::new();
    for (wire, method) in [
        (Method::Exact, PlanMethod::Exact),
        (Method::Approximate, PlanMethod::Approximate),
    ] {
        let mut client = ServeClient::connect(handle.local_addr()).unwrap();
        let baseline = client.subscribe_deltas(wire, theta, 1).unwrap();
        let net: BTreeSet<_> = baseline.edges.iter().map(wire_pair).collect();
        let want = served(baseline.epoch, method);
        let got = (net.iter().copied().collect(), baseline.nan_pairs as usize);
        assert_eq!(got, want, "{method:?} baseline");
        subscriptions.push((client, net, method));
    }
    eng.store()
        .publish(Some(clean.base().clone()), Some(clean.clone()))
        .unwrap();
    for (mut client, mut net, method) in subscriptions {
        let delta = client.next_delta().unwrap();
        for pair in delta.vanished.iter().map(wire_pair) {
            assert!(
                net.remove(&pair),
                "{method:?}: vanished {pair:?} was absent"
            );
        }
        for pair in delta.appeared.iter().map(wire_pair) {
            assert!(
                net.insert(pair),
                "{method:?}: appeared {pair:?} was present"
            );
        }
        let got = (net.into_iter().collect(), delta.nan_pairs as usize);
        assert_eq!(got, served(delta.epoch, method), "{method:?} delta");
    }
    handle.shutdown();
}

/// A pile epoch mirroring a sketch epoch answers from views of its own, bit
/// for bit like the sketch epoch, under both methods.
#[test]
fn pile_epoch_views_match_the_sketch_epoch() {
    let (eng, dft) = engine(0xd1ce, 16, 4);
    let sketch_epoch = eng.store().latest().unwrap();
    let path = std::env::temp_dir().join(format!(
        "tsubasa-serve-plan-cache-views-{}.pile",
        std::process::id()
    ));
    let mut writer = PileWriter::create(&path, dft.series_count(), BASIC).unwrap();
    mirror_sketches_to_pile(&mut writer, Some(dft.base()), Some(&dft)).unwrap();
    writer.sync().unwrap();
    let pile_epoch = eng
        .store()
        .publish_pile(writer.snapshot().unwrap())
        .unwrap();
    assert!(pile_epoch.exact().is_none() && pile_epoch.approx().is_none());

    for method in [PlanMethod::Exact, PlanMethod::Approximate] {
        for last_windows in [0u32, 2] {
            for theta in [-0.5, 0.0, 0.15, 0.6] {
                let from_pile = eng
                    .network_on(&pile_epoch, method, last_windows, theta)
                    .unwrap();
                let from_sketch = eng
                    .network_on(&sketch_epoch, method, last_windows, theta)
                    .unwrap();
                assert_eq!(edges(&from_pile), edges(&from_sketch));
            }
            for k in [0u32, 1, 10, 100] {
                let from_pile = eng.top_k_on(&pile_epoch, method, last_windows, k).unwrap();
                let from_sketch = eng
                    .top_k_on(&sketch_epoch, method, last_windows, k)
                    .unwrap();
                assert_eq!(ranked(&from_pile), ranked(&from_sketch));
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Eight threads making the first query on one key at once share one plan
/// build and one view fill: one miss, seven hits, one view.
#[test]
fn concurrent_first_queries_fill_one_view() {
    let (eng, dft) = engine(0xfa57, 16, 4);
    let windows = trailing(dft.window_count(), 0);
    let start = Barrier::new(8);
    thread::scope(|scope| {
        let queries: Vec<_> = (0..8u32)
            .map(|t| {
                let (eng, dft, start, windows) = (&eng, &dft, &start, windows.clone());
                scope.spawn(move || {
                    let (theta, k) = (f64::from(t) / 10.0 - 0.4, t);
                    start.wait();
                    let (want_net, want_top) =
                        serial(dft, PlanMethod::Exact, windows, theta, k as usize);
                    if t % 2 == 0 {
                        let (_, net) = eng.network(PlanMethod::Exact, 0, theta).unwrap();
                        assert_eq!(edges(&net), edges(&want_net), "thread {t}");
                    } else {
                        let (_, top) = eng.top_k(PlanMethod::Exact, 0, k).unwrap();
                        assert_eq!(ranked(&top), ranked(&want_top), "thread {t}");
                    }
                })
            })
            .collect();
        for query in queries {
            query.join().expect("query thread panicked");
        }
    });
    let stats = eng.cache().stats();
    assert_eq!((stats.misses, stats.hits, stats.len), (1, 7, 1));
    assert_eq!(stats.view_bytes, 8 * PAIRS);
}

/// Epochs published by `EpochIngest` bypass `QueryEngine::publish`, so the
/// engine retires older keys itself: however many epochs it has answered
/// on, the cache never holds more keys than there are standing requests, and
/// once every request has been asked on the newest epoch it holds that
/// epoch's keys only, one `8·P` view each.
#[test]
fn views_are_held_for_the_newest_answered_epoch_only() {
    const EPOCHS: usize = 12;
    let full = collection(0x1d1e, 6, (4 + EPOCHS) * BASIC);
    let historical = full.truncate_length(4 * BASIC).unwrap();
    let store = Arc::new(EpochStore::new(4));
    let (mut ingest, _) = EpochIngest::dual(
        Arc::clone(&store),
        &historical,
        BASIC,
        BASIC,
        Transform::Naive,
    )
    .unwrap();
    let eng = QueryEngine::new(
        store,
        Arc::new(PlanCache::new(64)),
        Arc::new(WorkerPool::new(2)),
    );
    // Three distinct keys per epoch, each queried twice.
    let keys = 3;
    for step in 0..EPOCHS {
        let lo = (4 + step) * BASIC;
        let chunk: Vec<Vec<f64>> = full
            .iter()
            .map(|s| s.values()[lo..lo + BASIC].to_vec())
            .collect();
        let published = ingest.ingest(&chunk).unwrap();
        assert_eq!(published.len(), 1);
        for _ in 0..2 {
            let (epoch, _) = eng.network(PlanMethod::Exact, 0, 0.3).unwrap();
            assert_eq!(epoch, published[0].id());
            assert!(eng.cache().stats().len <= keys);
            eng.top_k(PlanMethod::Exact, 0, 4).unwrap();
            assert!(eng.cache().stats().len <= keys);
            eng.network(PlanMethod::Exact, 2, 0.3).unwrap();
            assert!(eng.cache().stats().len <= keys);
            eng.top_k(PlanMethod::Approximate, 2, 4).unwrap();
            assert!(eng.cache().stats().len <= keys);
        }
        let stats = eng.cache().stats();
        assert_eq!(stats.len, keys, "epoch {}", published[0].id());
        assert_eq!(stats.view_bytes, keys * 8 * PAIRS);
    }
    let stats = eng.cache().stats();
    assert_eq!((stats.misses, stats.evictions), ((keys * EPOCHS) as u64, 0));
}

/// A newer epoch swaps views one for one: while only some standing requests
/// have been asked on it, the cache holds as many views as before, so what
/// it holds does not depend on how far the newest epoch has been asked. A
/// request not asked for two epochs retires.
#[test]
fn a_new_epoch_swaps_views_one_for_one() {
    let full = collection(0x5a5a, 6, 8 * BASIC);
    let historical = full.truncate_length(4 * BASIC).unwrap();
    let store = Arc::new(EpochStore::new(4));
    let (mut ingest, _) = EpochIngest::exact(Arc::clone(&store), &historical, BASIC).unwrap();
    let eng = QueryEngine::new(
        store,
        Arc::new(PlanCache::new(64)),
        Arc::new(WorkerPool::new(2)),
    );
    let mut publish = |step: usize| {
        let lo = (4 + step) * BASIC;
        let chunk: Vec<Vec<f64>> = full
            .iter()
            .map(|s| s.values()[lo..lo + BASIC].to_vec())
            .collect();
        ingest.ingest(&chunk).unwrap()[0].id()
    };
    let held = |eng: &QueryEngine| {
        let stats = eng.cache().stats();
        (stats.len, stats.view_bytes)
    };
    let two_views = (2, 2 * 8 * PAIRS);

    // Epoch 1: two standing requests, every window and the trailing two.
    eng.network(PlanMethod::Exact, 0, 0.3).unwrap();
    eng.top_k(PlanMethod::Exact, 2, 3).unwrap();
    assert_eq!(held(&eng), two_views);

    // Epoch 2: its first answer replaces one view; the second, the other.
    assert_eq!(publish(0), 2);
    assert_eq!(eng.network(PlanMethod::Exact, 2, 0.3).unwrap().0, 2);
    assert_eq!(held(&eng), two_views);
    eng.network(PlanMethod::Exact, 0, 0.3).unwrap();
    assert_eq!(held(&eng), two_views);

    // Epochs 3 and 4 are asked the trailing two only: epoch 2's
    // every-window key stays through epoch 3 and retires at epoch 4.
    publish(1);
    eng.network(PlanMethod::Exact, 2, 0.3).unwrap();
    assert_eq!(held(&eng), two_views);
    publish(2);
    eng.network(PlanMethod::Exact, 2, 0.3).unwrap();
    assert_eq!(held(&eng), (1, 8 * PAIRS));
    let stats = eng.cache().stats();
    assert_eq!((stats.misses, stats.evictions), (6, 0));
}

/// Capacity-1 LRU: alternating window ranges thrash (every lookup a miss,
/// every insert an eviction), repeated ranges hit — and results stay correct
/// throughout.
#[test]
fn capacity_one_cache_thrashes_without_wrong_answers() {
    let (eng, dft) = engine(0xcafe, 1, 4);
    let wc = dft.window_count();

    for round in 0..3 {
        for lw in [2u32, 4] {
            let (_, net) = eng.network(PlanMethod::Exact, lw, 0.3).unwrap();
            let (serial, _) = serial(&dft, PlanMethod::Exact, wc - lw as usize..wc, 0.3, 0);
            assert_eq!(net.edges(), serial.edges(), "round {round} lw {lw}");
        }
    }
    let stats = eng.cache().stats();
    // 6 alternating lookups on a capacity-1 cache: all misses, each insert
    // evicting the previous entry.
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, 6);
    assert_eq!(stats.evictions, 5);
    assert_eq!(stats.len, 1);

    // A repeat of the resident range is a hit.
    eng.network(PlanMethod::Exact, 4, 0.3).unwrap();
    assert_eq!(eng.cache().stats().hits, 1);
}

/// Epoch rollover: publication leaves the cache alone, and the first lookup
/// on a newer epoch retires the keys of epochs older than the previously
/// newest one (not counted as evictions); a query against the new epoch is a
/// miss that still answers correctly.
#[test]
fn epoch_rollover_invalidates_stale_plans() {
    let (eng, dft) = engine(0xfeed, 16, 2);

    eng.network(PlanMethod::Exact, 0, 0.2).unwrap();
    eng.top_k(PlanMethod::Exact, 0, 5).unwrap();
    // Network and top-k over the same (epoch, windows, method) share one
    // plan entry: the second query is a hit, not a second slot.
    assert_eq!(eng.cache().stats().len, 1);
    assert_eq!(eng.cache().stats().hits, 1);

    // Publishing epoch 2 touches no cache entry, nor does epoch 3 rolling
    // epoch 1 out of the store.
    let publish = || eng.store().publish(Some(dft.base().clone()), None).unwrap();
    publish();
    assert_eq!(eng.store().oldest_retained(), Some(1));
    assert_eq!(eng.cache().stats().len, 1);
    publish();
    assert_eq!(eng.store().oldest_retained(), Some(2));
    assert_eq!(eng.cache().stats().len, 1);

    // Epoch 3's first answer, for another request, leaves epoch 1's key:
    // epoch 1 was the newest answered before it.
    let wc = dft.window_count();
    let (epoch, net) = eng.network(PlanMethod::Exact, 2, 0.2).unwrap();
    assert_eq!(epoch, 3);
    let (serial_net, _) = serial(&dft, PlanMethod::Exact, wc - 2..wc, 0.2, 0);
    assert_eq!(net.edges(), serial_net.edges());
    assert_eq!(eng.cache().stats().len, 2);

    // Epoch 4's first answer retires every key below epoch 3, so epoch 1's
    // plan is dropped, and its request supersedes epoch 3's key.
    publish();
    let misses_before = eng.cache().stats().misses;
    let (epoch, net) = eng.network(PlanMethod::Exact, 2, 0.2).unwrap();
    assert_eq!(epoch, 4);
    let stats = eng.cache().stats();
    assert_eq!(stats.misses, misses_before + 1);
    assert_eq!(stats.len, 1);
    assert_eq!(stats.evictions, 0, "invalidation is not an eviction");
    assert_eq!(net.edges(), serial_net.edges());
}

/// The exact and approximate plans for the same (epoch, windows) coordinate
/// are distinct cache entries — a method never answers from the other
/// method's plan.
#[test]
fn methods_occupy_distinct_cache_slots() {
    let (eng, _) = engine(0xbead, 16, 4);
    eng.network(PlanMethod::Exact, 0, 0.4).unwrap();
    eng.network(PlanMethod::Approximate, 0, 0.4).unwrap();
    let stats = eng.cache().stats();
    assert_eq!(stats.len, 2);
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 0);
}
