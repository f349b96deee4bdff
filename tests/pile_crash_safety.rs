//! Crash-safety properties of the append-only sketch pile.
//!
//! The pile's append discipline (per-kind gapless coverage, every segment
//! checksummed) means only the file tail can ever be torn. These tests cut a
//! pile at **every byte boundary of its tail segment** (well over 64 cases)
//! and require that:
//!
//! * [`SketchPile::open`] succeeds on every cut, recovering exactly the
//!   complete segments before the tear;
//! * [`PileWriter::open_append`] physically truncates the tear and, after
//!   re-appending the lost rows, reproduces the original file
//!   **bit-identically** (headers and checksums are deterministic functions
//!   of coverage and payload);
//! * [`SketchPile::compact`] rewrites the segment log without changing a
//!   single payload bit;
//! * [`PileWriter::snapshot`], which serves from the writer's own index
//!   without reading the file, equals a validating [`SketchPile::open`] of
//!   the same file after any history of appends, syncs, reopens and tail
//!   cuts — and turns into an error, not a mapping past the end, when the
//!   file is cut under a live writer;
//! * a flip of **any single bit** of a small pile opens as a typed error
//!   (file header) or as a prefix of its segments with every value exact, and
//!   a flip in a checksummed or structural byte of segment *k* drops *k* and
//!   everything after it;
//! * a pile of another format version is refused by every opener, which
//!   leaves the file as it was.

use std::path::PathBuf;

use proptest::prelude::*;
use tsubasa::core::error::Error;
use tsubasa::core::stats::WindowStats;
use tsubasa::storage::{PileWriter, SegmentKind, SketchPile};

const N_SERIES: usize = 4;
const BASIC_WINDOW: usize = 10;
const WINDOWS: usize = 6;

fn pair_count(n: usize) -> usize {
    n * (n - 1) / 2
}

/// Deterministic, bit-reproducible synthetic rows (crash safety is about
/// bytes, not math — a NaN is planted to check it round-trips too).
fn stats_row(w: usize) -> Vec<f64> {
    (0..N_SERIES)
        .flat_map(|s| {
            [
                BASIC_WINDOW as f64,
                (w as f64 * 0.31 + s as f64).sin(),
                0.5 + (s as f64 + 1.0) * 0.01 * w as f64,
            ]
        })
        .collect()
}

fn corr_row(w: usize) -> Vec<f64> {
    (0..pair_count(N_SERIES))
        .map(|p| {
            if w == 3 && p == 1 {
                f64::NAN
            } else {
                ((w * 7 + p) as f64 * 0.13).cos()
            }
        })
        .collect()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tsubasa-pile-crash-{}-{tag}.pile",
        std::process::id()
    ))
}

/// Build the reference pile; returns the path plus the file length *before*
/// the final (tail) corr segment was appended.
fn build_reference(tag: &str) -> (PathBuf, u64) {
    let path = temp_path(tag);
    let mut writer = PileWriter::create(&path, N_SERIES, BASIC_WINDOW).unwrap();
    for w in 0..WINDOWS - 1 {
        writer
            .append(SegmentKind::SeriesStats, &stats_row(w))
            .unwrap();
        writer.append(SegmentKind::PairCorrs, &corr_row(w)).unwrap();
    }
    writer
        .append(SegmentKind::SeriesStats, &stats_row(WINDOWS - 1))
        .unwrap();
    let before_tail = writer.len_bytes();
    writer
        .append(SegmentKind::PairCorrs, &corr_row(WINDOWS - 1))
        .unwrap();
    writer.finish().unwrap();
    (path, before_tail)
}

#[test]
fn every_tail_byte_cut_opens_cleanly_and_round_trips_bit_identically() {
    let (path, before_tail) = build_reference("tail-cuts");
    let original = std::fs::read(&path).unwrap();
    let full_len = original.len() as u64;

    // The tail segment is a 64-byte header plus the padded corr payload;
    // with 6 pairs that is 64 + 48 = 112 byte boundaries — more than the 64
    // cases the acceptance floor asks for.
    let cuts: Vec<u64> = (before_tail..full_len).collect();
    assert!(
        cuts.len() >= 64,
        "need at least 64 truncation cases, got {}",
        cuts.len()
    );

    let cut_path = temp_path("tail-cuts-work");
    for &cut in &cuts {
        std::fs::write(&cut_path, &original[..cut as usize]).unwrap();

        // Torn tail: the reader recovers every complete segment and reports
        // the tear, without touching the file.
        let pile = SketchPile::open(&cut_path).unwrap();
        assert_eq!(pile.windows(SegmentKind::SeriesStats), WINDOWS);
        assert_eq!(pile.windows(SegmentKind::PairCorrs), WINDOWS - 1);
        assert_eq!(pile.exact_query_windows(), WINDOWS - 1);
        assert_eq!(pile.space_bytes(), before_tail);
        assert_eq!(pile.truncated_bytes(), cut - before_tail);
        let recovered = pile
            .pair_table(0..WINDOWS - 1, SegmentKind::PairCorrs)
            .unwrap();
        let expect = corr_row(WINDOWS - 2);
        for (a, b) in recovered.view().window_row(WINDOWS - 2).iter().zip(&expect) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        drop(pile);

        // Re-append the lost window: the writer truncates the tear and the
        // deterministic header/checksum encoding reproduces the original
        // bytes exactly.
        let mut writer = PileWriter::open_append(&cut_path).unwrap();
        assert_eq!(writer.coverage(SegmentKind::PairCorrs), WINDOWS - 1);
        writer
            .append(SegmentKind::PairCorrs, &corr_row(WINDOWS - 1))
            .unwrap();
        writer.finish().unwrap();
        let repaired = std::fs::read(&cut_path).unwrap();
        assert_eq!(repaired, original, "cut at byte {cut} did not round-trip");
    }

    std::fs::remove_file(&cut_path).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn compaction_round_trips_every_payload_bit() {
    let (path, _) = build_reference("compact");
    let before = SketchPile::open(&path).unwrap();
    let before_segments = before.segment_count();
    let stats_before = before.series_stats(0..WINDOWS).unwrap();
    let corrs_before: Vec<u64> = {
        let t = before
            .pair_table(0..WINDOWS, SegmentKind::PairCorrs)
            .unwrap();
        (0..WINDOWS)
            .flat_map(|k| {
                t.view()
                    .window_row(k)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    drop(before);

    let stats = SketchPile::compact(&path).unwrap();
    assert!(stats.segments_after < before_segments);

    let after = SketchPile::open(&path).unwrap();
    assert_eq!(after.exact_query_windows(), WINDOWS);
    assert_eq!(after.series_stats(0..WINDOWS).unwrap(), stats_before);
    let t = after
        .pair_table(0..WINDOWS, SegmentKind::PairCorrs)
        .unwrap();
    assert_eq!(after.segment_count(), 2, "one segment per kind");
    assert!(t.is_zero_copy());
    let corrs_after: Vec<u64> = (0..WINDOWS)
        .flat_map(|k| {
            t.view()
                .window_row(k)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(corrs_after, corrs_before);
    std::fs::remove_file(&path).ok();
}

/// Where a single-bit flip lands in a pile, and what opening it may do.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FlipSite {
    /// File magic or version: the open is a typed error.
    Identity,
    /// `n_series` or `basic_window`: a typed error, or a pile whose shape
    /// shows the flip.
    Shape,
    /// A reserved byte of the file header: everything is served.
    FileReserved,
    /// A checksummed or structural byte of segment `k`: `k` and everything
    /// after it are dropped.
    Checked(usize),
    /// A reserved byte of segment `k`: dropped from `k` on, or kept whole.
    SegReserved(usize),
}

fn flip_site(byte: usize, seg_starts: &[usize]) -> FlipSite {
    match byte {
        0..12 => FlipSite::Identity,
        12..16 | 32..64 => FlipSite::FileReserved,
        16..32 => FlipSite::Shape,
        _ => {
            let k = seg_starts.iter().rposition(|&at| at <= byte).unwrap();
            match byte - seg_starts[k] {
                40..64 => FlipSite::SegReserved(k),
                _ => FlipSite::Checked(k),
            }
        }
    }
}

#[test]
fn every_bit_flip_is_refused_or_serves_an_exact_prefix() {
    // Three segments under 1 KiB: two windows of statistics, one of
    // correlations, then two more of correlations.
    let path = temp_path("bit-flips");
    let mut writer = PileWriter::create(&path, N_SERIES, BASIC_WINDOW).unwrap();
    let mut seg_starts = Vec::new();
    for (kind, windows) in [
        (SegmentKind::SeriesStats, 0..2),
        (SegmentKind::PairCorrs, 0..1),
        (SegmentKind::PairCorrs, 1..3),
    ] {
        seg_starts.push(writer.len_bytes() as usize);
        let rows: Vec<f64> = windows.flat_map(|w| model_row(kind, w)).collect();
        writer.append(kind, &rows).unwrap();
    }
    writer.finish().unwrap();
    let original = std::fs::read(&path).unwrap();
    assert!(original.len() < 1024, "{} bytes", original.len());

    // What a pile holding the first `k` segments serves: the file cut there.
    let flipped_path = temp_path("bit-flips-work");
    let prefixes: Vec<Served> = seg_starts
        .iter()
        .chain([&original.len()])
        .map(|&end| {
            std::fs::write(&flipped_path, &original[..end]).unwrap();
            served(&SketchPile::open(&flipped_path).unwrap())
        })
        .collect();
    let whole = prefixes.len() - 1;
    assert_eq!(prefixes[whole].segments, 3);
    assert_eq!(prefixes[whole].tables, model_tables([2, 3, 0]));

    for bit in 0..original.len() * 8 {
        let (byte, site) = (bit / 8, flip_site(bit / 8, &seg_starts));
        let mut bytes = original.clone();
        bytes[byte] ^= 1 << (bit % 8);
        std::fs::write(&flipped_path, &bytes).unwrap();
        let pile = match SketchPile::open(&flipped_path) {
            Ok(pile) => pile,
            Err(Error::Storage(_)) if matches!(site, FlipSite::Identity | FlipSite::Shape) => {
                continue
            }
            Err(e) => panic!("bit {bit} ({site:?}): {e}"),
        };
        let now = served(&pile);
        let reshaped = (pile.n_series(), pile.basic_window()) != (N_SERIES, BASIC_WINDOW);
        let kept = match site {
            FlipSite::Identity => panic!("bit {bit} ({site:?}) opened"),
            FlipSite::Shape => {
                assert!(reshaped, "bit {bit}: a shape flip left the shape");
                // A new series count fits no segment; a new basic window
                // leaves every segment valid.
                if pile.n_series() == N_SERIES {
                    whole
                } else {
                    0
                }
            }
            FlipSite::FileReserved => whole,
            FlipSite::Checked(k) => k,
            FlipSite::SegReserved(k) if now.segments == k => k,
            FlipSite::SegReserved(_) => whole,
        };
        assert!(
            matches!(site, FlipSite::Shape) || !reshaped,
            "bit {bit} ({site:?}) changed the shape"
        );
        assert_eq!(now, prefixes[kept], "bit {bit} ({site:?})");
    }
    std::fs::remove_file(&flipped_path).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_pile_of_another_version_is_refused_and_left_as_it_was() {
    let (path, _) = build_reference("version");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let refused = |what: &str, err: Option<Error>| match err {
        Some(Error::Storage(msg)) => {
            assert!(
                msg.contains("version 1") && msg.contains("expected 2"),
                "{what}: {msg}"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "{what} changed the file"
            );
        }
        other => panic!("{what}: {other:?}"),
    };
    refused("open", SketchPile::open(&path).err());
    refused("open_append", PileWriter::open_append(&path).err());
    refused("compact", SketchPile::compact(&path).err());
    assert!(!path.with_extension("pile-compact-tmp").exists());
    std::fs::remove_file(&path).ok();
}

/// The row the model appends for window `w` of `kind`.
fn model_row(kind: SegmentKind, w: usize) -> Vec<f64> {
    match kind {
        SegmentKind::SeriesStats => stats_row(w),
        SegmentKind::PairCorrs => corr_row(w),
        SegmentKind::PairEsts => corr_row(w).iter().map(|c| 1.0 - c * c / 2.0).collect(),
    }
}

/// Everything a pile serves: its shape, and every value as bits.
#[derive(Debug, PartialEq)]
struct Served {
    segments: usize,
    space_bytes: u64,
    coverage: [usize; 3],
    stats: Vec<Vec<WindowStats>>,
    /// Per pair kind, one `Vec` of bits per covered window.
    tables: [Vec<Vec<u64>>; 2],
}

fn served(pile: &SketchPile) -> Served {
    let table = |kind| {
        let windows = pile.windows(kind);
        if windows == 0 {
            return Vec::new();
        }
        let table = pile.pair_table(0..windows, kind).unwrap();
        assert!(table.is_zero_copy());
        (0..windows)
            .map(|k| {
                table
                    .view()
                    .window_row(k)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect()
    };
    let stats_windows = pile.windows(SegmentKind::SeriesStats);
    Served {
        segments: pile.segment_count(),
        space_bytes: pile.space_bytes(),
        coverage: SegmentKind::ALL.map(|kind| pile.windows(kind)),
        stats: if stats_windows == 0 {
            Vec::new()
        } else {
            pile.series_stats(0..stats_windows).unwrap()
        },
        tables: [table(SegmentKind::PairCorrs), table(SegmentKind::PairEsts)],
    }
}

/// What the model says a pile covering `coverage` windows per kind holds.
fn model_tables(coverage: [usize; 3]) -> [Vec<Vec<u64>>; 2] {
    let bits = |kind: SegmentKind, windows| {
        (0..windows)
            .map(|w| model_row(kind, w).iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    [
        bits(SegmentKind::PairCorrs, coverage[1]),
        bits(SegmentKind::PairEsts, coverage[2]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A random history — appends of one to three windows of any kind,
    /// syncs, snapshots, `finish` + `open_append`, tail cuts — checked
    /// against a model that is only "window `w` of a kind holds
    /// `model_row(kind, w)`".
    #[test]
    fn a_snapshot_equals_a_validating_open_after_any_history(
        ops in collection::vec(0usize..1 << 16, 8..40),
    ) {
        let path = temp_path("snapshot-model");
        let mut writer = PileWriter::create(&path, N_SERIES, BASIC_WINDOW).unwrap();
        // Earlier snapshots, each with what it served when it was taken.
        let mut held: Vec<(SketchPile, Served)> = Vec::new();

        for op in ops {
            let (code, arg) = (op % 8, op / 8);
            match code {
                0..=3 => {
                    let kind = SegmentKind::ALL[arg % 3];
                    let first = writer.coverage(kind);
                    let rows: Vec<f64> = (first..first + 1 + arg / 3 % 3)
                        .flat_map(|w| model_row(kind, w))
                        .collect();
                    writer.append(kind, &rows).unwrap();
                }
                4 => writer.sync().unwrap(),
                5 => {}
                6 => {
                    writer.finish().unwrap();
                    writer = PileWriter::open_append(&path).unwrap();
                }
                _ => {
                    // A cut rewrites history, so no earlier mapping may
                    // outlive it: check them one last time and let them go.
                    for (pile, then) in held.drain(..) {
                        prop_assert_eq!(served(&pile), then);
                    }
                    let len = writer.len_bytes();
                    writer.finish().unwrap();
                    let cut = (arg as u64 % 200).min(len - 64);
                    std::fs::OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .unwrap()
                        .set_len(len - cut)
                        .unwrap();
                    writer = PileWriter::open_append(&path).unwrap();
                    prop_assert!(writer.len_bytes() <= len - cut);
                }
            }
            if code >= 5 {
                let snapshot = writer.snapshot().unwrap();
                let now = served(&snapshot);
                prop_assert_eq!(&now, &served(&SketchPile::open(&path).unwrap()));
                prop_assert_eq!(now.coverage, SegmentKind::ALL.map(|k| writer.coverage(k)));
                prop_assert_eq!(now.space_bytes, writer.len_bytes());
                prop_assert_eq!(&now.tables, &model_tables(now.coverage));
                held.push((snapshot, now));
            }
        }

        // Later appends never disturbed an earlier snapshot's prefix.
        for (pile, then) in held.drain(..) {
            prop_assert_eq!(served(&pile), then);
        }
        // A file cut under the live writer is refused, not mapped.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(writer.len_bytes() - 1)
            .unwrap();
        prop_assert!(writer.snapshot().is_err());
        std::fs::remove_file(&path).ok();
    }
}
