//! The memory-mapped, append-only sketch **pile**.
//!
//! The pile stores sketches *in the exact in-memory layout the query kernel
//! consumes*: window-major `f64` tables (`row[k][p]` is window `k` of packed
//! pair `p` — the in-memory sketch's row layout), so a reader maps the file
//! and hands the tiled sweep one borrowed slice per window row, wherever the
//! row's segment lies. No seek per window range, no per-record decode, no
//! copy of a value, and sketch sets are not capped at RAM.
//!
//! # File format
//!
//! A pile is a single file: a 64-byte file header followed by append-only
//! *segments*, each a 64-byte header plus a payload of whole `f64` rows.
//!
//! ```text
//! file header (64 B)            segment header (64 B)
//!   0..8   magic "TSUBPILE"       0..4   magic "PSEG"
//!   8..12  version (u32 LE, 2)    4..8   kind (u32 LE; 1 stats, 2 corrs, 3 ests)
//!   12..16 reserved               8..16  first_window (u64 LE)
//!   16..24 n_series (u64 LE)      16..24 n_windows (u64 LE)
//!   24..32 basic_window (u64 LE)  24..32 payload_len (u64 LE)
//!   32..64 reserved (zero)        32..40 checksum: XXH64 (seed 0) of
//!                                        bytes 0..32, then the payload
//!                                 40..64 reserved (zero)
//! ```
//!
//! Payloads are window-major `f64` (little-endian) tables:
//!
//! * **series stats** (kind 1): `n_windows` rows of `n_series` `(len, mean,
//!   std)` triples — the per-series half of the recombination;
//! * **pair correlations** (kind 2): `n_windows` rows of `P = n(n−1)/2`
//!   per-window Pearson correlations in packed pair order — exactly what
//!   `QueryPlan::block_kernel` reads;
//! * **pair estimates** (kind 3): same shape, holding the Equation 3
//!   estimates `ĉ = 1 − d²/2` of DFT coefficient distances — the very rows an
//!   in-memory comparator sketch stores, so approximate queries go through
//!   the same zero-copy kernel path.
//!
//! Alignment: the file header and every segment header are 64 bytes and a
//! payload is whole `f64`s, so every payload starts at a multiple of 8 from
//! the start of the file. The mapping base is page-aligned
//! (mmap) or `Vec<u64>`-aligned (fallback), hence every payload is 8-byte
//! aligned and `f64` views are valid.
//!
//! Append discipline: per kind, coverage is gapless and starts at window 0 —
//! a segment's `first_window` must equal the windows already covered for its
//! kind (overlap or gap is an append error). Under this discipline only the
//! *tail* of the file can ever be torn by a crash; [`SketchPile::open`]
//! validates segments in order (structure + checksum) and ignores everything
//! from the first invalid segment on, while [`PileWriter::open_append`]
//! additionally truncates the torn tail on disk before appending.
//! [`SketchPile::compact`] rewrites live segments coalesced (one segment per
//! ≤ 1 MiB run of windows of a kind) through a temp file and an atomic rename
//! — existing mappings stay valid because the old inode lives until unmapped.
//!
//! A segment is never rewritten once appended, so the index of validated
//! segments only grows: a [`PileWriter`] keeps the index of what
//! `open_append` validated plus what it wrote itself, and
//! [`PileWriter::snapshot`] maps the file under a copy of that index without
//! reading a byte of it.

#[allow(unsafe_code)]
mod map;

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tsubasa_core::error::{Error, Result};
use tsubasa_core::plan::PlanMethod;
use tsubasa_core::source::{CorrSource, PairTable};
use tsubasa_core::stats::WindowStats;

pub use map::PileMap;

const FILE_MAGIC: [u8; 8] = *b"TSUBPILE";
const FILE_VERSION: u32 = 2;
const FILE_HEADER_LEN: usize = 64;
const SEG_HEADER_LEN: usize = 64;
const SEG_MAGIC: [u8; 4] = *b"PSEG";
/// The leading segment-header bytes the checksum covers (see [`checksum`]).
const SEG_CHECKED_LEN: usize = 32;

/// What a pile segment stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// Window-major `(len, mean, std)` triples, one per series.
    SeriesStats,
    /// Window-major per-pair Pearson correlations (packed pair order).
    PairCorrs,
    /// Window-major per-pair Equation 3 estimates `1 − d²/2`.
    PairEsts,
}

impl SegmentKind {
    /// All segment kinds, in code order.
    pub const ALL: [SegmentKind; 3] = [
        SegmentKind::SeriesStats,
        SegmentKind::PairCorrs,
        SegmentKind::PairEsts,
    ];

    fn code(self) -> u32 {
        match self {
            SegmentKind::SeriesStats => 1,
            SegmentKind::PairCorrs => 2,
            SegmentKind::PairEsts => 3,
        }
    }

    fn from_code(code: u32) -> Option<Self> {
        match code {
            1 => Some(SegmentKind::SeriesStats),
            2 => Some(SegmentKind::PairCorrs),
            3 => Some(SegmentKind::PairEsts),
            _ => None,
        }
    }

    fn index(self) -> usize {
        self.code() as usize - 1
    }
}

/// `f64` values per window row of each [`SegmentKind`] (by
/// [`SegmentKind::index`]) for `n_series` series — `3n` statistics,
/// `n(n−1)/2` packed pairs — or `None` when a row's byte length does not fit
/// a `usize`, which only a hostile or bit-flipped header asks for.
fn row_values(n_series: usize) -> Option<[usize; 3]> {
    let stats = n_series.checked_mul(3)?;
    let pairs = n_series.checked_mul(n_series.saturating_sub(1))? / 2;
    stats.checked_mul(8)?;
    pairs.checked_mul(8)?;
    Some([stats, pairs, pairs])
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;

fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

fn xxh_merge(h: u64, lane: u64) -> u64 {
    (h ^ xxh_round(0, lane))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

/// A segment's checksum: XXH64 with seed 0 over the first 32 bytes of its
/// header (magic, kind, first window, window count, payload length) followed
/// by its payload, so a flipped kind cannot relabel a pair segment whose
/// payload is intact. Those 32 bytes are exactly the first stripe, and a
/// payload is whole `f64`s whose little-endian words are `f64::to_bits`, so
/// the hash runs four independent word lanes per 32-byte stripe, and the
/// short-input start and 4- and 1-byte tails of XXH64 never occur. The writer
/// hashes the rows it is given and [`walk`] the mapped rows, both here.
fn checksum(head: &[u8], values: &[f64]) -> u64 {
    let mut lanes = [
        XXH_P1.wrapping_add(XXH_P2),
        XXH_P2,
        0,
        XXH_P1.wrapping_neg(),
    ];
    for (lane, at) in lanes.iter_mut().zip([0, 8, 16, 24]) {
        *lane = xxh_round(*lane, read_u64(head, at));
    }
    let stripes = values.chunks_exact(4);
    let tail = stripes.remainder();
    for stripe in stripes {
        for (lane, v) in lanes.iter_mut().zip(stripe) {
            *lane = xxh_round(*lane, v.to_bits());
        }
    }
    let mut h = lanes
        .iter()
        .zip([1, 7, 12, 18])
        .fold(0, |h: u64, (lane, r)| h.wrapping_add(lane.rotate_left(r)));
    h = lanes.into_iter().fold(h, xxh_merge);
    h = h.wrapping_add((SEG_CHECKED_LEN + 8 * values.len()) as u64);
    for v in tail {
        h = (h ^ xxh_round(0, v.to_bits()))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

/// A stored count or length. One that does not fit `usize` cannot be real;
/// saturating sends it down the same refusal as any other impossible value.
fn read_count(bytes: &[u8], off: usize) -> usize {
    usize::try_from(read_u64(bytes, off)).unwrap_or(usize::MAX)
}

/// One validated segment of a pile (payload location in file coordinates).
#[derive(Debug, Clone, Copy)]
struct Segment {
    kind: SegmentKind,
    first_window: usize,
    n_windows: usize,
    payload_off: usize,
}

/// The validated shape of a pile file: its metadata, its segments in file
/// order, and where the valid prefix ends. Grown one segment at a time, by
/// [`walk`] as it validates a file and by [`PileWriter::append`] as it
/// writes one — both through [`PileIndex::place`] and [`PileIndex::push`], so
/// reader and writer cannot disagree on where a segment lies.
#[derive(Debug, Clone)]
struct PileIndex {
    n_series: usize,
    basic_window: usize,
    /// `f64` values per window row, by [`SegmentKind::index`].
    row_values: [usize; 3],
    segs: Vec<Segment>,
    coverage: [usize; 3],
    valid_len: usize,
}

impl PileIndex {
    /// The index of a pile that holds its file header and nothing else.
    /// A shape with no series or no basic window, or one whose rows do not
    /// fit the address space, is refused.
    fn empty(n_series: usize, basic_window: usize) -> Result<Self> {
        let row_values = row_values(n_series)
            .filter(|_| n_series > 0 && basic_window > 0)
            .ok_or_else(|| {
                Error::Storage(format!(
                    "pile shape is degenerate: n_series={n_series}, basic_window={basic_window}"
                ))
            })?;
        Ok(Self {
            n_series,
            basic_window,
            row_values,
            segs: Vec::new(),
            coverage: [0; 3],
            valid_len: FILE_HEADER_LEN,
        })
    }

    fn row_values(&self, kind: SegmentKind) -> usize {
        self.row_values[kind.index()]
    }

    /// The byte range of the payload of a segment of `n_windows` rows of
    /// `kind` that follows the valid prefix — `None` when it is empty, its
    /// kind has no rows under this shape, or its extent overflows `usize`.
    /// The payload is whole `f64` rows, so the header after it stays aligned.
    fn place(&self, kind: SegmentKind, n_windows: usize) -> Option<Range<usize>> {
        let len = n_windows.checked_mul(self.row_values(kind) * 8)?;
        let start = self.valid_len.checked_add(SEG_HEADER_LEN)?;
        let end = start.checked_add(len)?;
        (len > 0).then_some(start..end)
    }

    /// Accept the segment whose payload [`PileIndex::place`] located: it
    /// extends its kind's coverage gaplessly and moves the valid prefix past
    /// it.
    fn push(&mut self, kind: SegmentKind, n_windows: usize, payload: Range<usize>) {
        self.segs.push(Segment {
            kind,
            first_window: self.coverage[kind.index()],
            n_windows,
            payload_off: payload.start,
        });
        self.coverage[kind.index()] += n_windows;
        self.valid_len = payload.end;
    }
}

/// Walk a mapped pile file: check the file header, then accept segments in
/// order while their structure, append discipline, and checksum all hold.
/// The first violation marks the torn tail; everything before it is the valid
/// prefix.
fn walk(map: &PileMap) -> Result<PileIndex> {
    let bytes = map.bytes();
    if bytes.len() < FILE_HEADER_LEN || bytes[..8] != FILE_MAGIC {
        return Err(Error::Storage(
            "not a sketch pile (missing TSUBPILE header)".into(),
        ));
    }
    let version = read_u32(bytes, 8);
    if version != FILE_VERSION {
        return Err(Error::Storage(format!(
            "unsupported pile version {version} (expected {FILE_VERSION})"
        )));
    }
    let mut index = PileIndex::empty(read_count(bytes, 16), read_count(bytes, 24))?;

    // An incomplete header means a torn tail (or the clean end of the file).
    while let Some(header) = bytes.get(index.valid_len..index.valid_len + SEG_HEADER_LEN) {
        if header[..4] != SEG_MAGIC {
            break;
        }
        let Some(kind) = SegmentKind::from_code(read_u32(header, 4)) else {
            break;
        };
        let n_windows = read_count(header, 16);
        // Structural checks: non-empty, shape consistent with the file
        // header, and gapless per-kind coverage (append discipline).
        let Some(at) = index.place(kind, n_windows) else {
            break;
        };
        if read_count(header, 24) != at.len()
            || read_count(header, 8) != index.coverage[kind.index()]
        {
            break;
        }
        if at.end > bytes.len() {
            break; // payload extends past the file: torn tail
        }
        let payload = map.f64s(at.start, at.len() / 8)?;
        if checksum(&header[..SEG_CHECKED_LEN], payload) != read_u64(header, 32) {
            break;
        }
        index.push(kind, n_windows, at);
    }
    Ok(index)
}

/// Statistics returned by [`SketchPile::compact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Segments in the pile before compaction.
    pub segments_before: usize,
    /// Segments after: one per ≤ 1 MiB run of windows of each covered
    /// [`SegmentKind`] — what reopening the compacted pile counts. Fewer
    /// segments mean fewer headers and a shorter index, not cheaper reads:
    /// a range is zero-copy however many segments it spans.
    pub segments_after: usize,
    /// Valid bytes before compaction.
    pub bytes_before: u64,
    /// Bytes after compaction.
    pub bytes_after: u64,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appender for a sketch pile file.
///
/// Appends whole window-major slabs per [`SegmentKind`]; per kind, rows must
/// arrive in window order with no gaps (the writer assigns `first_window`
/// from its coverage counter). Durability is explicit: nothing is fsynced
/// until [`PileWriter::sync`] or [`PileWriter::finish`] — pair it with
/// [`PileBatchWriter`] and a [`SyncPolicy`] for the threaded write path.
///
/// The writer carries the index of every segment in its file — those
/// [`PileWriter::open_append`] validated plus those it appended (and
/// checksummed) itself — which is what [`PileWriter::snapshot`] serves from.
#[derive(Debug)]
pub struct PileWriter {
    path: PathBuf,
    file: File,
    /// Every segment up to the watermark `index.valid_len`, where the next
    /// append goes.
    index: PileIndex,
    scratch: Vec<u8>,
    syncs: usize,
}

impl PileWriter {
    /// Create (or truncate) a pile file for the given sketch shape.
    pub fn create(path: &Path, n_series: usize, basic_window: usize) -> Result<Self> {
        let index = PileIndex::empty(n_series, basic_window)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| Error::Storage(format!("create pile {}: {e}", path.display())))?;
        let mut header = [0u8; FILE_HEADER_LEN];
        header[..8].copy_from_slice(&FILE_MAGIC);
        header[8..12].copy_from_slice(&FILE_VERSION.to_le_bytes());
        header[16..24].copy_from_slice(&(n_series as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(basic_window as u64).to_le_bytes());
        file.write_all(&header)
            .map_err(|e| Error::Storage(format!("write pile header: {e}")))?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            index,
            scratch: Vec::new(),
            syncs: 0,
        })
    }

    /// Open an existing pile for appending. The file is validated first and
    /// a torn tail segment (from a crash mid-append) is truncated away, so
    /// appends always resume from the last complete segment.
    pub fn open_append(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| Error::Storage(format!("open pile {}: {e}", path.display())))?;
        let index = {
            let len = file
                .metadata()
                .map_err(|e| Error::Storage(format!("stat pile: {e}")))?
                .len() as usize;
            let map = PileMap::map(&file, len)?;
            walk(&map)?
        };
        file.set_len(index.valid_len as u64)
            .map_err(|e| Error::Storage(format!("truncate torn pile tail: {e}")))?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            index,
            scratch: Vec::new(),
            syncs: 0,
        })
    }

    /// Number of series the pile was created for.
    pub fn n_series(&self) -> usize {
        self.index.n_series
    }

    /// Basic-window size the pile was created for.
    pub fn basic_window(&self) -> usize {
        self.index.basic_window
    }

    /// Windows appended so far for `kind`.
    pub fn coverage(&self, kind: SegmentKind) -> usize {
        self.index.coverage[kind.index()]
    }

    /// Path of the pile file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes in the file (header plus all appended segments).
    pub fn len_bytes(&self) -> u64 {
        self.index.valid_len as u64
    }

    /// Durability syncs issued so far.
    pub fn syncs(&self) -> usize {
        self.syncs
    }

    /// Append one segment of window-major rows for `kind`. `rows` must be a
    /// whole number of rows (`kind`'s row width under the pile's series
    /// count); the segment's `first_window` is the writer's current coverage
    /// for the kind. Returns the number of windows appended; empty input is
    /// a no-op.
    pub fn append(&mut self, kind: SegmentKind, rows: &[f64]) -> Result<usize> {
        if rows.is_empty() {
            return Ok(0);
        }
        let row_values = self.index.row_values(kind);
        if row_values == 0 || !rows.len().is_multiple_of(row_values) {
            return Err(Error::Storage(format!(
                "pile append of {} values is not a whole number of {row_values}-value rows",
                rows.len()
            )));
        }
        let n_windows = rows.len() / row_values;
        let at = self.index.place(kind, n_windows).ok_or_else(|| {
            Error::Storage(format!(
                "pile append of {n_windows} windows overflows the file"
            ))
        })?;

        self.scratch.clear();
        self.scratch
            .extend(rows.iter().flat_map(|v| v.to_le_bytes()));

        let mut header = [0u8; SEG_HEADER_LEN];
        header[..4].copy_from_slice(&SEG_MAGIC);
        header[4..8].copy_from_slice(&kind.code().to_le_bytes());
        header[8..16].copy_from_slice(&(self.coverage(kind) as u64).to_le_bytes());
        header[16..24].copy_from_slice(&(n_windows as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(at.len() as u64).to_le_bytes());
        let sum = checksum(&header[..SEG_CHECKED_LEN], rows);
        header[32..40].copy_from_slice(&sum.to_le_bytes());

        // Every append starts at the watermark, wherever the cursor is: a
        // snapshot's fallback read shares this descriptor (and its cursor),
        // and what a failed append left behind is overwritten, not kept.
        self.file
            .seek(SeekFrom::Start(self.index.valid_len as u64))
            .and_then(|_| self.file.write_all(&header))
            .and_then(|_| self.file.write_all(&self.scratch))
            .map_err(|e| Error::Storage(format!("pile append: {e}")))?;
        self.index.push(kind, n_windows, at);
        Ok(n_windows)
    }

    /// Force appended segments down to the device (`fdatasync`).
    pub fn sync(&mut self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| Error::Storage(format!("pile sync: {e}")))?;
        self.syncs += 1;
        Ok(())
    }

    /// Map the pile's current contents as a read-only [`SketchPile`] without
    /// closing the writer — the epoch-publication path: append-only means the
    /// snapshot's prefix never changes underneath the mapping.
    ///
    /// A snapshot costs one `fstat`, one mapping of the file up to the
    /// writer's watermark and a copy of the writer's segment index (32 bytes
    /// per segment), whatever the file's length: it re-reads and re-checks
    /// nothing, because every segment below the watermark was either
    /// validated by [`PileWriter::open_append`]'s walk or written and
    /// checksummed by this writer. It serves exactly those segments. A file
    /// that has become shorter than the watermark (truncated by someone
    /// else) is a typed error, never a mapping past its end.
    pub fn snapshot(&self) -> Result<SketchPile> {
        let file_len = self
            .file
            .metadata()
            .map_err(|e| Error::Storage(format!("stat pile: {e}")))?
            .len();
        if file_len < self.len_bytes() {
            return Err(Error::Storage(format!(
                "pile {} is {file_len} bytes, shorter than the {} its writer appended",
                self.path.display(),
                self.len_bytes()
            )));
        }
        Ok(SketchPile {
            path: self.path.clone(),
            map: PileMap::map(&self.file, self.index.valid_len)?,
            index: self.index.clone(),
            file_len,
        })
    }

    /// Sync and close the writer.
    pub fn finish(mut self) -> Result<()> {
        self.sync()
    }

    /// Sync, then hand the file over as a [`SketchPile`]: the last
    /// [`PileWriter::snapshot`].
    pub fn into_pile(mut self) -> Result<SketchPile> {
        self.sync()?;
        self.snapshot()
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A window-major correlation (or estimate) table served from a pile: one
/// slice per window row, each borrowed straight from the mapping, so a range
/// is zero-copy whether it lies in one segment or spans many, and no record
/// is ever decoded.
///
/// This is the backend-agnostic [`tsubasa_core::source::PairTable`] — the
/// pile's table shape became the [`CorrSource`] trait's table currency, so
/// the historical name survives as an alias.
pub type PileCorrs<'a> = tsubasa_core::source::PairTable<'a>;

/// Encode window statistics as [`SegmentKind::SeriesStats`] rows, the layout
/// [`SketchPile::series_stats`] decodes: one `(len, mean, std)` triple per
/// entry, so one window's per-series statistics make one row (several
/// windows', window-major, that many). Values are stored as they are — a NaN
/// mean, a zero σ — so a round trip is bit-exact.
pub fn encode_series_stats(stats: &[WindowStats]) -> Vec<f64> {
    stats
        .iter()
        .flat_map(|st| [st.len as f64, st.mean, st.std])
        .collect()
}

/// Read-only handle to a validated, memory-mapped sketch pile.
///
/// Opening validates segments in order (structure, append discipline,
/// checksum) in one streaming pass and *logically* truncates a torn
/// tail: the mapping covers the valid prefix only, and
/// [`SketchPile::truncated_bytes`] reports what was ignored. The file itself
/// is never modified by a reader — [`PileWriter::open_append`] performs the
/// physical truncation before new appends.
pub struct SketchPile {
    path: PathBuf,
    map: PileMap,
    index: PileIndex,
    file_len: u64,
}

impl std::fmt::Debug for SketchPile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SketchPile")
            .field("path", &self.path)
            .field("n_series", &self.index.n_series)
            .field("basic_window", &self.index.basic_window)
            .field("segments", &self.index.segs.len())
            .field("valid_len", &self.index.valid_len)
            .finish()
    }
}

impl SketchPile {
    /// Open and validate a pile, mapping its valid prefix.
    pub fn open(path: &Path) -> Result<Self> {
        let file = File::open(path)
            .map_err(|e| Error::Storage(format!("open pile {}: {e}", path.display())))?;
        let file_len = file
            .metadata()
            .map_err(|e| Error::Storage(format!("stat pile: {e}")))?
            .len();
        let map = PileMap::map(&file, file_len as usize)?;
        let index = walk(&map)?;
        Ok(Self {
            path: path.to_path_buf(),
            map,
            index,
            file_len,
        })
    }

    /// Number of series.
    pub fn n_series(&self) -> usize {
        self.index.n_series
    }

    /// Basic-window size.
    pub fn basic_window(&self) -> usize {
        self.index.basic_window
    }

    /// Packed pair count `n(n−1)/2`.
    pub fn pair_count(&self) -> usize {
        self.index.row_values(SegmentKind::PairCorrs)
    }

    /// Windows covered by segments of `kind`.
    pub fn windows(&self, kind: SegmentKind) -> usize {
        self.index.coverage[kind.index()]
    }

    /// Windows answerable by an exact query: stats and correlation coverage.
    pub fn exact_query_windows(&self) -> usize {
        self.windows(SegmentKind::SeriesStats)
            .min(self.windows(SegmentKind::PairCorrs))
    }

    /// Windows answerable by an approximate query: stats and estimate
    /// coverage.
    pub fn approx_query_windows(&self) -> usize {
        self.windows(SegmentKind::SeriesStats)
            .min(self.windows(SegmentKind::PairEsts))
    }

    /// Windows answerable by *some* query method.
    pub fn window_count(&self) -> usize {
        self.exact_query_windows().max(self.approx_query_windows())
    }

    /// Number of valid segments.
    pub fn segment_count(&self) -> usize {
        self.index.segs.len()
    }

    /// Valid bytes (header + complete segments).
    pub fn space_bytes(&self) -> u64 {
        self.index.valid_len as u64
    }

    /// Bytes of torn tail ignored by validation (0 for a clean file).
    pub fn truncated_bytes(&self) -> u64 {
        self.file_len - self.index.valid_len as u64
    }

    /// Whether the backing map is a real `mmap` (false on the owned-buffer
    /// fallback).
    pub fn is_mmap(&self) -> bool {
        self.map.is_mmap()
    }

    /// Path of the pile file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn check_windows(&self, kind: SegmentKind, windows: &Range<usize>) -> Result<()> {
        if windows.start >= windows.end || windows.end > self.windows(kind) {
            return Err(Error::SketchMismatch {
                requested: format!("{kind:?} windows {windows:?}"),
                available: format!("{kind:?} windows 0..{}", self.windows(kind)),
            });
        }
        Ok(())
    }

    /// Iterate `(payload byte offset, window count)` runs of rows covering
    /// `windows` for `kind`, in window order. Coverage is gapless by the
    /// append discipline, so the runs tile the range exactly.
    fn row_runs(&self, kind: SegmentKind, windows: &Range<usize>) -> Vec<(usize, usize)> {
        let row_bytes = self.index.row_values(kind) * 8;
        let mut runs = Vec::new();
        for seg in self.index.segs.iter().filter(|s| s.kind == kind) {
            let seg_end = seg.first_window + seg.n_windows;
            if seg_end <= windows.start || seg.first_window >= windows.end {
                continue;
            }
            let from = windows.start.max(seg.first_window);
            let to = windows.end.min(seg_end);
            runs.push((
                seg.payload_off + (from - seg.first_window) * row_bytes,
                to - from,
            ));
        }
        runs
    }

    /// Decode the per-series window statistics for `windows`, series-major
    /// (`out[series][k]`). Statistics are small (3 values per series per
    /// window) — this is the only decoding the pile read path ever does.
    pub fn series_stats(&self, windows: Range<usize>) -> Result<Vec<Vec<WindowStats>>> {
        self.check_windows(SegmentKind::SeriesStats, &windows)?;
        let n = self.index.n_series;
        let row_values = self.index.row_values(SegmentKind::SeriesStats);
        let mut out: Vec<Vec<WindowStats>> =
            (0..n).map(|_| Vec::with_capacity(windows.len())).collect();
        for (off, n_windows) in self.row_runs(SegmentKind::SeriesStats, &windows) {
            let rows = self.map.f64s(off, n_windows * row_values)?;
            for row in rows.chunks_exact(row_values) {
                // The triples `encode_series_stats` wrote.
                for (i, stats) in out.iter_mut().enumerate() {
                    stats.push(WindowStats {
                        len: row[i * 3] as usize,
                        mean: row[i * 3 + 1],
                        std: row[i * 3 + 2],
                    });
                }
            }
        }
        Ok(out)
    }

    /// The full-width window-major pair table for `windows`: one slice per
    /// row, borrowed from the mapping — zero-copy for every range, whichever
    /// segments its rows lie in.
    /// `kind` must be [`SegmentKind::PairCorrs`] or [`SegmentKind::PairEsts`];
    /// asking for a table the pile does not cover is a typed
    /// [`Error::SketchMismatch`] (e.g. exact queries against an
    /// estimates-only pile).
    pub fn pair_table(&self, windows: Range<usize>, kind: SegmentKind) -> Result<PileCorrs<'_>> {
        if kind == SegmentKind::SeriesStats {
            return Err(Error::Storage(
                "series-stats segments are not a pair table".into(),
            ));
        }
        self.check_windows(kind, &windows)?;
        let pairs = self.pair_count();
        let mut rows = Vec::with_capacity(windows.len());
        for (off, n_windows) in self.row_runs(kind, &windows) {
            // Covered windows imply `pairs > 0`: `walk` admits no segment of
            // zero-width rows.
            rows.extend(self.map.f64s(off, n_windows * pairs)?.chunks_exact(pairs));
        }
        Ok(PileCorrs::Rows { pairs, rows })
    }

    /// Rewrite the pile at `path` with live segments coalesced: each kind's
    /// rows are rewritten in chunks of whole windows of at most 1 MiB (the
    /// copy buffer's bound), one segment per chunk — so a kind under 1 MiB
    /// becomes a single segment and a larger kind fewer, larger ones.
    /// Per-segment header overhead and the length of the segment index drop
    /// accordingly; reads cost the same before and after, since a range is
    /// served row by row from the mapping however many segments it spans.
    /// The rewrite goes through a temp file in the same
    /// directory and replaces the original with an atomic rename, so readers
    /// that already mapped the old file keep a valid (old) view and a crash
    /// leaves either the old or the new pile intact.
    pub fn compact(path: &Path) -> Result<CompactStats> {
        let src = SketchPile::open(path)?;
        let before = CompactStats {
            segments_before: src.segment_count(),
            segments_after: 0,
            bytes_before: src.space_bytes(),
            bytes_after: 0,
        };
        let tmp_path = path.with_extension("pile-compact-tmp");
        let mut writer = PileWriter::create(&tmp_path, src.n_series(), src.basic_window())?;
        let mut segments_after = 0usize;
        for kind in SegmentKind::ALL {
            let total = src.windows(kind);
            if total == 0 {
                continue;
            }
            let row_values = src.index.row_values(kind);
            // Bound the copy buffer: rewrite in chunks of whole windows.
            let chunk_windows = (1usize << 20) / (row_values * 8).max(1);
            let chunk_windows = chunk_windows.clamp(1, total);
            let mut start = 0;
            let mut buf = Vec::with_capacity(chunk_windows * row_values);
            while start < total {
                let end = (start + chunk_windows).min(total);
                buf.clear();
                for (off, n_windows) in src.row_runs(kind, &(start..end)) {
                    buf.extend_from_slice(src.map.f64s(off, n_windows * row_values)?);
                }
                writer.append(kind, &buf)?;
                segments_after += 1;
                start = end;
            }
        }
        let bytes_after = writer.len_bytes();
        writer.finish()?;
        drop(src);
        std::fs::rename(&tmp_path, path)
            .map_err(|e| Error::Storage(format!("compact rename: {e}")))?;
        // Best-effort directory sync so the rename itself is durable.
        if let Some(parent) = path.parent() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(CompactStats {
            segments_after,
            bytes_after,
            ..before
        })
    }
}

/// The mapped pile as a [`CorrSource`]: per-method capability comes from
/// segment coverage (an estimates-only pile reports zero exact windows and
/// vice versa), and the lent tables are the pile's own zero-copy
/// [`SketchPile::pair_table`]: rows of the mapping, at any size.
impl CorrSource for SketchPile {
    fn series_count(&self) -> usize {
        self.n_series()
    }

    fn window_count(&self, method: PlanMethod) -> usize {
        match method {
            PlanMethod::Exact => self.exact_query_windows(),
            PlanMethod::Approximate => self.approx_query_windows(),
        }
    }

    fn series_stats(&self, windows: Range<usize>) -> Result<Vec<Vec<WindowStats>>> {
        SketchPile::series_stats(self, windows)
    }

    fn full_table(
        &self,
        windows: Range<usize>,
        method: PlanMethod,
    ) -> Result<Option<PairTable<'_>>> {
        let kind = match method {
            PlanMethod::Exact => SegmentKind::PairCorrs,
            PlanMethod::Approximate => SegmentKind::PairEsts,
        };
        self.pair_table(windows, kind).map(Some)
    }
}

// ---------------------------------------------------------------------------
// Threaded pile writer (database-worker backend)
// ---------------------------------------------------------------------------

/// One window-major slab of rows bound for the pile, produced by the sketch
/// phase. The database worker coalesces consecutive same-kind slabs into one
/// segment append.
#[derive(Debug, Clone)]
pub enum PileSlab {
    /// `(len, mean, std)` triples, window-major.
    Stats(Vec<f64>),
    /// Per-pair per-window correlations, window-major.
    Corrs(Vec<f64>),
    /// Per-pair per-window Equation 3 estimates, window-major.
    Ests(Vec<f64>),
}

impl PileSlab {
    fn kind(&self) -> SegmentKind {
        match self {
            PileSlab::Stats(_) => SegmentKind::SeriesStats,
            PileSlab::Corrs(_) => SegmentKind::PairCorrs,
            PileSlab::Ests(_) => SegmentKind::PairEsts,
        }
    }

    fn values(&self) -> &[f64] {
        match self {
            PileSlab::Stats(v) | PileSlab::Corrs(v) | PileSlab::Ests(v) => v,
        }
    }

    fn into_values(self) -> Vec<f64> {
        match self {
            PileSlab::Stats(v) | PileSlab::Corrs(v) | PileSlab::Ests(v) => v,
        }
    }
}

/// When the database worker forces written data down to the device.
///
/// Syncing only once, after the channel closes, means a crash mid-sketch can
/// lose every slab reported as "written". The knob makes the trade explicit:
/// [`SyncPolicy::OnSwap`] bounds the loss window to one coalesced append at
/// the cost of an `fdatasync` each; the default syncs once at shutdown.
/// Either way the number of syncs actually issued is surfaced in
/// [`PileWriterStats::syncs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Sync once, when the writer drains the channel and shuts down.
    #[default]
    OnShutdown,
    /// Sync after every coalesced segment append, plus the final one at
    /// shutdown.
    OnSwap,
}

/// Default coalescing limit of the threaded pile writer, in `f64` values per
/// segment append (64 Ki values = 512 KiB payloads).
pub const DEFAULT_PILE_COALESCE_VALUES: usize = 1 << 16;

/// Statistics reported by the threaded pile writer when it finishes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PileWriterStats {
    /// Producer slabs drained from the channel.
    pub slabs: usize,
    /// Segment appends issued (at most `slabs`; fewer when consecutive
    /// same-kind slabs were coalesced).
    pub appends: usize,
    /// Total `f64` values written.
    pub values: usize,
    /// Wall-clock time inside pile writes.
    pub write_time: Duration,
    /// Durability syncs issued per the configured [`SyncPolicy`].
    pub syncs: usize,
}

/// The database worker (paper §3.4, Figure 6): a thread draining
/// window-major [`PileSlab`]s from a bounded channel — so computation
/// workers back off instead of buffering the whole sketch — coalescing
/// consecutive same-kind slabs, and appending them as pile segments. Slabs
/// must be sent in window order per kind (single producer or externally
/// ordered); the channel preserves that order.
pub struct PileBatchWriter {
    sender: Option<SyncSender<PileSlab>>,
    handle: Option<JoinHandle<Result<(PileWriterStats, PileWriter)>>>,
}

impl PileBatchWriter {
    /// Spawn with the default coalescing limit and durability policy.
    pub fn spawn(writer: PileWriter, queue_depth: usize) -> Self {
        Self::spawn_with(
            writer,
            queue_depth,
            DEFAULT_PILE_COALESCE_VALUES,
            SyncPolicy::default(),
        )
    }

    /// Spawn with an explicit coalescing limit (in `f64` values) and
    /// [`SyncPolicy`]. Under [`SyncPolicy::OnSwap`] every segment append is
    /// followed by an `fdatasync`; either policy syncs once more at
    /// shutdown.
    pub fn spawn_with(
        mut writer: PileWriter,
        queue_depth: usize,
        coalesce_values: usize,
        durability: SyncPolicy,
    ) -> Self {
        let (tx, rx) = sync_channel::<PileSlab>(queue_depth.max(1));
        let coalesce = coalesce_values.max(1);
        let handle = std::thread::spawn(move || -> Result<(PileWriterStats, PileWriter)> {
            let mut stats = PileWriterStats::default();
            let mut pending: Option<PileSlab> = None;
            loop {
                let first = match pending.take() {
                    Some(slab) => slab,
                    None => match rx.recv() {
                        Ok(slab) => slab,
                        Err(_) => break,
                    },
                };
                let kind = first.kind();
                stats.slabs += 1;
                let mut buf = first.into_values();
                while buf.len() < coalesce {
                    match rx.try_recv() {
                        Ok(next) if next.kind() == kind => {
                            stats.slabs += 1;
                            buf.extend_from_slice(next.values());
                        }
                        Ok(next) => {
                            pending = Some(next);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                let start = Instant::now();
                writer.append(kind, &buf)?;
                if durability == SyncPolicy::OnSwap {
                    writer.sync()?;
                    stats.syncs += 1;
                }
                stats.write_time += start.elapsed();
                stats.appends += 1;
                stats.values += buf.len();
            }
            let start = Instant::now();
            writer.sync()?;
            stats.syncs += 1;
            stats.write_time += start.elapsed();
            Ok((stats, writer))
        });
        Self {
            sender: Some(tx),
            handle: Some(handle),
        }
    }

    /// A cloneable sender for submitting slabs.
    pub fn sender(&self) -> SyncSender<PileSlab> {
        self.sender
            .as_ref()
            .expect("pile writer already finished")
            .clone()
    }

    /// Close the channel, drain it, sync, and hand back the statistics plus
    /// the underlying [`PileWriter`] (for snapshotting or further appends).
    pub fn finish(mut self) -> Result<(PileWriterStats, PileWriter)> {
        self.sender.take();
        let handle = self.handle.take().expect("pile writer already joined");
        handle
            .join()
            .map_err(|_| Error::Storage("pile writer thread panicked".into()))?
    }
}

impl Drop for PileBatchWriter {
    fn drop(&mut self) {
        self.sender.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_pile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tsubasa-pile-{}-{tag}.pile", std::process::id()))
    }

    fn pair_count(n: usize) -> usize {
        row_values(n).unwrap()[SegmentKind::PairCorrs.index()]
    }

    fn stats_row(n: usize, w: usize) -> Vec<f64> {
        (0..n)
            .flat_map(|i| [10.0, w as f64 + i as f64 * 0.5, 1.0 + i as f64])
            .collect()
    }

    fn corr_row(pairs: usize, w: usize) -> Vec<f64> {
        (0..pairs).map(|p| ((w * pairs + p) as f64).sin()).collect()
    }

    #[test]
    fn round_trips_stats_and_corrs_bit_identically() {
        let path = temp_pile("roundtrip");
        let n = 4;
        let pairs = pair_count(n);
        let mut writer = PileWriter::create(&path, n, 16).unwrap();
        let mut all_corrs = Vec::new();
        for w in 0..5 {
            writer
                .append(SegmentKind::SeriesStats, &stats_row(n, w))
                .unwrap();
            let row = corr_row(pairs, w);
            all_corrs.extend_from_slice(&row);
            writer.append(SegmentKind::PairCorrs, &row).unwrap();
        }
        let pile = writer.into_pile().unwrap();
        assert_eq!(pile.n_series(), n);
        assert_eq!(pile.basic_window(), 16);
        assert_eq!(pile.exact_query_windows(), 5);
        assert_eq!(pile.approx_query_windows(), 0);
        assert_eq!(pile.truncated_bytes(), 0);

        let stats = pile.series_stats(0..5).unwrap();
        assert_eq!(stats.len(), n);
        assert_eq!(stats[2][3].mean, 3.0 + 2.0 * 0.5);
        assert_eq!(stats[1][0].std, 2.0);
        assert_eq!(stats[0][4].len, 10);

        let table = pile.pair_table(0..5, SegmentKind::PairCorrs).unwrap();
        let view = table.view();
        assert_eq!(view.window_count(), 5);
        for w in 0..5 {
            assert_eq!(view.window_row(w), &all_corrs[w * pairs..(w + 1) * pairs]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reads_are_zero_copy_within_and_across_segments() {
        let path = temp_pile("zerocopy");
        let n = 3;
        let pairs = pair_count(n);
        let mut writer = PileWriter::create(&path, n, 8).unwrap();
        // Two separate corr segments of 2 windows each.
        for w0 in [0, 2] {
            let mut rows = corr_row(pairs, w0);
            rows.extend(corr_row(pairs, w0 + 1));
            writer.append(SegmentKind::PairCorrs, &rows).unwrap();
        }
        let pile = writer.into_pile().unwrap();
        // Within one segment, across the boundary, over both: every row is
        // borrowed from the mapping, bit for bit what was appended.
        for range in [0..2, 2..4, 1..3, 0..4] {
            let table = pile
                .pair_table(range.clone(), SegmentKind::PairCorrs)
                .unwrap();
            assert!(table.is_zero_copy(), "{range:?}");
            assert_eq!(table.view().window_count(), range.len());
            for (k, w) in range.enumerate() {
                assert_eq!(table.view().window_row(k), &corr_row(pairs, w)[..]);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn encoded_stats_round_trip_bit_for_bit() {
        // Per series: an ordinary window, a NaN mean, a zero σ (a constant
        // window), a negative zero and the smallest subnormal.
        let path = temp_pile("stats-codec");
        let window = |w: usize| {
            vec![
                WindowStats {
                    len: 16,
                    mean: 0.25 * w as f64 - 3.0,
                    std: 1.5,
                },
                WindowStats {
                    len: 16,
                    mean: f64::NAN,
                    std: 0.75,
                },
                WindowStats {
                    len: 16,
                    mean: 7.0,
                    std: 0.0,
                },
                WindowStats {
                    len: 16,
                    mean: -0.0,
                    std: f64::from_bits(1),
                },
            ]
        };
        let mut writer = PileWriter::create(&path, 4, 16).unwrap();
        writer
            .append(SegmentKind::SeriesStats, &encode_series_stats(&window(0)))
            .unwrap();
        // Two windows in one segment, window-major.
        let two: Vec<WindowStats> = window(1).into_iter().chain(window(2)).collect();
        writer
            .append(SegmentKind::SeriesStats, &encode_series_stats(&two))
            .unwrap();
        let decoded = writer.into_pile().unwrap().series_stats(0..3).unwrap();
        let bits = |st: &WindowStats| (st.len, st.mean.to_bits(), st.std.to_bits());
        for (i, series) in decoded.iter().enumerate() {
            assert_eq!(series.len(), 3);
            for (w, st) in series.iter().enumerate() {
                assert_eq!(bits(st), bits(&window(w)[i]), "series {i}, window {w}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_tables_and_bad_ranges_are_typed_errors() {
        let path = temp_pile("typed-errors");
        let mut writer = PileWriter::create(&path, 3, 8).unwrap();
        writer
            .append(SegmentKind::SeriesStats, &stats_row(3, 0))
            .unwrap();
        let pile = writer.into_pile().unwrap();
        assert!(matches!(
            pile.pair_table(0..1, SegmentKind::PairCorrs),
            Err(Error::SketchMismatch { .. })
        ));
        assert!(matches!(
            pile.pair_table(0..1, SegmentKind::SeriesStats),
            Err(Error::Storage(_))
        ));
        assert!(pile.series_stats(0..0).is_err());
        assert!(pile.series_stats(0..2).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_rejects_partial_rows_and_empty_is_noop() {
        let path = temp_pile("partial");
        let mut writer = PileWriter::create(&path, 3, 8).unwrap();
        assert!(writer.append(SegmentKind::PairCorrs, &[1.0, 2.0]).is_err());
        assert_eq!(writer.append(SegmentKind::PairCorrs, &[]).unwrap(), 0);
        assert_eq!(writer.coverage(SegmentKind::PairCorrs), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_append_resumes_coverage() {
        let path = temp_pile("resume");
        let pairs = pair_count(3);
        let mut writer = PileWriter::create(&path, 3, 8).unwrap();
        writer
            .append(SegmentKind::PairCorrs, &corr_row(pairs, 0))
            .unwrap();
        writer.finish().unwrap();

        let mut writer = PileWriter::open_append(&path).unwrap();
        assert_eq!(writer.coverage(SegmentKind::PairCorrs), 1);
        writer
            .append(SegmentKind::PairCorrs, &corr_row(pairs, 1))
            .unwrap();
        let pile = writer.into_pile().unwrap();
        assert_eq!(pile.windows(SegmentKind::PairCorrs), 2);
        let view = pile.pair_table(0..2, SegmentKind::PairCorrs).unwrap();
        assert_eq!(view.view().window_row(1), &corr_row(pairs, 1)[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_payload_is_cut_at_the_torn_segment() {
        let path = temp_pile("corrupt");
        let pairs = pair_count(3);
        let mut writer = PileWriter::create(&path, 3, 8).unwrap();
        writer
            .append(SegmentKind::PairCorrs, &corr_row(pairs, 0))
            .unwrap();
        let good_len = writer.len_bytes();
        writer
            .append(SegmentKind::PairCorrs, &corr_row(pairs, 1))
            .unwrap();
        writer.finish().unwrap();

        // Flip a payload byte of the second segment: its checksum fails, so
        // validation keeps only the first segment.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = good_len as usize + SEG_HEADER_LEN + 3;
        bytes[idx] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let pile = SketchPile::open(&path).unwrap();
        assert_eq!(pile.windows(SegmentKind::PairCorrs), 1);
        assert_eq!(pile.space_bytes(), good_len);
        assert!(pile.truncated_bytes() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_pile_files_are_rejected() {
        let path = temp_pile("not-a-pile");
        std::fs::write(&path, b"definitely not a pile file here").unwrap();
        assert!(SketchPile::open(&path).is_err());
        assert!(PileWriter::open_append(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_sees_appends_so_far_and_survives_later_appends() {
        let path = temp_pile("snapshot");
        let pairs = pair_count(4);
        let mut writer = PileWriter::create(&path, 4, 8).unwrap();
        writer
            .append(SegmentKind::PairCorrs, &corr_row(pairs, 0))
            .unwrap();
        let snap = writer.snapshot().unwrap();
        assert_eq!(snap.windows(SegmentKind::PairCorrs), 1);
        writer
            .append(SegmentKind::PairCorrs, &corr_row(pairs, 1))
            .unwrap();
        // The earlier snapshot still serves its prefix (append-only).
        assert_eq!(
            snap.pair_table(0..1, SegmentKind::PairCorrs)
                .unwrap()
                .view()
                .window_row(0),
            &corr_row(pairs, 0)[..]
        );
        let snap2 = writer.snapshot().unwrap();
        assert_eq!(snap2.windows(SegmentKind::PairCorrs), 2);
        writer.finish().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_coalesces_and_preserves_bits() {
        let path = temp_pile("compact");
        let n = 4;
        let pairs = pair_count(n);
        let mut writer = PileWriter::create(&path, n, 8).unwrap();
        for w in 0..6 {
            writer
                .append(SegmentKind::SeriesStats, &stats_row(n, w))
                .unwrap();
            writer
                .append(SegmentKind::PairCorrs, &corr_row(pairs, w))
                .unwrap();
        }
        writer.finish().unwrap();

        let before = SketchPile::open(&path).unwrap();
        let stats_before = before.series_stats(0..6).unwrap();
        let corrs_before: Vec<Vec<f64>> = (0..6)
            .map(|w| {
                before
                    .pair_table(w..w + 1, SegmentKind::PairCorrs)
                    .unwrap()
                    .view()
                    .window_row(0)
                    .to_vec()
            })
            .collect();
        assert_eq!(before.segment_count(), 12);
        drop(before);

        let report = SketchPile::compact(&path).unwrap();
        assert_eq!(report.segments_before, 12);
        assert_eq!(report.segments_after, 2);
        assert!(report.bytes_after < report.bytes_before);

        let after = SketchPile::open(&path).unwrap();
        assert_eq!(after.segment_count(), 2);
        assert_eq!(after.series_stats(0..6).unwrap(), stats_before);
        // Full range is now a single segment: zero-copy again.
        let table = after.pair_table(0..6, SegmentKind::PairCorrs).unwrap();
        assert!(table.is_zero_copy());
        for (w, row) in corrs_before.iter().enumerate() {
            assert_eq!(table.view().window_row(w), &row[..]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_reports_the_segments_it_wrote_for_a_kind_over_one_mib() {
        let path = temp_pile("compact-large");
        // 120 series: 7,140 pairs = 57,120 B per correlation row, so the
        // 1 MiB copy buffer holds 18 windows and 40 windows (2.2 MiB) are
        // rewritten as 18 + 18 + 4.
        let n = 120;
        let pairs = pair_count(n);
        let windows = 40;
        let mut writer = PileWriter::create(&path, n, 8).unwrap();
        for w in 0..windows {
            writer
                .append(SegmentKind::PairCorrs, &corr_row(pairs, w))
                .unwrap();
        }
        writer.finish().unwrap();

        let report = SketchPile::compact(&path).unwrap();
        assert_eq!(report.segments_before, windows);
        let after = SketchPile::open(&path).unwrap();
        assert_eq!(report.segments_after, 3);
        assert_eq!(report.segments_after, after.segment_count());
        assert_eq!(report.bytes_after, after.space_bytes());
        let table = after
            .pair_table(0..windows, SegmentKind::PairCorrs)
            .unwrap();
        assert!(
            table.is_zero_copy(),
            "spanning three segments costs no copy"
        );
        for w in 0..windows {
            assert_eq!(table.view().window_row(w), &corr_row(pairs, w)[..]);
        }
        std::fs::remove_file(&path).ok();
    }

    /// A one-window pile: its only segment header is at `FILE_HEADER_LEN`.
    fn one_window_pile(tag: &str) -> PathBuf {
        let path = temp_pile(tag);
        let mut writer = PileWriter::create(&path, 3, 8).unwrap();
        writer
            .append(SegmentKind::PairCorrs, &corr_row(pair_count(3), 0))
            .unwrap();
        writer.finish().unwrap();
        path
    }

    fn overwrite_u64(path: &Path, off: usize, value: u64) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn a_header_whose_series_count_overflows_the_row_size_is_refused() {
        let path = one_window_pile("hostile-series");
        for n_series in [u64::MAX / 2, u64::MAX, 1 << 62, 1 << 33] {
            overwrite_u64(&path, 16, n_series);
            assert!(
                matches!(SketchPile::open(&path), Err(Error::Storage(_))),
                "n_series = {n_series}"
            );
            assert!(matches!(
                PileWriter::open_append(&path),
                Err(Error::Storage(_))
            ));
        }
        assert!(PileWriter::create(&path, usize::MAX / 2, 8).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_segment_whose_window_count_overflows_ends_the_valid_prefix() {
        let (path, seg) = (one_window_pile("hostile-windows"), FILE_HEADER_LEN);
        for n_windows in [u64::MAX / 3, u64::MAX, u64::MAX / 24 + 1] {
            overwrite_u64(&path, seg + 16, n_windows);
            let pile = SketchPile::open(&path).unwrap();
            assert_eq!(pile.segment_count(), 0, "n_windows = {n_windows}");
            assert_eq!(pile.space_bytes(), FILE_HEADER_LEN as u64);
            assert!(pile.truncated_bytes() > 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_segment_whose_payload_runs_past_the_address_space_ends_the_valid_prefix() {
        let (path, seg) = (one_window_pile("hostile-payload"), FILE_HEADER_LEN);
        // The largest window count whose payload length still fits a
        // `usize`: only `payload_off + payload_len` overflows.
        let n_windows = (usize::MAX / (pair_count(3) * 8)) as u64;
        overwrite_u64(&path, seg + 16, n_windows);
        overwrite_u64(&path, seg + 24, n_windows * (pair_count(3) * 8) as u64);
        let pile = SketchPile::open(&path).unwrap();
        assert_eq!(pile.segment_count(), 0);
        assert_eq!(PileWriter::open_append(&path).unwrap().len_bytes(), 64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_refuses_a_file_cut_below_the_watermark() {
        let path = temp_pile("snapshot-cut");
        let pairs = pair_count(4);
        let mut writer = PileWriter::create(&path, 4, 8).unwrap();
        writer
            .append(SegmentKind::PairCorrs, &corr_row(pairs, 0))
            .unwrap();
        let cut = writer.len_bytes() - 1;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();
        assert!(matches!(writer.snapshot(), Err(Error::Storage(_))));
        assert!(matches!(writer.into_pile(), Err(Error::Storage(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_writer_coalesces_same_kind_slabs_in_order() {
        let path = temp_pile("batch");
        let pairs = pair_count(4);
        let writer = PileWriter::create(&path, 4, 8).unwrap();
        let batch = PileBatchWriter::spawn_with(writer, 8, usize::MAX, SyncPolicy::OnSwap);
        let tx = batch.sender();
        tx.send(PileSlab::Stats(stats_row(4, 0))).unwrap();
        for w in 0..4 {
            tx.send(PileSlab::Corrs(corr_row(pairs, w))).unwrap();
        }
        drop(tx);
        let (stats, writer) = batch.finish().unwrap();
        assert_eq!(stats.slabs, 5);
        assert!(stats.appends <= stats.slabs);
        assert_eq!(stats.values, 4 * 3 + 4 * pairs);
        assert!(stats.syncs >= stats.appends, "OnSwap syncs per append");

        let pile = writer.into_pile().unwrap();
        assert_eq!(pile.windows(SegmentKind::SeriesStats), 1);
        assert_eq!(pile.windows(SegmentKind::PairCorrs), 4);
        for w in 0..4 {
            assert_eq!(
                pile.pair_table(w..w + 1, SegmentKind::PairCorrs)
                    .unwrap()
                    .view()
                    .window_row(0),
                &corr_row(pairs, w)[..]
            );
        }
        std::fs::remove_file(&path).ok();
    }

    const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

    /// XXH64 as its specification spells it: byte input, seed 0, the
    /// 32-byte stripe loop and the 8-, 4- and 1-byte tails.
    fn xxh64_reference(bytes: &[u8]) -> u64 {
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let half = |at: usize| u64::from(u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()));
        let mut at = 0;
        let mut h = if bytes.len() >= 32 {
            let mut v = [
                XXH_P1.wrapping_add(XXH_P2),
                XXH_P2,
                0,
                XXH_P1.wrapping_neg(),
            ];
            while at + 32 <= bytes.len() {
                for (lane, v) in v.iter_mut().enumerate() {
                    *v = xxh_round(*v, word(at + 8 * lane));
                }
                at += 32;
            }
            let mut h = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            for lane in v {
                h = xxh_merge(h, lane);
            }
            h
        } else {
            XXH_P5
        };
        h = h.wrapping_add(bytes.len() as u64);
        while at + 8 <= bytes.len() {
            h ^= xxh_round(0, word(at));
            h = h.rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
            at += 8;
        }
        if at + 4 <= bytes.len() {
            h ^= half(at).wrapping_mul(XXH_P1);
            h = h.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
            at += 4;
        }
        for &b in &bytes[at..] {
            h ^= u64::from(b).wrapping_mul(XXH_P5);
            h = h.rotate_left(11).wrapping_mul(XXH_P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(XXH_P2);
        h ^= h >> 29;
        h = h.wrapping_mul(XXH_P3);
        h ^ (h >> 32)
    }

    #[test]
    fn checksum_is_xxh64_over_the_header_stripe_and_the_little_endian_payload() {
        assert_eq!(xxh64_reference(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64_reference(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64_reference(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64_reference(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );

        // Every length from empty through three stripes and a tail, over
        // arbitrary bit patterns (NaNs, subnormals and infinities included).
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let values: Vec<f64> = (0..=100)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f64::from_bits(state)
            })
            .collect();
        let head: Vec<u8> = (0..32u8).map(|b| b.wrapping_mul(157) ^ 0xA5).collect();
        for len in 0..=values.len() {
            let values = &values[..len];
            let bytes: Vec<u8> = head
                .iter()
                .copied()
                .chain(values.iter().flat_map(|v| v.to_le_bytes()))
                .collect();
            assert_eq!(
                checksum(&head, values),
                xxh64_reference(&bytes),
                "{len} values"
            );
        }
    }
}
