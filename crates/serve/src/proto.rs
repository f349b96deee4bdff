//! Wire protocol for the query server: length-prefixed binary frames.
//!
//! Every message is one frame: a little-endian `u32` byte length followed by
//! that many payload bytes. The first payload byte is the opcode; the rest
//! is a fixed-layout body (all integers little-endian, `f64` carried as raw
//! IEEE-754 bits via [`f64::to_bits`] so correlation thresholds and edge
//! weights round-trip **bit-exactly**).
//!
//! | opcode | direction | body |
//! |--------|-----------|------|
//! | `0x01` | request   | network: method `u8`, last_windows `u32`, theta bits `u64` |
//! | `0x02` | request   | top-k: method `u8`, last_windows `u32`, k `u32` |
//! | `0x03` | request   | stats: empty |
//! | `0x04` | request   | subscribe_deltas: method `u8`, theta bits `u64`, max_frames `u32` (≥ 1) |
//! | `0x81` | response  | network: epoch `u64`, nodes `u32`, nan `u64`, count `u32`, `(u32,u32)`×count |
//! | `0x82` | response  | top-k: epoch `u64`, nan `u64`, count `u32`, `(u32,u32,u64)`×count |
//! | `0x83` | response  | stats: ten `u64`/`u32` counters, see [`StatsReply`] |
//! | `0x84` | response  | delta: epoch `u64`, nodes `u32`, nan `u64`, appeared count `u32` + `(u32,u32)`×, vanished count `u32` + `(u32,u32)`× |
//! | `0xEE` | response  | error: code `u8`, message length `u32`, UTF-8 bytes |
//!
//! `subscribe_deltas` is the one request answered by more than one frame: a
//! baseline `0x81` network reply for the latest epoch, then **exactly**
//! `max_frames` `0x84` delta frames — one per newly *observed* epoch
//! publication (if several epochs land between observations, one cumulative
//! delta against the last streamed epoch is emitted). Afterwards the
//! connection returns to normal request–response. See
//! [`crate::server`] for the streaming loop.
//!
//! A frame leaves in one write and its prefix is taken in one read. Each pair
//! array (`0x81`, `0x82`, `0x84`) is coded in bulk: fixed-width slots after one
//! grow, and one bounds check for all `count × width` bytes before anything is
//! allocated. Golden payloads in this module's tests pin the layout above.
//!
//! Decoding is strict: a body shorter or longer than its layout demands is a
//! [`ProtoError::BadPayload`], never a panic or a silent truncation — the
//! `serve_faults` suite drives this with malformed requests and responses.

use std::io::{self, Read, Write};

/// Largest frame a server accepts from a client. Requests are tiny; anything
/// bigger is a garbage or hostile length prefix.
pub const MAX_REQUEST_FRAME: u32 = 4096;

/// Largest frame a client accepts from a server. Edge lists over dense
/// networks can be large, but bounded: 1 GiB is far beyond any n this
/// reproduction handles.
pub const MAX_RESPONSE_FRAME: u32 = 1 << 30;

/// Consecutive mid-frame read timeouts tolerated before the peer is declared
/// stalled; the server gives a reply write that makes no progress the same
/// budget. With the ~25 ms poll interval used by the server this is a
/// multi-second budget — generous for a loopback test harness, finite for a
/// wedged peer.
pub const MID_FRAME_STALL_BUDGET: u32 = 400;

const OP_NETWORK: u8 = 0x01;
const OP_TOP_K: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_SUBSCRIBE: u8 = 0x04;
const OP_NETWORK_REPLY: u8 = 0x81;
const OP_TOP_K_REPLY: u8 = 0x82;
const OP_STATS_REPLY: u8 = 0x83;
const OP_DELTA_REPLY: u8 = 0x84;
const OP_ERROR: u8 = 0xEE;

/// Which sketch method a request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Lemma 1 exact recombination.
    Exact,
    /// Equation 5 DFT-sketch approximation.
    Approximate,
}

impl Method {
    fn to_wire(self) -> u8 {
        match self {
            Method::Exact => 0,
            Method::Approximate => 1,
        }
    }

    fn from_wire(b: u8) -> Result<Self, ProtoError> {
        match b {
            0 => Ok(Method::Exact),
            1 => Ok(Method::Approximate),
            other => Err(ProtoError::BadPayload(format!(
                "unknown method byte 0x{other:02x}"
            ))),
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Build the θ-thresholded correlation network over the trailing
    /// `last_windows` basic windows (`0` = all available windows).
    Network {
        /// Exact or approximate path.
        method: Method,
        /// Trailing window count; `0` selects every available window.
        last_windows: u32,
        /// Correlation threshold θ.
        theta: f64,
    },
    /// Report the k most correlated pairs over the trailing windows.
    TopK {
        /// Exact or approximate path.
        method: Method,
        /// Trailing window count; `0` selects every available window.
        last_windows: u32,
        /// Number of edges requested.
        k: u32,
    },
    /// Fetch server/cache/epoch counters.
    Stats,
    /// Stream edge deltas: a baseline network reply for the latest epoch,
    /// then exactly `max_frames` delta frames, one per newly observed epoch
    /// publication.
    SubscribeDeltas {
        /// Exact or approximate path.
        method: Method,
        /// Correlation threshold θ the streamed edge set is pinned to.
        theta: f64,
        /// Number of delta frames to stream before the connection returns to
        /// request–response. Must be ≥ 1; the server rejects 0 with a
        /// [`ErrorCode::Query`] error frame.
        max_frames: u32,
    },
}

/// Body of a delta response frame: the edge-level change between the
/// previously streamed epoch's network and `epoch`'s, at the subscribed θ.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeltaReply {
    /// Epoch this delta advances the subscriber's snapshot to.
    pub epoch: u64,
    /// Node (series) count of that epoch.
    pub nodes: u32,
    /// Pairs whose correlation was NaN in `epoch`'s network (audited, not
    /// dropped).
    pub nan_pairs: u64,
    /// Edges present in `epoch`'s network but not the previously streamed
    /// one, ascending pair order.
    pub appeared: Vec<(u32, u32)>,
    /// Edges present in the previously streamed network but not `epoch`'s,
    /// ascending pair order.
    pub vanished: Vec<(u32, u32)>,
}

/// Body of a stats response: a point-in-time counter snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Latest published epoch id (0 when none yet).
    pub epoch: u64,
    /// Total epochs ever published.
    pub published: u64,
    /// Series count of the latest epoch.
    pub series: u32,
    /// Window count of the latest epoch.
    pub windows: u32,
    /// Requests served (including ones answered with an error frame).
    pub requests: u64,
    /// Requests answered with an error frame.
    pub errors: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Plan-cache hits: queries whose `(epoch, windows, method)` key was
    /// resident. Every query makes one lookup, so a query answered from its
    /// key's correlation view counts one hit.
    pub cache_hits: u64,
    /// Plan-cache misses: queries that built their key's plan — the key's
    /// first query, which also fills its view when that fits the dense
    /// budget.
    pub cache_misses: u64,
    /// Plan-cache evictions.
    pub cache_evictions: u64,
}

/// Error codes carried by `0xEE` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame decoded but its body was malformed.
    Malformed,
    /// The request opcode is not known to this server.
    UnknownOpcode,
    /// The query itself was rejected (bad θ, window out of range, …).
    Query,
    /// Unexpected internal failure.
    Internal,
    /// No epoch has been published yet.
    UnavailableNoEpoch,
    /// The epoch carries no exact-capable source.
    UnavailableNoExact,
    /// The epoch carries no approximate-capable source.
    UnavailableNoApprox,
}

impl ErrorCode {
    fn to_wire(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnknownOpcode => 2,
            ErrorCode::Query => 3,
            ErrorCode::Internal => 5,
            ErrorCode::UnavailableNoEpoch => 6,
            ErrorCode::UnavailableNoExact => 7,
            ErrorCode::UnavailableNoApprox => 8,
        }
    }

    fn from_wire(b: u8) -> Result<Self, ProtoError> {
        match b {
            1 => Ok(ErrorCode::Malformed),
            2 => Ok(ErrorCode::UnknownOpcode),
            3 => Ok(ErrorCode::Query),
            5 => Ok(ErrorCode::Internal),
            6 => Ok(ErrorCode::UnavailableNoEpoch),
            7 => Ok(ErrorCode::UnavailableNoExact),
            8 => Ok(ErrorCode::UnavailableNoApprox),
            other => Err(ProtoError::BadPayload(format!(
                "unknown error code 0x{other:02x}"
            ))),
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Network query result: the edge list above θ.
    Network {
        /// Epoch the answer was computed against.
        epoch: u64,
        /// Node (series) count of that epoch.
        nodes: u32,
        /// Pairs whose correlation was NaN (audited, not dropped).
        nan_pairs: u64,
        /// Edge endpoints `(i, j)` with `i < j`, ascending pair order.
        edges: Vec<(u32, u32)>,
    },
    /// Top-k query result: ranked edges, strongest first.
    TopK {
        /// Epoch the answer was computed against.
        epoch: u64,
        /// Pairs whose correlation was NaN (audited, not dropped).
        nan_pairs: u64,
        /// `(i, j, corr)` sorted by descending correlation.
        edges: Vec<(u32, u32, f64)>,
    },
    /// Stats snapshot.
    Stats(StatsReply),
    /// One frame of a delta subscription stream.
    Delta(DeltaReply),
    /// Typed failure; the connection stays open unless the transport itself
    /// broke.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Protocol-level failures.
#[derive(Debug)]
pub enum ProtoError {
    /// The peer closed the connection at a clean frame boundary.
    Closed,
    /// The peer closed mid-frame: bytes promised by the length prefix never
    /// arrived.
    Truncated,
    /// The length prefix exceeds the negotiated maximum.
    Oversized {
        /// Length the prefix claimed.
        len: u32,
        /// Maximum this side accepts.
        max: u32,
    },
    /// The peer stopped sending mid-frame for longer than the stall budget.
    Stalled,
    /// The frame's opcode byte is not recognised.
    UnknownOpcode(u8),
    /// The frame's body does not match its opcode's layout.
    BadPayload(String),
    /// Underlying transport error.
    Io(io::Error),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Truncated => write!(f, "frame truncated by peer"),
            ProtoError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            ProtoError::Stalled => write!(f, "peer stalled mid-frame"),
            ProtoError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtoError::BadPayload(msg) => write!(f, "malformed payload: {msg}"),
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------------

pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read exactly `buf.len()` bytes, tolerating up to [`MID_FRAME_STALL_BUDGET`]
/// consecutive read timeouts. `started` reports whether any frame byte had
/// already been consumed (distinguishes clean close from truncation); while
/// it is false, a timeout before the first byte returns `Ok(false)`: no frame
/// has begun.
fn read_exact_patient(
    r: &mut impl Read,
    buf: &mut [u8],
    mut started: bool,
) -> Result<bool, ProtoError> {
    let mut filled = 0usize;
    let mut stalls = 0u32;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if started => return Err(ProtoError::Truncated),
            Ok(0) => return Err(ProtoError::Closed),
            Ok(n) => {
                filled += n;
                started = true;
                stalls = 0;
            }
            Err(e) if is_timeout(&e) && !started => return Ok(false),
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls >= MID_FRAME_STALL_BUDGET {
                    return Err(ProtoError::Stalled);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(true)
}

/// Read one frame's payload. Returns `Ok(None)` when the connection is idle:
/// the *first* byte of the length prefix timed out, meaning no frame has
/// started — callers use this to poll a shutdown flag between frames. Once
/// any byte has arrived the frame must complete: EOF becomes
/// [`ProtoError::Truncated`] and a stall beyond the budget becomes
/// [`ProtoError::Stalled`].
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut prefix = [0u8; 4];
    if !read_exact_patient(r, &mut prefix, false)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(prefix);
    if len > max_len {
        return Err(ProtoError::Oversized { len, max: max_len });
    }
    if len == 0 {
        return Err(ProtoError::BadPayload("empty frame".to_string()));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_patient(r, &mut payload, true)?;
    Ok(Some(payload))
}

/// Write one frame (length prefix + payload) in one `write_all`: on a
/// `TCP_NODELAY` socket a separate prefix write is a segment of its own.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&[&len.to_le_bytes()[..], payload].concat())?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a pair array: its `u32` count, then one `W`-byte slot per item.
fn put_slots<T, const W: usize>(out: &mut Vec<u8>, items: &[T], bytes: impl Fn(&T) -> [u8; W]) {
    put_u32(out, items.len() as u32);
    let start = out.len();
    out.resize(start + items.len() * W, 0);
    for (slot, item) in out[start..].chunks_exact_mut(W).zip(items) {
        slot.copy_from_slice(&bytes(item));
    }
}

/// `(i, j)` as two little-endian `u32`s.
fn pair_bytes(&(i, j): &(u32, u32)) -> [u8; 8] {
    ((u64::from(j) << 32) | u64::from(i)).to_le_bytes()
}

/// `(i, j, corr)` as two little-endian `u32`s and the `f64`'s raw bits.
fn ranked_bytes(&(i, j, corr): &(u32, u32, f64)) -> [u8; 16] {
    ((u128::from(corr.to_bits()) << 64) | (u128::from(j) << 32) | u128::from(i)).to_le_bytes()
}

/// Encode a request into a frame payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Network {
            method,
            last_windows,
            theta,
        } => {
            let mut out = Vec::with_capacity(14);
            out.push(OP_NETWORK);
            out.push(method.to_wire());
            put_u32(&mut out, *last_windows);
            put_u64(&mut out, theta.to_bits());
            out
        }
        Request::TopK {
            method,
            last_windows,
            k,
        } => {
            let mut out = Vec::with_capacity(10);
            out.push(OP_TOP_K);
            out.push(method.to_wire());
            put_u32(&mut out, *last_windows);
            put_u32(&mut out, *k);
            out
        }
        Request::Stats => vec![OP_STATS],
        Request::SubscribeDeltas {
            method,
            theta,
            max_frames,
        } => {
            let mut out = Vec::with_capacity(14);
            out.push(OP_SUBSCRIBE);
            out.push(method.to_wire());
            put_u64(&mut out, theta.to_bits());
            put_u32(&mut out, *max_frames);
            out
        }
    }
}

/// Encode a response into a frame payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Network {
            epoch,
            nodes,
            nan_pairs,
            edges,
        } => {
            let mut out = Vec::with_capacity(25 + edges.len() * 8);
            out.push(OP_NETWORK_REPLY);
            put_u64(&mut out, *epoch);
            put_u32(&mut out, *nodes);
            put_u64(&mut out, *nan_pairs);
            put_slots(&mut out, edges, pair_bytes);
            out
        }
        Response::TopK {
            epoch,
            nan_pairs,
            edges,
        } => {
            let mut out = Vec::with_capacity(21 + edges.len() * 16);
            out.push(OP_TOP_K_REPLY);
            put_u64(&mut out, *epoch);
            put_u64(&mut out, *nan_pairs);
            put_slots(&mut out, edges, ranked_bytes);
            out
        }
        Response::Stats(s) => {
            let mut out = Vec::with_capacity(73);
            out.push(OP_STATS_REPLY);
            put_u64(&mut out, s.epoch);
            put_u64(&mut out, s.published);
            put_u32(&mut out, s.series);
            put_u32(&mut out, s.windows);
            put_u64(&mut out, s.requests);
            put_u64(&mut out, s.errors);
            put_u64(&mut out, s.connections);
            put_u64(&mut out, s.cache_hits);
            put_u64(&mut out, s.cache_misses);
            put_u64(&mut out, s.cache_evictions);
            out
        }
        Response::Delta(d) => {
            let mut out = Vec::with_capacity(29 + (d.appeared.len() + d.vanished.len()) * 8);
            out.push(OP_DELTA_REPLY);
            put_u64(&mut out, d.epoch);
            put_u32(&mut out, d.nodes);
            put_u64(&mut out, d.nan_pairs);
            put_slots(&mut out, &d.appeared, pair_bytes);
            put_slots(&mut out, &d.vanished, pair_bytes);
            out
        }
        Response::Error { code, message } => {
            let bytes = message.as_bytes();
            let mut out = Vec::with_capacity(6 + bytes.len());
            out.push(OP_ERROR);
            out.push(code.to_wire());
            put_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(bytes);
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Payload decoding
// ---------------------------------------------------------------------------

/// Strict cursor over a frame body: every read is bounds-checked and the
/// caller asserts full consumption, so malformed input surfaces as a typed
/// error instead of a panic or an accepted-but-garbled request.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                ProtoError::BadPayload(format!(
                    "body ends at byte {} but layout needs {} more",
                    self.buf.len(),
                    n - (self.buf.len() - self.pos)
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a pair array: its `u32` count, then `count` slots of `W` bytes.
    fn slots<T, const W: usize>(&mut self, f: impl Fn([u8; W]) -> T) -> Result<Vec<T>, ProtoError> {
        let count = self.u32()? as usize;
        let body = self.take(count.saturating_mul(W))?;
        let slot = |s: &[u8]| f(s.try_into().expect("chunks_exact(W)"));
        Ok(body.chunks_exact(W).map(slot).collect())
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::BadPayload(format!(
                "{} trailing bytes after body",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn pair_of(slot: [u8; 8]) -> (u32, u32) {
    let v = u64::from_le_bytes(slot);
    (v as u32, (v >> 32) as u32)
}

fn ranked_of(slot: [u8; 16]) -> (u32, u32, f64) {
    let v = u128::from_le_bytes(slot);
    (v as u32, (v >> 32) as u32, f64::from_bits((v >> 64) as u64))
}

/// Decode a request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let req = match op {
        OP_NETWORK => Request::Network {
            method: Method::from_wire(c.u8()?)?,
            last_windows: c.u32()?,
            theta: f64::from_bits(c.u64()?),
        },
        OP_TOP_K => Request::TopK {
            method: Method::from_wire(c.u8()?)?,
            last_windows: c.u32()?,
            k: c.u32()?,
        },
        OP_STATS => Request::Stats,
        OP_SUBSCRIBE => Request::SubscribeDeltas {
            method: Method::from_wire(c.u8()?)?,
            theta: f64::from_bits(c.u64()?),
            max_frames: c.u32()?,
        },
        other => return Err(ProtoError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(req)
}

/// Decode a response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let resp = match op {
        OP_NETWORK_REPLY => {
            let epoch = c.u64()?;
            let nodes = c.u32()?;
            let nan_pairs = c.u64()?;
            let edges = c.slots(pair_of)?;
            Response::Network {
                epoch,
                nodes,
                nan_pairs,
                edges,
            }
        }
        OP_TOP_K_REPLY => {
            let epoch = c.u64()?;
            let nan_pairs = c.u64()?;
            let edges = c.slots(ranked_of)?;
            Response::TopK {
                epoch,
                nan_pairs,
                edges,
            }
        }
        OP_STATS_REPLY => Response::Stats(StatsReply {
            epoch: c.u64()?,
            published: c.u64()?,
            series: c.u32()?,
            windows: c.u32()?,
            requests: c.u64()?,
            errors: c.u64()?,
            connections: c.u64()?,
            cache_hits: c.u64()?,
            cache_misses: c.u64()?,
            cache_evictions: c.u64()?,
        }),
        OP_DELTA_REPLY => {
            let epoch = c.u64()?;
            let nodes = c.u32()?;
            let nan_pairs = c.u64()?;
            let appeared = c.slots(pair_of)?;
            let vanished = c.slots(pair_of)?;
            Response::Delta(DeltaReply {
                epoch,
                nodes,
                nan_pairs,
                appeared,
                vanished,
            })
        }
        OP_ERROR => {
            let code = ErrorCode::from_wire(c.u8()?)?;
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let message = String::from_utf8(bytes.to_vec())
                .map_err(|_| ProtoError::BadPayload("error message is not UTF-8".to_string()))?;
            Response::Error { code, message }
        }
        other => return Err(ProtoError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Network {
                method: Method::Exact,
                last_windows: 0,
                theta: 0.7,
            },
            Request::Network {
                method: Method::Approximate,
                last_windows: 12,
                theta: -0.25,
            },
            Request::TopK {
                method: Method::Exact,
                last_windows: 3,
                k: 10,
            },
            Request::Stats,
            Request::SubscribeDeltas {
                method: Method::Approximate,
                theta: 0.85,
                max_frames: 4,
            },
        ];
        for req in &reqs {
            let payload = encode_request(req);
            assert_eq!(&decode_request(&payload).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip_bit_exact() {
        let resps = [
            Response::Network {
                epoch: 7,
                nodes: 5,
                nan_pairs: 2,
                edges: vec![(0, 1), (2, 4)],
            },
            Response::TopK {
                epoch: 9,
                nan_pairs: 0,
                edges: vec![(1, 3, 0.9999999999999999), (0, 2, -0.5)],
            },
            Response::Stats(StatsReply {
                epoch: 3,
                published: 3,
                series: 8,
                windows: 6,
                requests: 100,
                errors: 1,
                connections: 4,
                cache_hits: 40,
                cache_misses: 6,
                cache_evictions: 2,
            }),
            Response::Delta(DeltaReply {
                epoch: 12,
                nodes: 6,
                nan_pairs: 1,
                appeared: vec![(0, 3), (2, 5)],
                vanished: vec![(1, 4)],
            }),
            Response::Delta(DeltaReply::default()),
            Response::Error {
                code: ErrorCode::Query,
                message: "theta out of range".to_string(),
            },
        ];
        for resp in &resps {
            let payload = encode_response(resp);
            assert_eq!(&decode_response(&payload).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_bodies_are_typed_errors() {
        // Truncated network request body.
        assert!(matches!(
            decode_request(&[OP_NETWORK, 0, 1, 2]),
            Err(ProtoError::BadPayload(_))
        ));
        // Trailing garbage after a stats request.
        assert!(matches!(
            decode_request(&[OP_STATS, 0xFF]),
            Err(ProtoError::BadPayload(_))
        ));
        // Unknown opcode.
        assert!(matches!(
            decode_request(&[0x42]),
            Err(ProtoError::UnknownOpcode(0x42))
        ));
        // Bad method byte.
        let mut bad = encode_request(&Request::TopK {
            method: Method::Exact,
            last_windows: 1,
            k: 1,
        });
        bad[1] = 9;
        assert!(matches!(
            decode_request(&bad),
            Err(ProtoError::BadPayload(_))
        ));
        // Wire error code 4 is retired (no server emits it): unknown code.
        let mut retired = encode_response(&Response::Error {
            code: ErrorCode::Query,
            message: String::new(),
        });
        retired[1] = 4;
        assert!(matches!(
            decode_response(&retired),
            Err(ProtoError::BadPayload(_))
        ));
    }

    #[test]
    fn frame_reader_flags_truncation_and_oversize() {
        use std::io::Cursor as IoCursor;

        // Clean close at a frame boundary.
        let mut empty = IoCursor::new(Vec::<u8>::new());
        assert!(matches!(
            read_frame(&mut empty, MAX_REQUEST_FRAME),
            Err(ProtoError::Closed)
        ));

        // EOF mid-prefix.
        let mut cut = IoCursor::new(vec![3u8, 0]);
        assert!(matches!(
            read_frame(&mut cut, MAX_REQUEST_FRAME),
            Err(ProtoError::Truncated)
        ));

        // EOF mid-body.
        let mut body_cut = IoCursor::new(vec![5u8, 0, 0, 0, 1, 2]);
        assert!(matches!(
            read_frame(&mut body_cut, MAX_REQUEST_FRAME),
            Err(ProtoError::Truncated)
        ));

        // Hostile length prefix.
        let mut huge = IoCursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut huge, MAX_REQUEST_FRAME),
            Err(ProtoError::Oversized { .. })
        ));

        // A well-formed frame round-trips.
        let mut wire = Vec::new();
        write_frame(&mut wire, &[OP_STATS]).unwrap();
        let mut ok = IoCursor::new(wire);
        assert_eq!(
            read_frame(&mut ok, MAX_REQUEST_FRAME).unwrap().unwrap(),
            vec![OP_STATS]
        );
    }

    /// The per-value encoder the bulk slots replaced, kept as the layout's
    /// reference: `encode_response` must produce exactly its bytes.
    fn reference_encode_response(resp: &Response) -> Vec<u8> {
        let mut out = Vec::new();
        let pairs = |out: &mut Vec<u8>, pairs: &[(u32, u32)]| {
            put_u32(out, pairs.len() as u32);
            for &(i, j) in pairs {
                put_u32(out, i);
                put_u32(out, j);
            }
        };
        match resp {
            Response::Network {
                epoch,
                nodes,
                nan_pairs,
                edges,
            } => {
                out.push(OP_NETWORK_REPLY);
                put_u64(&mut out, *epoch);
                put_u32(&mut out, *nodes);
                put_u64(&mut out, *nan_pairs);
                pairs(&mut out, edges);
            }
            Response::TopK {
                epoch,
                nan_pairs,
                edges,
            } => {
                out.push(OP_TOP_K_REPLY);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *nan_pairs);
                put_u32(&mut out, edges.len() as u32);
                for &(i, j, corr) in edges {
                    put_u32(&mut out, i);
                    put_u32(&mut out, j);
                    put_u64(&mut out, corr.to_bits());
                }
            }
            Response::Stats(s) => {
                out.push(OP_STATS_REPLY);
                put_u64(&mut out, s.epoch);
                put_u64(&mut out, s.published);
                put_u32(&mut out, s.series);
                put_u32(&mut out, s.windows);
                for v in [
                    s.requests,
                    s.errors,
                    s.connections,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_evictions,
                ] {
                    put_u64(&mut out, v);
                }
            }
            Response::Delta(d) => {
                out.push(OP_DELTA_REPLY);
                put_u64(&mut out, d.epoch);
                put_u32(&mut out, d.nodes);
                put_u64(&mut out, d.nan_pairs);
                pairs(&mut out, &d.appeared);
                pairs(&mut out, &d.vanished);
            }
            Response::Error { code, message } => {
                out.push(OP_ERROR);
                out.push(code.to_wire());
                put_u32(&mut out, message.len() as u32);
                out.extend_from_slice(message.as_bytes());
            }
        }
        out
    }

    /// Bytes from a hex string; whitespace separates fields for the reader.
    fn hex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn golden_request_payloads() {
        let golden = [
            (
                Request::Network {
                    method: Method::Exact,
                    last_windows: 12,
                    theta: 0.7,
                },
                "01 00 0c000000 666666666666e63f",
            ),
            (
                Request::TopK {
                    method: Method::Approximate,
                    last_windows: 3,
                    k: 10,
                },
                "02 01 03000000 0a000000",
            ),
            (Request::Stats, "03"),
            (
                Request::SubscribeDeltas {
                    method: Method::Approximate,
                    theta: -0.25,
                    max_frames: 4,
                },
                "04 01 000000000000d0bf 04000000",
            ),
        ];
        for (req, wire) in &golden {
            assert_eq!(encode_request(req), hex(wire), "{req:?}");
            assert_eq!(&decode_request(&hex(wire)).unwrap(), req);
        }
    }

    #[test]
    fn golden_response_payloads() {
        let golden = [
            (
                Response::Network {
                    epoch: 7,
                    nodes: 5,
                    nan_pairs: 2,
                    edges: vec![(0, 1), (2, 0x0102_0304)],
                },
                "81 0700000000000000 05000000 0200000000000000 02000000
                 00000000 01000000  02000000 04030201",
            ),
            (
                Response::Network {
                    epoch: 1,
                    nodes: 0,
                    nan_pairs: 0,
                    edges: vec![],
                },
                "81 0100000000000000 00000000 0000000000000000 00000000",
            ),
            (
                Response::TopK {
                    epoch: 9,
                    nan_pairs: 0,
                    edges: vec![(1, 3, -0.5), (0, u32::MAX, 1.0)],
                },
                "82 0900000000000000 0000000000000000 02000000
                 01000000 03000000 000000000000e0bf
                 00000000 ffffffff 000000000000f03f",
            ),
            (
                Response::Stats(StatsReply {
                    epoch: 3,
                    published: 3,
                    series: 8,
                    windows: 6,
                    requests: 100,
                    errors: 1,
                    connections: 4,
                    cache_hits: 40,
                    cache_misses: 6,
                    cache_evictions: 2,
                }),
                "83 0300000000000000 0300000000000000 08000000 06000000
                 6400000000000000 0100000000000000 0400000000000000
                 2800000000000000 0600000000000000 0200000000000000",
            ),
            (
                Response::Delta(DeltaReply {
                    epoch: 12,
                    nodes: 6,
                    nan_pairs: 1,
                    appeared: vec![(0, 3)],
                    vanished: vec![(1, 4), (2, 5)],
                }),
                "84 0c00000000000000 06000000 0100000000000000
                 01000000 00000000 03000000
                 02000000 01000000 04000000  02000000 05000000",
            ),
            (
                Response::Delta(DeltaReply::default()),
                "84 0000000000000000 00000000 0000000000000000 00000000 00000000",
            ),
            (
                Response::Error {
                    code: ErrorCode::Query,
                    message: "no".to_string(),
                },
                "ee 03 02000000 6e6f",
            ),
        ];
        for (resp, wire) in &golden {
            assert_eq!(encode_response(resp), hex(wire), "{resp:?}");
            assert_eq!(reference_encode_response(resp), hex(wire), "{resp:?}");
            assert_eq!(&decode_response(&hex(wire)).unwrap(), resp);
        }
    }

    /// An index drawn from a word: the edges of the `u32` range, or the
    /// word's low half.
    fn index(w: u64) -> u32 {
        match w >> 61 {
            0 => 0,
            1 => u32::MAX,
            2 => u32::MAX - 1,
            _ => w as u32,
        }
    }

    /// A correlation drawn from a word: NaN with a payload, `-0.0`, `±∞`, or
    /// any bit pattern at all.
    fn corr(w: u64) -> f64 {
        match w >> 60 {
            0 => f64::from_bits(0x7ff0_0000_0000_0001 | (w & 0xf_ffff)),
            1 => f64::from_bits(0xfff8_0000_0000_0000 | (w & 0xff)),
            2 => -0.0,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            _ => f64::from_bits(w.rotate_left(7)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The bulk codec writes the reference's bytes and reads them back
        /// bit for bit, for every pair-array opcode.
        #[test]
        fn prop_bulk_codec_equals_reference(
            epoch in 0u64..u64::MAX,
            nan_pairs in 0u64..u64::MAX,
            node_sel in 0usize..4,
            words in proptest::collection::vec(0u64..u64::MAX, 0..64),
            split in 0usize..64,
            empty in 0u8..4,
        ) {
            let nodes = [0u32, 1, 2, 256][node_sel];
            let words = if empty == 0 { &[][..] } else { &words[..] };
            let pairs: Vec<(u32, u32)> =
                words.iter().map(|&w| (index(w), index(w.rotate_left(29)))).collect();
            let ranked: Vec<(u32, u32, f64)> =
                words.iter().map(|&w| (index(w), index(w.swap_bytes()), corr(w))).collect();
            let cut = split.min(pairs.len());
            let resps = [
                Response::Network { epoch, nodes, nan_pairs, edges: pairs.clone() },
                Response::TopK { epoch, nan_pairs, edges: ranked },
                Response::Delta(DeltaReply {
                    epoch,
                    nodes,
                    nan_pairs,
                    appeared: pairs[..cut].to_vec(),
                    vanished: pairs[cut..].to_vec(),
                }),
            ];
            for resp in &resps {
                let bytes = encode_response(resp);
                proptest::prop_assert_eq!(&bytes, &reference_encode_response(resp));
                // The reference writes every `f64` by its bits, so equal
                // bytes mean a bit-exact round trip, NaN payloads included.
                let back = decode_response(&bytes).unwrap();
                proptest::prop_assert_eq!(reference_encode_response(&back), bytes);
            }
        }
    }

    /// A writer that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_write_per_frame() {
        let request = encode_request(&Request::Network {
            method: Method::Exact,
            last_windows: 0,
            theta: 0.5,
        });
        let reply = encode_response(&Response::Network {
            epoch: 1,
            nodes: 256,
            nan_pairs: 0,
            edges: (0..2_560).map(|k| (k / 256, k % 256)).collect(),
        });
        assert!(reply.len() > 20_000);
        for payload in [&request, &reply] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, 1, "one write for a {}-byte frame", payload.len());
            assert_eq!(w.bytes[..4], (payload.len() as u32).to_le_bytes());
            assert_eq!(&w.bytes[4..], &payload[..]);
        }
    }

    /// One step of a scripted peer: some bytes, or a read timeout.
    enum Step {
        Bytes(Vec<u8>),
        Timeout,
    }

    /// A reader that plays `steps` (a `Bytes` step may be consumed over
    /// several reads) and then either times out forever or reports EOF.
    struct Script {
        steps: std::collections::VecDeque<Step>,
        then_timeout: bool,
        reads: usize,
    }

    impl Script {
        fn new(steps: Vec<Step>, then_timeout: bool) -> Self {
            Self {
                steps: steps.into(),
                then_timeout,
                reads: 0,
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            match self.steps.pop_front() {
                Some(Step::Bytes(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.steps.push_front(Step::Bytes(bytes.split_off(n)));
                    }
                    Ok(n)
                }
                Some(Step::Timeout) => Err(io::ErrorKind::WouldBlock.into()),
                None if self.then_timeout => Err(io::ErrorKind::TimedOut.into()),
                None => Ok(0),
            }
        }
    }

    #[test]
    fn frame_reader_takes_any_split_of_one_frame() {
        let payload = encode_request(&Request::TopK {
            method: Method::Exact,
            last_windows: 2,
            k: 5,
        });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let read = |steps: Vec<Step>| {
            let mut r = Script::new(steps, false);
            let got = read_frame(&mut r, MAX_REQUEST_FRAME).map(|p| p.unwrap());
            (got.unwrap(), r.reads)
        };

        // Prefix and payload in one read: one read for the prefix, one for
        // the payload.
        assert_eq!(read(vec![Step::Bytes(wire.clone())]), (payload.clone(), 2));
        // One byte at a time.
        let bytes = wire.iter().map(|&b| Step::Bytes(vec![b])).collect();
        assert_eq!(read(bytes).0, payload);
        // A timeout after two prefix bytes is patience, not idleness.
        let split = vec![
            Step::Bytes(wire[..2].to_vec()),
            Step::Timeout,
            Step::Bytes(wire[2..].to_vec()),
        ];
        assert_eq!(read(split).0, payload);
    }

    #[test]
    fn frame_reader_keeps_its_typed_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[OP_STATS]).unwrap();
        let prefix_half = || Step::Bytes(wire[..2].to_vec());

        // A timeout before any byte is idleness; the frame still follows.
        let mut r = Script::new(vec![Step::Timeout, Step::Bytes(wire.clone())], false);
        assert!(matches!(read_frame(&mut r, MAX_REQUEST_FRAME), Ok(None)));
        assert_eq!(
            read_frame(&mut r, MAX_REQUEST_FRAME).unwrap(),
            Some(vec![OP_STATS])
        );

        // Two prefix bytes, a timeout, then EOF: truncated.
        let mut r = Script::new(vec![prefix_half(), Step::Timeout], false);
        assert!(matches!(
            read_frame(&mut r, MAX_REQUEST_FRAME),
            Err(ProtoError::Truncated)
        ));

        // Two prefix bytes, then nothing but timeouts: stalled after the
        // budget.
        let mut r = Script::new(vec![prefix_half()], true);
        assert!(matches!(
            read_frame(&mut r, MAX_REQUEST_FRAME),
            Err(ProtoError::Stalled)
        ));
        assert_eq!(r.reads, 1 + MID_FRAME_STALL_BUDGET as usize);

        // EOF before any byte: a clean close.
        let mut r = Script::new(vec![], false);
        assert!(matches!(
            read_frame(&mut r, MAX_REQUEST_FRAME),
            Err(ProtoError::Closed)
        ));
    }
}
