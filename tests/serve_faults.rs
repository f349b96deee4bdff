//! Protocol fault injection for the serve crate (PR 7).
//!
//! The server must treat the network as hostile: truncated frames, oversized
//! length prefixes, unknown opcodes, random bytes, and mid-request
//! disconnects must each produce a typed `0xEE` error frame or a clean
//! close — never a panic, never a wedged worker. After every fault the
//! server must still answer a well-formed request on a fresh connection.
//!
//! * deterministic tests pin each fault class and the exact error code it
//!   maps to;
//! * a 64-case property suite drives a malformed-frame generator (mutation
//!   of a valid request) against one long-lived server;
//! * the client side gets the same treatment without a socket: mutated valid
//!   response payloads (every truncation, an inflated count, trailing bytes,
//!   a random body under each opcode) decode to a typed error or to the very
//!   response their bytes spell, and a hostile pair count fails before the
//!   decoder allocates for it.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use tsubasa_core::SeriesCollection;
use tsubasa_dft::sketch::{DftSketchSet, Transform};
use tsubasa_parallel::WorkerPool;
use tsubasa_serve::proto::{
    decode_response, encode_request, encode_response, read_frame, write_frame, MAX_REQUEST_FRAME,
    MAX_RESPONSE_FRAME,
};
use tsubasa_serve::{
    server, DeltaReply, EpochStore, ErrorCode, Method, PlanCache, ProtoError, QueryEngine, Request,
    Response, ServeClient, ServerHandle, StatsReply,
};

// Counts each thread's allocations, for the hostile-count guards below.
#[path = "support/counting_alloc.rs"]
#[allow(dead_code)]
mod counting_alloc;
use counting_alloc::gross;

const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn lcg_series(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0;
            (i as f64 * 0.31).sin() + noise * 0.5
        })
        .collect()
}

/// One server shared by the whole suite: if any fault wedged or killed it,
/// every later test's follow-up request would fail.
fn fixture() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| {
        let c =
            SeriesCollection::from_rows((0..4).map(|s| lcg_series(90 + s as u64, 80)).collect())
                .unwrap();
        let dft = DftSketchSet::build(&c, 20, 20, Transform::Naive).unwrap();
        let store = Arc::new(EpochStore::new(8));
        store.publish(Some(dft.base().clone()), Some(dft)).unwrap();
        let engine = Arc::new(QueryEngine::new(
            store,
            Arc::new(PlanCache::new(16)),
            Arc::new(WorkerPool::new(2)),
        ));
        server::start(engine, "127.0.0.1:0").unwrap()
    })
}

fn addr() -> SocketAddr {
    fixture().local_addr()
}

fn raw_conn() -> TcpStream {
    let s = TcpStream::connect(addr()).unwrap();
    s.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// A well-formed request must succeed — proves the server is still serving.
fn assert_still_serving() {
    let mut client = ServeClient::connect(addr()).unwrap();
    client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.epoch >= 1);
    let net = client.network(Method::Exact, 0, 0.5).unwrap();
    assert_eq!(net.nodes, 4);
}

/// Read one response frame off a raw connection.
fn read_response(stream: &mut TcpStream) -> Response {
    loop {
        match read_frame(stream, MAX_RESPONSE_FRAME).unwrap() {
            Some(payload) => return decode_response(&payload).unwrap(),
            None => continue, // idle timeout tick
        }
    }
}

fn expect_error(resp: Response, code: ErrorCode) {
    match resp {
        Response::Error { code: got, .. } => assert_eq!(got, code),
        other => panic!("expected {code:?} error frame, got {other:?}"),
    }
}

#[test]
fn unknown_opcode_is_typed_and_connection_survives() {
    let mut s = raw_conn();
    write_frame(&mut s, &[0x7f, 1, 2, 3]).unwrap();
    expect_error(read_response(&mut s), ErrorCode::UnknownOpcode);

    // The same connection keeps working: framing never lost sync.
    write_frame(&mut s, &encode_request(&Request::Stats)).unwrap();
    assert!(matches!(read_response(&mut s), Response::Stats(_)));
    assert_still_serving();
}

#[test]
fn malformed_body_is_typed_and_connection_survives() {
    let mut s = raw_conn();
    // Network opcode with a truncated body (needs method + windows + theta).
    write_frame(&mut s, &[0x01, 0x00]).unwrap();
    expect_error(read_response(&mut s), ErrorCode::Malformed);

    write_frame(&mut s, &encode_request(&Request::Stats)).unwrap();
    assert!(matches!(read_response(&mut s), Response::Stats(_)));
    assert_still_serving();
}

#[test]
fn empty_frame_is_malformed_and_connection_survives() {
    let mut s = raw_conn();
    write_frame(&mut s, &[]).unwrap();
    expect_error(read_response(&mut s), ErrorCode::Malformed);

    write_frame(&mut s, &encode_request(&Request::Stats)).unwrap();
    assert!(matches!(read_response(&mut s), Response::Stats(_)));
    assert_still_serving();
}

#[test]
fn oversized_length_prefix_is_answered_then_closed() {
    let mut s = raw_conn();
    // A length prefix beyond the request cap: the server cannot resync past
    // a frame it refuses to read, so it answers and hangs up.
    let huge = (MAX_REQUEST_FRAME + 1).to_le_bytes();
    s.write_all(&huge).unwrap();
    expect_error(read_response(&mut s), ErrorCode::Malformed);

    // The connection is now closed (EOF, not a hang).
    match read_frame(&mut s, MAX_RESPONSE_FRAME) {
        Err(_) => {}
        Ok(other) => panic!("expected close after oversized frame, got {other:?}"),
    }
    assert_still_serving();
}

#[test]
fn mid_request_disconnect_does_not_wedge_the_server() {
    // Claim a 64-byte frame, deliver 3 bytes, vanish.
    let mut s = raw_conn();
    s.write_all(&64u32.to_le_bytes()).unwrap();
    s.write_all(&[0x01, 0x02, 0x03]).unwrap();
    drop(s);

    // Half a length prefix, then vanish.
    let mut s = raw_conn();
    s.write_all(&[0x10, 0x00]).unwrap();
    drop(s);

    assert_still_serving();
}

#[test]
fn query_rejections_are_query_errors_not_closes() {
    let mut s = raw_conn();
    // θ outside [-1, 1] is a query-level rejection.
    write_frame(
        &mut s,
        &encode_request(&Request::Network {
            method: Method::Exact,
            last_windows: 0,
            theta: 2.5,
        }),
    )
    .unwrap();
    expect_error(read_response(&mut s), ErrorCode::Query);

    // More trailing windows than the epoch holds.
    write_frame(
        &mut s,
        &encode_request(&Request::TopK {
            method: Method::Exact,
            last_windows: 10_000,
            k: 3,
        }),
    )
    .unwrap();
    expect_error(read_response(&mut s), ErrorCode::Query);

    // Same connection, valid request: still in sync.
    write_frame(&mut s, &encode_request(&Request::Stats)).unwrap();
    assert!(matches!(read_response(&mut s), Response::Stats(_)));
}

/// How a generated case corrupts its valid request frame.
const MUT_TRUNCATE: u8 = 0;
const MUT_INFLATE_PREFIX: u8 = 1;
const MUT_BAD_OPCODE: u8 = 2;
const MUT_RANDOM_BODY: u8 = 3;
const MUT_DISCONNECT: u8 = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Malformed-frame generator: mutate a valid request frame, throw it at
    /// the server, and require a typed error frame or a clean close — then
    /// prove the server still answers a fresh well-formed request.
    #[test]
    fn prop_malformed_frames_never_kill_the_server(
        kind in 0u8..3,
        last_windows in 0u32..4,
        theta in -0.9f64..0.9,
        k in 0u32..8,
        mutation in 0u8..5,
        cut in 1usize..12,
        opcode in 0x04u8..0xff,
        body in collection::vec(0u8..255, 0..48),
    ) {
        let request = match kind {
            0 => Request::Network { method: Method::Exact, last_windows, theta },
            1 => Request::TopK { method: Method::Approximate, last_windows, k },
            _ => Request::Stats,
        };
        let payload = encode_request(&request);
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);

        let mut s = raw_conn();
        match mutation {
            MUT_TRUNCATE => {
                // Deliver a strict prefix of the frame, then hang up: the
                // server sees a mid-frame EOF and must drop the connection.
                let keep = cut.min(frame.len() - 1);
                let _ = s.write_all(&frame[..keep]);
                drop(s);
            }
            MUT_INFLATE_PREFIX => {
                // Length prefix beyond the cap: typed error, then close.
                let inflated = MAX_REQUEST_FRAME + 1 + cut as u32;
                let _ = s.write_all(&inflated.to_le_bytes());
                expect_error(read_response(&mut s), ErrorCode::Malformed);
            }
            MUT_BAD_OPCODE => {
                // Valid framing, unknown opcode byte: typed error, and the
                // connection keeps working.
                let mut p = payload.clone();
                p[0] = opcode;
                write_frame(&mut s, &p).unwrap();
                expect_error(read_response(&mut s), ErrorCode::UnknownOpcode);
                write_frame(&mut s, &encode_request(&Request::Stats)).unwrap();
                prop_assert!(matches!(read_response(&mut s), Response::Stats(_)));
            }
            MUT_RANDOM_BODY => {
                // A known opcode with random body bytes: either it happens to
                // decode (any response is fine) or it is a typed Malformed
                // error. Never a close, never a hang.
                let mut p = vec![if kind == 0 { 0x01 } else { 0x02 }];
                p.extend_from_slice(&body);
                write_frame(&mut s, &p).unwrap();
                let resp = read_response(&mut s);
                if let Response::Error { code, .. } = &resp {
                    prop_assert!(
                        matches!(code, ErrorCode::Malformed | ErrorCode::Query),
                        "unexpected error class {code:?}"
                    );
                }
                write_frame(&mut s, &encode_request(&Request::Stats)).unwrap();
                prop_assert!(matches!(read_response(&mut s), Response::Stats(_)));
            }
            MUT_DISCONNECT => {
                // Valid frame claimed, partial body delivered, disconnect.
                let keep = 4 + (cut.min(payload.len().saturating_sub(1)));
                let _ = s.write_all(&frame[..keep.min(frame.len())]);
                drop(s);
            }
            _ => unreachable!("mutation selector out of range"),
        }

        // The fault above must not have taken the server down.
        assert_still_serving();
    }
}

// ---------------------------------------------------------------------------
// Response payloads: the client's decoder faces the same hostile bytes.
// ---------------------------------------------------------------------------

/// `head`, then a pair count claiming `u32::MAX` pairs, then only `tail`
/// body bytes.
fn hostile(head: &[u8], tail: usize) -> Vec<u8> {
    let mut p = head.to_vec();
    p.extend_from_slice(&u32::MAX.to_le_bytes());
    p.extend(std::iter::repeat_n(0xA5u8, tail));
    p
}

/// Everything but the count of a `0x81`/`0x84` header: opcode, epoch,
/// nodes, nan.
fn pair_header(op: u8) -> Vec<u8> {
    let mut h = vec![op];
    h.extend_from_slice(&7u64.to_le_bytes());
    h.extend_from_slice(&256u32.to_le_bytes());
    h.extend_from_slice(&0u64.to_le_bytes());
    h
}

fn assert_hostile_count_refused(payload: &[u8]) {
    let (decoded, allocated, _) = gross(|| decode_response(payload));
    assert!(
        matches!(decoded, Err(ProtoError::BadPayload(_))),
        "a count of u32::MAX over a short body must be BadPayload, got {decoded:?}"
    );
    assert!(
        allocated < 4096,
        "the decoder allocated {allocated} bytes before refusing a hostile count"
    );
}

#[test]
fn hostile_network_count_fails_before_allocating() {
    assert_hostile_count_refused(&hostile(&pair_header(0x81), 16));
}

#[test]
fn hostile_top_k_count_fails_before_allocating() {
    let mut head = vec![0x82];
    head.extend_from_slice(&9u64.to_le_bytes());
    head.extend_from_slice(&0u64.to_le_bytes());
    assert_hostile_count_refused(&hostile(&head, 16));
}

#[test]
fn hostile_delta_counts_fail_before_allocating() {
    // Appeared count hostile.
    assert_hostile_count_refused(&hostile(&pair_header(0x84), 12));
    // Appeared list honest (one pair), vanished count hostile.
    let mut head = pair_header(0x84);
    head.extend_from_slice(&1u32.to_le_bytes());
    head.extend_from_slice(&[1, 0, 0, 0, 2, 0, 0, 0]);
    assert_hostile_count_refused(&hostile(&head, 8));
}

/// A valid response of each opcode, drawn from `words`.
fn sample_response(kind: u8, words: &[u64]) -> Response {
    let w = |k: usize| words.get(k).copied().unwrap_or(k as u64);
    let pairs: Vec<(u32, u32)> = words
        .iter()
        .map(|&x| (x as u32, (x >> 32) as u32))
        .collect();
    match kind {
        0 => Response::Network {
            epoch: w(0),
            nodes: w(1) as u32,
            nan_pairs: w(2),
            edges: pairs,
        },
        1 => Response::TopK {
            epoch: w(0),
            nan_pairs: w(1),
            edges: words
                .iter()
                .map(|&x| (x as u32, x.rotate_left(13) as u32, f64::from_bits(x)))
                .collect(),
        },
        2 => Response::Stats(StatsReply {
            epoch: w(0),
            published: w(1),
            series: w(2) as u32,
            windows: w(3) as u32,
            requests: w(4),
            errors: w(5),
            connections: w(6),
            cache_hits: w(7),
            cache_misses: w(8),
            cache_evictions: w(9),
        }),
        3 => {
            let cut = (w(0) as usize) % (pairs.len() + 1);
            Response::Delta(DeltaReply {
                epoch: w(1),
                nodes: w(2) as u32,
                nan_pairs: w(3),
                appeared: pairs[..cut].to_vec(),
                vanished: pairs[cut..].to_vec(),
            })
        }
        _ => Response::Error {
            code: ErrorCode::Query,
            message: format!("window {} out of range", w(0)),
        },
    }
}

/// Byte offsets of the counts in a valid payload (pair counts and the error
/// message length), read off the payload itself.
fn count_offsets(payload: &[u8]) -> Vec<usize> {
    let at = |o: usize| u32::from_le_bytes(payload[o..o + 4].try_into().unwrap()) as usize;
    match payload[0] {
        0x81 => vec![21],
        0x82 => vec![17],
        0x84 => vec![21, 25 + 8 * at(21)],
        0xEE => vec![2],
        _ => vec![],
    }
}

/// A decoded response is only acceptable if it is exactly what the bytes
/// spell: encoding it again gives the same payload.
fn typed_or_faithful(payload: &[u8]) -> Result<(), TestCaseError> {
    match decode_response(payload) {
        Ok(resp) => prop_assert_eq!(encode_response(&resp), payload.to_vec()),
        Err(ProtoError::BadPayload(_) | ProtoError::UnknownOpcode(_)) => {}
        Err(other) => prop_assert!(false, "decoding a payload gave {other:?}"),
    }
    Ok(())
}

const RESP_TRUNCATE: u8 = 0;
const RESP_INFLATE_COUNT: u8 = 1;
const RESP_TRAILING: u8 = 2;
const RESP_RANDOM_BODY: u8 = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Response-side malformed-payload generator: mutate a valid response
    /// payload and require a typed error or a faithful decode — never a
    /// panic.
    #[test]
    fn prop_malformed_responses_are_typed_errors(
        kind in 0u8..5,
        words in collection::vec(0u64..u64::MAX, 0..24),
        mutation in 0u8..4,
        pick in 0usize..4,
        inflate in 1u32..u32::MAX,
        body in collection::vec(0u8..255, 0..96),
    ) {
        let payload = encode_response(&sample_response(kind, &words));
        match mutation {
            RESP_TRUNCATE => {
                // Every strict prefix is short of its own layout.
                for cut in 0..payload.len() {
                    let cut_payload = &payload[..cut];
                    prop_assert!(
                        matches!(decode_response(cut_payload), Err(ProtoError::BadPayload(_))),
                        "prefix of {cut} bytes did not fail as BadPayload"
                    );
                }
            }
            RESP_INFLATE_COUNT => {
                let offsets = count_offsets(&payload);
                if let Some(&o) = offsets.get(pick % offsets.len().max(1)) {
                    let mut p = payload.clone();
                    let old = u32::from_le_bytes(p[o..o + 4].try_into().unwrap());
                    p[o..o + 4].copy_from_slice(&old.wrapping_add(inflate).to_le_bytes());
                    typed_or_faithful(&p)?;
                    if offsets.last() == Some(&o) && old.checked_add(inflate).is_some() {
                        // The last array now claims more than the body holds.
                        prop_assert!(
                            matches!(decode_response(&p), Err(ProtoError::BadPayload(_))),
                            "an inflated count was accepted"
                        );
                    }
                }
            }
            RESP_TRAILING => {
                let mut p = payload.clone();
                p.extend_from_slice(&body);
                p.push(0);
                prop_assert!(
                    matches!(decode_response(&p), Err(ProtoError::BadPayload(_))),
                    "trailing bytes were accepted"
                );
            }
            RESP_RANDOM_BODY => {
                let mut p = vec![payload[0]];
                p.extend_from_slice(&body);
                typed_or_faithful(&p)?;
            }
            _ => unreachable!("mutation selector out of range"),
        }
    }
}
