//! No-panic properties of the wire codec: [`Request::parse`] and
//! [`Response::parse`] see untrusted bytes in `pd serve` and its
//! client, so every input — arbitrary bytes, any truncation of a real
//! message, a real message with one byte flipped — must come back as
//! `Ok` or `Err`, never as a panic. A truncated real message must be an
//! `Err`: a strict prefix is never a complete message. Truncations and
//! single-byte edits are enumerated exhaustively over real messages;
//! arbitrary bytes are sampled.

use pd_net::clock::SimTime;
use pd_web::http::{Request, Response, Status};
use proptest::prelude::*;
use proptest::{collection, TestRng};
use std::net::Ipv4Addr;

/// Real messages the daemon and its client exchange.
fn real_requests() -> Vec<Vec<u8>> {
    let addr = Ipv4Addr::new(127, 0, 0, 1);
    vec![
        Request::get("127.0.0.1:7413", "/healthz", addr, SimTime::EPOCH).to_bytes(),
        Request::get("127.0.0.1:7413", "/runs/j-12/report", addr, SimTime::EPOCH)
            .with_header("connection", "keep-alive")
            .to_bytes(),
        Request::post(
            "127.0.0.1:7413",
            "/runs",
            "{\"scenario\":\"smoke\",\"seed\":7,\"profile\":\"smoke\"}",
            addr,
            SimTime::EPOCH,
        )
        .with_header("content-type", "application/json")
        .to_bytes(),
        b"GET http://svc.example/runs?limit=3 HTTP/1.0\nhost: svc.example\n\n".to_vec(),
    ]
}

fn real_responses() -> Vec<Vec<u8>> {
    vec![
        Response::ok("ok\n".to_owned())
            .with_header("content-type", "text/plain; charset=utf-8")
            .with_header("connection", "keep-alive")
            .to_bytes(),
        Response::json("{\"id\": \"j-1\", \"status\": \"queued\"}".to_owned()).to_bytes(),
        Response::json("{\"error\": \"job queue is full\"}\n".to_owned())
            .with_status(Status::ServiceUnavailable)
            .with_header("retry-after", "1")
            .to_bytes(),
        Response::not_found()
            .with_set_cookie("sid", "99")
            .to_bytes(),
    ]
}

/// Bytes drawn with a bias towards the codec's own delimiters, so the
/// parser gets past its first line often enough to exercise headers
/// and bodies.
struct WireBytes;

impl Strategy for WireBytes {
    type Value = Vec<u8>;

    fn sample(&self, rng: &mut TestRng) -> Vec<u8> {
        const PIECES: &[&[u8]] = &[
            b"GET / HTTP/1.1",
            b"HTTP/1.1 200 OK",
            b"\r\n",
            b"\n",
            b": ",
            b"content-length: ",
            b"connection: close",
            b"host: a",
            b"99999999999999999999",
            b" ",
            b"\xff\xfe",
        ];
        let mut out = Vec::new();
        for _ in 0..rng.below(24) {
            if rng.below(2) == 0 {
                out.extend_from_slice(PIECES[rng.below(PIECES.len() as u64) as usize]);
            } else {
                out.push(rng.below(256) as u8);
            }
        }
        out
    }
}

/// Both parsers over one input: they may refuse it, never panic.
fn parse_both(bytes: &[u8]) {
    let _ = Request::parse(bytes);
    let _ = Response::parse(bytes);
}

/// Byte edits for the flip test: bit flips, and overwrites with the
/// codec's delimiters and digits.
fn flipped(message: &[u8], at: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
    const XOR: [u8; 4] = [0x01, 0x20, 0x80, 0xff];
    const SET: [u8; 6] = [b'\n', b'\r', b':', b' ', b'0', b'9'];
    let xors = XOR.into_iter().map(move |mask| message[at] ^ mask);
    xors.chain(SET).map(move |byte| {
        let mut edited = message.to_vec();
        edited[at] = byte;
        edited
    })
}

#[test]
fn real_messages_parse() {
    for bytes in real_requests() {
        Request::parse(&bytes).expect("a real request parses");
    }
    for bytes in real_responses() {
        Response::parse(&bytes).expect("a real response parses");
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(0u8..=255, 0..512)) {
        parse_both(&bytes);
    }

    #[test]
    fn wire_shaped_bytes_never_panic(bytes in WireBytes) {
        parse_both(&bytes);
    }
}

#[test]
fn every_truncation_of_a_real_message_is_an_error() {
    for message in real_requests() {
        for cut in 0..message.len() {
            let prefix = &message[..cut];
            assert!(Request::parse(prefix).is_err(), "request prefix {cut}");
            let _ = Response::parse(prefix);
        }
    }
    for message in real_responses() {
        for cut in 0..message.len() {
            let prefix = &message[..cut];
            assert!(Response::parse(prefix).is_err(), "response prefix {cut}");
            let _ = Request::parse(prefix);
        }
    }
}

#[test]
fn every_single_byte_edit_of_a_real_message_never_panics() {
    for message in real_requests().into_iter().chain(real_responses()) {
        for at in 0..message.len() {
            for edited in flipped(&message, at) {
                parse_both(&edited);
            }
        }
    }
}
