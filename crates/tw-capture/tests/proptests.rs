//! Property-based tests for the wire codec and the HTTP parser.

use proptest::prelude::*;
use tw_capture::wire::{decode_records, encode_records, FrameDecoder};
use tw_model::ids::{Endpoint, OperationId, RpcId, ServiceId};
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;

fn record_strategy() -> impl Strategy<Value = RpcRecord> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<[u64; 4]>(),
        prop::option::of(any::<u32>()),
        prop::option::of(any::<u32>()),
    )
        .prop_map(
            |(rpc, caller, crep, callee, op, krep, ts, t1, t2)| RpcRecord {
                rpc: RpcId(rpc),
                caller: ServiceId(caller),
                caller_replica: crep,
                callee: Endpoint::new(ServiceId(callee), OperationId(op)),
                callee_replica: krep,
                send_req: Nanos(ts[0]),
                recv_req: Nanos(ts[1]),
                send_resp: Nanos(ts[2]),
                recv_resp: Nanos(ts[3]),
                caller_thread: t1,
                callee_thread: t2,
            },
        )
}

proptest! {
    #[test]
    fn wire_round_trip(records in prop::collection::vec(record_strategy(), 0..50)) {
        let encoded = encode_records(&records);
        let decoded = decode_records(encoded).unwrap();
        prop_assert_eq!(decoded, records);
    }

    #[test]
    fn chunked_decoding_equals_whole(
        records in prop::collection::vec(record_strategy(), 1..30),
        chunk in 1usize..97,
    ) {
        let encoded = encode_records(&records);
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for part in encoded.chunks(chunk) {
            dec.feed(part);
            while let Some(r) = dec.next_record().unwrap() {
                out.push(r);
            }
        }
        prop_assert_eq!(out, records);
        prop_assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn truncated_stream_never_yields_garbage(
        records in prop::collection::vec(record_strategy(), 1..10),
        cut_frac in 0.0f64..1.0,
    ) {
        let encoded = encode_records(&records);
        let cut = (encoded.len() as f64 * cut_frac) as usize;
        let mut dec = FrameDecoder::new();
        dec.feed(&encoded[..cut]);
        let mut out = Vec::new();
        while let Ok(Some(r)) = dec.next_record() {
            out.push(r);
        }
        // Whatever decoded must be a strict prefix of the input records.
        prop_assert!(out.len() <= records.len());
        prop_assert_eq!(&records[..out.len()], &out[..]);
    }

    /// The HTTP parser must produce identical messages regardless of how
    /// the byte stream is split into captured chunks.
    #[test]
    fn http_parser_chunking_invariant(
        paths in prop::collection::vec("[a-z]{1,8}", 1..6),
        body_len in 0usize..64,
        chunk in 1usize..37,
    ) {
        use tw_capture::http::HttpParser;
        use tw_model::time::Nanos;

        let mut stream = Vec::new();
        for p in &paths {
            let body = vec![b'x'; body_len];
            stream.extend_from_slice(
                format!("POST /{p} HTTP/1.1\r\nContent-Length: {body_len}\r\n\r\n").as_bytes(),
            );
            stream.extend_from_slice(&body);
        }

        let parse = |chunk_size: usize| -> Vec<(String, usize)> {
            let mut parser = HttpParser::new();
            let mut out = Vec::new();
            for (i, part) in stream.chunks(chunk_size).enumerate() {
                parser.feed(Nanos(i as u64), part).unwrap();
                while let Some(m) = parser.next_message() {
                    out.push((m.path().unwrap_or("").to_string(), m.body_len));
                }
            }
            out
        };
        let whole = parse(stream.len());
        let chunked = parse(chunk);
        prop_assert_eq!(&whole, &chunked);
        prop_assert_eq!(whole.len(), paths.len());
        for ((path, blen), expect) in whole.iter().zip(&paths) {
            prop_assert_eq!(path, &format!("/{expect}"));
            prop_assert_eq!(*blen, body_len);
        }
    }

    /// Arbitrary bytes must never panic the parser — errors are fine,
    /// crashes are not (this is a network-facing component).
    #[test]
    fn http_parser_never_panics_on_garbage(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..8),
    ) {
        use tw_capture::http::HttpParser;
        use tw_model::time::Nanos;
        let mut parser = HttpParser::new();
        for (i, c) in chunks.iter().enumerate() {
            if parser.feed(Nanos(i as u64), c).is_err() {
                break; // an error response is acceptable; continuing is UB-free either way
            }
            while parser.next_message().is_some() {}
        }
    }

    /// Rendering records to HTTP segments and parsing them back is the
    /// identity on the observable fields (thread ids excepted).
    #[test]
    fn http_segment_round_trip(seed_ts in 0u64..1_000_000, n in 1usize..10) {
        use tw_capture::http::{render_http_segments, segments_to_records};
        use tw_model::time::Nanos;
        // Build well-formed internal records with distinct services.
        let records: Vec<RpcRecord> = (0..n as u64)
            .map(|i| {
                let t0 = seed_ts + i * 10_000;
                RpcRecord {
                    rpc: RpcId(i),
                    caller: ServiceId(100 + i as u32),
                    caller_replica: (i % 3) as u16,
                    callee: Endpoint::new(ServiceId(i as u32), OperationId(i as u32 % 4)),
                    callee_replica: (i % 2) as u16,
                    send_req: Nanos(t0),
                    recv_req: Nanos(t0 + 100),
                    send_resp: Nanos(t0 + 500),
                    recv_resp: Nanos(t0 + 600),
                    caller_thread: Some(9),
                    callee_thread: Some(8),
                }
            })
            .collect();
        let segments = render_http_segments(&records);
        let parsed = segments_to_records(&segments).unwrap();
        prop_assert_eq!(parsed.len(), records.len());
        for (p, r) in parsed.iter().zip(&records) {
            prop_assert_eq!(p.rpc, r.rpc);
            prop_assert_eq!(p.caller, r.caller);
            prop_assert_eq!(p.callee, r.callee);
            prop_assert_eq!(p.send_req, r.send_req);
            prop_assert_eq!(p.recv_req, r.recv_req);
            prop_assert_eq!(p.send_resp, r.send_resp);
            prop_assert_eq!(p.recv_resp, r.recv_resp);
        }
    }
}
