//! Property-based tests for the wire codec.

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
}
