//! Length-prefixed binary wire format for span records.
//!
//! Capture agents (eBPF exporters, sidecars) ship span records to a
//! TraceWeaver collector over a byte stream. Records are framed as
//!
//! ```text
//! +----------+---------+----------------------+
//! | u32 len  | u8 ver  |  len-1 payload bytes |
//! +----------+---------+----------------------+
//! ```
//!
//! with all integers little-endian. The payload is a fixed-layout encoding
//! of [`RpcRecord`]. A streaming [`FrameDecoder`] handles partial reads —
//! the standard framing pattern for network protocols.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tw_model::ids::{Endpoint, OperationId, RpcId, ServiceId};
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;

/// Current wire version.
pub const WIRE_VERSION: u8 = 1;

/// Encoded size of one record payload (without the 4-byte length prefix):
/// version (1) + rpc (8) + caller (4) + caller_replica (2) + callee svc (4)
/// + callee op (4) + callee_replica (2) + 4 timestamps (32)
/// + caller_thread (5) + callee_thread (5).
const PAYLOAD_LEN: usize = 1 + 8 + 4 + 2 + 4 + 4 + 2 + 32 + 5 + 5;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame length field exceeds the sanity bound.
    FrameTooLarge(usize),
    /// Unknown version byte.
    BadVersion(u8),
    /// Payload shorter than the fixed layout requires.
    Truncated,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Truncated => write!(f, "truncated frame payload"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum acceptable frame size; anything larger indicates stream
/// corruption.
pub const MAX_FRAME: usize = 64 * 1024;

fn put_opt_thread(buf: &mut BytesMut, t: Option<u32>) {
    match t {
        Some(v) => {
            buf.put_u8(1);
            buf.put_u32_le(v);
        }
        None => {
            buf.put_u8(0);
            buf.put_u32_le(0);
        }
    }
}

fn get_opt_thread(buf: &mut Bytes) -> Option<u32> {
    let tag = buf.get_u8();
    let v = buf.get_u32_le();
    (tag == 1).then_some(v)
}

/// Encode one record as a frame (length prefix included).
pub fn encode_record(rec: &RpcRecord, buf: &mut BytesMut) {
    buf.put_u32_le(PAYLOAD_LEN as u32);
    buf.put_u8(WIRE_VERSION);
    buf.put_u64_le(rec.rpc.0);
    buf.put_u32_le(rec.caller.0);
    buf.put_u16_le(rec.caller_replica);
    buf.put_u32_le(rec.callee.service.0);
    buf.put_u32_le(rec.callee.op.0);
    buf.put_u16_le(rec.callee_replica);
    buf.put_u64_le(rec.send_req.0);
    buf.put_u64_le(rec.recv_req.0);
    buf.put_u64_le(rec.send_resp.0);
    buf.put_u64_le(rec.recv_resp.0);
    put_opt_thread(buf, rec.caller_thread);
    put_opt_thread(buf, rec.callee_thread);
}

/// Encode a batch of records into one buffer.
pub fn encode_records(recs: &[RpcRecord]) -> Bytes {
    let mut buf = BytesMut::with_capacity(recs.len() * (PAYLOAD_LEN + 4));
    for r in recs {
        encode_record(r, &mut buf);
    }
    buf.freeze()
}

/// Decode a full buffer of frames. Fails on the first malformed frame.
pub fn decode_records(data: Bytes) -> Result<Vec<RpcRecord>, WireError> {
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::new();
    decoder.feed(&data);
    while let Some(rec) = decoder.next_record()? {
        out.push(rec);
    }
    if decoder.pending_bytes() > 0 {
        return Err(WireError::Truncated);
    }
    Ok(out)
}

/// Incremental frame decoder: feed arbitrary byte chunks, pull complete
/// records. Unconsumed partial frames are buffered.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: BytesMut,
}

impl FrameDecoder {
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Append incoming bytes from a slice.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet decodable.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Drop one buffered byte and return how many were dropped (0 when
    /// the buffer is empty). Used by resynchronizing consumers after a
    /// decode error that consumed nothing (e.g. a corrupt length
    /// prefix): sliding the window one byte at a time searches for the
    /// next plausible frame boundary.
    pub fn resync(&mut self) -> usize {
        if self.buf.is_empty() {
            0
        } else {
            self.buf.advance(1);
            1
        }
    }

    /// Try to decode the next complete record; `Ok(None)` means more bytes
    /// are needed.
    pub fn next_record(&mut self) -> Result<Option<RpcRecord>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            return Err(WireError::FrameTooLarge(len));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        self.buf.advance(4);
        let mut payload = self.buf.split_to(len).freeze();
        if payload.len() < PAYLOAD_LEN {
            return Err(WireError::Truncated);
        }
        let ver = payload.get_u8();
        if ver != WIRE_VERSION {
            return Err(WireError::BadVersion(ver));
        }
        let rpc = RpcId(payload.get_u64_le());
        let caller = ServiceId(payload.get_u32_le());
        let caller_replica = payload.get_u16_le();
        let callee_svc = ServiceId(payload.get_u32_le());
        let callee_op = OperationId(payload.get_u32_le());
        let callee_replica = payload.get_u16_le();
        let send_req = Nanos(payload.get_u64_le());
        let recv_req = Nanos(payload.get_u64_le());
        let send_resp = Nanos(payload.get_u64_le());
        let recv_resp = Nanos(payload.get_u64_le());
        let caller_thread = get_opt_thread(&mut payload);
        let callee_thread = get_opt_thread(&mut payload);
        Ok(Some(RpcRecord {
            rpc,
            caller,
            caller_replica,
            callee: Endpoint::new(callee_svc, callee_op),
            callee_replica,
            send_req,
            recv_req,
            send_resp,
            recv_resp,
            caller_thread,
            callee_thread,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_model::span::EXTERNAL;

    fn sample(rpc: u64) -> RpcRecord {
        RpcRecord {
            rpc: RpcId(rpc),
            caller: EXTERNAL,
            caller_replica: 3,
            callee: Endpoint::new(ServiceId(7), OperationId(2)),
            callee_replica: 1,
            send_req: Nanos(100),
            recv_req: Nanos(250),
            send_resp: Nanos(900),
            recv_resp: Nanos(1_050),
            caller_thread: None,
            callee_thread: Some(5),
        }
    }

    #[test]
    fn round_trip_single() {
        let rec = sample(42);
        let bytes = encode_records(&[rec]);
        let decoded = decode_records(bytes).unwrap();
        assert_eq!(decoded, vec![rec]);
    }

    #[test]
    fn round_trip_batch() {
        let recs: Vec<RpcRecord> = (0..100).map(sample).collect();
        let decoded = decode_records(encode_records(&recs)).unwrap();
        assert_eq!(decoded, recs);
    }

    #[test]
    fn streaming_partial_chunks() {
        let recs: Vec<RpcRecord> = (0..10).map(sample).collect();
        let bytes = encode_records(&recs);
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        // Feed 7 bytes at a time — frames straddle chunk boundaries.
        for chunk in bytes.chunks(7) {
            dec.feed(chunk);
            while let Some(r) = dec.next_record().unwrap() {
                out.push(r);
            }
        }
        assert_eq!(out, recs);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn bad_version_rejected() {
        let rec = sample(1);
        let mut buf = BytesMut::new();
        encode_record(&rec, &mut buf);
        buf[4] = 99; // corrupt the version byte (after the 4-byte length)
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        assert_eq!(dec.next_record(), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            dec.next_record(),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn trailing_garbage_detected() {
        let rec = sample(1);
        let mut bytes = encode_records(&[rec]).to_vec();
        bytes.extend_from_slice(&[1, 2, 3]); // incomplete next frame
        assert_eq!(
            decode_records(Bytes::from(bytes)),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn thread_options_preserved() {
        let mut rec = sample(9);
        rec.caller_thread = Some(0);
        rec.callee_thread = None;
        let decoded = decode_records(encode_records(&[rec])).unwrap();
        assert_eq!(decoded[0].caller_thread, Some(0));
        assert_eq!(decoded[0].callee_thread, None);
    }
}
