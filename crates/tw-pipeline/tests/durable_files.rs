//! The on-disk layout of the three framed files (DESIGN.md "Durable
//! files"), pinned from outside: files assembled by hand here must be
//! exactly what the writers produce and what the readers accept, and a
//! hostile frame length must be a typed rejection, not a panic.

use std::path::{Path, PathBuf};
use tw_model::ids::{Endpoint, OperationId, RpcId, ServiceId};
use tw_model::span::{RpcRecord, EXTERNAL};
use tw_model::time::Nanos;
use tw_pipeline::checkpoint::CHECKPOINT_FILE;
use tw_pipeline::{load_checkpoint, write_checkpoint, CheckpointDoc};
use tw_store::{
    load_manifest, read_segment, read_segment_index, save_manifest, write_segment, Manifest,
    SegmentIndex, SegmentMeta, StoredSpan, StoredTrace, MANIFEST_FILE,
};

/// Bitwise reference CRC-32 (IEEE, reflected), independent of the
/// table-driven one under test.
fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// `magic | 1u32 LE | { len u64 LE | crc32 u32 LE | payload }…`
fn framed(magic: &[u8; 4], payloads: &[&str]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&1u32.to_le_bytes());
    for payload in payloads {
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32_reference(payload.as_bytes()).to_le_bytes());
        out.extend_from_slice(payload.as_bytes());
    }
    out
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tw-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn trace(window: u64, rpc: u64, start: u64, end: u64) -> StoredTrace {
    StoredTrace {
        window,
        root: rpc,
        start,
        end,
        latency_ns: end - start,
        degraded: false,
        spans: vec![StoredSpan {
            depth: 0,
            record: RpcRecord {
                rpc: RpcId(rpc),
                caller: EXTERNAL,
                caller_replica: 0,
                callee: Endpoint::new(ServiceId(3), OperationId(1)),
                callee_replica: 0,
                send_req: Nanos(start),
                recv_req: Nanos(start + 1),
                send_resp: Nanos(end - 1),
                recv_resp: Nanos(end),
                caller_thread: None,
                callee_thread: None,
            },
        }],
    }
}

fn checkpoint_doc() -> CheckpointDoc {
    CheckpointDoc {
        watermark: 7,
        window_ns: 250_000_000,
        sanitizer: None,
        registry: None,
        archived: Some(5),
    }
}

fn traces() -> Vec<StoredTrace> {
    vec![
        trace(3, 1, 1_000_000, 5_000_000),
        trace(4, 2, 2_000_000, 9_000_000),
    ]
}

fn manifest() -> Manifest {
    Manifest {
        next_seq: 1,
        watermark: 5,
        segments: vec![SegmentMeta {
            file: Manifest::segment_file(0),
            seq: 0,
            bytes: 123,
            tail: false,
            index: SegmentIndex::build(&traces()),
        }],
    }
}

#[test]
fn golden_layout_of_checkpoint_manifest_and_segment() {
    let dir = fresh_dir("golden");

    // TWCK: one frame.
    let doc = checkpoint_doc();
    let golden = framed(b"TWCK", &[&serde_json::to_string(&doc).unwrap()]);
    write_checkpoint(&dir, &doc).unwrap();
    let path = dir.join(CHECKPOINT_FILE);
    assert_eq!(std::fs::read(&path).unwrap(), golden, "TWCK bytes");
    std::fs::write(&path, &golden).unwrap();
    let loaded = load_checkpoint(&dir).unwrap();
    assert_eq!(
        (loaded.watermark, loaded.window_ns, loaded.archived),
        (7, 250_000_000, Some(5))
    );

    // TWSM: one frame.
    let manifest = manifest();
    let golden = framed(b"TWSM", &[&serde_json::to_string(&manifest).unwrap()]);
    save_manifest(&dir, &manifest).unwrap();
    let path = dir.join(MANIFEST_FILE);
    assert_eq!(std::fs::read(&path).unwrap(), golden, "TWSM bytes");
    std::fs::write(&path, &golden).unwrap();
    assert_eq!(load_manifest(&dir).unwrap(), manifest);

    // TWSG: body frame, then footer-index frame.
    let traces = traces();
    let index = SegmentIndex::build(&traces);
    let golden = framed(
        b"TWSG",
        &[
            &serde_json::to_string(&traces).unwrap(),
            &serde_json::to_string(&index).unwrap(),
        ],
    );
    let path = dir.join(Manifest::segment_file(0));
    let (bytes, written_index) = write_segment(&path, &traces).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), golden, "TWSG bytes");
    assert_eq!((bytes, &written_index), (golden.len() as u64, &index));
    std::fs::write(&path, &golden).unwrap();
    assert_eq!(read_segment(&path).unwrap(), traces);
    assert_eq!(read_segment_index(&path).unwrap(), index);

    // No temp sibling survives a completed write.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frame length read from disk is checked against the bytes left in the
/// file before anything is allocated or seeked.
#[test]
fn hostile_frame_lengths_are_truncated_not_panics() {
    let dir = fresh_dir("hostile");
    write_checkpoint(&dir, &checkpoint_doc()).unwrap();
    save_manifest(&dir, &manifest()).unwrap();
    let segment = dir.join(Manifest::segment_file(0));
    write_segment(&segment, &traces()).unwrap();
    let body_len = serde_json::to_string(&traces()).unwrap().len();

    // Errors compared by their `Debug` name so the table holds one type.
    type Reader = fn(&Path, &Path) -> Option<String>;
    fn failure<T, E: std::fmt::Debug>(result: Result<T, E>) -> Option<String> {
        result.err().map(|e| format!("{e:?}"))
    }
    // (name, file, offset of the frame's len field, reader)
    let cases: [(&str, PathBuf, usize, Reader); 5] = [
        ("checkpoint", dir.join(CHECKPOINT_FILE), 8, |dir, _| {
            failure(load_checkpoint(dir))
        }),
        ("manifest", dir.join(MANIFEST_FILE), 8, |dir, _| {
            failure(load_manifest(dir))
        }),
        ("segment body", segment.clone(), 8, |_, file| {
            failure(read_segment(file))
        }),
        (
            "segment body, index-only read",
            segment.clone(),
            8,
            |_, file| failure(read_segment_index(file)),
        ),
        (
            "segment footer",
            segment.clone(),
            8 + 12 + body_len,
            |_, file| failure(read_segment_index(file)),
        ),
    ];
    for (name, file, len_at, read) in cases {
        let good = std::fs::read(&file).unwrap();
        assert!(read(&dir, &file).is_none(), "{name}: intact file must load");
        let remaining = (good.len() - len_at - 12) as u64;
        for hostile in [u64::MAX, remaining + 1] {
            let mut bad = good.clone();
            bad[len_at..len_at + 8].copy_from_slice(&hostile.to_le_bytes());
            std::fs::write(&file, &bad).unwrap();
            let err = read(&dir, &file);
            assert_eq!(err.as_deref(), Some("Truncated"), "{name}, len = {hostile}");
        }
        std::fs::write(&file, &good).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
