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
    load_manifest, read_query, read_segment, read_segment_index, save_manifest, write_segment,
    ArchiveConfig, Manifest, SegmentIndex, SegmentMeta, StoredSpan, StoredTrace, TraceArchive,
    TraceQuery, MANIFEST_FILE,
};
use tw_telemetry::Registry;

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
    let payloads: Vec<&[u8]> = payloads.iter().map(|p| p.as_bytes()).collect();
    framed_bytes(magic, 1, &payloads)
}

/// The same layout under any version, around any payload bytes.
fn framed_bytes(magic: &[u8; 4], version: u32, payloads: &[&[u8]]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    for payload in payloads {
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32_reference(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// One 45-byte row of a version-2 segment's trace directory.
fn directory_row(t: &StoredTrace) -> Vec<u8> {
    let mut row = Vec::new();
    for field in [t.window, t.root, t.start, t.end, t.latency_ns] {
        row.extend_from_slice(&field.to_le_bytes());
    }
    row.push(t.degraded as u8);
    row.extend_from_slice(&(t.spans.len() as u32).to_le_bytes());
    assert_eq!(row.len(), 45);
    row
}

/// One 69-byte span row of a version-2 segment.
fn span_row(s: &StoredSpan) -> Vec<u8> {
    let r = &s.record;
    let mut row = Vec::new();
    row.extend_from_slice(&s.depth.to_le_bytes());
    row.extend_from_slice(&r.rpc.0.to_le_bytes());
    row.extend_from_slice(&r.caller.0.to_le_bytes());
    row.extend_from_slice(&r.caller_replica.to_le_bytes());
    row.extend_from_slice(&r.callee.service.0.to_le_bytes());
    row.extend_from_slice(&r.callee.op.0.to_le_bytes());
    row.extend_from_slice(&r.callee_replica.to_le_bytes());
    for ts in [r.send_req, r.recv_req, r.send_resp, r.recv_resp] {
        row.extend_from_slice(&ts.0.to_le_bytes());
    }
    row.push(r.caller_thread.is_some() as u8 | (r.callee_thread.is_some() as u8) << 1);
    row.extend_from_slice(&r.caller_thread.unwrap_or(0).to_le_bytes());
    row.extend_from_slice(&r.callee_thread.unwrap_or(0).to_le_bytes());
    assert_eq!(row.len(), 69);
    row
}

/// The directory and span-row payloads of a version-2 segment.
fn segment_body(traces: &[StoredTrace]) -> (Vec<u8>, Vec<u8>) {
    let directory = traces.iter().flat_map(directory_row).collect();
    let rows = traces
        .iter()
        .flat_map(|t| t.spans.iter().flat_map(span_row))
        .collect();
    (directory, rows)
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

/// Two traces; the second is degraded and has a child span carrying
/// thread ids, so every column of both row kinds holds a non-zero value
/// somewhere.
fn traces() -> Vec<StoredTrace> {
    let mut second = trace(4, 2, 2_000_000, 9_000_000);
    second.degraded = true;
    let mut child = second.spans[0];
    child.depth = 1;
    child.record.rpc = RpcId(7);
    child.record.caller = ServiceId(3);
    child.record.caller_replica = 2;
    child.record.callee = Endpoint::new(ServiceId(5), OperationId(4));
    child.record.callee_replica = 6;
    child.record.caller_thread = Some(11);
    child.record.callee_thread = Some(0);
    second.spans.push(child);
    vec![trace(3, 1, 1_000_000, 5_000_000), second]
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

    // TWSG, version 2: directory frame, span-row frame, footer-index frame.
    let traces = traces();
    let index = SegmentIndex::build(&traces);
    let footer = serde_json::to_string(&index).unwrap();
    let (directory, rows) = segment_body(&traces);
    assert_eq!((directory.len(), rows.len()), (2 * 45, 3 * 69));
    let golden = framed_bytes(b"TWSG", 2, &[&directory, &rows, footer.as_bytes()]);
    let path = dir.join(Manifest::segment_file(0));
    let (bytes, written_index) = write_segment(&path, &traces).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), golden, "TWSG bytes");
    assert_eq!((bytes, &written_index), (golden.len() as u64, &index));
    std::fs::write(&path, &golden).unwrap();
    assert_eq!(read_segment(&path).unwrap(), traces);
    assert_eq!(read_segment_index(&path).unwrap(), index);

    // TWSG, version 1 (no longer written): JSON body frame, footer frame.
    let v1 = framed(
        b"TWSG",
        &[&serde_json::to_string(&traces).unwrap(), &footer],
    );
    std::fs::write(&path, &v1).unwrap();
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

/// An archive directory as the last version-1 writer left it answers
/// queries as it stands, and compaction — the only thing that rewrites a
/// segment — leaves version-2 files holding the same traces.
#[test]
fn version_1_archive_is_read_and_compacted_into_version_2() {
    let dir = fresh_dir("v1-archive");
    // Four single-trace segments: enough small ones for compaction to run.
    let mut all = traces();
    all.insert(1, trace(3, 3, 1_500_000, 2_000_000));
    all.push(trace(4, 4, 3_000_000, 4_000_000));
    let mut manifest = Manifest {
        next_seq: all.len() as u64,
        watermark: 5,
        segments: Vec::new(),
    };
    for (seq, t) in all.iter().enumerate() {
        let one = std::slice::from_ref(t);
        let index = SegmentIndex::build(one);
        let file = Manifest::segment_file(seq as u64);
        let bytes = framed(
            b"TWSG",
            &[
                &serde_json::to_string(one).unwrap(),
                &serde_json::to_string(&index).unwrap(),
            ],
        );
        std::fs::write(dir.join(&file), &bytes).unwrap();
        manifest.segments.push(SegmentMeta {
            file,
            seq: seq as u64,
            bytes: bytes.len() as u64,
            tail: false,
            index,
        });
    }
    save_manifest(&dir, &manifest).unwrap();

    let everything = TraceQuery::default();
    assert_eq!(read_query(&dir, &everything).unwrap(), all);
    let slow = TraceQuery {
        min_latency_ns: Some(5_000_000),
        service: Some(5),
        ..TraceQuery::default()
    };
    assert_eq!(read_query(&dir, &slow).unwrap(), all[2..3]);

    let archive = TraceArchive::open(ArchiveConfig::new(&dir), &Registry::new()).unwrap();
    assert_eq!(archive.query(&everything), all);
    archive.maintain();
    assert_eq!(archive.segment_count(), 1);
    assert_eq!(archive.query(&everything), all);
    drop(archive);
    let versions: Vec<u32> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "twsg"))
        .map(|p| u32::from_le_bytes(std::fs::read(p).unwrap()[4..8].try_into().unwrap()))
        .collect();
    assert_eq!(versions, [2], "only the compacted segment remains");
    assert_eq!(read_query(&dir, &everything).unwrap(), all);
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
    let (directory, rows) = segment_body(&traces());
    let rows_at = 8 + 12 + directory.len();
    let footer_at = rows_at + 12 + rows.len();

    // Errors compared by their `Debug` name so the table holds one type.
    type Reader = fn(&Path, &Path) -> Option<String>;
    fn failure<T, E: std::fmt::Debug>(result: Result<T, E>) -> Option<String> {
        result.err().map(|e| format!("{e:?}"))
    }
    let full: Reader = |_, file| failure(read_segment(file));
    let index_only: Reader = |_, file| failure(read_segment_index(file));
    // (name, file, offset of the frame's len field, reader)
    let cases: [(&str, PathBuf, usize, Reader); 8] = [
        ("checkpoint", dir.join(CHECKPOINT_FILE), 8, |dir, _| {
            failure(load_checkpoint(dir))
        }),
        ("manifest", dir.join(MANIFEST_FILE), 8, |dir, _| {
            failure(load_manifest(dir))
        }),
        ("segment directory", segment.clone(), 8, full),
        (
            "segment directory, index-only read",
            segment.clone(),
            8,
            index_only,
        ),
        ("segment span rows", segment.clone(), rows_at, full),
        (
            "segment span rows, index-only read",
            segment.clone(),
            rows_at,
            index_only,
        ),
        ("segment footer", segment.clone(), footer_at, full),
        (
            "segment footer, index-only read",
            segment.clone(),
            footer_at,
            index_only,
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
