//! The one durable-file format (DESIGN.md "Durable files"): how a file
//! is framed, checksummed, atomically replaced and rejected.
//!
//! ```text
//! [ magic 4 bytes | version u32 LE ] { [ len u64 LE | crc32 u32 LE | payload ] }…
//! ```
//!
//! Segments (`TWSG`), the archive manifest (`TWSM`, one frame) and the
//! online checkpoint (`TWCK`, one frame) are all this layout. The version
//! belongs to the file kind: manifest and checkpoint are version 1 (one
//! JSON frame, [`write_json`]/[`read_json`]); what a segment's frames
//! hold is `segment.rs`'s business. `write_frames` assembles the whole
//! file in memory and hands it to [`atomic_write`]; readers go through
//! `FrameReader`, which bounds every length read from disk by the bytes
//! actually left in the file before it allocates or seeks. Any malformed
//! file is a typed [`StoreError`] — never a panic, never trusted data.

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Version of the single-JSON-frame files ([`write_json`]/[`read_json`]).
const JSON_VERSION: u32 = 1;
/// len + crc in front of each frame.
const FRAME_HEADER_LEN: usize = 12;

/// Why a framed file could not be read. Callers fall back to a cold
/// start and report [`reason`](StoreError::reason).
#[derive(Debug)]
pub enum StoreError {
    /// The file does not exist.
    Missing,
    /// Filesystem error.
    Io(std::io::Error),
    /// Wrong leading magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Shorter than a declared frame length.
    Truncated,
    /// Frame CRC32 mismatch (torn or bit-rotted write).
    BadCrc,
    /// Frame failed to parse/deserialize.
    BadPayload(String),
}

impl StoreError {
    /// Metric/report label: "missing", "io" or "corrupt".
    pub fn reason(&self) -> &'static str {
        match self {
            StoreError::Missing => "missing",
            StoreError::Io(_) => "io",
            StoreError::BadMagic
            | StoreError::BadVersion(_)
            | StoreError::Truncated
            | StoreError::BadCrc
            | StoreError::BadPayload(_) => "corrupt",
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Missing => write!(f, "file missing"),
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::BadMagic => write!(f, "bad magic"),
            StoreError::BadVersion(v) => write!(f, "unsupported version {v}"),
            StoreError::Truncated => write!(f, "truncated file"),
            StoreError::BadCrc => write!(f, "crc mismatch"),
            StoreError::BadPayload(e) => write!(f, "bad payload: {e}"),
        }
    }
}

/// Slicing-by-8 tables for the reflected IEEE 802.3 polynomial:
/// `TABLES[0]` is the classic bytewise table, and `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight input bytes fold
/// into the running value with eight independent lookups.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE 802.3 polynomial, reflected). Both kernels compute the
/// same function: the carry-less-multiply one where the CPU has it, the
/// table one everywhere else.
fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if clmul::available() {
        // SAFETY: `available` found the CPU features the kernel is
        // compiled for.
        return unsafe { clmul::update(0xffff_ffff, bytes) } ^ 0xffff_ffff;
    }
    update_table(0xffff_ffff, bytes) ^ 0xffff_ffff
}

/// Advance a running (pre-inverted) CRC over `bytes`, eight bytes per
/// step with a bytewise tail.
fn update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][usize::from(chunk[4])]
            ^ TABLES[2][usize::from(chunk[5])]
            ^ TABLES[1][usize::from(chunk[6])]
            ^ TABLES[0][usize::from(chunk[7])];
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC32 by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel 2009): four 128-bit lanes fold 64 bytes per step, the lanes fold
/// into one, one lane folds 16 bytes per step, then 128 bits reduce to
/// 64 and a Barrett reduction to the 32-bit remainder. The constants are
/// the ones zlib and Linux use for the reflected 0xEDB88320 polynomial:
/// `x^k mod P` for the fold distances, `P` itself and `x^64 / P`, all
/// bit-reflected. The last < 16 bytes go through [`update_table`].
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold constants: K1/K2 carry a lane four blocks (512 bits) ahead,
    /// K3/K4 one block (128 bits) ahead, K5 the last 64 bits into 32.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial, and `μ = ⌊x^64 / P⌋`, for the Barrett step.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// The CPU runs [`update`].
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// One unaligned 16-byte block off the front of `bytes`.
    fn take(bytes: &mut &[u8]) -> __m128i {
        let (block, rest) = bytes.split_at(16);
        *bytes = rest;
        // SAFETY: `block` is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc · x^(distance)` folded onto `next`: the low and high halves
    /// of `acc` times the two fold constants packed in `k`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advance a running (pre-inverted) CRC over `bytes`. Inputs shorter
    /// than one block per lane go to the table.
    ///
    /// # Safety
    ///
    /// Called from code not compiled for these features, the caller must
    /// have seen [`available`] return true.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, mut bytes: &[u8]) -> u32 {
        if bytes.len() < 64 {
            return super::update_table(crc, bytes);
        }
        let mut x3 = _mm_xor_si128(take(&mut bytes), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = take(&mut bytes);
        let mut x1 = take(&mut bytes);
        let mut x0 = take(&mut bytes);
        let k1k2 = _mm_set_epi64x(K2, K1);
        while bytes.len() >= 64 {
            x3 = fold(x3, take(&mut bytes), k1k2);
            x2 = fold(x2, take(&mut bytes), k1k2);
            x1 = fold(x1, take(&mut bytes), k1k2);
            x0 = fold(x0, take(&mut bytes), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(fold(fold(x3, x2, k3k4), x1, k3k4), x0, k3k4);
        while bytes.len() >= 16 {
            x = fold(x, take(&mut bytes), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: t1 = (x mod x^32) · μ, t2 = (t1 mod x^32) · P, and the
        // remainder is the upper half of x ⊕ t2 (bit-reflected).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::update_table(crc, bytes)
    }
}

/// Atomically replace `path` with `bytes`: write the sibling
/// `<path>.tmp`, fsync, rename. Readers observe either the old complete
/// file or the new complete file, never a torn one.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Frame `payloads` behind `magic` and `version` and atomically write the
/// file. Returns its size in bytes.
pub(crate) fn write_frames(
    path: &Path,
    magic: [u8; 4],
    version: u32,
    payloads: &[&[u8]],
) -> std::io::Result<u64> {
    let total: usize = payloads.iter().map(|p| FRAME_HEADER_LEN + p.len()).sum();
    let mut bytes = Vec::with_capacity(magic.len() + 4 + total);
    bytes.extend_from_slice(&magic);
    bytes.extend_from_slice(&version.to_le_bytes());
    for payload in payloads {
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
    }
    atomic_write(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Sequential reader over a framed file. `remaining` is what the file
/// still holds past the cursor, so a corrupt length can never drive an
/// allocation or a seek beyond the file.
pub(crate) struct FrameReader {
    file: std::fs::File,
    remaining: u64,
}

impl FrameReader {
    /// Open `path`, validate its magic, and return the file's version,
    /// which must be one of `accepted`.
    pub(crate) fn open(
        path: &Path,
        magic: [u8; 4],
        accepted: &[u32],
    ) -> Result<(FrameReader, u32), StoreError> {
        let file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(StoreError::Missing),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let remaining = file.metadata().map_err(StoreError::Io)?.len();
        let mut reader = FrameReader { file, remaining };
        if reader.take::<4>()? != magic {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes(reader.take()?);
        if !accepted.contains(&version) {
            return Err(StoreError::BadVersion(version));
        }
        Ok((reader, version))
    }

    fn fill(&mut self, buf: &mut [u8]) -> Result<(), StoreError> {
        if buf.len() as u64 > self.remaining {
            return Err(StoreError::Truncated);
        }
        self.file.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::Truncated
            } else {
                StoreError::Io(e)
            }
        })?;
        self.remaining -= buf.len() as u64;
        Ok(())
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let mut buf = [0u8; N];
        self.fill(&mut buf)?;
        Ok(buf)
    }

    /// Read one frame header; the declared length is checked against the
    /// bytes left in the file.
    fn frame_header(&mut self) -> Result<(u64, u32), StoreError> {
        let len = u64::from_le_bytes(self.take()?);
        let crc = u32::from_le_bytes(self.take()?);
        if len > self.remaining {
            return Err(StoreError::Truncated);
        }
        Ok((len, crc))
    }

    /// Read and CRC-check the next frame's payload.
    pub(crate) fn frame(&mut self) -> Result<Vec<u8>, StoreError> {
        let (len, crc) = self.frame_header()?;
        let len = usize::try_from(len).map_err(|_| StoreError::Truncated)?;
        let mut payload = vec![0u8; len];
        self.fill(&mut payload)?;
        if crc32(&payload) != crc {
            return Err(StoreError::BadCrc);
        }
        Ok(payload)
    }

    /// Seek past the next frame without reading (or checking) its
    /// payload. Returns the payload length the frame declares.
    pub(crate) fn skip_frame(&mut self) -> Result<u64, StoreError> {
        let (len, _) = self.frame_header()?;
        let offset = i64::try_from(len).map_err(|_| StoreError::Truncated)?;
        self.file
            .seek(SeekFrom::Current(offset))
            .map_err(StoreError::Io)?;
        self.remaining -= len;
        Ok(len)
    }

    /// The last frame has been read: a file with bytes after it was not
    /// produced by us.
    pub(crate) fn finish(self) -> Result<(), StoreError> {
        if self.remaining != 0 {
            return Err(StoreError::BadPayload("trailing bytes".to_string()));
        }
        Ok(())
    }
}

/// Serialize a frame payload.
pub(crate) fn to_json<T: Serialize>(value: &T) -> std::io::Result<Vec<u8>> {
    Ok(serde_json::to_string(value)?.into_bytes())
}

/// Parse a frame payload.
pub(crate) fn from_json<T: DeserializeOwned>(payload: &[u8]) -> Result<T, StoreError> {
    let text = std::str::from_utf8(payload).map_err(|e| StoreError::BadPayload(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| StoreError::BadPayload(e.to_string()))
}

/// Write a single-frame file (manifest, checkpoint) holding `doc`.
pub fn write_json<T: Serialize>(path: &Path, magic: [u8; 4], doc: &T) -> std::io::Result<()> {
    write_frames(path, magic, JSON_VERSION, &[&to_json(doc)?]).map(|_| ())
}

/// Read a single-frame file: header, one frame, nothing after it.
pub fn read_json<T: DeserializeOwned>(path: &Path, magic: [u8; 4]) -> Result<T, StoreError> {
    let (mut reader, _) = FrameReader::open(path, magic, &[JSON_VERSION])?;
    let payload = reader.frame()?;
    reader.finish()?;
    from_json(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bitwise definition the tables are derived from, advancing a
    /// running (pre-inverted) CRC.
    fn update_bitwise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            }
        }
        crc
    }

    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        !update_bitwise(!0, bytes)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A whole-input CRC.
    type Kernel = fn(&[u8]) -> u32;

    /// Each kernel this CPU can run, called directly.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        #[allow(unused_mut)]
        let mut kernels: Vec<(_, Kernel)> = vec![("table", |b| !update_table(!0, b))];
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: `available` found the kernel's CPU features.
            kernels.push(("clmul", |b| !unsafe { clmul::update(!0, b) }));
        }
        kernels
    }

    /// Every split between each kernel's block steps and its tail, at
    /// every alignment of the slice's start. The bitwise reference runs
    /// once per offset: its state after each byte is that prefix's CRC.
    #[test]
    fn crc32_equals_the_bitwise_form_at_every_length_and_offset() {
        let mut rng = proptest::TestRng::for_test("crc32");
        let mut random = |len: usize| -> Vec<u8> {
            let mut buf = Vec::with_capacity(len + 8);
            while buf.len() < len {
                buf.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            buf.truncate(len);
            buf
        };
        const LEN: usize = 4096;
        let buf = random(LEN + 16);
        let big = random(1 << 20);
        for (name, kernel) in kernels() {
            assert_eq!(kernel(b"123456789"), 0xcbf4_3926, "{name}");
            for offset in 0..16 {
                let slice = &buf[offset..offset + LEN];
                let mut state = 0xffff_ffff;
                for len in 0..=LEN {
                    assert_eq!(
                        kernel(&slice[..len]),
                        !state,
                        "{name}: len {len} at {offset}"
                    );
                    if len < LEN {
                        state = update_bitwise(state, &slice[len..=len]);
                    }
                }
            }
            assert_eq!(kernel(&big), crc32_bitwise(&big), "{name}: 1 MiB");
        }
        assert_eq!(crc32(&big), crc32_bitwise(&big));
    }
}
