//! Segment persistence: a compact binary on-disk format for flushing and
//! restoring segments (the paper's buffers flush to local disk when memory
//! pressure demands it, and offline devices persist across restarts).
//!
//! Format (little-endian throughout):
//!
//! ```text
//! magic "AESG" | version: u16 | count: u64
//! per segment:
//!   id: u64 | timestamp: u64 | kind: u8
//!   kind 0 (raw):        n: u32, then n × f64
//!   kind 1 (compressed): codec-name len: u8 + bytes | n_points: u32
//!                        | payload len: u32 + bytes
//!   version ≥ 2 only:    crc32c: u32 over the record bytes above
//! ```
//!
//! Codec identifiers are stored by *name* so the file format survives enum
//! reordering across versions. Version 2 appends a CRC-32C to every record
//! so on-disk bit rot is detected at load time; version-1 files (no
//! checksums) remain readable.

use crate::segment::{Segment, SegmentData, SegmentId};
use crate::store::SegmentStore;
use adaedge_codecs::crc32c::{crc32c, crc32c_append};
use adaedge_codecs::{CodecId, CompressedBlock};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"AESG";
const VERSION: u16 = 2;

/// Errors from the persistence layer.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not an AdaEdge segment file, or an unsupported version.
    BadHeader,
    /// Structurally invalid segment record.
    Corrupt(&'static str),
    /// A record's bytes no longer match its stored CRC-32C (bit rot).
    ChecksumMismatch,
    /// A value handed to a writer that the format cannot encode; nothing
    /// was written.
    Invalid(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadHeader => write!(f, "bad segment-file header"),
            PersistError::Corrupt(what) => write!(f, "corrupt segment file: {what}"),
            PersistError::ChecksumMismatch => {
                write!(f, "segment record failed checksum verification")
            }
            PersistError::Invalid(what) => write!(f, "cannot encode: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn write_segment<W: Write>(w: &mut W, seg: &Segment) -> Result<(), PersistError> {
    w.write_all(&seg.id.0.to_le_bytes())?;
    w.write_all(&seg.timestamp.to_le_bytes())?;
    match &seg.data {
        SegmentData::Raw(points) => {
            w.write_all(&[0u8])?;
            w.write_all(&(points.len() as u32).to_le_bytes())?;
            for v in points {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        SegmentData::Compressed(block) => {
            w.write_all(&[1u8])?;
            let name = block.codec.name().as_bytes();
            w.write_all(&[name.len() as u8])?;
            w.write_all(name)?;
            w.write_all(&block.n_points.to_le_bytes())?;
            w.write_all(&(block.payload.len() as u32).to_le_bytes())?;
            w.write_all(&block.payload)?;
        }
    }
    Ok(())
}

/// `Read` adapter that folds every byte it hands out into a running
/// CRC-32C, so v2 records are verified without buffering them.
struct CrcReader<R> {
    inner: R,
    crc: u32,
}

impl<R: Read> CrcReader<R> {
    fn new(inner: R) -> Self {
        Self { inner, crc: 0 }
    }

    fn sum(&self) -> u32 {
        self.crc
    }
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc = crc32c_append(self.crc, &buf[..n]);
        Ok(n)
    }
}

fn read_exact_vec<R: Read>(r: &mut R, n: usize) -> Result<Vec<u8>, PersistError> {
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, PersistError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, PersistError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_segment<R: Read>(r: &mut R) -> Result<Segment, PersistError> {
    let id = SegmentId(read_u64(r)?);
    let timestamp = read_u64(r)?;
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    match kind[0] {
        0 => {
            let n = read_u32(r)? as usize;
            if n > 1 << 28 {
                return Err(PersistError::Corrupt("raw segment too large"));
            }
            let bytes = read_exact_vec(r, n * 8)?;
            let points = bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            Ok(Segment::raw(id, timestamp, points))
        }
        1 => {
            let mut len = [0u8; 1];
            r.read_exact(&mut len)?;
            let name = read_exact_vec(r, len[0] as usize)?;
            let name = std::str::from_utf8(&name)
                .map_err(|_| PersistError::Corrupt("codec name not utf-8"))?;
            let codec =
                CodecId::from_name(name).ok_or(PersistError::Corrupt("unknown codec name"))?;
            let n_points = read_u32(r)?;
            let payload_len = read_u32(r)? as usize;
            if payload_len > 1 << 30 {
                return Err(PersistError::Corrupt("payload too large"));
            }
            let payload = read_exact_vec(r, payload_len)?;
            Ok(Segment::compressed(
                id,
                timestamp,
                CompressedBlock {
                    codec,
                    n_points,
                    payload,
                },
            ))
        }
        _ => Err(PersistError::Corrupt("unknown segment kind")),
    }
}

fn save_segments_versioned<'a>(
    path: &Path,
    segments: impl ExactSizeIterator<Item = &'a Segment>,
    version: u16,
) -> Result<(), PersistError> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&version.to_le_bytes())?;
    w.write_all(&(segments.len() as u64).to_le_bytes())?;
    let mut record = Vec::new();
    for seg in segments {
        record.clear();
        write_segment(&mut record, seg)?;
        w.write_all(&record)?;
        if version >= 2 {
            w.write_all(&crc32c(&record).to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Write segments to `path` in the current (checksummed) format,
/// replacing any existing file.
pub fn save_segments<'a>(
    path: &Path,
    segments: impl ExactSizeIterator<Item = &'a Segment>,
) -> Result<(), PersistError> {
    save_segments_versioned(path, segments, VERSION)
}

/// Read every segment from `path`. Accepts both the current checksummed
/// format (version 2) and legacy version-1 files without per-record CRCs.
pub fn load_segments(path: &Path) -> Result<Vec<Segment>, PersistError> {
    let mut r = io::BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    let mut version = [0u8; 2];
    r.read_exact(&mut version)?;
    let version = u16::from_le_bytes(version);
    if &magic != MAGIC || !(1..=VERSION).contains(&version) {
        return Err(PersistError::BadHeader);
    }
    let count = read_u64(&mut r)? as usize;
    if count > 1 << 30 {
        return Err(PersistError::Corrupt("segment count implausible"));
    }
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        if version >= 2 {
            let mut cr = CrcReader::new(&mut r);
            let seg = read_segment(&mut cr)?;
            let computed = cr.sum();
            if read_u32(&mut r)? != computed {
                return Err(PersistError::ChecksumMismatch);
            }
            out.push(seg);
        } else {
            out.push(read_segment(&mut r)?);
        }
    }
    Ok(out)
}

impl SegmentStore {
    /// Persist every stored segment to `path` (flush-to-disk).
    pub fn save_to(&self, path: &Path) -> Result<(), PersistError> {
        let ids = self.ids();
        let segments: Vec<&Segment> = ids.iter().filter_map(|&id| self.peek(id)).collect();
        save_segments(path, segments.into_iter())
    }

    /// Load segments from `path` into a fresh unbounded store, preserving
    /// insertion (id) order for the policy.
    pub fn load_from(path: &Path) -> Result<SegmentStore, PersistError> {
        let mut segments = load_segments(path)?;
        segments.sort_by_key(|s| s.id);
        let mut store = SegmentStore::unbounded();
        for seg in segments {
            match seg.data {
                SegmentData::Raw(points) => {
                    store.put_raw(points).expect("unbounded store");
                }
                SegmentData::Compressed(block) => {
                    store.put_compressed(block).expect("unbounded store");
                }
            }
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("adaedge-persist-{name}-{}", std::process::id()));
        p
    }

    fn sample_store() -> SegmentStore {
        let mut store = SegmentStore::unbounded();
        store.put_raw(vec![1.0, 2.0, 3.0]).unwrap();
        store
            .put_compressed(CompressedBlock::new(CodecId::Paa, 100, vec![7u8; 40]))
            .unwrap();
        store
            .put_compressed(CompressedBlock::new(CodecId::Sprintz, 50, vec![1, 2, 3]))
            .unwrap();
        store
    }

    #[test]
    fn roundtrip_preserves_segments() {
        let store = sample_store();
        let path = tmp("roundtrip");
        store.save_to(&path).unwrap();
        let loaded = SegmentStore::load_from(&path).unwrap();
        assert_eq!(loaded.len(), store.len());
        assert_eq!(loaded.used_bytes(), store.used_bytes());
        let originals: Vec<_> = store
            .ids()
            .iter()
            .map(|&i| store.peek(i).unwrap().data.clone())
            .collect();
        let restored: Vec<_> = loaded
            .ids()
            .iter()
            .map(|&i| loaded.peek(i).unwrap().data.clone())
            .collect();
        assert_eq!(originals, restored);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOPExxxxxxxxxxxx").unwrap();
        assert!(matches!(
            SegmentStore::load_from(&path),
            Err(PersistError::BadHeader)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let store = sample_store();
        let path = tmp("truncated");
        store.save_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(SegmentStore::load_from(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_codec_name_rejected() {
        let store = sample_store();
        let path = tmp("unknowncodec");
        store.save_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt the first codec-name byte ("paa" → "xaa").
        let pos = bytes.windows(3).position(|w| w == b"paa").unwrap();
        bytes[pos] = b'x';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentStore::load_from(&path),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_payload_bitflip_detected_at_load() {
        let store = sample_store();
        let path = tmp("bitflip");
        store.save_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the Paa block's payload (a run of 0x07 bytes):
        // structurally still a valid record, so only the CRC can catch it.
        let pos = bytes.windows(10).position(|w| w == [7u8; 10]).unwrap();
        bytes[pos + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentStore::load_from(&path),
            Err(PersistError::ChecksumMismatch)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_without_checksums_still_load() {
        let store = sample_store();
        let path = tmp("v1compat");
        let ids = store.ids();
        let segments: Vec<&Segment> = ids.iter().filter_map(|&id| store.peek(id)).collect();
        save_segments_versioned(&path, segments.into_iter(), 1).unwrap();
        let loaded = SegmentStore::load_from(&path).unwrap();
        assert_eq!(loaded.len(), store.len());
        assert_eq!(loaded.used_bytes(), store.used_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_rejected() {
        let store = sample_store();
        let path = tmp("future");
        store.save_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 99; // version field follows the 4-byte magic
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentStore::load_from(&path),
            Err(PersistError::BadHeader)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = SegmentStore::unbounded();
        let path = tmp("empty");
        store.save_to(&path).unwrap();
        let loaded = SegmentStore::load_from(&path).unwrap();
        assert!(loaded.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
