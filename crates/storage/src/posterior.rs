//! Selector-posterior persistence for the fleet's evict/restore cycle.
//!
//! A gateway multiplexing thousands of streams cannot keep every stream's
//! bandit state resident forever: idle streams are evicted from the
//! bounded resident set and their learned posterior — per-arm pull counts,
//! reward estimates, failure totals and quarantine verdicts — is parked
//! here, to be restored bit-exactly when the stream next sends data (the
//! estimate-based policies restore by overwrite, so an evicted stream
//! resumes learning exactly where it stopped).
//!
//! Format (little-endian throughout):
//!
//! ```text
//! magic "AEPS" | version: u16 | count: u64
//! per record:
//!   stream_id: u64 | n_arms: u8
//!   per arm: codec-name len: u8 + bytes | pulls: u64 | estimate: f64
//!            | failure_total: u64
//!   quarantine_bits: u64
//!   crc32c: u32 over the record bytes above
//! ```
//!
//! Codec identifiers are stored by *name* so the format survives enum
//! reordering, and every record carries a CRC-32C trailer so bit rot is
//! detected at load time — a silently corrupted posterior would steer a
//! stream's selector wrong for thousands of segments.
//!
//! One record codec serves every caller. [`PosteriorEncoder`] appends
//! records to one in-memory buffer that is written with a single call,
//! and [`PosteriorDecoder`] parses records from the file's bytes: one
//! CRC-32C call per record, names matched on borrowed bytes, and the
//! record count checked against the byte length before anything is sized
//! from it. A file must end exactly after its last record.
//! [`save_posteriors`] and [`load_posteriors`] are thin shapes over the
//! two; the fleet drives them directly from its flat archive.

use crate::persist::PersistError;
use adaedge_codecs::crc32c::crc32c;
use adaedge_codecs::CodecId;
use std::path::Path;

const MAGIC: &[u8; 4] = b"AEPS";
const VERSION: u16 = 1;
/// Magic, version and count.
const HEADER_LEN: usize = 4 + 2 + 8;
/// Fewest bytes a record can take: id, arm count, one arm with an empty
/// name, quarantine bits and CRC. Bounds the count a file can hold.
const MIN_RECORD_LEN: usize = 8 + 1 + (1 + 8 + 8 + 8) + 8 + 4;

/// One stream's persisted selector posterior. Vectors are aligned with
/// `arms`; `quarantine_bits` uses bit `i` = arm `i`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamPosterior {
    /// The stream this posterior belongs to.
    pub stream_id: u64,
    /// The arm roster the counts below are aligned with.
    pub arms: Vec<CodecId>,
    /// Per-arm pull counts.
    pub pulls: Vec<u64>,
    /// Per-arm reward estimates.
    pub estimates: Vec<f64>,
    /// Per-arm cumulative failure counts.
    pub failure_totals: Vec<u64>,
    /// Quarantine verdicts, bit `i` = arm `i`.
    pub quarantine_bits: u64,
}

impl StreamPosterior {
    /// Sanity-check internal alignment (vector lengths match the roster).
    pub fn is_consistent(&self) -> bool {
        self.as_record().is_consistent()
    }

    /// The posterior as a borrowed record.
    pub fn as_record(&self) -> PosteriorRecord<'_> {
        PosteriorRecord {
            stream_id: self.stream_id,
            arms: &self.arms,
            pulls: &self.pulls,
            estimates: &self.estimates,
            failure_totals: &self.failure_totals,
            quarantine_bits: self.quarantine_bits,
        }
    }
}

/// One posterior record over borrowed columns, the shape
/// [`PosteriorEncoder::push`] encodes. Slices are aligned with `arms`.
#[derive(Debug, Clone, Copy)]
pub struct PosteriorRecord<'a> {
    /// The stream this posterior belongs to.
    pub stream_id: u64,
    /// The arm roster the columns below are aligned with.
    pub arms: &'a [CodecId],
    /// Per-arm pull counts.
    pub pulls: &'a [u64],
    /// Per-arm reward estimates.
    pub estimates: &'a [f64],
    /// Per-arm cumulative failure counts.
    pub failure_totals: &'a [u64],
    /// Quarantine verdicts, bit `i` = arm `i`.
    pub quarantine_bits: u64,
}

impl PosteriorRecord<'_> {
    /// Whether every column has one entry per arm.
    fn is_consistent(&self) -> bool {
        let n = self.arms.len();
        self.pulls.len() == n && self.estimates.len() == n && self.failure_totals.len() == n
    }
}

/// Encodes a posterior archive into one in-memory buffer.
#[derive(Debug)]
pub struct PosteriorEncoder {
    buf: Vec<u8>,
    count: u64,
}

impl Default for PosteriorEncoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Encoded bytes of one record over `arms`, CRC included.
fn record_len(arms: &[CodecId]) -> usize {
    let names: usize = arms.iter().map(|c| c.name().len()).sum();
    8 + 1 + arms.len() * (1 + 8 + 8 + 8) + names + 8 + 4
}

impl PosteriorEncoder {
    /// An archive of no records yet.
    pub fn new() -> Self {
        Self::with_capacity(0, &[])
    }

    /// An archive of no records yet, with room for `records` records over
    /// the `arms` roster.
    pub fn with_capacity(records: usize, arms: &[CodecId]) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN + records * record_len(arms));
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        Self { buf, count: 0 }
    }

    /// Append one record and its CRC. A record the loader would reject
    /// (misaligned columns, no arms, more than 255 arms) is an
    /// [`PersistError::Invalid`] error and leaves the archive unchanged.
    pub fn push(&mut self, r: PosteriorRecord<'_>) -> Result<(), PersistError> {
        if !r.is_consistent() {
            return Err(PersistError::Invalid("posterior vectors misaligned"));
        }
        if r.arms.is_empty() || r.arms.len() > u8::MAX as usize {
            return Err(PersistError::Invalid("posterior arm count not in 1..=255"));
        }
        let start = self.buf.len();
        let buf = &mut self.buf;
        buf.reserve(record_len(r.arms));
        buf.extend_from_slice(&r.stream_id.to_le_bytes());
        buf.push(r.arms.len() as u8);
        for (i, &codec) in r.arms.iter().enumerate() {
            let name = codec.name().as_bytes();
            buf.push(name.len() as u8);
            buf.extend_from_slice(name);
            buf.extend_from_slice(&r.pulls[i].to_le_bytes());
            buf.extend_from_slice(&r.estimates[i].to_le_bytes());
            buf.extend_from_slice(&r.failure_totals[i].to_le_bytes());
        }
        buf.extend_from_slice(&r.quarantine_bits.to_le_bytes());
        let crc = crc32c(&buf[start..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        self.count += 1;
        Ok(())
    }

    /// The archive's bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.buf[6..HEADER_LEN].copy_from_slice(&self.count.to_le_bytes());
        self.buf
    }

    /// Write the archive to `path` in one call, replacing any existing
    /// file.
    pub fn write_to(self, path: &Path) -> Result<(), PersistError> {
        std::fs::write(path, self.into_bytes())?;
        Ok(())
    }
}

/// Parses a posterior archive held in memory, record by record.
#[derive(Debug)]
pub struct PosteriorDecoder<'a> {
    rest: &'a [u8],
    left: usize,
}

const TRUNCATED: PersistError = PersistError::Corrupt("posterior record truncated");

/// Split the next `N` bytes off `rest`.
fn take<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N], PersistError> {
    let (head, tail) = rest.split_first_chunk::<N>().ok_or(TRUNCATED)?;
    *rest = tail;
    Ok(*head)
}

fn take_u64(rest: &mut &[u8]) -> Result<u64, PersistError> {
    take(rest).map(u64::from_le_bytes)
}

impl<'a> PosteriorDecoder<'a> {
    /// Check the header, and that `bytes` can hold the records its count
    /// claims.
    pub fn new(bytes: &'a [u8]) -> Result<Self, PersistError> {
        let mut rest = bytes;
        let magic: [u8; 4] = take(&mut rest).map_err(|_| PersistError::BadHeader)?;
        let version: [u8; 2] = take(&mut rest).map_err(|_| PersistError::BadHeader)?;
        if &magic != MAGIC || u16::from_le_bytes(version) != VERSION {
            return Err(PersistError::BadHeader);
        }
        let count = take_u64(&mut rest).map_err(|_| PersistError::BadHeader)?;
        if count > (rest.len() / MIN_RECORD_LEN) as u64 {
            return Err(PersistError::Corrupt("posterior count exceeds the file"));
        }
        Ok(Self {
            rest,
            left: count as usize,
        })
    }

    /// Records not yet decoded. Checked against the byte length, so it is
    /// safe to size a buffer from.
    pub fn remaining(&self) -> usize {
        self.left
    }

    /// Decode the next record into `out`, reusing its vectors. Returns
    /// `Ok(false)` once every record is read; bytes left over after the
    /// last record are an error. On an error `out`'s contents are
    /// unspecified.
    pub fn next_into(&mut self, out: &mut StreamPosterior) -> Result<bool, PersistError> {
        if self.left == 0 {
            return if self.rest.is_empty() {
                Ok(false)
            } else {
                Err(PersistError::Corrupt("bytes after the last posterior"))
            };
        }
        let record = self.rest;
        let mut r = record;
        out.stream_id = take_u64(&mut r)?;
        let [n] = take::<1>(&mut r)?;
        let n = n as usize;
        if n == 0 {
            return Err(PersistError::Corrupt("posterior with zero arms"));
        }
        out.arms.clear();
        out.arms.reserve_exact(n);
        out.pulls.clear();
        out.pulls.reserve_exact(n);
        out.estimates.clear();
        out.estimates.reserve_exact(n);
        out.failure_totals.clear();
        out.failure_totals.reserve_exact(n);
        for _ in 0..n {
            let [len] = take::<1>(&mut r)?;
            let (name, tail) = r.split_at_checked(len as usize).ok_or(TRUNCATED)?;
            r = tail;
            let codec = std::str::from_utf8(name)
                .ok()
                .and_then(CodecId::from_name)
                .ok_or(PersistError::Corrupt("unknown codec name"))?;
            out.arms.push(codec);
            out.pulls.push(take_u64(&mut r)?);
            out.estimates.push(f64::from_bits(take_u64(&mut r)?));
            out.failure_totals.push(take_u64(&mut r)?);
        }
        out.quarantine_bits = take_u64(&mut r)?;
        let body = &record[..record.len() - r.len()];
        let stored = u32::from_le_bytes(take(&mut r)?);
        if crc32c(body) != stored {
            return Err(PersistError::ChecksumMismatch);
        }
        self.rest = r;
        self.left -= 1;
        Ok(true)
    }
}

/// Write stream posteriors to `path`, replacing any existing file. A
/// posterior the format cannot hold is an [`PersistError::Invalid`] error,
/// and then no file is touched.
pub fn save_posteriors<'a>(
    path: &Path,
    posteriors: impl ExactSizeIterator<Item = &'a StreamPosterior>,
) -> Result<(), PersistError> {
    let mut enc = PosteriorEncoder::new();
    for p in posteriors {
        enc.push(p.as_record())?;
    }
    enc.write_to(path)
}

/// Read every stream posterior from `path`, verifying each record's CRC.
pub fn load_posteriors(path: &Path) -> Result<Vec<StreamPosterior>, PersistError> {
    let bytes = std::fs::read(path)?;
    let mut dec = PosteriorDecoder::new(&bytes)?;
    let mut out = Vec::with_capacity(dec.remaining());
    loop {
        let mut p = StreamPosterior::default();
        if !dec.next_into(&mut p)? {
            return Ok(out);
        }
        out.push(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("adaedge-posterior-{name}-{}", std::process::id()));
        p
    }

    fn sample() -> Vec<StreamPosterior> {
        vec![
            StreamPosterior {
                stream_id: 7,
                arms: vec![CodecId::Gzip, CodecId::Sprintz, CodecId::Snappy],
                pulls: vec![120, 3400, 9],
                estimates: vec![0.41, 0.873456789, 0.02],
                failure_totals: vec![0, 0, 4],
                quarantine_bits: 0b100,
            },
            StreamPosterior {
                stream_id: u64::MAX,
                arms: vec![CodecId::Raw],
                pulls: vec![0],
                estimates: vec![1.0],
                failure_totals: vec![0],
                quarantine_bits: 0,
            },
        ]
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let posteriors = sample();
        let path = tmp("roundtrip");
        save_posteriors(&path, posteriors.iter()).unwrap();
        let loaded = load_posteriors(&path).unwrap();
        assert_eq!(loaded, posteriors);
        // f64 estimates survive to the bit.
        assert_eq!(
            loaded[0].estimates[1].to_bits(),
            posteriors[0].estimates[1].to_bits()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bitflip_in_estimate_detected() {
        let posteriors = sample();
        let path = tmp("bitflip");
        save_posteriors(&path, posteriors.iter()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the first record's estimate region:
        // structurally still valid, only the CRC can catch it.
        let target = 0.873456789f64.to_le_bytes();
        let pos = bytes.windows(8).position(|w| w == target).unwrap();
        bytes[pos + 2] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_posteriors(&path),
            Err(PersistError::ChecksumMismatch)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_header_rejected() {
        let path = tmp("badheader");
        std::fs::write(&path, b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00").unwrap();
        assert!(matches!(
            load_posteriors(&path),
            Err(PersistError::BadHeader)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let posteriors = sample();
        let path = tmp("truncated");
        save_posteriors(&path, posteriors.iter()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(load_posteriors(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Three records: the full lossless roster with quarantine bits, then
    /// the two of [`sample`].
    fn fixed_archive() -> Vec<StreamPosterior> {
        let roster = [
            CodecId::Gzip,
            CodecId::Snappy,
            CodecId::Gorilla,
            CodecId::Zlib6,
            CodecId::Buff,
            CodecId::Sprintz,
        ];
        let mut v = vec![StreamPosterior {
            stream_id: 0,
            arms: roster.to_vec(),
            pulls: (0..6).map(|i| i * 1000 + 7).collect(),
            estimates: (0..6).map(|i| 0.1 + i as f64 / 9.0).collect(),
            failure_totals: (0..6).map(|i| i % 3).collect(),
            quarantine_bits: 0b1001,
        }];
        v.extend(sample());
        v
    }

    fn fixed_bytes() -> Vec<u8> {
        let mut enc = PosteriorEncoder::new();
        for p in &fixed_archive() {
            enc.push(p.as_record()).unwrap();
        }
        enc.into_bytes()
    }

    #[test]
    fn archive_bytes_are_pinned() {
        // Length and digest of the fixed archive as the streaming
        // `Write`-based writer produced it, before the one-buffer encoder
        // replaced it: the format on disk must not move.
        let bytes = fixed_bytes();
        assert_eq!(bytes.len(), 381);
        assert_eq!(crc32c(&bytes), 0xa44d_ced4);
        let path = tmp("pinned");
        save_posteriors(&path, fixed_archive().iter()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_file(&path).ok();
    }

    /// Decode an in-memory archive the way [`load_posteriors`] does.
    fn decode(bytes: &[u8]) -> Result<Vec<StreamPosterior>, PersistError> {
        let mut dec = PosteriorDecoder::new(bytes)?;
        let mut out = Vec::new();
        let mut p = StreamPosterior::default();
        while dec.next_into(&mut p)? {
            out.push(p.clone());
        }
        Ok(out)
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let original = fixed_archive();
        let bytes = fixed_bytes();
        assert_eq!(decode(&bytes).unwrap(), original);
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "truncated to {len}");
        }
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            match decode(&flipped) {
                Err(_) => {}
                Ok(got) => assert_eq!(got, original, "bit {bit} flipped"),
            }
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        // Both fixed-archive shapes of a wrong count: one record short
        // leaves bytes over, one too many runs off the end.
        for count in [2u64, 4] {
            flipped[6..HEADER_LEN].copy_from_slice(&count.to_le_bytes());
            assert!(decode(&flipped).is_err(), "count {count}");
        }
    }

    #[test]
    fn count_beyond_the_file_fails_at_the_header() {
        // A count no file of this length can hold fails in the header
        // check, before any buffer is sized from it.
        let mut bytes = fixed_bytes();
        for count in [(bytes.len() / MIN_RECORD_LEN + 1) as u64, 1 << 29, u64::MAX] {
            bytes[6..HEADER_LEN].copy_from_slice(&count.to_le_bytes());
            assert!(matches!(
                PosteriorDecoder::new(&bytes),
                Err(PersistError::Corrupt("posterior count exceeds the file"))
            ));
            let path = tmp("bigcount");
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                load_posteriors(&path),
                Err(PersistError::Corrupt("posterior count exceeds the file"))
            ));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn misaligned_posterior_is_an_error_not_a_panic() {
        let mut bad = sample();
        bad[1].pulls.push(3);
        let path = tmp("misaligned");
        std::fs::write(&path, b"kept").unwrap();
        assert!(matches!(
            save_posteriors(&path, bad.iter()),
            Err(PersistError::Invalid("posterior vectors misaligned"))
        ));
        // Encoding fails before the file is opened.
        assert_eq!(std::fs::read(&path).unwrap(), b"kept");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arm_count_outside_a_byte_is_an_error_not_a_panic() {
        for n in [0, 256] {
            let p = StreamPosterior {
                stream_id: 1,
                arms: vec![CodecId::Raw; n],
                pulls: vec![0; n],
                estimates: vec![0.0; n],
                failure_totals: vec![0; n],
                quarantine_bits: 0,
            };
            let path = tmp("armcount");
            assert!(matches!(
                save_posteriors(&path, [p].iter()),
                Err(PersistError::Invalid("posterior arm count not in 1..=255"))
            ));
            assert!(!path.exists());
        }
    }

    #[test]
    fn empty_file_roundtrips() {
        let path = tmp("empty");
        save_posteriors(&path, [].iter()).unwrap();
        assert!(load_posteriors(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }
}
