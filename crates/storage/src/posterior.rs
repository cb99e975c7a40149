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
//! Format (little-endian throughout), following the segment file's
//! checksummed idiom ([`crate::persist`]):
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

use crate::persist::PersistError;
use adaedge_codecs::crc32c::{crc32c, crc32c_append};
use adaedge_codecs::CodecId;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"AEPS";
const VERSION: u16 = 1;

/// One stream's persisted selector posterior. Vectors are aligned with
/// `arms`; `quarantine_bits` uses bit `i` = arm `i`.
#[derive(Debug, Clone, PartialEq)]
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
        let n = self.arms.len();
        self.pulls.len() == n && self.estimates.len() == n && self.failure_totals.len() == n
    }
}

fn write_record<W: Write>(w: &mut W, p: &StreamPosterior) -> Result<(), PersistError> {
    assert!(p.is_consistent(), "posterior vectors misaligned");
    assert!(p.arms.len() <= u8::MAX as usize, "too many arms");
    w.write_all(&p.stream_id.to_le_bytes())?;
    w.write_all(&[p.arms.len() as u8])?;
    for (i, &codec) in p.arms.iter().enumerate() {
        let name = codec.name().as_bytes();
        w.write_all(&[name.len() as u8])?;
        w.write_all(name)?;
        w.write_all(&p.pulls[i].to_le_bytes())?;
        w.write_all(&p.estimates[i].to_le_bytes())?;
        w.write_all(&p.failure_totals[i].to_le_bytes())?;
    }
    w.write_all(&p.quarantine_bits.to_le_bytes())?;
    Ok(())
}

/// `Read` adapter folding every byte into a running CRC-32C (the
/// [`crate::persist`] idiom), so records verify without buffering.
struct CrcReader<R> {
    inner: R,
    crc: u32,
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc = crc32c_append(self.crc, &buf[..n]);
        Ok(n)
    }
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

fn read_f64<R: Read>(r: &mut R) -> Result<f64, PersistError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn read_record<R: Read>(r: &mut R) -> Result<StreamPosterior, PersistError> {
    let stream_id = read_u64(r)?;
    let mut n_arms = [0u8; 1];
    r.read_exact(&mut n_arms)?;
    let n = n_arms[0] as usize;
    if n == 0 {
        return Err(PersistError::Corrupt("posterior with zero arms"));
    }
    let mut arms = Vec::with_capacity(n);
    let mut pulls = Vec::with_capacity(n);
    let mut estimates = Vec::with_capacity(n);
    let mut failure_totals = Vec::with_capacity(n);
    for _ in 0..n {
        let mut len = [0u8; 1];
        r.read_exact(&mut len)?;
        let mut name = vec![0u8; len[0] as usize];
        r.read_exact(&mut name)?;
        let name = std::str::from_utf8(&name)
            .map_err(|_| PersistError::Corrupt("codec name not utf-8"))?;
        arms.push(CodecId::from_name(name).ok_or(PersistError::Corrupt("unknown codec name"))?);
        pulls.push(read_u64(r)?);
        estimates.push(read_f64(r)?);
        failure_totals.push(read_u64(r)?);
    }
    let quarantine_bits = read_u64(r)?;
    Ok(StreamPosterior {
        stream_id,
        arms,
        pulls,
        estimates,
        failure_totals,
        quarantine_bits,
    })
}

/// Write stream posteriors to `path`, replacing any existing file.
pub fn save_posteriors<'a>(
    path: &Path,
    posteriors: impl ExactSizeIterator<Item = &'a StreamPosterior>,
) -> Result<(), PersistError> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(posteriors.len() as u64).to_le_bytes())?;
    let mut record = Vec::new();
    for p in posteriors {
        record.clear();
        write_record(&mut record, p)?;
        w.write_all(&record)?;
        w.write_all(&crc32c(&record).to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Read every stream posterior from `path`, verifying each record's CRC.
pub fn load_posteriors(path: &Path) -> Result<Vec<StreamPosterior>, PersistError> {
    let mut r = io::BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    let mut version = [0u8; 2];
    r.read_exact(&mut version)?;
    if &magic != MAGIC || u16::from_le_bytes(version) != VERSION {
        return Err(PersistError::BadHeader);
    }
    let count = read_u64(&mut r)? as usize;
    if count > 1 << 30 {
        return Err(PersistError::Corrupt("posterior count implausible"));
    }
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let mut cr = CrcReader {
            inner: &mut r,
            crc: 0,
        };
        let rec = read_record(&mut cr)?;
        let computed = cr.crc;
        if read_u32(&mut r)? != computed {
            return Err(PersistError::ChecksumMismatch);
        }
        out.push(rec);
    }
    Ok(out)
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

    #[test]
    fn empty_file_roundtrips() {
        let path = tmp("empty");
        save_posteriors(&path, [].iter()).unwrap();
        assert!(load_posteriors(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }
}
