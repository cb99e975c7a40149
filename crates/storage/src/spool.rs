//! Durable segment spool: append-only, CRC-framed on-disk record log with
//! ACK-gated garbage collection (DESIGN.md §6d).
//!
//! An edge node that loses its uplink for hours or days must keep
//! compressing and *keep the results*: compressed egress lands here in
//! strictly sequenced, CRC-framed records across a directory of
//! append-only segment files, survives power loss via tail-scan crash
//! recovery, and is replayed in capture order once the link returns. The
//! ingest side reports `acked_seq` — the highest contiguous sequence it
//! has durably ingested — and only *fully ACKed, closed* segment files are
//! ever garbage-collected, giving at-least-once delivery end to end (the
//! receiver dedups duplicates idempotently; see `adaedge-core`'s
//! `uplink::Receiver`).
//!
//! ## On-disk format (little-endian throughout)
//!
//! Each segment file `NNNNNNNNNNNNNNNNNNNN.open|.closed` (N = 20-digit
//! zero-padded base sequence) starts with a checksummed header:
//!
//! ```text
//! magic "AESL" | version: u16 | base_seq: u64 | created_ts: u64
//! | crc32c: u32 over the 22 bytes above
//! ```
//!
//! followed by length-delimited record frames:
//!
//! ```text
//! len: u32                      — body length = 16 + payload length
//! body: seq: u64 | timestamp: u64 | payload bytes
//! crc32c: u32                   — over the len field and the body
//! ```
//!
//! Frames carry strictly consecutive sequence numbers (`base_seq`,
//! `base_seq + 1`, …), so a replayed or duplicated frame is structurally
//! invalid even when its CRC passes — recovery and replay validate both.
//!
//! ## Durability contract
//!
//! * Appends are single sequential `write(2)` calls; no user-space write
//!   buffering survives an `append` return.
//! * `fdatasync` is batched (`sync_interval`, default ~1s) rather than
//!   paid per record; a segment is always synced before it is closed
//!   (renamed `.open` → `.closed`), so closed segments are durable in
//!   full.
//! * Crash recovery ([`Spool::open`]) scans every segment, validates the
//!   frame chain, and truncates the *tail* segment at the first torn or
//!   corrupt frame — the recovered prefix is exactly the longest valid
//!   frame sequence, and at most the records appended after the last
//!   `fdatasync` batch are lost.
//! * Replay ([`Spool::replayer`]) exposes only records at or below
//!   `durable_seq` (it syncs first). A record that was written but never
//!   synced can be destroyed by a crash, and its sequence number is then
//!   reused for *different* data; shipping only durable records
//!   guarantees a sequence number never reaches the ingest side with two
//!   different payloads.
//!
//! ## Retention
//!
//! Retention is explicit, never silent: when `max_spool_bytes` or
//! `max_spool_age` is exceeded the *oldest closed* segment is dropped
//! (the open segment is never touched) and the dropped record/byte counts
//! — including how many were not yet ACKed — are surfaced in
//! [`SpoolStats`].

use adaedge_codecs::crc32c::{crc32c, crc32c_append};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const MAGIC: &[u8; 4] = b"AESL";
const VERSION: u16 = 1;
/// Segment-header bytes: magic(4) + version(2) + base_seq(8) +
/// created_ts(8) + crc32c(4).
pub const HEADER_BYTES: u64 = 26;
/// Per-frame overhead: len(4) + seq(8) + timestamp(8) + crc32c(4).
pub const FRAME_OVERHEAD: u64 = 24;
/// Fixed body bytes ahead of the payload (seq + timestamp).
const BODY_FIXED: u64 = 16;
/// Hard cap on a single record payload (structural sanity bound).
pub const MAX_PAYLOAD: usize = 1 << 30;

/// Errors from the spool.
#[derive(Debug)]
pub enum SpoolError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Invalid configuration.
    Config(&'static str),
    /// A record payload exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge {
        /// The offending payload length.
        len: usize,
    },
}

impl std::fmt::Display for SpoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpoolError::Io(e) => write!(f, "spool io error: {e}"),
            SpoolError::Config(what) => write!(f, "spool configuration error: {what}"),
            SpoolError::PayloadTooLarge { len } => {
                write!(f, "spool record payload too large: {len} bytes")
            }
        }
    }
}

impl std::error::Error for SpoolError {}

impl From<io::Error> for SpoolError {
    fn from(e: io::Error) -> Self {
        SpoolError::Io(e)
    }
}

/// Spool configuration.
#[derive(Debug, Clone)]
pub struct SpoolConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Rotate the open segment once it would exceed this many bytes
    /// (header included). A segment always holds at least one record.
    pub segment_max_bytes: u64,
    /// Batched-`fdatasync` interval (the ADR's ~1s default). A zero
    /// interval syncs on every append; [`Spool::sync`] is always
    /// available for explicit control (e.g. before shipping a frame).
    pub sync_interval: Duration,
    /// Retention: total spool bytes above which the oldest *closed*
    /// segment is dropped (accounted, never silent).
    pub max_spool_bytes: Option<u64>,
    /// Retention: drop the oldest closed segment once its newest record
    /// is older than this many timestamp units behind the newest record
    /// appended (caller-supplied logical clock).
    pub max_spool_age: Option<u64>,
}

impl SpoolConfig {
    /// Defaults matching the offline-telemetry ADR: 1 MiB segments,
    /// ~1s batched `fdatasync`, no retention bounds.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_max_bytes: 1 << 20,
            sync_interval: Duration::from_secs(1),
            max_spool_bytes: None,
            max_spool_age: None,
        }
    }
}

/// One spooled record, as appended and as replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpoolRecord {
    /// Monotonic capture sequence number (starts at 1; 0 means
    /// "nothing" in ACK arithmetic).
    pub seq: u64,
    /// Caller-supplied capture timestamp (logical clock).
    pub timestamp: u64,
    /// Opaque record payload.
    pub payload: Vec<u8>,
}

/// Per-segment bookkeeping. `last_seq`/`first_ts`/`last_ts` are only
/// meaningful when `records > 0`.
#[derive(Debug, Clone)]
struct SegMeta {
    path: PathBuf,
    base_seq: u64,
    last_seq: u64,
    records: u64,
    /// Valid bytes (header + validated frames).
    bytes: u64,
    first_ts: u64,
    last_ts: u64,
    /// A non-tail segment whose frame chain ends early (bit rot): its
    /// valid prefix stays replayable, the rest is a known gap.
    corrupt: bool,
}

impl SegMeta {
    /// Records in this segment with sequence beyond `acked`.
    fn unacked_records(&self, acked: u64) -> u64 {
        if self.records == 0 || acked >= self.last_seq {
            0
        } else {
            self.last_seq - acked.max(self.base_seq.saturating_sub(1))
        }
    }
}

#[derive(Debug)]
struct OpenSeg {
    meta: SegMeta,
    file: File,
    /// Bytes known durable after the last `fdatasync`.
    synced_bytes: u64,
}

/// Counters and gauges describing the spool's current state and its
/// lifetime accounting (all monotonic except the depth gauges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpoolStats {
    /// Records currently spooled (open + closed segments).
    pub records: u64,
    /// Bytes currently on disk (headers + frames).
    pub bytes: u64,
    /// Segment files currently on disk.
    pub segments: u64,
    /// Closed segment files currently on disk.
    pub closed_segments: u64,
    /// Next sequence number to be assigned.
    pub next_seq: u64,
    /// Highest contiguous sequence the ingest side has confirmed durable.
    pub acked_seq: u64,
    /// Highest sequence known durable on *this* node (last `fdatasync`).
    pub durable_seq: u64,
    /// Timestamp of the oldest record still spooled (0 when empty).
    pub oldest_ts: u64,
    /// Newest timestamp ever appended (retention's logical "now").
    pub newest_ts: u64,
    /// Lifetime records appended.
    pub appended_records: u64,
    /// Lifetime frame bytes appended (overheads included).
    pub appended_bytes: u64,
    /// Lifetime `fdatasync` batches issued.
    pub syncs: u64,
    /// Segments dropped by retention.
    pub dropped_segments: u64,
    /// Records dropped by retention.
    pub dropped_records: u64,
    /// Bytes dropped by retention.
    pub dropped_bytes: u64,
    /// Retention-dropped records that were *not yet ACKed* (data loss
    /// the ingest side will never see — bounded-disk reality, surfaced).
    pub dropped_unacked_records: u64,
    /// Segments garbage-collected after full ACK.
    pub gc_segments: u64,
    /// Records garbage-collected after full ACK.
    pub gc_records: u64,
    /// Records recovered by the last [`Spool::open`] scan.
    pub recovered_records: u64,
    /// Torn/corrupt tail bytes truncated by the last [`Spool::open`].
    pub recovered_truncated_bytes: u64,
    /// Unreadable segment files (corrupt header) removed at open.
    pub recovered_dropped_files: u64,
    /// Non-tail segments whose frame chain ends early (bit rot): their
    /// valid prefix replays, the remainder reports as a [`ReplayItem::Gap`].
    pub corrupt_segments: u64,
}

/// The outcome of validating one segment file.
struct ScanOutcome {
    header_ok: bool,
    base_seq: u64,
    records: u64,
    last_seq: u64,
    first_ts: u64,
    last_ts: u64,
    /// Header + validated frames.
    valid_bytes: u64,
    /// Total file length.
    file_bytes: u64,
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            return Ok(false);
        }
        filled += n;
    }
    Ok(true)
}

/// Scan a segment file, validating the header and the frame chain.
/// Stops (without error) at the first torn or corrupt frame.
fn scan_segment(path: &Path) -> io::Result<ScanOutcome> {
    let file = File::open(path)?;
    let file_bytes = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut out = ScanOutcome {
        header_ok: false,
        base_seq: 0,
        records: 0,
        last_seq: 0,
        first_ts: 0,
        last_ts: 0,
        valid_bytes: 0,
        file_bytes,
    };
    let mut header = [0u8; HEADER_BYTES as usize];
    if !read_exact_or_eof(&mut r, &mut header)? {
        return Ok(out);
    }
    let crc_stored = u32::from_le_bytes(header[22..26].try_into().expect("4 bytes"));
    if &header[0..4] != MAGIC
        || u16::from_le_bytes(header[4..6].try_into().expect("2 bytes")) != VERSION
        || crc32c(&header[..22]) != crc_stored
    {
        return Ok(out);
    }
    out.header_ok = true;
    out.base_seq = u64::from_le_bytes(header[6..14].try_into().expect("8 bytes"));
    out.valid_bytes = HEADER_BYTES;
    let mut body = Vec::new();
    loop {
        let mut len_bytes = [0u8; 4];
        if !read_exact_or_eof(&mut r, &mut len_bytes)? {
            break;
        }
        let len = u32::from_le_bytes(len_bytes) as u64;
        if len < BODY_FIXED || len > BODY_FIXED + MAX_PAYLOAD as u64 {
            break;
        }
        body.resize(len as usize, 0);
        if !read_exact_or_eof(&mut r, &mut body)? {
            break;
        }
        let mut crc_bytes = [0u8; 4];
        if !read_exact_or_eof(&mut r, &mut crc_bytes)? {
            break;
        }
        let crc = crc32c_append(crc32c(&len_bytes), &body);
        if crc != u32::from_le_bytes(crc_bytes) {
            break;
        }
        let seq = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
        if seq != out.base_seq + out.records {
            break; // duplicated or misordered frame: structurally invalid
        }
        let ts = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
        if out.records == 0 {
            out.first_ts = ts;
        }
        out.last_ts = ts;
        out.last_seq = seq;
        out.records += 1;
        out.valid_bytes += 4 + len + 4;
    }
    Ok(out)
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn segment_path(dir: &Path, base_seq: u64, closed: bool) -> PathBuf {
    dir.join(format!(
        "{base_seq:020}.{}",
        if closed { "closed" } else { "open" }
    ))
}

/// Parse `NNNN.open` / `NNNN.closed` into (base_seq, closed).
fn parse_segment_name(name: &str) -> Option<(u64, bool)> {
    let (stem, ext) = name.split_once('.')?;
    if stem.len() != 20 {
        return None;
    }
    let base = stem.parse::<u64>().ok()?;
    match ext {
        "open" => Some((base, false)),
        "closed" => Some((base, true)),
        _ => None,
    }
}

/// The durable segment spool. See the module docs for the format and the
/// durability contract.
#[derive(Debug)]
pub struct Spool {
    cfg: SpoolConfig,
    closed: VecDeque<SegMeta>,
    open: Option<OpenSeg>,
    next_seq: u64,
    acked_seq: u64,
    durable_seq: u64,
    newest_ts: u64,
    last_sync: Instant,
    frame_buf: Vec<u8>,
    // Lifetime counters (see SpoolStats).
    appended_records: u64,
    appended_bytes: u64,
    syncs: u64,
    dropped_segments: u64,
    dropped_records: u64,
    dropped_bytes: u64,
    dropped_unacked_records: u64,
    gc_segments: u64,
    gc_records: u64,
    recovered_records: u64,
    recovered_truncated_bytes: u64,
    recovered_dropped_files: u64,
}

impl Spool {
    /// Open (or create) a spool at `cfg.dir`, running crash recovery:
    /// every segment's frame chain is validated, the tail segment is
    /// truncated at the first torn/corrupt frame, and an unreadable tail
    /// file (corrupt header — torn creation) is removed. Never panics on
    /// corrupt input; the recovered record set is exactly the longest
    /// valid frame sequence per segment.
    pub fn open(cfg: SpoolConfig) -> Result<Self, SpoolError> {
        if cfg.segment_max_bytes < HEADER_BYTES + FRAME_OVERHEAD {
            return Err(SpoolError::Config(
                "segment_max_bytes smaller than one header + frame",
            ));
        }
        std::fs::create_dir_all(&cfg.dir)?;
        let mut names: Vec<(u64, bool)> = Vec::new();
        for entry in std::fs::read_dir(&cfg.dir)? {
            let entry = entry?;
            if let Some(parsed) = entry.file_name().to_str().and_then(parse_segment_name) {
                names.push(parsed);
            }
        }
        names.sort_unstable();

        let mut spool = Self {
            cfg,
            closed: VecDeque::new(),
            open: None,
            next_seq: 1,
            acked_seq: 0,
            durable_seq: 0,
            newest_ts: 0,
            last_sync: Instant::now(),
            frame_buf: Vec::new(),
            appended_records: 0,
            appended_bytes: 0,
            syncs: 0,
            dropped_segments: 0,
            dropped_records: 0,
            dropped_bytes: 0,
            dropped_unacked_records: 0,
            gc_segments: 0,
            gc_records: 0,
            recovered_records: 0,
            recovered_truncated_bytes: 0,
            recovered_dropped_files: 0,
        };

        let last_idx = names.len().wrapping_sub(1);
        for (i, &(base, was_closed)) in names.iter().enumerate() {
            let is_tail = i == last_idx;
            let path = segment_path(&spool.cfg.dir, base, was_closed);
            let scan = scan_segment(&path)?;
            if !scan.header_ok {
                // Unreadable file. A torn tail creation is expected crash
                // fallout; mid-spool it is unrecoverable bit rot. Either
                // way nothing in it can be replayed — remove and count.
                std::fs::remove_file(&path)?;
                spool.recovered_dropped_files += 1;
                continue;
            }
            let torn_tail = scan.valid_bytes < scan.file_bytes;
            if torn_tail && is_tail {
                // Crash recovery: truncate the torn tail and make the
                // surviving prefix durable before accepting new appends.
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.valid_bytes)?;
                f.sync_data()?;
                spool.recovered_truncated_bytes += scan.file_bytes - scan.valid_bytes;
            }
            let mut meta = SegMeta {
                path: path.clone(),
                base_seq: scan.base_seq,
                last_seq: scan.last_seq,
                records: scan.records,
                bytes: scan.valid_bytes,
                first_ts: scan.first_ts,
                last_ts: scan.last_ts,
                corrupt: torn_tail && !is_tail,
            };
            spool.recovered_records += scan.records;
            if scan.records > 0 {
                spool.next_seq = spool.next_seq.max(scan.last_seq + 1);
                spool.newest_ts = spool.newest_ts.max(scan.last_ts);
            } else {
                spool.next_seq = spool.next_seq.max(scan.base_seq);
            }
            if is_tail && !was_closed {
                let file = OpenOptions::new().append(true).open(&path)?;
                let synced_bytes = meta.bytes;
                spool.open = Some(OpenSeg {
                    meta,
                    file,
                    synced_bytes,
                });
            } else {
                if !was_closed {
                    // A stale `.open` that is not the tail (lost rename):
                    // finish the close now.
                    let closed_path = segment_path(&spool.cfg.dir, base, true);
                    std::fs::rename(&path, &closed_path)?;
                    meta.path = closed_path;
                }
                spool.closed.push_back(meta);
            }
        }
        if spool.recovered_dropped_files > 0 || !names.is_empty() {
            sync_dir(&spool.cfg.dir)?;
        }
        // Everything that survived the scan is on disk and synced.
        spool.durable_seq = spool.next_seq - 1;
        Ok(spool)
    }

    /// The active configuration.
    pub fn config(&self) -> &SpoolConfig {
        &self.cfg
    }

    /// Append one record, returning its sequence number. The write is a
    /// single sequential `write(2)`; durability follows the batched-sync
    /// policy (or an explicit [`Spool::sync`]). Rotates the open segment
    /// at `segment_max_bytes` and enforces retention afterwards.
    pub fn append(&mut self, timestamp: u64, payload: &[u8]) -> Result<u64, SpoolError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(SpoolError::PayloadTooLarge { len: payload.len() });
        }
        let frame_len = FRAME_OVERHEAD + payload.len() as u64;
        if let Some(open) = &self.open {
            if open.meta.records > 0 && open.meta.bytes + frame_len > self.cfg.segment_max_bytes {
                self.close_open()?;
            }
        }
        if self.open.is_none() {
            self.create_open(timestamp)?;
        }
        let seq = self.next_seq;
        let body_len = (BODY_FIXED + payload.len() as u64) as u32;
        self.frame_buf.clear();
        self.frame_buf.extend_from_slice(&body_len.to_le_bytes());
        self.frame_buf.extend_from_slice(&seq.to_le_bytes());
        self.frame_buf.extend_from_slice(&timestamp.to_le_bytes());
        self.frame_buf.extend_from_slice(payload);
        let crc = crc32c(&self.frame_buf);
        self.frame_buf.extend_from_slice(&crc.to_le_bytes());
        let open = self.open.as_mut().expect("created above");
        open.file.write_all(&self.frame_buf)?;
        if open.meta.records == 0 {
            open.meta.first_ts = timestamp;
        }
        open.meta.last_ts = timestamp;
        open.meta.last_seq = seq;
        open.meta.records += 1;
        open.meta.bytes += frame_len;
        self.next_seq += 1;
        self.newest_ts = self.newest_ts.max(timestamp);
        self.appended_records += 1;
        self.appended_bytes += frame_len;
        if self.cfg.sync_interval.is_zero() || self.last_sync.elapsed() >= self.cfg.sync_interval {
            self.sync()?;
        }
        self.enforce_retention()?;
        Ok(seq)
    }

    /// Flush the batched-sync window: `fdatasync` the open segment and
    /// advance `durable_seq` to the last appended record.
    pub fn sync(&mut self) -> Result<(), SpoolError> {
        if let Some(open) = self.open.as_mut() {
            if open.synced_bytes < open.meta.bytes {
                open.file.sync_data()?;
                open.synced_bytes = open.meta.bytes;
                self.syncs += 1;
            }
        }
        self.durable_seq = self.next_seq - 1;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Report the ingest side's ACK cursor (highest contiguous sequence
    /// durably ingested) and garbage-collect every *closed* segment whose
    /// records are all at or below it. Returns the number of segment
    /// files deleted. The open segment is never touched, and no record
    /// above `acked_seq` is ever deleted by this path.
    pub fn ack(&mut self, acked_seq: u64) -> Result<usize, SpoolError> {
        self.acked_seq = self.acked_seq.max(acked_seq.min(self.next_seq - 1));
        let mut removed = 0usize;
        while let Some(front) = self.closed.front() {
            let fully_acked = front.records > 0 && front.last_seq <= self.acked_seq;
            let empty = front.records == 0;
            if !(fully_acked || empty) {
                break;
            }
            let seg = self.closed.pop_front().expect("peeked above");
            std::fs::remove_file(&seg.path)?;
            self.gc_segments += 1;
            self.gc_records += seg.records;
            removed += 1;
        }
        if removed > 0 {
            sync_dir(&self.cfg.dir)?;
        }
        Ok(removed)
    }

    /// Build a replayer over every durable record with `seq > from_seq`,
    /// in capture order. Syncs first so the durable horizon includes
    /// everything appended so far. The replayer snapshots segment
    /// metadata and reads files independently, so the caller may continue
    /// to [`Spool::ack`] (GC only removes fully-ACKed segments, which the
    /// replay cursor has already passed).
    pub fn replayer(&mut self, from_seq: u64) -> Result<Replayer, SpoolError> {
        self.sync()?;
        let cap_seq = self.durable_seq;
        let mut segs: Vec<ReplaySeg> = Vec::new();
        for meta in self
            .closed
            .iter()
            .chain(self.open.as_ref().map(|o| &o.meta))
        {
            if meta.records == 0 || meta.last_seq <= from_seq {
                continue;
            }
            segs.push(ReplaySeg {
                path: meta.path.clone(),
                base_seq: meta.base_seq,
                last_seq: meta.last_seq,
            });
        }
        let last_seq = segs.last().map(|s| s.last_seq).unwrap_or(from_seq);
        Ok(Replayer {
            segs,
            idx: 0,
            reader: None,
            expect: from_seq + 1,
            cap_seq,
            last_seq,
            done: false,
        })
    }

    /// Depth gauges and lifetime counters.
    pub fn stats(&self) -> SpoolStats {
        let metas = self
            .closed
            .iter()
            .chain(self.open.as_ref().map(|o| &o.meta));
        let mut records = 0u64;
        let mut bytes = 0u64;
        let mut segments = 0u64;
        let mut oldest_ts = 0u64;
        let mut corrupt_segments = 0u64;
        for m in metas {
            if records == 0 && m.records > 0 {
                oldest_ts = m.first_ts;
            }
            records += m.records;
            bytes += m.bytes;
            segments += 1;
            corrupt_segments += u64::from(m.corrupt);
        }
        SpoolStats {
            records,
            bytes,
            segments,
            closed_segments: self.closed.len() as u64,
            next_seq: self.next_seq,
            acked_seq: self.acked_seq,
            durable_seq: self.durable_seq,
            oldest_ts,
            newest_ts: self.newest_ts,
            appended_records: self.appended_records,
            appended_bytes: self.appended_bytes,
            syncs: self.syncs,
            dropped_segments: self.dropped_segments,
            dropped_records: self.dropped_records,
            dropped_bytes: self.dropped_bytes,
            dropped_unacked_records: self.dropped_unacked_records,
            gc_segments: self.gc_segments,
            gc_records: self.gc_records,
            recovered_records: self.recovered_records,
            recovered_truncated_bytes: self.recovered_truncated_bytes,
            recovered_dropped_files: self.recovered_dropped_files,
            corrupt_segments,
        }
    }

    /// Path of the current open segment, if any (test/ops introspection:
    /// the power-loss fault suite truncates this file).
    pub fn open_segment_path(&self) -> Option<PathBuf> {
        self.open.as_ref().map(|o| o.meta.path.clone())
    }

    /// Bytes of the open segment known durable after the last sync
    /// (test/ops introspection: the power-loss fault model may destroy
    /// anything beyond this offset, never at or below it).
    pub fn open_segment_synced_bytes(&self) -> u64 {
        self.open.as_ref().map(|o| o.synced_bytes).unwrap_or(0)
    }

    /// Bytes currently written to the open segment (header included).
    pub fn open_segment_len(&self) -> u64 {
        self.open.as_ref().map(|o| o.meta.bytes).unwrap_or(0)
    }

    fn create_open(&mut self, created_ts: u64) -> Result<(), SpoolError> {
        let base = self.next_seq;
        let path = segment_path(&self.cfg.dir, base, false);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)?;
        let mut header = [0u8; HEADER_BYTES as usize];
        header[0..4].copy_from_slice(MAGIC);
        header[4..6].copy_from_slice(&VERSION.to_le_bytes());
        header[6..14].copy_from_slice(&base.to_le_bytes());
        header[14..22].copy_from_slice(&created_ts.to_le_bytes());
        let crc = crc32c(&header[..22]);
        header[22..26].copy_from_slice(&crc.to_le_bytes());
        file.write_all(&header)?;
        // The header must be durable before any ACK-gated GC or retention
        // drop can delete older segments: it carries `base_seq`, the
        // persisted floor of the sequence counter. Without this sync, a
        // crash after GC could tear the header, recovery would remove the
        // file, and a freshly reopened spool would reuse sequence numbers
        // the ingest side has already ACKed — silently dedup-dropping new
        // records forever. One 26-byte fdatasync per rotation is cheap
        // insurance against that.
        file.sync_data()?;
        self.syncs += 1;
        sync_dir(&self.cfg.dir)?;
        self.open = Some(OpenSeg {
            meta: SegMeta {
                path,
                base_seq: base,
                last_seq: 0,
                records: 0,
                bytes: HEADER_BYTES,
                first_ts: 0,
                last_ts: 0,
                corrupt: false,
            },
            file,
            synced_bytes: HEADER_BYTES,
        });
        Ok(())
    }

    /// Close the open segment: sync it (closed segments are durable in
    /// full), rename `.open` → `.closed`, and persist the rename.
    fn close_open(&mut self) -> Result<(), SpoolError> {
        let Some(mut open) = self.open.take() else {
            return Ok(());
        };
        if open.synced_bytes < open.meta.bytes {
            open.file.sync_data()?;
            self.syncs += 1;
        }
        if open.meta.records > 0 {
            self.durable_seq = self.durable_seq.max(open.meta.last_seq);
        }
        let closed_path = segment_path(&self.cfg.dir, open.meta.base_seq, true);
        std::fs::rename(&open.meta.path, &closed_path)?;
        sync_dir(&self.cfg.dir)?;
        open.meta.path = closed_path;
        self.closed.push_back(open.meta);
        Ok(())
    }

    /// Drop oldest closed segments while a retention bound is exceeded.
    fn enforce_retention(&mut self) -> Result<(), SpoolError> {
        loop {
            let Some(front) = self.closed.front() else {
                return Ok(());
            };
            let total_bytes: u64 = self.closed.iter().map(|m| m.bytes).sum::<u64>()
                + self.open.as_ref().map(|o| o.meta.bytes).unwrap_or(0);
            let over_bytes = self
                .cfg
                .max_spool_bytes
                .is_some_and(|cap| total_bytes > cap);
            let over_age = self.cfg.max_spool_age.is_some_and(|max_age| {
                front.records > 0 && self.newest_ts.saturating_sub(front.last_ts) > max_age
            });
            if !(over_bytes || over_age) {
                return Ok(());
            }
            let seg = self.closed.pop_front().expect("front checked above");
            std::fs::remove_file(&seg.path)?;
            sync_dir(&self.cfg.dir)?;
            self.dropped_segments += 1;
            self.dropped_records += seg.records;
            self.dropped_bytes += seg.bytes;
            self.dropped_unacked_records += seg.unacked_records(self.acked_seq);
        }
    }
}

/// One replay-snapshot segment.
#[derive(Debug, Clone)]
struct ReplaySeg {
    path: PathBuf,
    base_seq: u64,
    last_seq: u64,
}

/// One step of a replay: a recovered record, or a known-lost sequence
/// range (bit rot inside a closed segment, or a segment dropped by
/// retention mid-replay). Gaps name the records that no longer exist
/// anywhere, so a replay can count them lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayItem {
    /// A spooled record, delivered in capture order.
    Record(SpoolRecord),
    /// Sequences `from_seq..=to_seq` are unrecoverable.
    Gap {
        /// First lost sequence.
        from_seq: u64,
        /// Last lost sequence (inclusive).
        to_seq: u64,
    },
}

/// Capture-order iterator over a spool's durable backlog. Built by
/// [`Spool::replayer`]; yields [`ReplayItem`]s. Rate control belongs to
/// the caller: pull as many items per tick as the egress budget allows.
#[derive(Debug)]
pub struct Replayer {
    segs: Vec<ReplaySeg>,
    idx: usize,
    reader: Option<SegReader>,
    /// Next sequence the consumer expects (gap detection).
    expect: u64,
    /// Durable horizon: records above this are not exposed.
    cap_seq: u64,
    /// Highest sequence the snapshot says exists.
    last_seq: u64,
    done: bool,
}

#[derive(Debug)]
struct SegReader {
    r: BufReader<File>,
    seg_last: u64,
}

impl Replayer {
    /// Rewind the replay cursor so the next item is the first record
    /// with `seq > from_seq` — the NACK path: an uplink abandoning
    /// un-ACKed records hands their lowest predecessor back here and the
    /// replay re-delivers them (the receiver dedups anything that
    /// did land). Rewinding restarts the segment walk from the front of
    /// the original snapshot; the `rec.seq < expect` skip fast-forwards
    /// inside each segment. Records outside the snapshot (appended after
    /// [`Spool::replayer`], or below its `from_seq`) stay invisible, and
    /// a segment GC'd since the snapshot degrades to a [`ReplayItem::Gap`]
    /// — GC only ever removes fully-ACKed segments, which a NACK rewind
    /// never targets.
    pub fn rewind(&mut self, from_seq: u64) {
        self.idx = 0;
        self.reader = None;
        self.done = false;
        self.expect = from_seq + 1;
    }

    /// Read the next frame from the current segment reader. `None` on a
    /// clean or corrupt end of segment (both close the segment).
    fn next_frame(reader: &mut SegReader) -> Option<SpoolRecord> {
        let r = &mut reader.r;
        let mut len_bytes = [0u8; 4];
        if !read_exact_or_eof(r, &mut len_bytes).ok()? {
            return None;
        }
        let len = u32::from_le_bytes(len_bytes) as u64;
        if len < BODY_FIXED || len > BODY_FIXED + MAX_PAYLOAD as u64 {
            return None;
        }
        let mut body = vec![0u8; len as usize];
        if !read_exact_or_eof(r, &mut body).ok()? {
            return None;
        }
        let mut crc_bytes = [0u8; 4];
        if !read_exact_or_eof(r, &mut crc_bytes).ok()? {
            return None;
        }
        if crc32c_append(crc32c(&len_bytes), &body) != u32::from_le_bytes(crc_bytes) {
            return None;
        }
        let seq = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
        let timestamp = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
        let payload = body.split_off(BODY_FIXED as usize);
        Some(SpoolRecord {
            seq,
            timestamp,
            payload,
        })
    }
}

impl Iterator for Replayer {
    type Item = ReplayItem;

    fn next(&mut self) -> Option<ReplayItem> {
        loop {
            if self.done || self.expect > self.cap_seq {
                self.done = true;
                return None;
            }
            if let Some(reader) = self.reader.as_mut() {
                let seg_last = reader.seg_last;
                match Replayer::next_frame(reader) {
                    Some(rec) => {
                        if rec.seq < self.expect {
                            continue; // already consumed (replay start mid-segment)
                        }
                        if rec.seq != self.expect {
                            // Misordered/duplicated frame: treat the rest
                            // of this segment as lost.
                            self.reader = None;
                            let to = seg_last.min(self.cap_seq);
                            if to >= self.expect {
                                let from = self.expect;
                                self.expect = to + 1;
                                return Some(ReplayItem::Gap {
                                    from_seq: from,
                                    to_seq: to,
                                });
                            }
                            continue;
                        }
                        if rec.seq > self.cap_seq {
                            self.done = true;
                            return None;
                        }
                        self.expect = rec.seq + 1;
                        if rec.seq == seg_last {
                            self.reader = None;
                        }
                        return Some(ReplayItem::Record(rec));
                    }
                    None => {
                        // Clean EOF before seg_last, or corrupt frame:
                        // the remainder of this segment is lost.
                        self.reader = None;
                        let to = seg_last.min(self.cap_seq);
                        if to >= self.expect {
                            let from = self.expect;
                            self.expect = to + 1;
                            return Some(ReplayItem::Gap {
                                from_seq: from,
                                to_seq: to,
                            });
                        }
                        continue;
                    }
                }
            }
            // Advance to the next snapshot segment.
            let Some(seg) = self.segs.get(self.idx) else {
                // Snapshot exhausted. Anything still expected below the
                // snapshot horizon is lost.
                self.done = true;
                let to = self.last_seq.min(self.cap_seq);
                if to >= self.expect {
                    let from = self.expect;
                    self.expect = to + 1;
                    return Some(ReplayItem::Gap {
                        from_seq: from,
                        to_seq: to,
                    });
                }
                return None;
            };
            if seg.base_seq > self.expect {
                // Records between segments no longer exist (dropped or
                // truncated): report the gap, then open this segment on
                // the next pass (idx is not consumed yet).
                let from = self.expect;
                let to = (seg.base_seq - 1).min(self.cap_seq);
                if to >= from {
                    self.expect = to + 1;
                    return Some(ReplayItem::Gap {
                        from_seq: from,
                        to_seq: to,
                    });
                }
            }
            let seg = seg.clone();
            self.idx += 1;
            match File::open(&seg.path) {
                Ok(file) => {
                    let mut r = BufReader::new(file);
                    let mut header = [0u8; HEADER_BYTES as usize];
                    let header_ok = read_exact_or_eof(&mut r, &mut header).unwrap_or(false)
                        && &header[0..4] == MAGIC
                        && crc32c(&header[..22])
                            == u32::from_le_bytes(header[22..26].try_into().expect("4 bytes"));
                    if header_ok {
                        self.reader = Some(SegReader {
                            r,
                            seg_last: seg.last_seq,
                        });
                    } else {
                        let from = self.expect.max(seg.base_seq);
                        let to = seg.last_seq.min(self.cap_seq);
                        if to >= from {
                            self.expect = to + 1;
                            return Some(ReplayItem::Gap {
                                from_seq: from,
                                to_seq: to,
                            });
                        }
                    }
                }
                Err(_) => {
                    // Segment vanished (GC'd or retention-dropped after
                    // the snapshot): its records are gone.
                    let from = self.expect.max(seg.base_seq);
                    let to = seg.last_seq.min(self.cap_seq);
                    if to >= from {
                        self.expect = to + 1;
                        return Some(ReplayItem::Gap {
                            from_seq: from,
                            to_seq: to,
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "adaedge-spool-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn cfg(dir: &Path) -> SpoolConfig {
        let mut c = SpoolConfig::new(dir);
        c.sync_interval = Duration::from_secs(3600); // explicit sync only
        c
    }

    fn drain(spool: &mut Spool, from: u64) -> Vec<ReplayItem> {
        spool.replayer(from).unwrap().collect()
    }

    fn records(items: &[ReplayItem]) -> Vec<u64> {
        items
            .iter()
            .filter_map(|i| match i {
                ReplayItem::Record(r) => Some(r.seq),
                ReplayItem::Gap { .. } => None,
            })
            .collect()
    }

    #[test]
    fn append_sync_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut spool = Spool::open(cfg(&dir)).unwrap();
        for i in 0..20u64 {
            let seq = spool.append(100 + i, &[i as u8; 33]).unwrap();
            assert_eq!(seq, i + 1);
        }
        spool.sync().unwrap();
        let items = drain(&mut spool, 0);
        assert_eq!(records(&items), (1..=20).collect::<Vec<_>>());
        for item in &items {
            let ReplayItem::Record(r) = item else {
                panic!("unexpected gap: {item:?}");
            };
            assert_eq!(r.timestamp, 99 + r.seq);
            assert_eq!(r.payload, vec![(r.seq - 1) as u8; 33]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_exposes_only_durable_records() {
        let dir = tmpdir("durable-horizon");
        let mut spool = Spool::open(cfg(&dir)).unwrap();
        for i in 0..5u64 {
            spool.append(i, b"x").unwrap();
        }
        // replayer() syncs internally, so everything becomes visible.
        assert_eq!(records(&drain(&mut spool, 0)).len(), 5);
        assert_eq!(spool.stats().durable_seq, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replayer_rewind_redelivers_from_the_nack_point() {
        let dir = tmpdir("rewind");
        let mut c = cfg(&dir);
        // Force several segments so the rewind walks segment boundaries.
        c.segment_max_bytes = HEADER_BYTES + 3 * (FRAME_OVERHEAD + 8);
        let mut spool = Spool::open(c).unwrap();
        for i in 0..12u64 {
            spool.append(i, &[i as u8; 8]).unwrap();
        }
        let mut rep = spool.replayer(0).unwrap();
        // Consume the first 9 records, then NACK back to after seq 4.
        let mut seen = Vec::new();
        for _ in 0..9 {
            match rep.next().unwrap() {
                ReplayItem::Record(r) => seen.push(r.seq),
                item => panic!("unexpected gap: {item:?}"),
            }
        }
        assert_eq!(seen, (1..=9).collect::<Vec<_>>());
        rep.rewind(4);
        let replayed = records(&rep.collect::<Vec<_>>());
        assert_eq!(replayed, (5..=12).collect::<Vec<_>>());
        // A second rewind on the exhausted iterator revives it too.
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replayer_rewind_after_exhaustion_revives_the_cursor() {
        let dir = tmpdir("rewind-exhausted");
        let mut spool = Spool::open(cfg(&dir)).unwrap();
        for i in 0..6u64 {
            spool.append(i, b"abc").unwrap();
        }
        let mut rep = spool.replayer(0).unwrap();
        assert_eq!(records(&rep.by_ref().collect::<Vec<_>>()).len(), 6);
        assert!(rep.next().is_none(), "exhausted");
        rep.rewind(2);
        assert_eq!(records(&rep.collect::<Vec<_>>()), vec![3, 4, 5, 6]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_closes_segments_and_reopen_recovers_all() {
        let dir = tmpdir("rotate");
        let mut c = cfg(&dir);
        c.segment_max_bytes = HEADER_BYTES + 3 * (FRAME_OVERHEAD + 8);
        let mut spool = Spool::open(c.clone()).unwrap();
        for i in 0..10u64 {
            spool.append(i, &[7u8; 8]).unwrap();
        }
        spool.sync().unwrap();
        assert!(spool.stats().closed_segments >= 2);
        drop(spool);
        let mut spool = Spool::open(c).unwrap();
        assert_eq!(spool.stats().records, 10);
        assert_eq!(records(&drain(&mut spool, 0)), (1..=10).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncated_on_reopen() {
        let dir = tmpdir("torntail");
        let c = cfg(&dir);
        let mut spool = Spool::open(c.clone()).unwrap();
        for i in 0..6u64 {
            spool.append(i, &[3u8; 50]).unwrap();
        }
        spool.sync().unwrap();
        let path = spool.open_segment_path().unwrap();
        drop(spool);
        // Tear 10 bytes off the last frame.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);
        let mut spool = Spool::open(c).unwrap();
        let st = spool.stats();
        assert_eq!(st.records, 5, "last frame torn, first five recovered");
        assert!(st.recovered_truncated_bytes > 0);
        assert_eq!(records(&drain(&mut spool, 0)), (1..=5).collect::<Vec<_>>());
        // Appends continue with the freed sequence.
        assert_eq!(spool.append(99, b"new").unwrap(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ack_gc_removes_only_fully_acked_closed_segments() {
        let dir = tmpdir("ackgc");
        let mut c = cfg(&dir);
        c.segment_max_bytes = HEADER_BYTES + 2 * (FRAME_OVERHEAD + 4);
        let mut spool = Spool::open(c).unwrap();
        for i in 0..9u64 {
            spool.append(i, &[1u8; 4]).unwrap();
        }
        spool.sync().unwrap();
        // Segments: [1,2] [3,4] [5,6] [7,8] closed, [9] open.
        assert_eq!(spool.stats().closed_segments, 4);
        assert_eq!(spool.ack(3).unwrap(), 1, "only [1,2] is fully acked");
        assert_eq!(spool.ack(8).unwrap(), 3);
        assert_eq!(spool.stats().closed_segments, 0);
        // The open segment is never GC'd even when fully acked.
        assert_eq!(spool.ack(9).unwrap(), 0);
        assert_eq!(spool.stats().records, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_drops_oldest_closed_only_and_accounts() {
        let dir = tmpdir("retention");
        let seg_bytes = HEADER_BYTES + 2 * (FRAME_OVERHEAD + 4);
        let mut c = cfg(&dir);
        c.segment_max_bytes = seg_bytes;
        c.max_spool_bytes = Some(3 * seg_bytes);
        let mut spool = Spool::open(c).unwrap();
        for i in 0..12u64 {
            spool.append(i, &[2u8; 4]).unwrap();
        }
        spool.sync().unwrap();
        let st = spool.stats();
        assert!(st.bytes <= 3 * seg_bytes, "cap enforced: {}", st.bytes);
        assert!(st.dropped_segments > 0);
        assert_eq!(st.dropped_records, 2 * st.dropped_segments);
        assert_eq!(st.dropped_unacked_records, st.dropped_records);
        // The open segment survives; the oldest remaining seq moved up.
        let first = records(&drain(&mut spool, 0))[0];
        assert_eq!(first, 2 * st.dropped_segments + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn age_retention_uses_logical_clock() {
        let dir = tmpdir("age");
        let mut c = cfg(&dir);
        c.segment_max_bytes = HEADER_BYTES + 2 * (FRAME_OVERHEAD + 4);
        c.max_spool_age = Some(100);
        let mut spool = Spool::open(c).unwrap();
        for i in 0..4u64 {
            spool.append(i, &[4u8; 4]).unwrap(); // ts 0..3
        }
        assert_eq!(spool.stats().dropped_segments, 0);
        // A far-future record ages everything closed out.
        spool.append(500, &[4u8; 4]).unwrap();
        let st = spool.stats();
        assert!(st.dropped_segments >= 1, "{st:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gap_reported_for_bit_rotted_closed_segment() {
        let dir = tmpdir("gap");
        let mut c = cfg(&dir);
        c.segment_max_bytes = HEADER_BYTES + 2 * (FRAME_OVERHEAD + 8);
        let mut spool = Spool::open(c.clone()).unwrap();
        for i in 0..6u64 {
            spool.append(i, &[9u8; 8]).unwrap();
        }
        spool.sync().unwrap();
        // Flip a byte in the middle of the second closed segment's first
        // frame payload (segments: [1,2] [3,4] closed, [5,6] open).
        let path = segment_path(&dir, 3, true);
        let mut bytes = std::fs::read(&path).unwrap();
        let off = HEADER_BYTES as usize + 4 + 16 + 2;
        bytes[off] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let items = drain(&mut spool, 0);
        assert_eq!(records(&items), vec![1, 2, 5, 6]);
        assert!(
            items.contains(&ReplayItem::Gap {
                from_seq: 3,
                to_seq: 4
            }),
            "{items:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_from_cursor_skips_consumed_records() {
        let dir = tmpdir("cursor");
        let mut spool = Spool::open(cfg(&dir)).unwrap();
        for i in 0..10u64 {
            spool.append(i, &[1]).unwrap();
        }
        assert_eq!(records(&drain(&mut spool, 7)), vec![8, 9, 10]);
        assert!(records(&drain(&mut spool, 10)).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_open_segment_is_closed_on_recovery() {
        let dir = tmpdir("staleopen");
        let mut c = cfg(&dir);
        c.segment_max_bytes = HEADER_BYTES + 2 * (FRAME_OVERHEAD + 4);
        let mut spool = Spool::open(c.clone()).unwrap();
        for i in 0..6u64 {
            spool.append(i, &[5u8; 4]).unwrap();
        }
        spool.sync().unwrap();
        drop(spool);
        // Simulate a lost rename: the first closed segment reverts to .open.
        std::fs::rename(segment_path(&dir, 1, true), segment_path(&dir, 1, false)).unwrap();
        let mut spool = Spool::open(c).unwrap();
        assert_eq!(spool.stats().records, 6);
        assert!(segment_path(&dir, 1, true).exists(), "re-closed");
        assert_eq!(records(&drain(&mut spool, 0)), (1..=6).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_and_empty_replay_are_fine() {
        let dir = tmpdir("empty");
        let mut spool = Spool::open(cfg(&dir)).unwrap();
        assert_eq!(spool.stats().records, 0);
        assert!(drain(&mut spool, 0).is_empty());
        assert_eq!(spool.ack(0).unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_validation() {
        let dir = tmpdir("config");
        let mut c = SpoolConfig::new(&dir);
        c.segment_max_bytes = 10;
        assert!(matches!(Spool::open(c), Err(SpoolError::Config(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
