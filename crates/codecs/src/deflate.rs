//! DEFLATE-style byte compression: LZ77 tokens entropy-coded with canonical
//! Huffman over the standard literal/length and distance alphabets.
//!
//! The bitstream is self-describing but deliberately *not* RFC 1951
//! compatible — AdaEdge never exchanges compressed bytes with foreign
//! tools, so we use a simpler code-length header (4-bit lengths with
//! zero-run escapes) instead of DEFLATE's meta-Huffman header.
//!
//! Four arms are built on this engine: `gzip` (deepest chain search) and
//! `zlib-1/6/9` (the zlib ladder). On segment-sized float inputs the hash
//! chains average under one candidate, so no search depth binds and gzip,
//! zlib-6 and zlib-9 emit byte-identical payloads at the same cost; they
//! part only on low-entropy input. `snappy` lives in [`crate::snappy`] and
//! skips entropy coding entirely.
//!
//! Encoding is two passes. The matcher's sink stores each token as its
//! packed symbols and extra-bit values and counts the symbols, so the
//! length and distance code lookups happen once, when a match is found.
//! After the two Huffman codes are built (see [`crate::huffman`]), the emit
//! loop treats literals and matches alike — two table lookups and one
//! write each — into an output sized in advance from the symbol counts, so
//! the writer stores a whole word per token and never branches on a word
//! filling up.

// The inflate path handles untrusted payload bytes; surface every raw index
// so each one carries an explicit bounds argument.
#![warn(clippy::indexing_slicing)]

use crate::bitio::BitReader;
use crate::block::{CodecId, CompressedBlock, CompressedBlockRef};
use crate::error::{CodecError, Result};
use crate::huffman::HuffScratch;
use crate::lz::{lz77_expand_into, LzConfig, LzScratch, Token, TokenSink, MAX_MATCH};
use crate::scratch::CodecScratch;
use crate::traits::{Codec, CodecKind};
use crate::util::{bytes_to_f64s_into, f64s_to_bytes_into};

/// End-of-block symbol in the literal/length alphabet.
const EOB: usize = 256;
/// Literal/length alphabet size (DEFLATE's 286).
const LITLEN_SYMS: usize = 286;
/// Distance alphabet size (DEFLATE's 30).
const DIST_SYMS: usize = 30;

/// DEFLATE length-code table: (base length, extra bits) for codes 257..=285.
const LEN_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// DEFLATE distance-code table: (base distance, extra bits) for codes 0..=29.
const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// `LEN_SYM[len]`: the length code (0..=28, symbol `257 + code`) of a match
/// length 3..=258. Code 28 (258, no extra bits) is written last, so it
/// takes 258 over code 27's range.
// Evaluated at compile time: an out-of-range index fails the build.
#[allow(clippy::indexing_slicing)]
const LEN_SYM: [u8; MAX_MATCH + 1] = {
    let mut t = [0u8; MAX_MATCH + 1];
    let mut code = 0;
    while code < LEN_TABLE.len() {
        let (base, extra) = LEN_TABLE[code];
        let mut len = base as usize;
        while len < base as usize + (1 << extra) && len <= MAX_MATCH {
            t[len] = code as u8;
            len += 1;
        }
        code += 1;
    }
    t
};

/// Distance code lookup in zlib's split layout: `DIST_SYM[d]` for
/// `d = dist - 1 < 256`, `DIST_SYM[256 + (d >> 7)]` above that (every
/// longer code spans whole 128-distance blocks).
// Evaluated at compile time: an out-of-range index fails the build.
#[allow(clippy::indexing_slicing)]
const DIST_SYM: [u8; 512] = {
    let mut t = [0u8; 512];
    let mut code = 0;
    while code < DIST_TABLE.len() {
        let (base, extra) = DIST_TABLE[code];
        let mut d = base as usize - 1;
        let end = d + (1 << extra);
        while d < end {
            if d < 256 {
                t[d] = code as u8;
                d += 1;
            } else {
                t[256 + (d >> 7)] = code as u8;
                d += 128;
            }
        }
        code += 1;
    }
    t
};

/// Distance code (0..=29) of a match distance 1..=32768.
// `d < 32768`, so `256 + (d >> 7) < 512`.
#[allow(clippy::indexing_slicing)]
#[inline(always)]
fn dist_sym(dist: usize) -> usize {
    let d = dist - 1;
    DIST_SYM[if d < 256 { d } else { 256 + (d >> 7) }] as usize
}

/// Distance symbol of a literal's packed token: one past the distance
/// alphabet, where the emit table holds a zero-length entry.
const NO_DIST: u32 = DIST_SYMS as u32;

/// Stores the matcher's tokens as packed symbols and counts them as they
/// arrive, so no separate frequency pass runs.
///
/// A packed token is `sym | dsym << 9 | lval << 14 | dval << 19`: the
/// literal/length symbol (0..=285), the distance symbol (0..=29, or
/// [`NO_DIST`] for a literal), and the length and distance extra-bit
/// values (at most 5 and 13 bits). A literal is the byte with
/// `dsym = NO_DIST` and zero extras, so the emit loop treats every token
/// alike.
struct SymbolSink<'a> {
    syms: &'a mut Vec<u32>,
    lit_freq: &'a mut [u64],
    dist_freq: &'a mut [u64],
}

// Symbols are alphabet-bounded by construction: bytes < 256, length codes
// < 29 and distance codes < 30, against tables sized to the alphabets.
#[allow(clippy::indexing_slicing)]
impl TokenSink for SymbolSink<'_> {
    #[inline(always)]
    fn literal(&mut self, byte: u8) {
        self.lit_freq[byte as usize] += 1;
        self.syms.push(byte as u32 | NO_DIST << 9);
    }

    #[inline(always)]
    fn copy(&mut self, _at: usize, len: usize, dist: usize) {
        let lcode = LEN_SYM[len] as usize;
        let dsym = dist_sym(dist);
        self.lit_freq[257 + lcode] += 1;
        self.dist_freq[dsym] += 1;
        let lval = len as u32 - LEN_TABLE[lcode].0 as u32;
        let dval = dist as u32 - DIST_TABLE[dsym].0 as u32;
        self.syms
            .push((257 + lcode) as u32 | (dsym as u32) << 9 | lval << 14 | dval << 19);
    }
}

/// Per-symbol emit entries: `(code << extra) << 5 | (len + extra)`, the
/// Huffman code shifted over its extra bits and the total bit count, so a
/// symbol and its extra value `v` are written as `entry >> 5 | v` in
/// `entry & 31` bits. Unused symbols (and [`NO_DIST`]) are zero.
// `extras[sym]` is indexed for `sym < packed.len() <= extras.len()`.
#[allow(clippy::indexing_slicing)]
fn emit_table(packed: &[u32], extras: &[u8], table: &mut [u64]) {
    table.fill(0);
    for (sym, (&pc, slot)) in packed.iter().zip(table.iter_mut()).enumerate() {
        let extra = extras[sym] as u64;
        let len = (pc & 31) as u64;
        if len > 0 {
            *slot = ((pc >> 5) as u64) << extra << 5 | (len + extra);
        }
    }
}

/// Extra-bit counts per literal/length symbol (0 for literals and EOB).
// Evaluated at compile time: an out-of-range index fails the build.
#[allow(clippy::indexing_slicing)]
const LIT_EXTRA: [u8; LITLEN_SYMS] = {
    let mut t = [0u8; LITLEN_SYMS];
    let mut code = 0;
    while code < LEN_TABLE.len() {
        t[257 + code] = LEN_TABLE[code].1;
        code += 1;
    }
    t
};

/// Extra-bit counts per distance symbol.
// Evaluated at compile time: an out-of-range index fails the build.
#[allow(clippy::indexing_slicing)]
const DIST_EXTRA: [u8; DIST_SYMS] = {
    let mut t = [0u8; DIST_SYMS];
    let mut code = 0;
    while code < DIST_SYMS {
        t[code] = DIST_TABLE[code].1;
        code += 1;
    }
    t
};

/// MSB-first bit writer over a buffer sized in advance to the exact
/// output plus eight bytes of slack. Every [`put`](Self::put) stores the
/// pending bits as one eight-byte word and advances past the bytes it
/// completed, so a write costs the same whatever the bit position: no
/// branch on a word filling up. The bits are kept right-aligned, so the
/// writes chain through one shift and one or. The bytes past the cursor
/// are overwritten or cut off by [`finish`](Self::finish).
struct Emitter<'a> {
    buf: &'a mut [u8],
    /// Whole bytes written.
    pos: usize,
    /// The latest bits, right-aligned; the low `nacc` are still pending.
    acc: u64,
    /// Pending bits, fewer than eight between puts.
    nacc: u32,
}

// `pos + 8 <= buf.len()` holds while the writes stay within the size the
// buffer was cut to.
#[allow(clippy::indexing_slicing)]
impl Emitter<'_> {
    /// Write the low `n` (1..=56) bits of `bits`, which has no higher bits
    /// set.
    #[inline(always)]
    fn put(&mut self, bits: u64, n: u32) {
        self.acc = self.acc << n | bits;
        let pending = self.nacc + n;
        let word = self.acc << (64 - pending);
        self.buf[self.pos..self.pos + 8].copy_from_slice(&word.to_be_bytes());
        self.pos += (pending / 8) as usize;
        self.nacc = pending % 8;
    }

    /// Bytes written, counting a final partial byte (zero-padded).
    fn finish(self) -> usize {
        self.pos + usize::from(self.nacc > 0)
    }
}

/// Write code lengths: nibble 1..=15 is a length; nibble 0 is followed by an
/// 8-bit (run−1) count of zero lengths.
// Encode-side hot path: `i` and `run` are bounded by the loop conditions
// directly above each index.
#[allow(clippy::indexing_slicing)]
fn write_lens(w: &mut Emitter<'_>, lens: &[u32]) {
    let mut i = 0;
    while i < lens.len() {
        if lens[i] == 0 {
            let mut run = 1usize;
            while i + run < lens.len() && lens[i + run] == 0 && run < 256 {
                run += 1;
            }
            w.put((run - 1) as u64, 12);
            i += run;
        } else {
            w.put(lens[i] as u64, 4);
            i += 1;
        }
    }
}

fn read_lens_into(r: &mut BitReader<'_>, n: usize, lens: &mut Vec<u32>) -> Result<()> {
    lens.clear();
    lens.reserve(n);
    while lens.len() < n {
        let nib = r.read_bits(4)? as u32;
        if nib == 0 {
            let run = r.read_bits(8)? as usize + 1;
            if lens.len() + run > n {
                return Err(CodecError::Corrupt("zero run overflows length table"));
            }
            lens.extend(std::iter::repeat_n(0, run));
        } else {
            lens.push(nib);
        }
    }
    Ok(())
}

/// Compress raw bytes with the given LZ configuration.
pub fn deflate_bytes(data: &[u8], config: LzConfig) -> Vec<u8> {
    let mut out = Vec::new();
    deflate_bytes_into(
        data,
        config,
        &mut LzScratch::default(),
        &mut HuffScratch::default(),
        &mut out,
    );
    out
}

/// [`deflate_bytes`] into a reused output buffer, recycling the LZ77
/// matcher tables, token buffer and Huffman state across calls.
///
/// The matcher hands each token to a sink that stores it as packed symbols
/// and extra values (see `SymbolSink`) and counts the symbols, so the
/// length and distance codes are looked up once, when the match is found.
/// Once the two Huffman codes are built, every token — literal or match —
/// is two emit-table lookups and one write of at most 48 bits, with no
/// branch on its kind. Every emitted symbol was counted, so it has a code:
/// the loop needs no checks.
// Encode-side hot path over trusted tokens: every symbol is alphabet-bounded
// by construction and the emit tables cover their whole alphabets.
#[allow(clippy::indexing_slicing)]
pub fn deflate_bytes_into(
    data: &[u8],
    config: LzConfig,
    lz: &mut LzScratch,
    huff: &mut HuffScratch,
    out: &mut Vec<u8>,
) {
    huff.lit_freq.clear();
    huff.lit_freq.resize(LITLEN_SYMS, 0);
    huff.dist_freq.clear();
    huff.dist_freq.resize(DIST_SYMS, 0);
    huff.syms.clear();
    huff.syms.reserve(data.len() + 8);
    lz.chains.tokenize(
        data,
        config,
        &mut SymbolSink {
            syms: &mut huff.syms,
            lit_freq: &mut huff.lit_freq,
            dist_freq: &mut huff.dist_freq,
        },
    );
    huff.lit_freq[EOB] += 1;
    huff.lit_enc
        .rebuild_from_freqs(&huff.lit_freq, &mut huff.work);
    huff.dist_enc
        .rebuild_from_freqs(&huff.dist_freq, &mut huff.work);
    let mut lit_emit = [0u64; LITLEN_SYMS];
    let mut dist_emit = [0u64; DIST_SYMS + 1];
    emit_table(huff.lit_enc.packed(), &LIT_EXTRA, &mut lit_emit);
    emit_table(huff.dist_enc.packed(), &DIST_EXTRA, &mut dist_emit);

    // The exact bit count of every token, the header's bound (at most 12
    // bits per code length) and slack for the last eight-byte store.
    let token_bits: u64 = huff
        .lit_freq
        .iter()
        .zip(&lit_emit)
        .chain(huff.dist_freq.iter().zip(&dist_emit))
        .map(|(&f, &e)| f * (e & 31))
        .sum();
    let bound = (12 * (LITLEN_SYMS + DIST_SYMS) + token_bits as usize).div_ceil(8) + 8;
    out.clear();
    out.resize(bound, 0);
    let mut w = Emitter {
        buf: out,
        pos: 0,
        acc: 0,
        nacc: 0,
    };
    write_lens(&mut w, huff.lit_enc.lens());
    write_lens(&mut w, huff.dist_enc.lens());
    for &t in &huff.syms {
        let l = lit_emit[(t & 0x1FF) as usize];
        let d = dist_emit[(t >> 9 & 0x1F) as usize];
        let lbits = l >> 5 | (t >> 14 & 0x1F) as u64;
        let dbits = d >> 5 | (t >> 19) as u64;
        let dn = (d & 31) as u32;
        w.put(lbits << dn | dbits, (l & 31) as u32 + dn);
    }
    let eob = lit_emit[EOB];
    w.put(eob >> 5, (eob & 31) as u32);
    let len = w.finish();
    out.truncate(len);
}

/// Decompress bytes produced by [`deflate_bytes`], expecting `expected_len`
/// output bytes.
pub fn inflate_bytes(payload: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    inflate_bytes_into(
        payload,
        expected_len,
        &mut LzScratch::default(),
        &mut HuffScratch::default(),
        &mut out,
    )?;
    Ok(out)
}

/// [`inflate_bytes`] into a reused output buffer, recycling the token
/// buffer and Huffman decoder state across calls.
///
/// Corruption containment: a running produced-byte count caps the token
/// stream at `expected_len` while it is still being parsed, so a corrupt
/// payload cannot grow the token buffer (or, later, the output) beyond the
/// declared segment size.
// `LEN_TABLE[idx]` / `DIST_TABLE[dsym]` are indexed only after the explicit
// range checks directly above them.
#[allow(clippy::indexing_slicing)]
pub fn inflate_bytes_into(
    payload: &[u8],
    expected_len: usize,
    lz: &mut LzScratch,
    huff: &mut HuffScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    let mut r = BitReader::new(payload);
    read_lens_into(&mut r, LITLEN_SYMS, &mut huff.lit_lens)?;
    read_lens_into(&mut r, DIST_SYMS, &mut huff.dist_lens)?;
    huff.lit_dec.rebuild_from_lens(&huff.lit_lens)?;
    huff.dist_dec.rebuild_from_lens(&huff.dist_lens)?;
    let lit_dec = &huff.lit_dec;
    let dist_dec = &huff.dist_dec;
    let tokens = &mut lz.tokens;
    tokens.clear();
    tokens.reserve(expected_len / 4 + 8);
    let mut produced = 0usize;
    loop {
        let sym = lit_dec.read(&mut r)? as usize;
        if sym == EOB {
            break;
        }
        if sym < 256 {
            produced += 1;
            tokens.push(Token::Literal(sym as u8));
        } else {
            let idx = sym - 257;
            if idx >= LEN_TABLE.len() {
                return Err(CodecError::Corrupt("invalid length symbol"));
            }
            let (base, extra) = LEN_TABLE[idx];
            let len = base + r.read_bits(extra as u32)? as u16;
            let dsym = dist_dec.read(&mut r)? as usize;
            if dsym >= DIST_TABLE.len() {
                return Err(CodecError::Corrupt("invalid distance symbol"));
            }
            let (dbase, dextra) = DIST_TABLE[dsym];
            let dist = dbase + r.read_bits(dextra as u32)? as u16;
            produced += len as usize;
            tokens.push(Token::Match { len, dist });
        }
        if produced > expected_len {
            return Err(CodecError::Corrupt("deflate stream overruns output"));
        }
    }
    lz77_expand_into(tokens, expected_len, out).map_err(CodecError::Corrupt)?;
    if out.len() != expected_len {
        return Err(CodecError::Corrupt("inflated length mismatch"));
    }
    Ok(())
}

/// A byte-compression codec backed by the DEFLATE-style engine.
#[derive(Debug, Clone, Copy)]
pub struct Deflate {
    id: CodecId,
    config: LzConfig,
}

impl Deflate {
    /// `gzip`: deepest chain search (1024 candidates, lazy). On float
    /// segments its payload is byte-identical to zlib-6's and zlib-9's;
    /// the depth only pays off on low-entropy input.
    pub fn gzip() -> Self {
        Self {
            id: CodecId::Gzip,
            config: LzConfig::level(10),
        }
    }

    /// `zlib-1`: fastest Huffman-coded setting.
    pub fn zlib1() -> Self {
        Self {
            id: CodecId::Zlib1,
            config: LzConfig::level(1),
        }
    }

    /// `zlib-6`: default setting.
    pub fn zlib6() -> Self {
        Self {
            id: CodecId::Zlib6,
            config: LzConfig::level(6),
        }
    }

    /// `zlib-9`: strongest zlib setting.
    pub fn zlib9() -> Self {
        Self {
            id: CodecId::Zlib9,
            config: LzConfig::level(9),
        }
    }
}

impl Codec for Deflate {
    fn id(&self) -> CodecId {
        self.id
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Lossless
    }

    fn compress_into<'a>(
        &self,
        data: &[f64],
        scratch: &'a mut CodecScratch,
    ) -> Result<CompressedBlockRef<'a>> {
        if data.is_empty() {
            return Err(CodecError::EmptyInput);
        }
        let CodecScratch {
            out,
            bytes,
            lz,
            huff,
            ..
        } = scratch;
        f64s_to_bytes_into(data, bytes);
        deflate_bytes_into(bytes, self.config, lz, huff, out);
        Ok(CompressedBlockRef::new(self.id, data.len(), out))
    }

    fn decompress_into(
        &self,
        block: &CompressedBlock,
        scratch: &mut CodecScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_block(block)?;
        let CodecScratch {
            bytes, lz, huff, ..
        } = scratch;
        inflate_bytes_into(&block.payload, block.n_points as usize * 8, lz, huff, bytes)?;
        bytes_to_f64s_into(bytes, out)
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::lz::MIN_MATCH;

    /// Map a match length (3..=258) to (symbol offset 0..28, extra bits, extra value).
    fn length_code(len: u16) -> (usize, u8, u16) {
        let idx = LEN_SYM[len as usize] as usize;
        let (base, extra) = LEN_TABLE[idx];
        (idx, extra, len - base)
    }

    /// Map a distance (1..=32768) to (symbol 0..29, extra bits, extra value).
    fn dist_code(dist: u16) -> (usize, u8, u16) {
        let idx = dist_sym(dist as usize);
        let (base, extra) = DIST_TABLE[idx];
        (idx, extra, dist - base)
    }

    #[test]
    fn length_code_table_covers_range() {
        for len in MIN_MATCH as u16..=MAX_MATCH as u16 {
            let (idx, extra, val) = length_code(len);
            let (base, e) = LEN_TABLE[idx];
            assert_eq!(e, extra);
            assert_eq!(base + val, len, "len {len}");
            assert!(val < (1 << extra) || extra == 0 && val == 0);
        }
    }

    #[test]
    fn dist_code_table_covers_range() {
        // Every distance the 32 KiB window allows.
        for dist in 1..=32768u16 {
            let (idx, extra, val) = dist_code(dist);
            let (base, e) = DIST_TABLE[idx];
            assert_eq!(e, extra);
            assert_eq!(base + val, dist, "dist {dist}");
            assert!(val < 1 << extra, "dist {dist}");
        }
    }

    #[test]
    fn bytes_roundtrip_text() {
        let data = b"the quick brown fox jumps over the lazy dog. the quick brown fox!".repeat(20);
        for cfg in [LzConfig::level(1), LzConfig::level(6), LzConfig::level(9)] {
            let c = deflate_bytes(&data, cfg);
            assert!(c.len() < data.len());
            assert_eq!(inflate_bytes(&c, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn bytes_roundtrip_incompressible() {
        let mut x = 0x123456789ABCDEFu64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let c = deflate_bytes(&data, LzConfig::level(6));
        assert_eq!(inflate_bytes(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn empty_byte_stream_roundtrip() {
        let c = deflate_bytes(&[], LzConfig::level(6));
        assert_eq!(inflate_bytes(&c, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn float_codec_roundtrips() {
        let data: Vec<f64> = (0..500).map(|i| ((i / 10) as f64) * 0.5).collect();
        for codec in [
            Deflate::gzip(),
            Deflate::zlib1(),
            Deflate::zlib6(),
            Deflate::zlib9(),
        ] {
            let block = codec.compress(&data).unwrap();
            assert_eq!(codec.decompress(&block).unwrap(), data);
        }
    }

    #[test]
    fn repeated_values_compress_well() {
        let data: Vec<f64> = (0..2000).map(|i| [1.0, 2.0][(i / 100) % 2]).collect();
        let block = Deflate::zlib9().compress(&data).unwrap();
        assert!(block.ratio() < 0.1, "ratio {}", block.ratio());
    }

    #[test]
    fn stronger_levels_do_no_worse() {
        let data: Vec<f64> = (0..3000)
            .map(|i| ((i % 50) as f64 * 0.1).round() / 10.0)
            .collect();
        let l1 = Deflate::zlib1().compress(&data).unwrap().compressed_bytes();
        let l9 = Deflate::zlib9().compress(&data).unwrap().compressed_bytes();
        let gz = Deflate::gzip().compress(&data).unwrap().compressed_bytes();
        assert!(l9 <= l1, "l9 {l9} vs l1 {l1}");
        assert!(gz <= l9 + 8, "gzip {gz} vs l9 {l9}");
    }

    #[test]
    fn wrong_length_detected() {
        let data = vec![3.0; 64];
        let block = Deflate::zlib6().compress(&data).unwrap();
        assert!(inflate_bytes(&block.payload, 100).is_err());
    }

    #[test]
    fn truncated_payload_detected() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let block = Deflate::zlib6().compress(&data).unwrap();
        let mut bad = block.clone();
        bad.payload.truncate(8);
        assert!(Deflate::zlib6().decompress(&bad).is_err());
    }
}
