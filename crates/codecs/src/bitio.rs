//! MSB-first bit-level reader and writer used by the bit-oriented codecs
//! (Gorilla, Chimp, Sprintz, BUFF, dictionary, DEFLATE-style Huffman coding).
//!
//! # Wire-format invariant
//!
//! Bits are packed most-significant-bit first within each byte: the first
//! bit written lands in bit 7 of byte 0, the ninth in bit 7 of byte 1, and a
//! `write_bits(v, n)` emits the low `n` bits of `v` from most to least
//! significant. This layout matches the conventional Gorilla-style
//! time-series format, makes hex dumps readable, and is **frozen**: payloads
//! are persisted and shipped between devices, so any change to this module
//! must keep the produced bytes identical (see
//! `tests/golden_wire_format.rs`, which pins scripted sequences and every
//! codec's output against fixtures captured from the original
//! byte-at-a-time implementation).
//!
//! # Implementation
//!
//! Both directions work a word at a time rather than a byte at a time:
//!
//! * [`BitWriter`] stages bits in the high end of a `u64` accumulator and
//!   flushes eight bytes at once via `to_be_bytes` when the word fills, so a
//!   `write_bits` is one shift/or pair on the hot path instead of a per-byte
//!   loop.
//! * [`BitReader`] loads an eight-byte window with `u64::from_be_bytes` at
//!   the current cursor and extracts a field as `(word << offset) >>
//!   (64 - nbits)`; only reads within eight bytes of the end of the buffer
//!   fall back to assembling a partial window.
//!
//! # Bulk kernels
//!
//! Fixed-width runs — the inner loops of Sprintz delta lanes, BUFF
//! subcolumns, and dictionary codes — should use [`BitWriter::write_run`] /
//! [`BitReader::read_run`]. They produce bit-identical output to the
//! equivalent per-value `write_bits` / `read_bits` loop, keep the
//! accumulator in registers across the whole slice, and drop to a plain
//! byte-copy loop when both the cursor and the width are byte-aligned
//! (`width % 8 == 0`). Outside the byte-aligned fast path they dispatch
//! through [`crate::simd`]: hosts with AVX2 pack/unpack four fields per
//! step (`pack_run_swar` / `unpack_run_swar` are the portable tiers,
//! `pack_run_scalar` / `unpack_run_scalar` the bit-by-bit
//! references), and every tier's output is bit-identical.

/// Append-only bit writer over a growable byte buffer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Staging word; bits occupy the high end (MSB-first).
    acc: u64,
    /// Number of valid bits in `acc` (0..=63 between calls).
    nacc: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer with capacity for roughly `bytes` bytes of output.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
            acc: 0,
            nacc: 0,
        }
    }

    /// Create a writer that reuses `buf`'s allocation: the buffer is
    /// cleared but its capacity is kept, so a recycled scratch vector
    /// makes the whole write allocation-free once it has grown to the
    /// working-set size.
    pub fn over(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self {
            buf,
            acc: 0,
            nacc: 0,
        }
    }

    /// Reserve room for at least `additional` more output bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    #[inline]
    fn flush_word(&mut self) {
        self.buf.extend_from_slice(&self.acc.to_be_bytes());
        self.acc = 0;
        self.nacc = 0;
    }

    /// Push every whole staged byte into `buf`. Leaves `nacc < 8`.
    fn spill_whole_bytes(&mut self) {
        let nbytes = (self.nacc / 8) as usize;
        if nbytes > 0 {
            self.buf
                .extend_from_slice(&self.acc.to_be_bytes()[..nbytes]);
            self.acc = if nbytes == 8 {
                0
            } else {
                self.acc << (nbytes * 8)
            };
            self.nacc -= (nbytes as u32) * 8;
        }
    }

    /// Write a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.acc |= (bit as u64) << (63 - self.nacc);
        self.nacc += 1;
        if self.nacc == 64 {
            self.flush_word();
        }
    }

    /// Write the low `nbits` bits of `value`, most significant first.
    ///
    /// `nbits` may be 0 (a no-op) up to 64.
    #[inline]
    pub fn write_bits(&mut self, value: u64, nbits: u32) {
        debug_assert!(nbits <= 64);
        if nbits == 0 {
            return;
        }
        // Mask the value to the requested width to tolerate dirty high bits.
        let value = if nbits == 64 {
            value
        } else {
            value & ((1u64 << nbits) - 1)
        };
        if self.nacc + nbits <= 64 {
            self.acc |= value << (64 - self.nacc - nbits);
            self.nacc += nbits;
            if self.nacc == 64 {
                self.flush_word();
            }
        } else {
            // Split: the high part fills the staging word, the low `rem`
            // bits start the next one.
            let rem = self.nacc + nbits - 64;
            let acc = self.acc | (value >> rem);
            self.buf.extend_from_slice(&acc.to_be_bytes());
            self.acc = value << (64 - rem);
            self.nacc = rem;
        }
    }

    /// Write every value in `values` at the same fixed `width`.
    ///
    /// Bit-identical to calling [`write_bits`](Self::write_bits) once per
    /// value, but keeps the accumulator in registers across the run and
    /// degenerates to a byte-copy loop when the cursor and width are both
    /// byte-aligned.
    pub fn write_run(&mut self, values: &[u64], width: u32) {
        debug_assert!(width <= 64);
        if width == 0 || values.is_empty() {
            return;
        }
        self.buf
            .reserve((values.len() * width as usize).div_ceil(8) + 8);
        // Byte-copy fast path for whole-byte values at a byte-aligned
        // cursor. Only widths 8 and 64 take it: in-between widths (16..56)
        // pay more in short-slice copies than the accumulator path costs.
        if self.nacc.is_multiple_of(8) && (width == 8 || width == 64) {
            self.spill_whole_bytes();
            if width == 8 {
                self.buf.extend(values.iter().map(|&v| v as u8));
            } else {
                for &v in values {
                    self.buf.extend_from_slice(&v.to_be_bytes());
                }
            }
            return;
        }
        let (acc, nacc) =
            crate::simd::active().pack_run(&mut self.buf, self.acc, self.nacc, values, width);
        self.acc = acc;
        self.nacc = nacc;
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        self.nacc = (self.nacc + 7) & !7;
        self.spill_whole_bytes();
    }

    /// Write a full byte slice. Aligns to a byte boundary first.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.align_to_byte();
        self.buf.extend_from_slice(bytes);
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nacc as usize
    }

    /// Current output length in bytes, counting any partial byte.
    pub fn byte_len(&self) -> usize {
        self.buf.len() + (self.nacc as usize).div_ceil(8)
    }

    /// Finish writing and return the packed bytes (zero-padded to a byte).
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.buf
    }
}

/// Error returned when a [`BitReader`] runs out of input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBits;

impl std::fmt::Display for OutOfBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bit reader exhausted")
    }
}

impl std::error::Error for OutOfBits {}

/// MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor from the start of `buf`.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Create a reader over `buf` starting at bit 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of bits remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }

    /// Current absolute bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, OutOfBits> {
        if self.pos >= self.buf.len() * 8 {
            return Err(OutOfBits);
        }
        let byte = self.buf[self.pos / 8];
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    /// Extract `nbits` (1..=64) at the current cursor. Caller must have
    /// checked `remaining() >= nbits`.
    #[inline]
    fn extract_unchecked(&mut self, nbits: u32) -> u64 {
        let out = extract_at(self.buf, self.pos, nbits);
        self.pos += nbits as usize;
        out
    }

    /// Read `nbits` bits (0..=64), returning them in the low bits of the
    /// result, most significant first.
    #[inline]
    pub fn read_bits(&mut self, nbits: u32) -> Result<u64, OutOfBits> {
        debug_assert!(nbits <= 64);
        if nbits == 0 {
            return Ok(0);
        }
        if self.remaining() < nbits as usize {
            return Err(OutOfBits);
        }
        Ok(self.extract_unchecked(nbits))
    }

    /// Fill `out` with consecutive values of the same fixed `width`.
    ///
    /// Bit-identical to calling [`read_bits`](Self::read_bits) once per
    /// slot, with one bounds check for the whole run and a byte-copy loop
    /// when the cursor and width are both byte-aligned. On `Err` the cursor
    /// is unchanged and `out` is unmodified.
    pub fn read_run(&mut self, out: &mut [u64], width: u32) -> Result<(), OutOfBits> {
        debug_assert!(width <= 64);
        if width == 0 {
            out.fill(0);
            return Ok(());
        }
        if self.remaining() < out.len() * width as usize {
            return Err(OutOfBits);
        }
        // Byte-copy fast path, mirroring `BitWriter::write_run`: only
        // widths 8 and 64 beat the windowed-extract path below.
        if self.pos.is_multiple_of(8) && (width == 8 || width == 64) {
            let mut idx = self.pos / 8;
            if width == 8 {
                for (slot, &b) in out.iter_mut().zip(&self.buf[idx..]) {
                    *slot = b as u64;
                }
                idx += out.len();
            } else {
                for slot in out.iter_mut() {
                    *slot = u64::from_be_bytes(self.buf[idx..idx + 8].try_into().unwrap());
                    idx += 8;
                }
            }
            self.pos = idx * 8;
            return Ok(());
        }
        self.pos = crate::simd::active().unpack_run(self.buf, self.pos, out, width);
        Ok(())
    }

    /// Skip forward to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let rem = self.pos % 8;
        if rem != 0 {
            self.pos += 8 - rem;
        }
    }

    /// Read `n` whole bytes after aligning to a byte boundary.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], OutOfBits> {
        self.align_to_byte();
        let start = self.pos / 8;
        if start + n > self.buf.len() {
            return Err(OutOfBits);
        }
        self.pos += n * 8;
        Ok(&self.buf[start..start + n])
    }
}

/// Extract `nbits` (1..=64) at absolute bit `pos` of `buf`, MSB-first.
/// Caller must guarantee `pos + nbits <= buf.len() * 8`.
#[inline]
pub(crate) fn extract_at(buf: &[u8], pos: usize, nbits: u32) -> u64 {
    let byte_idx = pos / 8;
    let offset = (pos % 8) as u32;
    if byte_idx + 8 <= buf.len() {
        let word = u64::from_be_bytes(buf[byte_idx..byte_idx + 8].try_into().unwrap());
        if offset + nbits <= 64 {
            (word << offset) >> (64 - nbits)
        } else {
            // Spill into the ninth byte: only possible when
            // offset + nbits > 64, i.e. nbits >= 58, so at most 7 low
            // bits come from the next byte.
            let lo_bits = offset + nbits - 64;
            let hi = (word << offset) >> offset;
            let next = buf[byte_idx + 8] as u64;
            (hi << lo_bits) | (next >> (8 - lo_bits))
        }
    } else {
        // Within eight bytes of the end: assemble the remaining bytes
        // into a partial window. The caller's bounds check guarantees
        // offset + nbits fits in it.
        let mut word = 0u64;
        for (i, &b) in buf[byte_idx..].iter().enumerate() {
            word |= (b as u64) << (56 - 8 * i);
        }
        (word << offset) >> (64 - nbits)
    }
}

/// Portable word-at-a-time run pack (the `Backend::Swar` tier of
/// [`crate::simd::Backend::pack_run`]): append each value's low `width`
/// bits to the `(acc, nacc)` staging word over `buf`, flushing eight
/// bytes at a time. Returns the new staging state.
pub(crate) fn pack_run_swar(
    buf: &mut Vec<u8>,
    acc: u64,
    nacc: u32,
    values: &[u64],
    width: u32,
) -> (u64, u32) {
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let (mut acc, mut nacc) = (acc, nacc);
    for &raw in values {
        let v = raw & mask;
        if nacc + width <= 64 {
            acc |= v << (64 - nacc - width);
            nacc += width;
            if nacc == 64 {
                buf.extend_from_slice(&acc.to_be_bytes());
                acc = 0;
                nacc = 0;
            }
        } else {
            let rem = nacc + width - 64;
            buf.extend_from_slice(&(acc | (v >> rem)).to_be_bytes());
            acc = v << (64 - rem);
            nacc = rem;
        }
    }
    (acc, nacc)
}

/// Bit-by-bit reference run pack (the `Backend::Scalar` tier): one bit
/// staged per step, MSB of each field first. Differential baseline only.
pub(crate) fn pack_run_scalar(
    buf: &mut Vec<u8>,
    acc: u64,
    nacc: u32,
    values: &[u64],
    width: u32,
) -> (u64, u32) {
    let (mut acc, mut nacc) = (acc, nacc);
    for &v in values {
        for k in (0..width).rev() {
            acc |= ((v >> k) & 1) << (63 - nacc);
            nacc += 1;
            if nacc == 64 {
                buf.extend_from_slice(&acc.to_be_bytes());
                acc = 0;
                nacc = 0;
            }
        }
    }
    (acc, nacc)
}

/// Portable windowed run unpack (the `Backend::Swar` tier of
/// [`crate::simd::Backend::unpack_run`]): one [`extract_at`] per field.
/// Returns the advanced bit cursor. Caller guarantees the run fits.
pub(crate) fn unpack_run_swar(buf: &[u8], pos: usize, out: &mut [u64], width: u32) -> usize {
    let mut pos = pos;
    for slot in out.iter_mut() {
        *slot = extract_at(buf, pos, width);
        pos += width as usize;
    }
    pos
}

/// Bit-by-bit reference run unpack (the `Backend::Scalar` tier).
/// Differential baseline only.
pub(crate) fn unpack_run_scalar(buf: &[u8], pos: usize, out: &mut [u64], width: u32) -> usize {
    let mut pos = pos;
    for slot in out.iter_mut() {
        let mut v = 0u64;
        for _ in 0..width {
            v = (v << 1) | ((buf[pos / 8] >> (7 - (pos % 8))) & 1) as u64;
            pos += 1;
        }
        *slot = v;
    }
    pos
}

/// Zigzag-encode a signed integer to an unsigned one, mapping
/// 0, -1, 1, -2, 2, ... to 0, 1, 2, 3, 4, ...
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Minimum number of bits needed to represent `v` (0 needs 0 bits).
#[inline]
pub fn bits_needed(v: u64) -> u32 {
    64 - v.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(0, 0);
        w.write_bits(u64::MAX, 64);
        w.write_bits(1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(1).unwrap(), 1);
    }

    #[test]
    fn dirty_high_bits_are_masked() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 4); // only low 4 bits should land
        w.write_bits(0b1010, 4);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1111_1010]);
    }

    #[test]
    fn align_and_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.write_bytes(&[0xAB, 0xCD]);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1100_0000, 0xAB, 0xCD]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        assert_eq!(r.read_bytes(2).unwrap(), &[0xAB, 0xCD]);
    }

    #[test]
    fn out_of_bits_is_reported() {
        let bytes = [0u8; 1];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0);
        assert!(r.read_bit().is_err());
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn bit_len_counts_partials() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 13);
        assert_eq!(w.bit_len(), 13);
        assert_eq!(w.byte_len(), 2);
    }

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn bits_needed_basics() {
        assert_eq!(bits_needed(0), 0);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(255), 8);
        assert_eq!(bits_needed(256), 9);
        assert_eq!(bits_needed(u64::MAX), 64);
    }

    #[test]
    fn write_run_matches_scalar_writes() {
        for width in 0..=64u32 {
            for lead in 0..8u32 {
                let values: Vec<u64> = (0..37)
                    .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .collect();
                let mut bulk = BitWriter::new();
                bulk.write_bits(0x2A, lead);
                bulk.write_run(&values, width);
                let mut scalar = BitWriter::new();
                scalar.write_bits(0x2A, lead);
                for &v in &values {
                    scalar.write_bits(v, width);
                }
                assert_eq!(bulk.finish(), scalar.finish(), "width {width} lead {lead}");
            }
        }
    }

    #[test]
    fn read_run_matches_scalar_reads() {
        for width in 0..=64u32 {
            for lead in 0..8u32 {
                let values: Vec<u64> = (0..37)
                    .map(|i| (i as u64).wrapping_mul(0xD134_2543_DE82_EF95))
                    .collect();
                let mut w = BitWriter::new();
                w.write_bits(0, lead);
                w.write_run(&values, width);
                let bytes = w.finish();

                let mut scalar = BitReader::new(&bytes);
                scalar.read_bits(lead).unwrap();
                let expected: Vec<u64> = (0..values.len())
                    .map(|_| scalar.read_bits(width).unwrap())
                    .collect();

                let mut bulk = BitReader::new(&bytes);
                bulk.read_bits(lead).unwrap();
                let mut got = vec![0u64; values.len()];
                bulk.read_run(&mut got, width).unwrap();
                assert_eq!(got, expected, "width {width} lead {lead}");
                assert_eq!(bulk.bit_pos(), scalar.bit_pos());
            }
        }
    }

    #[test]
    fn read_run_out_of_bits_leaves_cursor() {
        let bytes = [0xFFu8; 4];
        let mut r = BitReader::new(&bytes);
        r.read_bits(3).unwrap();
        let mut out = vec![0u64; 5];
        assert_eq!(r.read_run(&mut out, 7), Err(OutOfBits));
        assert_eq!(r.bit_pos(), 3);
        let mut out = vec![0u64; 4];
        r.read_run(&mut out, 7).unwrap();
        assert_eq!(out, vec![0x7F; 4]);
    }

    #[test]
    fn long_unaligned_stream_roundtrips() {
        // Cross many word boundaries with widths near the split threshold.
        let mut w = BitWriter::new();
        let widths = [63u32, 1, 64, 58, 7, 61, 2, 59, 64, 5];
        let mut expected = Vec::new();
        for (i, &width) in widths.iter().cycle().take(500).enumerate() {
            let v = (i as u64).wrapping_mul(0xA076_1D64_78BD_642F);
            let masked = if width == 64 {
                v
            } else {
                v & ((1 << width) - 1)
            };
            w.write_bits(v, width);
            expected.push((masked, width));
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (v, width) in expected {
            assert_eq!(r.read_bits(width).unwrap(), v);
        }
    }
}
