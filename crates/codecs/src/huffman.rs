//! Canonical Huffman coding with a 15-bit length limit, used by the
//! DEFLATE-style byte compressor.
//!
//! Code lengths are derived from symbol frequencies with a heap-built
//! Huffman tree, then clamped to `MAX_CODE_LEN` with a Kraft-sum repair
//! pass, and finally turned into canonical codes (shorter codes first,
//! ties by symbol index) so only the lengths need to be transmitted.

use crate::bitio::{BitReader, BitWriter};
use crate::error::{CodecError, Result};

/// DEFLATE's maximum code length.
pub const MAX_CODE_LEN: u32 = 15;

/// Reusable workspace for [`code_lengths_into`]: the Huffman tree build's
/// per-call vectors, recycled across segments.
#[derive(Debug, Default)]
pub struct HuffWork {
    used: Vec<usize>,
    parent: Vec<u32>,
    /// Leaves as `(freq, node)` pairs sorted ascending — the tree build's
    /// first merge queue — then one padding entry.
    leaves: Vec<(u64, u32)>,
    /// Internal-node freqs in creation order — the second merge queue.
    internal: Vec<u64>,
    depths: Vec<u32>,
    /// Second leaf buffer: the radix sort's scatter target, then the
    /// leaves by descending frequency.
    order: Vec<(u64, u32)>,
}

/// Compute code lengths (0 = unused symbol) for the given frequencies.
///
/// Guarantees: every symbol with nonzero frequency gets a length in
/// `1..=MAX_CODE_LEN`, and the lengths satisfy Kraft equality when two or
/// more symbols are used. A single used symbol gets length 1.
pub fn code_lengths(freqs: &[u64]) -> Vec<u32> {
    let mut lens = Vec::new();
    code_lengths_into(freqs, &mut lens, &mut HuffWork::default());
    lens
}

/// [`code_lengths`] into a reused output vector and workspace.
///
/// The tree is built with the two-queue merge: leaves sorted by
/// `(freq, node)` form one queue, internal nodes (whose freqs are
/// non-decreasing in creation order, the classic invariant) the other, and
/// each step combines the two smallest heads. Because internal node ids
/// always exceed leaf ids, "leaf wins frequency ties" reproduces the exact
/// pop order of a `(freq, node)` min-heap — same trees, same bytes. Each
/// pick is a select, not a branch: which queue wins is close to random.
///
/// When no leaf lies deeper than [`MAX_CODE_LEN`], every leaf's depth is
/// its code length. Otherwise the clamped depths are repaired to a Kraft
/// sum of one and handed out again in order of (depth, descending
/// frequency, symbol). Both orderings the build needs come from stable
/// radix and counting sorts rather than comparison sorts. Every sort key
/// ends in the unique leaf index and the sorts start from leaf order, so
/// stability yields exactly the order of sorting the full keys.
pub fn code_lengths_into(freqs: &[u64], lens: &mut Vec<u32>, work: &mut HuffWork) {
    let n = freqs.len();
    lens.clear();
    lens.resize(n, 0);
    let HuffWork {
        used,
        parent,
        leaves,
        internal,
        depths,
        order,
    } = work;
    // Collect the used symbols and their leaves with a store per symbol
    // and no branch: whether a symbol is used is close to random.
    used.clear();
    used.resize(n, 0);
    leaves.clear();
    leaves.resize(n, (0, 0));
    let mut n_used = 0;
    for (sym, &freq) in freqs.iter().enumerate() {
        used[n_used] = sym;
        leaves[n_used] = (freq, n_used as u32);
        n_used += usize::from(freq > 0);
    }
    used.truncate(n_used);
    leaves.truncate(n_used);
    match n_used {
        0 => return,
        1 => {
            lens[used[0]] = 1;
            return;
        }
        _ => {}
    }

    radix_sort_by_freq(leaves, order);
    // Padding read (and ignored) once the leaf queue is empty.
    leaves.push((u64::MAX, 0));
    // Nodes are numbered leaves-first (position in `used`), then internal
    // nodes in creation order; `parent` spans all 2n-1 of them.
    parent.clear();
    parent.resize(2 * n_used - 1, 0);
    internal.clear();
    internal.resize(n_used, 0);
    let mut li = 0usize; // next unconsumed sorted leaf
    let mut ii = 0usize; // next unconsumed internal node
    for step in 0..n_used - 1 {
        let node = (n_used + step) as u32;
        let mut pick = || {
            let (lf, leaf) = leaves[li];
            let inf = internal[ii];
            // Leaf wins ties: its node id is smaller than any internal's.
            let take_leaf = (li < n_used) & ((ii >= step) | (lf <= inf));
            li += usize::from(take_leaf);
            ii += usize::from(!take_leaf);
            if take_leaf {
                (lf, leaf as usize)
            } else {
                (inf, n_used + ii - 1)
            }
        };
        let (fa, a) = pick();
        let (fb, b) = pick();
        parent[a] = node;
        parent[b] = node;
        internal[step] = fa.saturating_add(fb);
    }

    // Depths top-down: a parent is always created after its children, so a
    // reverse walk over node ids resolves every depth in one pass.
    let root = 2 * n_used - 2;
    depths.clear();
    depths.resize(2 * n_used - 1, 0);
    for node in (0..root).rev() {
        depths[node] = depths[parent[node] as usize] + 1;
    }
    let deepest = depths[..n_used].iter().copied().max().unwrap_or(0);
    if deepest <= MAX_CODE_LEN {
        for (&sym, &depth) in used.iter().zip(&depths[..n_used]) {
            lens[sym] = depth;
        }
        return;
    }
    let mut counts = [0u64; (MAX_CODE_LEN + 1) as usize];
    for leaf in 0..n_used {
        depths[leaf] = depths[leaf].min(MAX_CODE_LEN);
        counts[depths[leaf] as usize] += 1;
    }

    // Kraft repair: clamping pushed the sum above 1. While the sum exceeds
    // capacity, deepen the shallowest over-populated level.
    let kraft = |counts: &[u64]| -> u64 {
        // Scaled by 2^MAX_CODE_LEN.
        counts
            .iter()
            .enumerate()
            .skip(1)
            .map(|(len, &c)| c << (MAX_CODE_LEN - len as u32))
            .sum()
    };
    let capacity = 1u64 << MAX_CODE_LEN;
    while kraft(&counts) > capacity {
        // Find a leaf at the deepest level below MAX and push it deeper...
        // Standard trick: take one code from the longest non-max level and
        // give it one extra bit (splitting a max-length pair upward).
        let mut moved = false;
        for len in (1..MAX_CODE_LEN).rev() {
            if counts[len as usize] > 0 {
                counts[len as usize] -= 1;
                counts[(len + 1) as usize] += 1;
                moved = true;
                break;
            }
        }
        if !moved {
            break; // All at max length already; cannot happen with n <= 2^15.
        }
    }
    // Re-assign depths canonically: order leaves by (clamped depth,
    // descending frequency, symbol) and hand out the repaired level
    // populations. The sorted leaves with their runs of equal frequency
    // reversed as blocks give descending frequency with ties in leaf
    // (= symbol) order; a stable counting sort by depth finishes the order.
    leaves.truncate(n_used);
    order.clear();
    let mut end = n_used;
    while end > 0 {
        let freq = leaves[end - 1].0;
        let mut start = end - 1;
        while start > 0 && leaves[start - 1].0 == freq {
            start -= 1;
        }
        order.extend_from_slice(&leaves[start..end]);
        end = start;
    }
    let mut first = [0usize; (MAX_CODE_LEN + 2) as usize];
    for &depth in &depths[..n_used] {
        first[depth as usize + 1] += 1;
    }
    for d in 1..first.len() {
        first[d] += first[d - 1];
    }
    for &key in order.iter() {
        let slot = &mut first[depths[key.1 as usize] as usize];
        leaves[*slot] = key;
        *slot += 1;
    }
    let mut level = 1usize;
    for &(_, leaf) in leaves.iter() {
        while counts[level] == 0 {
            level += 1;
        }
        counts[level] -= 1;
        lens[used[leaf as usize]] = level as u32;
    }
}

/// Sort `(freq, leaf)` pairs, given in ascending leaf order, by frequency:
/// a stable LSD radix sort over the frequency's bytes, skipping the high
/// bytes no frequency uses. `spare` is scratch of the same length.
fn radix_sort_by_freq(keys: &mut Vec<(u64, u32)>, spare: &mut Vec<(u64, u32)>) {
    let max = keys.iter().map(|&(freq, _)| freq).max().unwrap_or(0);
    let digits = (u64::BITS - max.leading_zeros()).div_ceil(8) as usize;
    // Every digit's histogram in one pass over the keys.
    let mut offsets = [[0u32; 256]; 8];
    for &(freq, _) in keys.iter() {
        for (d, hist) in offsets[..digits].iter_mut().enumerate() {
            hist[((freq >> (8 * d)) & 0xFF) as usize] += 1;
        }
    }
    spare.clear();
    spare.resize(keys.len(), (0, 0));
    for (d, offset) in offsets[..digits].iter_mut().enumerate() {
        let mut sum = 0;
        for o in offset.iter_mut() {
            (*o, sum) = (sum, sum + *o);
        }
        for &key in keys.iter() {
            let slot = &mut offset[((key.0 >> (8 * d)) & 0xFF) as usize];
            spare[*slot as usize] = key;
            *slot += 1;
        }
        std::mem::swap(keys, spare);
    }
}

/// Assign canonical codes to lengths into a reused vector (cleared,
/// capacity kept): `codes[i]` is valid when `lens[i] > 0`.
pub fn canonical_codes_into(lens: &[u32], codes: &mut Vec<u32>) {
    let mut count = [0u32; (MAX_CODE_LEN + 1) as usize];
    for &l in lens {
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut next = [0u32; (MAX_CODE_LEN + 2) as usize];
    let mut code = 0u32;
    for len in 1..=MAX_CODE_LEN as usize {
        code = (code + count[len - 1]) << 1;
        next[len] = code;
    }
    codes.clear();
    codes.resize(lens.len(), 0);
    for (i, &l) in lens.iter().enumerate() {
        if l > 0 {
            codes[i] = next[l as usize];
            next[l as usize] += 1;
        }
    }
}

/// Encoder: symbol → (code, length).
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    /// Per symbol `code << 5 | len` (0 for an unused symbol), so one load
    /// yields both halves.
    packed: Vec<u32>,
    lens: Vec<u32>,
}

impl Encoder {
    /// Build an encoder from symbol frequencies.
    pub fn from_freqs(freqs: &[u64]) -> Self {
        let mut enc = Self::default();
        enc.rebuild_from_freqs(freqs, &mut HuffWork::default());
        enc
    }

    /// Build from explicit code lengths.
    pub fn from_lens(lens: Vec<u32>) -> Self {
        let mut enc = Self {
            packed: Vec::new(),
            lens,
        };
        enc.pack();
        enc
    }

    /// Rebuild this encoder in place from symbol frequencies, reusing its
    /// code/length vectors and the supplied tree workspace.
    pub fn rebuild_from_freqs(&mut self, freqs: &[u64], work: &mut HuffWork) {
        code_lengths_into(freqs, &mut self.lens, work);
        self.pack();
    }

    /// Rebuild this encoder in place from explicit code lengths.
    pub fn rebuild_from_lens(&mut self, lens: &[u32]) {
        self.lens.clear();
        self.lens.extend_from_slice(lens);
        self.pack();
    }

    /// Assign canonical codes to `lens` and pack them with their lengths.
    fn pack(&mut self) {
        canonical_codes_into(&self.lens, &mut self.packed);
        for (p, &len) in self.packed.iter_mut().zip(&self.lens) {
            *p = *p << 5 | len;
        }
    }

    /// The code lengths (what gets transmitted).
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }

    /// Per symbol `code << 5 | len`, with `len == 0` for a symbol that has
    /// no code.
    pub fn packed(&self) -> &[u32] {
        &self.packed
    }

    /// Emit the code for `symbol`.
    #[inline]
    pub fn write(&self, w: &mut BitWriter, symbol: usize) -> Result<()> {
        let packed = self.packed[symbol];
        if packed & 31 == 0 {
            return Err(CodecError::Corrupt("encoding symbol with no code"));
        }
        w.write_bits((packed >> 5) as u64, packed & 31);
        Ok(())
    }
}

/// Codes up to this many bits decode through [`Decoder`]'s lookup table.
const TABLE_BITS: u32 = 10;

/// Canonical decoder: a lookup table for codes up to `TABLE_BITS` long,
/// and per-length first-code tables for the rest.
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    /// For each length: (first code, first index into `symbols`).
    first_code: [u32; (MAX_CODE_LEN + 1) as usize],
    first_index: [u32; (MAX_CODE_LEN + 1) as usize],
    count: [u32; (MAX_CODE_LEN + 1) as usize],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u32>,
    /// Indexed by the next `TABLE_BITS` bits: `symbol << 5 | len` for a
    /// code of `len` bits that the canonical walk decodes from them, `0`
    /// where the walk needs more bits or fails.
    table: Vec<u32>,
}

impl Decoder {
    /// Build a decoder from code lengths.
    pub fn from_lens(lens: &[u32]) -> Result<Self> {
        let mut dec = Self::default();
        dec.rebuild_from_lens(lens)?;
        Ok(dec)
    }

    /// Rebuild this decoder in place from code lengths, reusing its
    /// symbol vector and table.
    pub fn rebuild_from_lens(&mut self, lens: &[u32]) -> Result<()> {
        let mut count = [0u32; (MAX_CODE_LEN + 1) as usize];
        for &l in lens {
            if l as usize >= count.len() {
                return Err(CodecError::Corrupt("code length exceeds limit"));
            }
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        let mut first_code = [0u32; (MAX_CODE_LEN + 1) as usize];
        let mut first_index = [0u32; (MAX_CODE_LEN + 1) as usize];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
            first_index[len] = index;
            index += count[len];
        }
        // One pass in symbol order places every symbol after the shorter
        // lengths' and the same length's smaller symbols.
        self.symbols.clear();
        self.symbols.resize(index as usize, 0);
        let mut next = first_index;
        for (sym, &l) in lens.iter().enumerate() {
            if l > 0 {
                self.symbols[next[l as usize] as usize] = sym as u32;
                next[l as usize] += 1;
            }
        }
        // The walk decodes a length's codes from `first` up to
        // `first + count` (bounded by the length's width) and rejects the
        // codes below `first`. Every code a shorter length decodes or
        // rejects extends to below this `first`, so each table range is
        // written at most once and rejected patterns stay `0`.
        self.table.clear();
        self.table.resize(1 << TABLE_BITS, 0);
        for len in 1..=TABLE_BITS {
            let (first, c) = (first_code[len as usize], count[len as usize]);
            let shift = TABLE_BITS - len;
            for code in first..(first + c).min(1 << len) {
                let sym = self.symbols[(first_index[len as usize] + code - first) as usize];
                let range = (code << shift) as usize..((code + 1) << shift) as usize;
                self.table[range].fill(sym << 5 | len);
            }
        }
        self.first_code = first_code;
        self.first_index = first_index;
        self.count = count;
        Ok(())
    }

    /// Decode one symbol: through the table when it holds the code and
    /// the stream has all its bits, else through the canonical walk.
    #[inline]
    pub fn read(&self, r: &mut BitReader<'_>) -> Result<u32> {
        if let Some(&entry) = self.table.get(r.peek_padded(TABLE_BITS) as usize) {
            let len = entry & 31;
            if len != 0 && len as usize <= r.remaining() {
                r.skip(len);
                return Ok(entry >> 5);
            }
        }
        self.read_canonical(r)
    }

    /// Decode one symbol a bit at a time from the first-code tables.
    fn read_canonical(&self, r: &mut BitReader<'_>) -> Result<u32> {
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | (r.read_bit()? as u32);
            let c = self.count[len];
            if c > 0 {
                let first = self.first_code[len];
                if code < first + c {
                    if code < first {
                        return Err(CodecError::Corrupt("invalid huffman code"));
                    }
                    let idx = self.first_index[len] + (code - first);
                    return Ok(self.symbols[idx as usize]);
                }
            }
        }
        Err(CodecError::Corrupt("huffman code too long"))
    }
}

/// Reusable Huffman state for the DEFLATE-family codecs: frequency tables,
/// canonical encoders/decoders rebuilt in place per block, transmitted
/// length buffers and the shared tree-build workspace.
#[derive(Debug, Default)]
pub struct HuffScratch {
    /// The encoder's packed symbol tokens (see `deflate_bytes_into`).
    pub(crate) syms: Vec<u32>,
    pub(crate) lit_freq: Vec<u64>,
    pub(crate) dist_freq: Vec<u64>,
    pub(crate) lit_enc: Encoder,
    pub(crate) dist_enc: Encoder,
    pub(crate) lit_dec: Decoder,
    pub(crate) dist_dec: Decoder,
    pub(crate) lit_lens: Vec<u32>,
    pub(crate) dist_lens: Vec<u32>,
    pub(crate) work: HuffWork,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_symbols(freqs: &[u64], stream: &[usize]) {
        let enc = Encoder::from_freqs(freqs);
        let mut w = BitWriter::new();
        for &s in stream {
            enc.write(&mut w, s).unwrap();
        }
        let bytes = w.finish();
        let dec = Decoder::from_lens(enc.lens()).unwrap();
        let mut r = BitReader::new(&bytes);
        for &s in stream {
            assert_eq!(dec.read(&mut r).unwrap() as usize, s);
        }
    }

    #[test]
    fn table_decodes_what_the_canonical_walk_decodes() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let kraft = |lens: &[u32]| -> f64 {
            lens.iter()
                .filter(|&&l| l > 0)
                .map(|&l| 2f64.powi(-(l as i32)))
                .sum()
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let mut seen = [0usize; 3]; // under-subscribed, complete, over-subscribed
        for case in 0..400 {
            let n_syms = rng.gen_range(1..=300usize);
            // Complete codes from skewed frequencies, up to 15 bits long.
            let freqs: Vec<u64> = (0..n_syms)
                .map(|_| {
                    let bits = rng.gen_range(1..40u32);
                    rng.gen_range(0..1u64 << bits)
                })
                .collect();
            let mut lens = code_lengths(&freqs);
            match case % 4 {
                // Lengthen codes: under-subscribed.
                1 => lens
                    .iter_mut()
                    .filter(|l| **l > 0)
                    .for_each(|l| *l = (*l + rng.gen_range(0..3u32)).min(MAX_CODE_LEN)),
                // Shorten codes: over-subscribed.
                2 => lens
                    .iter_mut()
                    .filter(|l| **l > 1)
                    .for_each(|l| *l -= rng.gen_range(0..2u32)),
                // Any lengths at all.
                3 => lens.iter_mut().for_each(|l| {
                    *l = if rng.gen_bool(0.2) {
                        0
                    } else {
                        rng.gen_range(1..=MAX_CODE_LEN)
                    }
                }),
                _ => {}
            }
            let k = kraft(&lens);
            seen[if k < 1.0 {
                0
            } else if k == 1.0 {
                1
            } else {
                2
            }] += 1;
            let dec = Decoder::from_lens(&lens).unwrap();
            let bytes: Vec<u8> = (0..rng.gen_range(0..48usize)).map(|_| rng.gen()).collect();
            // Every truncation of the stream, down to empty.
            for cut in 0..=bytes.len() {
                let mut fast = BitReader::new(&bytes[..cut]);
                let mut walk = BitReader::new(&bytes[..cut]);
                loop {
                    let (a, b) = (dec.read(&mut fast), dec.read_canonical(&mut walk));
                    assert_eq!(a, b, "case {case}, cut {cut}, lens {lens:?}");
                    assert_eq!(fast.bit_pos(), walk.bit_pos(), "case {case}, cut {cut}");
                    if a.is_err() {
                        break;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }

    #[test]
    fn kraft_equality_holds() {
        let freqs: Vec<u64> = (1..=64).map(|i| i * i).collect();
        let lens = code_lengths(&freqs);
        let sum: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!((sum - 1.0).abs() < 1e-12, "kraft sum {sum}");
    }

    #[test]
    fn frequent_symbols_get_short_codes() {
        let mut freqs = vec![1u64; 16];
        freqs[3] = 10_000;
        let lens = code_lengths(&freqs);
        assert!(lens[3] < lens[0]);
    }

    #[test]
    fn single_symbol_alphabet() {
        let mut freqs = vec![0u64; 10];
        freqs[7] = 42;
        let lens = code_lengths(&freqs);
        assert_eq!(lens[7], 1);
        roundtrip_symbols(&freqs, &[7, 7, 7]);
    }

    #[test]
    fn two_symbols() {
        let freqs = vec![5, 0, 3];
        roundtrip_symbols(&freqs, &[0, 2, 0, 0, 2]);
    }

    #[test]
    fn full_byte_alphabet_roundtrip() {
        let mut freqs = vec![0u64; 286];
        let stream: Vec<usize> = (0..2000).map(|i| (i * 7 + i * i) % 286).collect();
        for &s in &stream {
            freqs[s] += 1;
        }
        roundtrip_symbols(&freqs, &stream);
    }

    #[test]
    fn skewed_distribution_respects_length_limit() {
        // Fibonacci-like frequencies produce degenerate depths without the
        // length limit; assert we clamp to 15 and still decode.
        let mut freqs = vec![0u64; 40];
        let mut a = 1u64;
        let mut b = 1u64;
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lens = code_lengths(&freqs);
        assert!(lens.iter().all(|&l| l <= MAX_CODE_LEN));
        let stream: Vec<usize> = (0..40).collect();
        roundtrip_symbols(&freqs, &stream);
    }

    #[test]
    fn decoder_rejects_garbage() {
        let freqs = vec![10, 10, 1];
        let enc = Encoder::from_freqs(&freqs);
        let dec = Decoder::from_lens(enc.lens()).unwrap();
        // All-ones stream eventually hits an invalid code or runs out.
        let bytes = vec![0xFFu8; 1];
        let mut r = BitReader::new(&bytes);
        let mut failed = false;
        for _ in 0..10 {
            if dec.read(&mut r).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed);
    }

    #[test]
    fn empty_freqs_yield_empty_code() {
        let lens = code_lengths(&[0, 0, 0]);
        assert!(lens.iter().all(|&l| l == 0));
    }
}
