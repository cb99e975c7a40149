//! Property tests pinning the LZ77 tokenizer, the DEFLATE emitter, the
//! snappy emitter, the Huffman length builder and the Sprintz encoder to
//! frozen reference copies.
//!
//! The references below are the straightforward encoders the fast ones
//! replaced: an `Option`-returning chain matcher that restarts every lazy
//! peek from scratch, a two-pass emitter that binary-searches the length and
//! distance tables and writes every field separately, and a Huffman builder
//! that orders leaves with comparison sorts, and a Sprintz encoder that
//! runs quantize, delta, zigzag, the per-block OR-fold and the bit writes
//! as separate passes. They are kept here, and only here, so every encoder
//! change is checked byte for byte against them: tokens for
//! `LzConfig::fast()` and every effort level, whole payloads for DEFLATE,
//! snappy and Sprintz (and Sprintz's errors), and code lengths for
//! arbitrary frequency tables.
//!
//! The fast matcher extends matches through `match_len`, which dispatches
//! per SIMD backend; run this suite under `ADAEDGE_SIMD=scalar` and
//! `ADAEDGE_SIMD=swar` as well as the detected backend.

use adaedge_codecs::deflate::deflate_bytes_into;
use adaedge_codecs::huffman::{code_lengths_into, HuffScratch, HuffWork};
use adaedge_codecs::lz::{lz77_tokens_into, LzConfig, LzScratch};
use adaedge_codecs::snappy::snappy_compress_bytes_into;
use adaedge_codecs::sprintz::Sprintz;
use adaedge_codecs::{Codec, CodecScratch};
use adaedge_datasets::{CbfConfig, CbfStream, SegmentSource, SineStream};
use proptest::prelude::*;

/// The frozen reference encoders.
mod reference {
    use adaedge_codecs::bitio::BitWriter;
    use adaedge_codecs::lz::{LzConfig, Token, MAX_MATCH, MIN_MATCH, WINDOW};

    const HASH_BITS: u32 = 15;

    fn hash3(data: &[u8], i: usize) -> usize {
        let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], 0]);
        ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
    }

    fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
        let mut len = 0;
        while len < max && data[a + len] == data[b + len] {
            len += 1;
        }
        len
    }

    fn data_at(data: &[u8], i: usize) -> u16 {
        data.get(i).map_or(0x100, |&b| b as u16)
    }

    struct Matcher<'a> {
        data: &'a [u8],
        head: Vec<u32>,
        prev: Vec<u32>,
        max_chain: usize,
    }

    impl Matcher<'_> {
        fn hash_at(&self, i: usize) -> Option<usize> {
            (i + MIN_MATCH <= self.data.len()).then(|| hash3(self.data, i))
        }

        fn insert(&mut self, i: usize) {
            if let Some(h) = self.hash_at(i) {
                self.insert_hashed(i, h);
            }
        }

        fn insert_hashed(&mut self, i: usize, h: usize) {
            self.prev[i] = self.head[h];
            self.head[h] = i as u32 + 1;
        }

        fn best_match(&self, i: usize, h: usize) -> Option<(usize, usize)> {
            let max = (self.data.len() - i).min(MAX_MATCH);
            let mut stamp = self.head[h];
            let mut best_len = MIN_MATCH - 1;
            let mut best_dist = 0usize;
            let mut chain = self.max_chain;
            let min_pos = i.saturating_sub(WINDOW);
            while stamp > 0 && chain > 0 {
                let c = (stamp - 1) as usize;
                if c < min_pos {
                    break;
                }
                if data_at(self.data, c + best_len) == data_at(self.data, i + best_len) {
                    let len = match_len(self.data, c, i, max);
                    if len > best_len {
                        best_len = len;
                        best_dist = i - c;
                        if len == max {
                            break;
                        }
                    }
                }
                stamp = self.prev[c];
                chain -= 1;
            }
            (best_len >= MIN_MATCH).then_some((best_len, best_dist))
        }
    }

    pub fn lz77_tokens(data: &[u8], config: LzConfig) -> Vec<Token> {
        let mut m = Matcher {
            data,
            head: vec![0; 1 << HASH_BITS],
            prev: vec![0; data.len()],
            max_chain: config.max_chain,
        };
        let mut tokens = Vec::new();
        let mut i = 0usize;
        while i < data.len() {
            let hash = m.hash_at(i);
            match hash.and_then(|h| m.best_match(i, h)) {
                Some((mut len, mut dist)) => {
                    let h = hash.unwrap();
                    if config.lazy && i + 1 < data.len() {
                        m.insert_hashed(i, h);
                        let peek = m.hash_at(i + 1).and_then(|h1| m.best_match(i + 1, h1));
                        if let Some((len2, dist2)) = peek {
                            if len2 > len {
                                tokens.push(Token::Literal(data[i]));
                                i += 1;
                                len = len2;
                                dist = dist2;
                            }
                        }
                        tokens.push(Token::Match {
                            len: len as u16,
                            dist: dist as u16,
                        });
                        for k in i + 1..i + len {
                            m.insert(k);
                        }
                        i += len;
                    } else {
                        tokens.push(Token::Match {
                            len: len as u16,
                            dist: dist as u16,
                        });
                        m.insert_hashed(i, h);
                        for k in i + 1..i + len {
                            m.insert(k);
                        }
                        i += len;
                    }
                }
                None => {
                    tokens.push(Token::Literal(data[i]));
                    if let Some(h) = hash {
                        m.insert_hashed(i, h);
                    }
                    i += 1;
                }
            }
        }
        tokens
    }

    const MAX_CODE_LEN: u32 = 15;

    pub fn code_lengths(freqs: &[u64]) -> Vec<u32> {
        let n = freqs.len();
        let mut lens = vec![0u32; n];
        let used: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
        match used.len() {
            0 => return lens,
            1 => {
                lens[used[0]] = 1;
                return lens;
            }
            _ => {}
        }
        let n_used = used.len();
        let mut leaves: Vec<(u64, u32)> = used
            .iter()
            .enumerate()
            .map(|(leaf, &sym)| (freqs[sym], leaf as u32))
            .collect();
        leaves.sort_unstable();
        let mut parent = vec![usize::MAX; 2 * n_used - 1];
        let mut internal: Vec<u64> = Vec::new();
        let mut li = 0usize;
        let mut ii = 0usize;
        for step in 0..n_used - 1 {
            let node = n_used + step;
            let mut pick = || {
                if li < n_used && (ii >= internal.len() || leaves[li].0 <= internal[ii]) {
                    li += 1;
                    (leaves[li - 1].0, leaves[li - 1].1 as usize)
                } else {
                    ii += 1;
                    (internal[ii - 1], n_used + ii - 1)
                }
            };
            let (fa, a) = pick();
            let (fb, b) = pick();
            parent[a] = node;
            parent[b] = node;
            internal.push(fa.saturating_add(fb));
        }
        let root = 2 * n_used - 2;
        let mut depths = vec![0u32; 2 * n_used - 1];
        for node in (0..root).rev() {
            depths[node] = depths[parent[node]] + 1;
        }
        let mut counts = [0u64; (MAX_CODE_LEN + 1) as usize];
        for d in depths.iter_mut().take(n_used) {
            *d = (*d).min(MAX_CODE_LEN);
            counts[*d as usize] += 1;
        }
        let kraft = |counts: &[u64]| -> u64 {
            counts
                .iter()
                .enumerate()
                .skip(1)
                .map(|(len, &c)| c << (MAX_CODE_LEN - len as u32))
                .sum()
        };
        while kraft(&counts) > 1u64 << MAX_CODE_LEN {
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
                break;
            }
        }
        let mut order: Vec<(u32, u64, u32)> = (0..n_used)
            .map(|leaf| (depths[leaf], !freqs[used[leaf]], leaf as u32))
            .collect();
        order.sort_unstable();
        let mut level = 1usize;
        for &(_, _, leaf) in &order {
            while counts[level] == 0 {
                level += 1;
            }
            counts[level] -= 1;
            lens[used[leaf as usize]] = level as u32;
        }
        lens
    }

    fn canonical_codes(lens: &[u32]) -> Vec<u32> {
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
        lens.iter()
            .map(|&l| {
                if l == 0 {
                    return 0;
                }
                let c = next[l as usize];
                next[l as usize] += 1;
                c
            })
            .collect()
    }

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

    fn length_code(len: u16) -> (usize, u8, u16) {
        let mut idx = LEN_TABLE
            .partition_point(|&(base, _)| base <= len)
            .saturating_sub(1);
        if len == 258 {
            idx = 28;
        }
        let (base, extra) = LEN_TABLE[idx];
        (idx, extra, len - base)
    }

    fn dist_code(dist: u16) -> (usize, u8, u16) {
        let idx = DIST_TABLE
            .partition_point(|&(base, _)| base <= dist)
            .saturating_sub(1);
        let (base, extra) = DIST_TABLE[idx];
        (idx, extra, dist - base)
    }

    fn write_lens(w: &mut BitWriter, lens: &[u32]) {
        let mut i = 0;
        while i < lens.len() {
            if lens[i] == 0 {
                let mut run = 1usize;
                while i + run < lens.len() && lens[i + run] == 0 && run < 256 {
                    run += 1;
                }
                w.write_bits(0, 4);
                w.write_bits((run - 1) as u64, 8);
                i += run;
            } else {
                w.write_bits(lens[i] as u64, 4);
                i += 1;
            }
        }
    }

    pub fn deflate_bytes(data: &[u8], config: LzConfig) -> Vec<u8> {
        let tokens = lz77_tokens(data, config);
        let mut lit_freq = vec![0u64; 286];
        let mut dist_freq = vec![0u64; 30];
        for t in &tokens {
            match *t {
                Token::Literal(b) => lit_freq[b as usize] += 1,
                Token::Match { len, dist } => {
                    lit_freq[257 + length_code(len).0] += 1;
                    dist_freq[dist_code(dist).0] += 1;
                }
            }
        }
        lit_freq[256] += 1;
        let lit_lens = code_lengths(&lit_freq);
        let dist_lens = code_lengths(&dist_freq);
        let lit_codes = canonical_codes(&lit_lens);
        let dist_codes = canonical_codes(&dist_lens);
        let mut w = BitWriter::new();
        write_lens(&mut w, &lit_lens);
        write_lens(&mut w, &dist_lens);
        let lit = |w: &mut BitWriter, sym: usize| {
            assert!(lit_lens[sym] > 0, "literal/length symbol without a code");
            w.write_bits(lit_codes[sym] as u64, lit_lens[sym]);
        };
        for t in &tokens {
            match *t {
                Token::Literal(b) => lit(&mut w, b as usize),
                Token::Match { len, dist } => {
                    let (lsym, lextra, lval) = length_code(len);
                    lit(&mut w, 257 + lsym);
                    w.write_bits(lval as u64, lextra as u32);
                    let (dsym, dextra, dval) = dist_code(dist);
                    assert!(dist_lens[dsym] > 0, "distance symbol without a code");
                    w.write_bits(dist_codes[dsym] as u64, dist_lens[dsym]);
                    w.write_bits(dval as u64, dextra as u32);
                }
            }
        }
        lit(&mut w, 256);
        w.finish()
    }

    pub fn snappy_compress_bytes(data: &[u8]) -> Vec<u8> {
        const MAX_LITERAL_RUN: usize = 128;
        const MAX_COPY_LEN: usize = 127 + MIN_MATCH;
        let tokens = lz77_tokens(data, LzConfig::fast());
        let mut out = Vec::new();
        let flush_lits = |out: &mut Vec<u8>, lits: &[u8]| {
            for chunk in lits.chunks(MAX_LITERAL_RUN) {
                out.push((chunk.len() - 1) as u8);
                out.extend_from_slice(chunk);
            }
        };
        let mut pos = 0usize;
        let mut lit_start = 0usize;
        for t in &tokens {
            match *t {
                Token::Literal(_) => pos += 1,
                Token::Match { len, dist } => {
                    flush_lits(&mut out, &data[lit_start..pos]);
                    let mut remaining = len as usize;
                    while remaining > 0 {
                        let take = remaining.min(MAX_COPY_LEN);
                        let take = if remaining - take > 0 && remaining - take < MIN_MATCH {
                            take - (MIN_MATCH - (remaining - take))
                        } else {
                            take
                        };
                        out.push(128 + (take - MIN_MATCH) as u8);
                        out.extend_from_slice(&dist.to_le_bytes());
                        remaining -= take;
                    }
                    pos += len as usize;
                    lit_start = pos;
                }
            }
        }
        flush_lits(&mut out, &data[lit_start..pos]);
        out
    }
}

/// The frozen Sprintz reference: quantize the whole segment (64-point
/// validation chunks, then `f64::round`), zigzag the wrapping deltas, and
/// write each 128-delta block as an 8-bit width (the OR-folded deltas'
/// bit length) followed by one `write_bits` per delta.
mod sprintz_reference {
    use adaedge_codecs::bitio::BitWriter;
    use adaedge_codecs::CodecError;

    const POW10: [f64; 13] = [
        1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
    ];

    /// The exclusive bound on a scaled magnitude.
    pub const LIMIT: f64 = 4.5e15;

    fn quantize(data: &[f64], scale: f64) -> Result<Vec<i64>, CodecError> {
        let mut q = Vec::with_capacity(data.len());
        for chunk in data.chunks(64) {
            let finite = chunk.iter().all(|v| v.is_finite());
            let max_abs = chunk
                .iter()
                .map(|v| (v * scale).abs())
                .fold(0.0f64, |m, a| if a > m { a } else { m });
            if !finite {
                return Err(CodecError::UnsupportedValue("non-finite float"));
            }
            if max_abs >= LIMIT {
                return Err(CodecError::UnsupportedValue(
                    "magnitude overflows fixed-point range at this precision",
                ));
            }
            q.extend(chunk.iter().map(|v| (v * scale).round() as i64));
        }
        Ok(q)
    }

    pub fn compress(data: &[f64], precision: u8) -> Result<Vec<u8>, CodecError> {
        if data.is_empty() {
            return Err(CodecError::EmptyInput);
        }
        let scale = *POW10
            .get(precision as usize)
            .ok_or(CodecError::InvalidParameter("precision must be <= 12"))?;
        let q = quantize(data, scale)?;
        let deltas: Vec<u64> = q
            .windows(2)
            .map(|w| {
                let d = w[1].wrapping_sub(w[0]);
                ((d << 1) ^ (d >> 63)) as u64
            })
            .collect();
        let mut w = BitWriter::new();
        w.write_bits(precision as u64, 8);
        w.write_bits(q[0] as u64, 64);
        for block in deltas.chunks(128) {
            let folded = block.iter().fold(0u64, |acc, &d| acc | d);
            let width = 64 - folded.leading_zeros();
            w.write_bits(width as u64, 8);
            for &d in block {
                w.write_bits(d, width);
            }
        }
        Ok(w.finish())
    }
}

/// Every configuration the codecs use or expose: snappy's greedy depth-1
/// search and the whole effort ladder.
fn configs() -> Vec<LzConfig> {
    let mut v = vec![LzConfig::fast()];
    v.extend((0..=10).map(LzConfig::level));
    v
}

/// A small xorshift generator so each input family is a pure function of
/// its seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn f64_bytes(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// One input of the given family, `len` bytes long (float families round
/// up to whole points).
fn input(family: usize, seed: u64, len: usize) -> Vec<u8> {
    let mut rng = XorShift(seed | 1);
    match family {
        // Uniform random bytes: almost no matches.
        0 => (0..len).map(|_| rng.next() as u8).collect(),
        // Runs of one byte with random lengths, including 257-259.
        1 => {
            let mut v = Vec::with_capacity(len);
            while v.len() < len {
                let run = match rng.below(4) {
                    0 => 257 + rng.below(3) as usize,
                    1 => 1 + rng.below(4) as usize,
                    _ => 1 + rng.below(300) as usize,
                };
                let b = rng.below(4) as u8;
                v.extend(std::iter::repeat_n(b, run.min(len - v.len())));
            }
            v
        }
        // A short pattern repeated with occasional corruption: long chains
        // and many equally long candidates.
        2 => {
            let period = 1 + rng.below(8) as usize;
            let pattern: Vec<u8> = (0..period).map(|_| rng.below(6) as u8).collect();
            (0..len)
                .map(|i| {
                    if rng.below(50) == 0 {
                        rng.next() as u8
                    } else {
                        pattern[i % period]
                    }
                })
                .collect()
        }
        // The online workload's segment: a noisy sine at precision 4.
        3 => {
            let mut s = SineStream::new(len.div_ceil(8).max(1), 0.1, 4, seed);
            f64_bytes(&s.next_segment())
        }
        // CBF segments (the offline workload's source).
        4 => {
            let config = CbfConfig {
                seed,
                ..CbfConfig::default()
            };
            let mut s = CbfStream::new(config, len.div_ceil(8).max(1));
            f64_bytes(&s.next_segment())
        }
        // A low-entropy walk over a few float levels.
        _ => {
            let mut level = 0i64;
            (0..len.div_ceil(8))
                .flat_map(|_| {
                    level = (level + rng.below(3) as i64 - 1).clamp(0, 5);
                    (level as f64 * 0.25).to_le_bytes()
                })
                .collect()
        }
    }
}

/// Check the fast tokenizer, DEFLATE emitter and snappy emitter against
/// the references on `data`, through one scratch reused across every
/// configuration (so stale generations are exercised too).
fn check_encoders(
    data: &[u8],
    lz: &mut LzScratch,
    huff: &mut HuffScratch,
) -> Result<(), TestCaseError> {
    for config in configs() {
        lz77_tokens_into(data, config, lz);
        let want = reference::lz77_tokens(data, config);
        prop_assert!(
            lz.tokens == want,
            "tokens diverge for {config:?} on {} bytes",
            data.len()
        );
        let mut out = Vec::new();
        deflate_bytes_into(data, config, lz, huff, &mut out);
        prop_assert!(
            out == reference::deflate_bytes(data, config),
            "deflate payload diverges for {config:?} on {} bytes",
            data.len()
        );
    }
    let mut out = Vec::new();
    snappy_compress_bytes_into(data, lz, &mut out);
    prop_assert!(
        out == reference::snappy_compress_bytes(data),
        "snappy payload diverges on {} bytes",
        data.len()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encoders_match_reference_on_segment_sized_inputs(
        family in 0usize..6,
        seed in any::<u64>(),
        len in 0usize..9000,
    ) {
        let data = input(family, seed, len);
        check_encoders(&data, &mut LzScratch::default(), &mut HuffScratch::default())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn encoders_match_reference_across_the_window_edge(
        family in 0usize..6,
        seed in any::<u64>(),
        extra in 1usize..9000,
    ) {
        // Longer than the 32 KiB window: matches near the end must not
        // reach past it.
        let data = input(family, seed, 32 * 1024 + extra);
        check_encoders(&data, &mut LzScratch::default(), &mut HuffScratch::default())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn code_lengths_match_reference(
        n in 1usize..300,
        shape in 0usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = XorShift(seed | 1);
        let freqs: Vec<u64> = (0..n)
            .map(|_| match shape {
                // Sparse, with many ties among small counts.
                0 => [0, 0, 1, 1, 2, 3][rng.below(6) as usize],
                // Wide counts.
                1 => rng.below(1 << 20),
                // Full 64-bit counts (every radix digit in play).
                2 => rng.next() >> rng.below(64),
                // Mostly unused symbols.
                _ => (rng.below(10) == 0) as u64 * (1 + rng.below(100)),
            })
            .collect();
        let mut lens = Vec::new();
        code_lengths_into(&freqs, &mut lens, &mut HuffWork::default());
        prop_assert_eq!(lens, reference::code_lengths(&freqs));
    }
}

#[test]
fn short_inputs_and_maximal_runs_match_reference() {
    let mut lz = LzScratch::default();
    let mut huff = HuffScratch::default();
    for len in 0..=3 {
        for b in [0u8, 7, 255] {
            check_encoders(&vec![b; len], &mut lz, &mut huff).unwrap();
        }
        check_encoders(&(0..len as u8).collect::<Vec<_>>(), &mut lz, &mut huff).unwrap();
    }
    // Runs around the 258-byte maximum match, alone and after a prefix.
    for len in 255..=262 {
        check_encoders(&vec![9u8; len], &mut lz, &mut huff).unwrap();
        let mut v = b"xyz".to_vec();
        v.extend(std::iter::repeat_n(9u8, len));
        check_encoders(&v, &mut lz, &mut huff).unwrap();
    }
}

#[test]
fn online_segments_match_reference() {
    let mut lz = LzScratch::default();
    let mut huff = HuffScratch::default();
    let mut sine = SineStream::new(1000, 0.1, 4, 7);
    for _ in 0..16 {
        check_encoders(&f64_bytes(&sine.next_segment()), &mut lz, &mut huff).unwrap();
    }
}

#[test]
fn code_lengths_match_reference_on_edge_tables() {
    let mut work = HuffWork::default();
    let mut lens = Vec::new();
    let mut check = |freqs: &[u64]| {
        code_lengths_into(freqs, &mut lens, &mut work);
        assert_eq!(lens, reference::code_lengths(freqs), "freqs {freqs:?}");
    };
    check(&[]);
    check(&[0; 30]);
    check(&[0, 0, 5, 0]);
    check(&[1; 286]);
    check(&[3, 3, 3, 1, 1, 1, 2, 2, 2]);
    check(&[u64::MAX, 1, u64::MAX - 1, 0, 2]);
    // Fibonacci counts build a degenerate tree far deeper than 15, so the
    // Kraft repair pass reassigns levels.
    let mut fib = vec![1u64, 1];
    while fib.len() < 60 {
        let next = fib[fib.len() - 1] + fib[fib.len() - 2];
        fib.push(next);
    }
    check(&fib);
    let mut reversed = fib.clone();
    reversed.reverse();
    check(&reversed);
    let mut padded = vec![0u64; 286];
    for (i, f) in fib.iter().enumerate() {
        padded[i * 4] = *f;
    }
    check(&padded);
}

/// The input nearest `target / scale` (a few ulps either side) whose
/// product with `scale` is exactly `target`, if there is one.
fn scaled_to(target: f64, scale: f64) -> Option<f64> {
    let mut lo = target / scale;
    let mut hi = lo;
    for _ in 0..8 {
        for v in [lo, hi] {
            if v * scale == target {
                return Some(v);
            }
        }
        lo = lo.next_down();
        hi = hi.next_up();
    }
    None
}

/// `len` Sprintz input points at `precision`, shaped by `family`, with
/// `faults` non-finite or out-of-range points planted at random places.
fn sprintz_input(family: usize, seed: u64, len: usize, precision: u8, faults: usize) -> Vec<f64> {
    let scale = 10f64.powi(precision as i32);
    let mut rng = XorShift(seed | 1);
    let limit = sprintz_reference::LIMIT;
    let mut level = 0i64;
    let mut step_bits = 1;
    let mut data: Vec<f64> = (0..len)
        .map(|i| {
            match family {
                // A random walk whose step width changes every few dozen
                // points, so block widths span 0..~40 bits.
                0 => {
                    if i % 40 == 0 {
                        step_bits = rng.below(41) as u32;
                    }
                    let step = (rng.next() >> (64 - step_bits.max(1))) as i64;
                    let step = if step_bits == 0 { 0 } else { step };
                    level = (level + if rng.below(2) == 0 { step } else { -step })
                        .clamp(-(1 << 50), 1 << 50);
                    (level as f64 + (rng.next() >> 11) as f64 / (1u64 << 53) as f64) / scale
                }
                // Arbitrary magnitudes up to the range edge: widths up to
                // the 54 bits a delta across the whole range takes.
                1 => {
                    let mag = (rng.next() % (limit as u64 - 1)) >> rng.below(53);
                    let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                    sign * mag as f64 / scale
                }
                // Exact `k + 0.5` ties, rounded half away from zero.
                2 => {
                    level += rng.below(7) as i64 - 3;
                    let t = level as f64 + 0.5;
                    scaled_to(t, scale).unwrap_or(t / scale)
                }
                // Runs of one value: zero-width blocks and single jumps.
                3 => {
                    if rng.below(150) == 0 {
                        level = rng.below(1 << 20) as i64 - (1 << 19);
                    }
                    level as f64 / scale
                }
                // Arbitrary bits: mostly rejected inputs.
                _ => f64::from_bits(rng.next()),
            }
        })
        .collect();
    for _ in 0..faults {
        if data.is_empty() {
            break;
        }
        let at = rng.below(data.len() as u64) as usize;
        data[at] = match rng.below(5) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            // Just at or past the range edge.
            3 => {
                let v = limit / scale;
                if rng.below(2) == 0 {
                    v
                } else {
                    -v.next_up()
                }
            }
            _ => 1e300,
        };
    }
    data
}

/// Check `Sprintz::compress_into` (through a reused scratch) and
/// `Sprintz::compress` against the reference: equal payloads, or equal
/// errors.
fn check_sprintz(
    data: &[f64],
    precision: u8,
    scratch: &mut CodecScratch,
) -> Result<(), TestCaseError> {
    let want = sprintz_reference::compress(data, precision);
    let codec = Sprintz::new(precision);
    let got = codec
        .compress_into(data, scratch)
        .map(|b| b.payload.to_vec());
    prop_assert!(
        got == want,
        "sprintz diverges at precision {precision} on {} points: {:?} vs {:?}",
        data.len(),
        got.as_ref().map(Vec::len),
        want.as_ref().map(Vec::len)
    );
    let fresh = codec.compress(data).map(|b| b.payload);
    prop_assert!(fresh == want, "sprintz compress diverges");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sprintz_matches_reference(
        family in 0usize..5,
        precision in 0u8..=12,
        seed in any::<u64>(),
        len in 1usize..1200,
        faults in 0usize..8,
    ) {
        // Half the cases are clean; the rest plant one to three faults.
        let faults = faults.saturating_sub(4);
        let data = sprintz_input(family, seed, len, precision, faults);
        check_sprintz(&data, precision, &mut CodecScratch::new())?;
    }
}

#[test]
fn sprintz_matches_reference_around_block_and_chunk_edges() {
    // One scratch across every case, so stale buffers are exercised too.
    let mut scratch = CodecScratch::new();
    for len in [
        1, 2, 3, 63, 64, 65, 127, 128, 129, 130, 191, 192, 193, 255, 256, 257, 258, 1000, 1025,
    ] {
        for family in 0..4 {
            for precision in [0, 4, 12] {
                let data =
                    sprintz_input(family, len as u64 * 31 + family as u64, len, precision, 0);
                check_sprintz(&data, precision, &mut scratch).unwrap();
                // A fault in every position class: first point, the last
                // point of a 64-point chunk, the first of the next, and the
                // last point of the segment; a non-finite point and an
                // overflow in the same chunk and in different chunks.
                for at in [0, 63, 64, 127, 128, len - 1] {
                    if at >= len {
                        continue;
                    }
                    for bad in [f64::NAN, f64::NEG_INFINITY, 1e300] {
                        let mut faulty = data.clone();
                        faulty[at] = bad;
                        check_sprintz(&faulty, precision, &mut scratch).unwrap();
                        if at + 1 < len {
                            faulty[len - 1] = if bad.is_finite() { f64::NAN } else { -1e300 };
                            check_sprintz(&faulty, precision, &mut scratch).unwrap();
                        }
                    }
                }
            }
        }
    }
    // Empty input and an unsupported precision are errors too.
    check_sprintz(&[], 4, &mut scratch).unwrap();
    check_sprintz(&[1.0, 2.0], 13, &mut scratch).unwrap();
}

#[test]
fn online_segments_match_sprintz_reference() {
    let mut scratch = CodecScratch::new();
    let mut sine = SineStream::new(1000, 0.1, 4, 7);
    for _ in 0..16 {
        check_sprintz(&sine.next_segment(), 4, &mut scratch).unwrap();
    }
    let mut cbf = CbfStream::new(CbfConfig::default(), 1000);
    for _ in 0..16 {
        check_sprintz(&cbf.next_segment(), 4, &mut scratch).unwrap();
    }
}
