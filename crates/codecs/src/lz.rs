//! LZ77 matching engine shared by the byte-oriented codecs.
//!
//! A classic hash-chain matcher over a 32 KiB window, with a tunable chain
//! search depth and optional lazy matching. Effort levels map to the
//! gzip/zlib speed-vs-ratio spectrum the paper's Figure 2/3 relies on:
//! greedy depth-1 search is the "snappy" fast path; deep chains with lazy
//! evaluation form the "gzip" slow path.
//!
//! The matcher hands each token to a sink as it goes: [`lz77_tokens_into`]
//! collects [`Token`]s, DEFLATE counts symbol frequencies while storing
//! them, and snappy writes its wire format directly. Every configuration
//! emits exactly the tokens of the original `Option`-based matcher; a
//! frozen copy of it in `tests/encoder_equivalence.rs` pins this.

// The expand path consumes untrusted token streams; surface every raw index
// so each one carries an explicit bounds argument.
#![warn(clippy::indexing_slicing)]

/// Minimum match length worth encoding.
pub const MIN_MATCH: usize = 3;
/// Maximum match length (the DEFLATE limit).
pub const MAX_MATCH: usize = 258;
/// Sliding-window size; matches may reference at most this far back.
pub const WINDOW: usize = 32 * 1024;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// Match length (3..=258).
        len: u16,
        /// Backward distance (1..=32768).
        dist: u16,
    },
}

/// Matcher tuning. Higher `max_chain` finds better matches but costs time.
#[derive(Debug, Clone, Copy)]
pub struct LzConfig {
    /// How many chain entries to examine per position.
    pub max_chain: usize,
    /// Defer emitting a match if the next position has a longer one.
    pub lazy: bool,
}

impl LzConfig {
    /// Fast greedy configuration (snappy-class).
    pub fn fast() -> Self {
        Self {
            max_chain: 1,
            lazy: false,
        }
    }

    /// Effort level 1..=10 mapped onto chain depth and laziness,
    /// mirroring zlib's level ladder.
    pub fn level(level: u8) -> Self {
        match level {
            0 | 1 => Self {
                max_chain: 4,
                lazy: false,
            },
            2 => Self {
                max_chain: 8,
                lazy: false,
            },
            3 => Self {
                max_chain: 16,
                lazy: false,
            },
            4 | 5 => Self {
                max_chain: 16,
                lazy: true,
            },
            6 => Self {
                max_chain: 32,
                lazy: true,
            },
            7 => Self {
                max_chain: 64,
                lazy: true,
            },
            8 => Self {
                max_chain: 128,
                lazy: true,
            },
            9 => Self {
                max_chain: 256,
                lazy: true,
            },
            _ => Self {
                max_chain: 1024,
                lazy: true,
            },
        }
    }
}

// Hot path over trusted input: callers guarantee `i + 2 < data.len()`
// (the matcher only hashes positions with a full 3-gram).
#[allow(clippy::indexing_slicing)]
#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], 0]);
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max` (the LZ match-extension kernel). `max` must not run either
/// cursor past `data.len()`.
///
/// Dispatches through [`crate::simd`]: AVX2/NEON hosts compare 32/16
/// bytes per step with a movemask-style mismatch locate, everything else
/// takes the portable 8-bytes-per-step `match_len_swar` kernel. All
/// tiers agree; equivalence is pinned by unit tests here and per-backend
/// property tests in `tests/kernel_equivalence.rs`.
#[inline]
pub fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    crate::simd::active().match_len(data, a, b, max)
}

/// Portable word-at-a-time match extension (the `Backend::Swar` tier of
/// [`crate::simd::Backend::match_len`]): compares 8 bytes per iteration
/// via unaligned little-endian `u64` loads; the first differing byte is
/// located with a trailing-zeros count on the XOR of the mismatching
/// words. Also the tail kernel for the wider SIMD tiers.
// Hot path over trusted input: `max` caps both cursors at `data.len()`.
#[allow(clippy::indexing_slicing)]
#[inline]
pub(crate) fn match_len_swar(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut len = 0;
    while len + 8 <= max {
        let wa = u64::from_le_bytes(data[a + len..a + len + 8].try_into().unwrap());
        let wb = u64::from_le_bytes(data[b + len..b + len + 8].try_into().unwrap());
        let x = wa ^ wb;
        if x != 0 {
            return len + (x.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

/// Reference byte-at-a-time match extension (the `Backend::Scalar` tier).
/// Differential baseline for tests and benches; not used on any hot path.
// Reference kernel over trusted input: same bounds contract as `match_len`.
#[allow(clippy::indexing_slicing)]
#[inline]
pub(crate) fn match_len_scalar(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut len = 0;
    while len < max && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

/// Append `len` bytes starting `dist` back from the end of `out` (the LZ
/// match-copy kernel). The caller must have validated `1 <= dist <=
/// out.len()`. Non-overlapping copies (`dist >= len`) are one bulk
/// `extend_from_within` (a memcpy); overlapping copies double the
/// available source region per round, so a length-`len` run costs
/// O(log len) memcpys instead of `len` byte pushes. Byte-identical to the
/// naive loop: each round only copies bytes that already exist.
#[inline]
pub(crate) fn append_match(out: &mut Vec<u8>, dist: usize, len: usize) {
    debug_assert!(dist >= 1 && dist <= out.len());
    let start = out.len() - dist;
    if dist >= len {
        out.extend_from_within(start..start + len);
        return;
    }
    let mut remaining = len;
    while remaining > 0 {
        let avail = out.len() - start;
        let take = avail.min(remaining);
        out.extend_from_within(start..start + take);
        remaining -= take;
    }
}

/// Receives the token stream in input order as the matcher produces it.
///
/// The encoders plug in here instead of walking a token buffer afterwards:
/// [`lz77_tokens_into`] collects [`Token`]s, DEFLATE counts symbol
/// frequencies while it stores them, and snappy writes its wire format
/// directly.
pub(crate) trait TokenSink {
    /// The next input byte is emitted as a literal.
    fn literal(&mut self, byte: u8);
    /// The next `len` input bytes repeat the bytes `dist` back.
    fn copy(&mut self, len: usize, dist: usize);
}

impl TokenSink for Vec<Token> {
    #[inline]
    fn literal(&mut self, byte: u8) {
        self.push(Token::Literal(byte));
    }

    #[inline]
    fn copy(&mut self, len: usize, dist: usize) {
        self.push(Token::Match {
            len: len as u16,
            dist: dist as u16,
        });
    }
}

/// Reusable LZ77 state: the matcher's hash chains and the token buffer.
///
/// The hash head table is 128 KiB. Entries are generation-stamped — a
/// stored value is `base + pos + 1`, valid only while it exceeds the
/// current `base` — so successive calls reuse the table with **no per-call
/// clearing** (zeroing head + chain links costs more than the matching
/// itself on segment-sized inputs). `prev` entries are always written
/// before they are read within a call, so they are never cleared either.
#[derive(Debug, Default)]
pub struct LzScratch {
    /// Tokens produced by the most recent [`lz77_tokens_into`] call.
    pub tokens: Vec<Token>,
    pub(crate) chains: HashChains,
}

#[cfg(test)]
impl LzScratch {
    /// Move the stamp base, as if `base` bytes had already been tokenized.
    fn set_stamp_base(&mut self, base: u32) {
        self.chains.base = base;
    }
}

/// The matcher's generation-stamped hash chains (see [`LzScratch`]).
#[derive(Debug, Default)]
pub(crate) struct HashChains {
    head: Vec<u32>,
    prev: Vec<u32>,
    /// Stamp base for the current call; advanced by `data.len() + 1` per
    /// call, reset (with a table clear) when it nears `u32::MAX`.
    base: u32,
}

impl HashChains {
    /// Prepare the tables for a call over `len` bytes and return the stamp
    /// base for this generation.
    fn begin(&mut self, len: usize) -> u32 {
        if self.head.len() < HASH_SIZE {
            self.head.resize(HASH_SIZE, 0);
        }
        if self.prev.len() < len {
            self.prev.resize(len, 0);
        }
        if u32::MAX as usize - self.base as usize <= len + 1 {
            // Stamp space exhausted (once per ~4 GiB processed): start over.
            self.head.fill(0);
            self.base = 0;
        }
        let base = self.base;
        self.base = base + len as u32 + 1;
        base
    }

    /// Tokenize `data` into `sink`.
    ///
    /// Greedy depth-1 search (snappy's [`LzConfig::fast`]) runs a loop that
    /// never follows or writes chain links; every other configuration runs
    /// the greedy or lazy chain walk.
    // `i` never passes `data.len()`: match lengths are capped by the
    // remaining input.
    #[allow(clippy::indexing_slicing)]
    pub(crate) fn tokenize<S: TokenSink>(&mut self, data: &[u8], config: LzConfig, sink: &mut S) {
        let base = self.begin(data.len());
        let mut m = Matcher {
            data,
            head: &mut self.head,
            prev: &mut self.prev,
            base,
            max_chain: config.max_chain,
        };
        let i = match config {
            LzConfig {
                max_chain: 1,
                lazy: false,
            } => m.greedy_depth1(sink),
            LzConfig { lazy: false, .. } => m.greedy(sink),
            LzConfig { lazy: true, .. } => m.lazy(sink),
        };
        // The last one or two bytes have no full 3-gram to match.
        for &b in &data[i..] {
            sink.literal(b);
        }
    }
}

struct Matcher<'a> {
    data: &'a [u8],
    head: &'a mut [u32],
    prev: &'a mut [u32],
    /// Stamps at or below this value are stale entries from earlier calls.
    base: u32,
    max_chain: usize,
}

// Hot path over trusted input: every loop below runs only while position
// `i` has a full 3-gram (`i + MIN_MATCH <= data.len()`), chain indices are
// positions previously inserted for this `data`, and `prev` is sized to
// `data.len()` by `begin`.
#[allow(clippy::indexing_slicing)]
impl Matcher<'_> {
    /// Stamp recording position `i` in this generation.
    #[inline(always)]
    fn stamp(&self, i: usize) -> u32 {
        self.base + i as u32 + 1
    }

    /// Chain stamps above this value lie inside the window of position `i`:
    /// they belong to this call and are at most [`WINDOW`] bytes back.
    #[inline(always)]
    fn floor(&self, i: usize) -> u32 {
        self.base + i.saturating_sub(WINDOW) as u32
    }

    /// Insert position `i` (hash `h`) into the chains and return the stamp
    /// it displaced from the head table: the start of `i`'s chain walk.
    #[inline(always)]
    fn insert(&mut self, i: usize, h: usize) -> u32 {
        let old = self.head[h];
        self.prev[i] = old;
        self.head[h] = self.stamp(i);
        old
    }

    /// Insert every position in `from..to` that has a full 3-gram.
    #[inline(always)]
    fn insert_run(&mut self, from: usize, to: usize) {
        for k in from..to.min(self.data.len() + 1 - MIN_MATCH) {
            self.insert(k, hash3(self.data, k));
        }
    }

    /// Length of the match between candidate `c` and position `i` (capped
    /// at `max`) when it beats `best_len`; otherwise some value no greater
    /// than `best_len`.
    ///
    /// Whenever eight bytes remain, the first word is compared inline: on
    /// float data most candidates stop inside it, and its mismatch position
    /// is their exact length. Only candidates matching a whole word check
    /// the guard byte at `best_len` (zlib's `scan_end`: a longer match must
    /// agree there) before `match_len` extends them.
    #[inline(always)]
    fn candidate_len(&self, c: usize, i: usize, max: usize, best_len: usize) -> usize {
        let data = self.data;
        if let (Some(wc), Some(wi)) = (data.get(c..c + 8), data.get(i..i + 8)) {
            let x = u64::from_le_bytes(wc.try_into().unwrap())
                ^ u64::from_le_bytes(wi.try_into().unwrap());
            if x != 0 {
                return (x.trailing_zeros() / 8) as usize;
            }
            if data[c + best_len] != data[i + best_len] {
                return 0;
            }
            // `i + 8 <= data.len()`, so `max >= 8`.
            return 8 + match_len(data, c + 8, i + 8, max - 8);
        }
        if data[c + best_len] != data[i + best_len] {
            return 0;
        }
        match_len(data, c, i, max)
    }

    /// Longest match for position `i` that beats `best_len`, walking at
    /// most `max_chain` candidates from chain stamp `stamp`. Returns
    /// `(len, dist)`; `dist == 0` means no candidate beat `best_len`.
    /// Among equally long matches the first one on the chain (the nearest)
    /// wins.
    #[inline(always)]
    fn longest(&self, i: usize, mut stamp: u32, mut best_len: usize) -> (usize, usize) {
        let max = (self.data.len() - i).min(MAX_MATCH);
        let floor = self.floor(i);
        let mut best_dist = 0;
        let mut chain = self.max_chain;
        while stamp > floor && chain > 0 {
            let c = (stamp - self.base - 1) as usize;
            let len = self.candidate_len(c, i, max, best_len);
            if len > best_len {
                best_len = len;
                best_dist = i - c;
                if len == max {
                    break;
                }
            }
            stamp = self.prev[c];
            chain -= 1;
        }
        (best_len, best_dist)
    }

    /// Greedy search of the chain head only. Chain links are never
    /// followed, so they are not written either. Returns the first
    /// position without a full 3-gram.
    fn greedy_depth1<S: TokenSink>(&mut self, sink: &mut S) -> usize {
        let data = self.data;
        let mut i = 0;
        while i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            let stamp = self.head[h];
            self.head[h] = self.stamp(i);
            // Select rather than branch on the candidate's validity: the
            // outcome is close to random on float data. A stale stamp
            // probes position 0 (in bounds, possibly `i` itself) and its
            // length is discarded.
            let valid = stamp > self.floor(i);
            let c = if valid {
                stamp.wrapping_sub(self.base + 1) as usize
            } else {
                0
            };
            let max = (data.len() - i).min(MAX_MATCH);
            let len = self.candidate_len(c, i, max, MIN_MATCH - 1);
            let len = if valid { len } else { 0 };
            if len >= MIN_MATCH {
                sink.copy(len, i - c);
                for k in i + 1..(i + len).min(data.len() + 1 - MIN_MATCH) {
                    self.head[hash3(data, k)] = self.stamp(k);
                }
                i += len;
            } else {
                sink.literal(data[i]);
                i += 1;
            }
        }
        i
    }

    /// Greedy chain search: take the longest match at each position.
    /// Returns the first position without a full 3-gram.
    fn greedy<S: TokenSink>(&mut self, sink: &mut S) -> usize {
        let data = self.data;
        let mut i = 0;
        while i + MIN_MATCH <= data.len() {
            let stamp = self.insert(i, hash3(data, i));
            let (len, dist) = self.longest(i, stamp, MIN_MATCH - 1);
            if dist != 0 {
                sink.copy(len, dist);
                self.insert_run(i + 1, i + len);
                i += len;
            } else {
                sink.literal(data[i]);
                i += 1;
            }
        }
        i
    }

    /// Chain search with one-step lazy matching: a match at `i` is
    /// deferred behind a literal when `i + 1` starts a strictly longer one.
    /// The peek at `i + 1` only looks for matches longer than the one in
    /// hand (zlib's `prev_length`), which finds the same match the full
    /// search would have.
    ///
    /// After a deferral the new match start (`i + 1`) is never inserted
    /// into the chains. The wire format pins this: inserting it would
    /// change later matches.
    fn lazy<S: TokenSink>(&mut self, sink: &mut S) -> usize {
        let data = self.data;
        let mut i = 0;
        while i + MIN_MATCH <= data.len() {
            let stamp = self.insert(i, hash3(data, i));
            let (mut len, mut dist) = self.longest(i, stamp, MIN_MATCH - 1);
            if dist == 0 {
                sink.literal(data[i]);
                i += 1;
                continue;
            }
            // First position after the match start still to insert.
            let mut next = i + 1;
            if i + 1 + MIN_MATCH <= data.len() {
                let h1 = hash3(data, i + 1);
                let (len2, dist2) = if len < (data.len() - i - 1).min(MAX_MATCH) {
                    self.longest(i + 1, self.head[h1], len)
                } else {
                    (0, 0)
                };
                if dist2 != 0 {
                    sink.literal(data[i]);
                    i += 1;
                    len = len2;
                    dist = dist2;
                    next = i + 1;
                } else {
                    self.insert(i + 1, h1);
                    next = i + 2;
                }
            }
            sink.copy(len, dist);
            self.insert_run(next, i + len);
            i += len;
        }
        i
    }
}

/// Tokenize `data` with the given configuration.
pub fn lz77_tokens(data: &[u8], config: LzConfig) -> Vec<Token> {
    let mut scratch = LzScratch::default();
    lz77_tokens_into(data, config, &mut scratch);
    scratch.tokens
}

/// [`lz77_tokens`] into a reusable scratch: the result lands in
/// `scratch.tokens` and the matcher state is recycled across calls.
pub fn lz77_tokens_into(data: &[u8], config: LzConfig, scratch: &mut LzScratch) {
    scratch.tokens.clear();
    scratch.tokens.reserve(data.len() / 2 + 8);
    scratch.chains.tokenize(data, config, &mut scratch.tokens);
}

/// Expand tokens back into bytes. `expected_len` pre-sizes the output.
pub fn lz77_expand(tokens: &[Token], expected_len: usize) -> Result<Vec<u8>, &'static str> {
    let mut out = Vec::new();
    lz77_expand_into(tokens, expected_len, &mut out)?;
    Ok(out)
}

/// [`lz77_expand`] into a reused buffer (cleared, capacity kept).
///
/// Corruption containment: match distances are validated against the
/// decoded prefix and every literal/copy is capped at `expected_len`, so a
/// corrupt token stream can neither read out of bounds nor grow `out`
/// beyond the declared size.
pub fn lz77_expand_into(
    tokens: &[Token],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), &'static str> {
    out.clear();
    out.reserve(expected_len);
    for t in tokens {
        match *t {
            Token::Literal(b) => {
                if out.len() >= expected_len {
                    return Err("literal overruns output");
                }
                out.push(b);
            }
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let len = len as usize;
                if dist == 0 || dist > out.len() {
                    return Err("match distance out of range");
                }
                if out.len() + len > expected_len {
                    return Err("match copy overruns output");
                }
                append_match(out, dist, len);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], config: LzConfig) {
        let tokens = lz77_tokens(data, config);
        let back = lz77_expand(&tokens, data.len()).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"", LzConfig::fast());
        roundtrip(b"a", LzConfig::fast());
        roundtrip(b"ab", LzConfig::level(9));
    }

    #[test]
    fn repetitive_input_produces_matches() {
        let data = b"abcabcabcabcabcabcabcabc".to_vec();
        let tokens = lz77_tokens(&data, LzConfig::level(6));
        assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
        roundtrip(&data, LzConfig::level(6));
    }

    #[test]
    fn overlapping_match_roundtrip() {
        // Run of a single byte forces dist=1, len>1 overlapping copies.
        let data = vec![7u8; 1000];
        let tokens = lz77_tokens(&data, LzConfig::level(6));
        assert!(
            tokens.len() < 20,
            "run should collapse, got {}",
            tokens.len()
        );
        roundtrip(&data, LzConfig::level(6));
    }

    #[test]
    fn all_configs_roundtrip_mixed_data() {
        let mut data = Vec::new();
        for i in 0..5000u32 {
            data.extend_from_slice(&(i % 97).to_le_bytes());
        }
        for cfg in [
            LzConfig::fast(),
            LzConfig::level(1),
            LzConfig::level(6),
            LzConfig::level(9),
            LzConfig::level(10),
        ] {
            roundtrip(&data, cfg);
        }
    }

    #[test]
    fn deeper_chains_compress_no_worse() {
        let mut data = Vec::new();
        let mut x = 12345u64;
        for _ in 0..4000 {
            x = x.wrapping_mul(48271) % 0x7FFF_FFFF;
            data.push((x % 7) as u8); // low-entropy stream
        }
        // Lazy matching is a heuristic: allow a little slack, but deep
        // search should never be drastically worse than greedy.
        let shallow = lz77_tokens(&data, LzConfig::level(1)).len();
        let deep = lz77_tokens(&data, LzConfig::level(9)).len();
        assert!(
            deep as f64 <= shallow as f64 * 1.10,
            "deep {deep} vs shallow {shallow}"
        );
    }

    #[test]
    fn match_len_swar_matches_scalar() {
        // Repeating pattern with mismatches planted at every offset within
        // a word, so the trailing_zeros tie-break is exercised byte by byte.
        let mut data: Vec<u8> = (0..256u32).map(|i| (i % 13) as u8).collect();
        for flip in 0..24 {
            data[128 + flip] ^= 0xA5;
            for max in [0, 1, 5, 7, 8, 9, 15, 16, 17, 33, 64, 120] {
                let want = match_len_scalar(&data, 0, 128, max);
                assert_eq!(
                    match_len(&data, 0, 128, max),
                    want,
                    "dispatched, flip {flip} max {max}"
                );
                for &b in crate::simd::supported() {
                    assert_eq!(
                        b.match_len(&data, 0, 128, max),
                        want,
                        "{} flip {flip} max {max}",
                        b.name()
                    );
                }
            }
            data[128 + flip] ^= 0xA5;
        }
    }

    #[test]
    fn append_match_matches_byte_loop() {
        // Every (dist, len) shape: non-overlap, exact, and deep overlap.
        for dist in 1..=20usize {
            for len in 0..=50usize {
                let seed: Vec<u8> = (0..20).map(|i| (i * 7 + 3) as u8).collect();
                let mut fast = seed.clone();
                append_match(&mut fast, dist, len);
                let mut slow = seed.clone();
                let start = slow.len() - dist;
                for k in 0..len {
                    let b = slow[start + k];
                    slow.push(b);
                }
                assert_eq!(fast, slow, "dist {dist} len {len}");
            }
        }
    }

    #[test]
    fn stamp_reset_matches_fresh_scratch() {
        // Repetitive but varied input, so the head table holds live chains.
        let data: Vec<u8> = (0..4000u32).map(|i| ((i * i) % 61) as u8).collect();
        let len = data.len() as u32;
        for config in [LzConfig::fast(), LzConfig::level(1), LzConfig::level(6)] {
            let mut worn = LzScratch::default();
            // Two calls fit below u32::MAX and stamp the head table near it;
            // the third must clear the table and restart the stamps at 0.
            worn.set_stamp_base(u32::MAX - 3 * len);
            let mut resets = 0;
            for _ in 0..4 {
                let before = worn.chains.base;
                lz77_tokens_into(&data, config, &mut worn);
                resets += usize::from(worn.chains.base < before);
                assert_eq!(worn.tokens, lz77_tokens(&data, config), "{config:?}");
            }
            assert_eq!(resets, 1, "{config:?}");
        }
    }

    #[test]
    fn expand_rejects_bad_distance() {
        let tokens = vec![Token::Match { len: 5, dist: 3 }];
        assert!(lz77_expand(&tokens, 5).is_err());
    }

    #[test]
    fn random_bytes_roundtrip() {
        let mut x = 0xDEADBEEFu64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xFF) as u8
            })
            .collect();
        roundtrip(&data, LzConfig::level(6));
        roundtrip(&data, LzConfig::fast());
    }
}
