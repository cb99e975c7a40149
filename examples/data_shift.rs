//! Robustness against data shift (§V-C, Figure 15): the stream switches
//! from high-entropy CBF data to a low-entropy repeating signal halfway
//! through, and the non-stationary MAB (constant step 0.5) migrates from
//! Sprintz to the byte/dictionary compressors.
//!
//! Run with: `cargo run --release --example data_shift`

use adaedge::codecs::{CodecRegistry, CodecScratch};
use adaedge::core::{LosslessSelector, SelectorConfig};
use adaedge::datasets::{CbfConfig, SegmentSource, ShiftStream};

fn main() {
    let reg = CodecRegistry::new(4);
    let mut scratch = CodecScratch::new();
    let mut selector = LosslessSelector::new(
        CodecRegistry::extended_lossless_candidates(),
        SelectorConfig::nonstationary(),
    );

    // 200 segments; the distribution shifts after segment 100.
    let mut stream = ShiftStream::new(CbfConfig::default(), 2048, 100, 4);

    println!(
        "{:>8} {:>12} {:>8} {:>12}",
        "segment", "chosen", "ratio", "greedy arm"
    );
    for i in 0..200usize {
        let segment = stream.next_segment();
        let sel = selector
            .compress(&reg, &segment, &mut scratch)
            .expect("compresses");
        if i % 20 == 0 || i == 99 || i == 100 || i == 101 {
            println!(
                "{:>8} {:>12} {:>8.4} {:>12}",
                i,
                sel.codec.name(),
                sel.block.ratio(),
                selector.greedy_arm().name(),
            );
        }
    }

    println!(
        "\nfinal greedy arm: {} (expected: a byte/dictionary codec after the \
         low-entropy shift; Sprintz before it)",
        selector.greedy_arm().name()
    );
}
