//! Figure 15: robustness against data shift on edge-class constraints.
//!
//! A 100 k points/s stream is half high-entropy CBF data, half low-entropy
//! repetitive data; the optimization goal is minimum space. The decision
//! space is doubled (the full zlib ladder, dictionary, Chimp, ...). The
//! MAB should converge to Sprintz/BUFF on the first half and to a byte
//! compressor (gzip/zlib) after the shift, for every ε in {0.05, 0.1,
//! 0.2}; a larger non-stationary step switches faster.
//!
//! Run: `cargo run --release -p adaedge-bench --bin fig15_data_shift`

use adaedge_bandit::StepSize;
use adaedge_bench::harness::mean;
use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge_core::{LosslessSelector, SelectorConfig};
use adaedge_datasets::{CbfConfig, SegmentSource, ShiftStream};

const SEGMENT: usize = 2048;
const TOTAL: usize = 400;
const SHIFT_AT: usize = 200;

fn run(epsilon: f64, step: StepSize) -> (Vec<(usize, String, f64)>, f64, f64, usize) {
    let reg = CodecRegistry::new(4);
    let mut scratch = CodecScratch::new();
    let mut selector = LosslessSelector::new(
        CodecRegistry::extended_lossless_candidates(),
        SelectorConfig {
            epsilon,
            step,
            seed: 5,
            ..Default::default()
        },
    );
    let mut stream = ShiftStream::new(CbfConfig::default(), SEGMENT, SHIFT_AT, 4);
    let mut history = Vec::new();
    let mut first_half = Vec::new();
    let mut second_half = Vec::new();
    let mut switch_lag = None;
    for i in 0..TOTAL {
        let seg = stream.next_segment();
        let sel = selector
            .compress(&reg, &seg, &mut scratch)
            .expect("compresses");
        if i < SHIFT_AT {
            first_half.push(sel.block.ratio());
        } else {
            second_half.push(sel.block.ratio());
            // When does the greedy arm become a byte/dict compressor?
            if switch_lag.is_none() {
                let arm = selector.greedy_arm();
                if matches!(
                    arm,
                    CodecId::Gzip
                        | CodecId::Zlib1
                        | CodecId::Zlib6
                        | CodecId::Zlib9
                        | CodecId::Dict
                        | CodecId::Snappy
                ) {
                    switch_lag = Some(i - SHIFT_AT);
                }
            }
        }
        if i % 40 == 0 || i == SHIFT_AT || i == SHIFT_AT + 5 {
            history.push((
                i,
                selector.greedy_arm().name().to_string(),
                sel.block.ratio(),
            ));
        }
    }
    (
        history,
        mean(&first_half),
        mean(&second_half),
        switch_lag.unwrap_or(TOTAL),
    )
}

fn main() {
    println!(
        "Figure 15: data-shift robustness (shift at segment {SHIFT_AT}, doubled \
         candidate set, target = minimum space)\n"
    );

    // (a) baseline candidates: fixed-codec ratios per phase for reference.
    println!("(a) fixed candidates: mean ratio before / after the shift");
    let reg = CodecRegistry::new(4);
    let mut stream = ShiftStream::new(CbfConfig::default(), SEGMENT, SHIFT_AT, 4);
    let segs: Vec<Vec<f64>> = (0..TOTAL).map(|_| stream.next_segment()).collect();
    println!("{:>10} {:>12} {:>12}", "codec", "pre-shift", "post-shift");
    for id in CodecRegistry::extended_lossless_candidates() {
        let pre: Vec<f64> = segs[..SHIFT_AT]
            .iter()
            .step_by(20)
            .map(|s| {
                reg.get(id)
                    .compress(s)
                    .map(|b| b.ratio())
                    .unwrap_or(f64::NAN)
            })
            .collect();
        let post: Vec<f64> = segs[SHIFT_AT..]
            .iter()
            .step_by(20)
            .map(|s| {
                reg.get(id)
                    .compress(s)
                    .map(|b| b.ratio())
                    .unwrap_or(f64::NAN)
            })
            .collect();
        println!(
            "{:>10} {:>12.4} {:>12.4}",
            id.name(),
            mean(&pre),
            mean(&post)
        );
    }

    // (b) MAB with epsilon in {0.05, 0.1, 0.2}, at the paper's data-shift
    // default of constant step 0.5 (the sample-average alternative appears
    // in the ablation below and gets stuck on pre-shift estimates).
    println!("\n(b) MAB convergence per epsilon (constant step 0.5)");
    for eps in [0.05, 0.1, 0.2] {
        let (history, pre, post, lag) = run(eps, StepSize::Constant(0.5));
        println!("\n  epsilon = {eps}: mean ratio pre {pre:.4} / post {post:.4}; switched {lag} segments after the shift");
        for (i, arm, ratio) in history {
            println!("    seg {i:>4}: greedy={arm:<10} ratio={ratio:.4}");
        }
    }

    // Non-stationary step ablation: larger step switches faster.
    println!("\n(c) non-stationary step ablation (epsilon = 0.1)");
    println!("{:>22} {:>12} {:>14}", "step", "post ratio", "switch lag");
    for (label, step) in [
        ("sample-average", StepSize::SampleAverage),
        ("constant 0.1", StepSize::Constant(0.1)),
        ("constant 0.5", StepSize::Constant(0.5)),
        ("constant 0.9", StepSize::Constant(0.9)),
    ] {
        let (_, _, post, lag) = run(0.1, step);
        println!("{label:>22} {post:>12.4} {lag:>14}");
    }

    println!(
        "\nexpected shape (paper): every epsilon converges — Sprintz/BUFF \
         pre-shift, gzip/zlib-class post-shift; a larger non-stationary step \
         value switches more swiftly after the distribution change."
    );
}
