//! `CodecId::is_bit_exact` is a promise offline recoding relies on: a
//! victim stored with such a codec is re-compressed from the held
//! original instead of its decode. Every codec in the predicate must
//! round-trip arbitrary finite `f64` bit patterns with equal `to_bits`
//! (signed zeros, subnormals, ±1e300, values off the declared precision,
//! runs of repeats); every lossless codec outside it (Sprintz, BUFF and
//! Elf quantize at the declared precision) must fail that on some such
//! input, by erroring or by decoding other bits.

use adaedge_codecs::{CodecId, CodecRegistry};
use proptest::prelude::*;

/// One input point drawn by `kind`.
fn point(kind: u8, bits: u64, prev: f64) -> f64 {
    let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
    match kind % 7 {
        // Arbitrary bits, with a non-finite exponent folded into range.
        0 => {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                v
            } else {
                f64::from_bits(bits & !(1 << 62))
            }
        }
        1 => sign * 0.0,
        2 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
        3 => sign * 1e300,
        // Off the 4-digit precision: a multiple of 1e-4 plus a tiny offset.
        4 => ((bits >> 40) as i64 - (1 << 23)) as f64 * 1e-4 + (bits & 0xFF) as f64 * 1e-9,
        // On the precision grid.
        5 => ((bits >> 40) as i64 - (1 << 23)) as f64 / 1e4,
        _ => prev,
    }
}

fn series(points: &[(u8, u64)]) -> Vec<f64> {
    let mut out = Vec::with_capacity(points.len());
    let mut prev = 0.0;
    for &(kind, bits) in points {
        prev = point(kind, bits, prev);
        out.push(prev);
    }
    out
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Whether `id` returns `data` bit for bit (compress and decode both
/// succeed, with equal `to_bits`).
fn round_trips(reg: &CodecRegistry, id: CodecId, data: &[f64]) -> bool {
    let Ok(block) = reg.get(id).compress(data) else {
        return false;
    };
    reg.decompress(&block)
        .is_ok_and(|back| bits(&back) == bits(data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bit_exact_codecs_round_trip_every_finite_pattern(
        points in prop::collection::vec((0u8..7, any::<u64>()), 1..400),
    ) {
        let reg = CodecRegistry::new(4);
        let data = series(&points);
        for id in CodecId::ALL.into_iter().filter(|id| id.is_bit_exact()) {
            let block = reg.get(id).compress(&data);
            prop_assert!(block.is_ok(), "{id}: {:?}", block.err());
            let back = reg.decompress(&block.unwrap());
            prop_assert!(back.is_ok(), "{id}: {:?}", back.err());
            prop_assert_eq!(bits(&back.unwrap()), bits(&data), "{}", id);
        }
    }
}

#[test]
fn quantizing_codecs_fall_outside_the_predicate() {
    let lossless: Vec<CodecId> = CodecId::ALL
        .into_iter()
        .filter(|id| id.is_lossless())
        .collect();
    let outside: Vec<CodecId> = lossless
        .iter()
        .copied()
        .filter(|id| !id.is_bit_exact())
        .collect();
    assert_eq!(outside, [CodecId::Sprintz, CodecId::Elf, CodecId::Buff]);
    assert!(CodecId::ALL
        .into_iter()
        .all(|id| id.is_lossless() || !id.is_bit_exact()));

    // Each adversarial class on its own, then all of them mixed.
    let reg = CodecRegistry::new(4);
    let mut inputs: Vec<Vec<f64>> = (0u8..6)
        .map(|kind| {
            let pts: Vec<(u8, u64)> = (0..64u64)
                .map(|i| (kind, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect();
            series(&pts)
        })
        .collect();
    inputs.push(vec![
        -0.0,
        0.0,
        f64::from_bits(1),
        1e300,
        -1e300,
        0.12345678,
        1.5e-4,
    ]);
    for id in outside {
        assert!(
            inputs.iter().any(|data| !round_trips(&reg, id, data)),
            "{id} returned every adversarial input bit for bit"
        );
    }
}
