#!/usr/bin/env bash
# Full verification gate: build, tests, lints, formatting.
#
# Usage: scripts/verify.sh
# Runs from the repository root regardless of the invocation directory.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q (every crate's unit and integration tests)"
cargo test --workspace -q

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> forced-scalar backend gate (ADAEDGE_SIMD=scalar, full codec suite, core unit tests)"
ADAEDGE_SIMD=scalar cargo test -q -p adaedge-codecs
ADAEDGE_SIMD=scalar cargo test -q -p adaedge-core --lib

echo "==> forced-swar backend gate (ADAEDGE_SIMD=swar, full codec suite, core unit tests)"
ADAEDGE_SIMD=swar cargo test -q -p adaedge-codecs
ADAEDGE_SIMD=swar cargo test -q -p adaedge-core --lib

echo "==> forced-scalar decode-fuzz (reference tier must survive the same corpus)"
ADAEDGE_SIMD=scalar cargo test --release -q -p adaedge-codecs --test decode_fuzz

echo "==> decode-fuzz smoke (fixed seeds, detected SIMD backend)"
cargo test --release -q -p adaedge-codecs --test decode_fuzz

echo "==> kernel equivalence proptests (release)"
cargo test --release -q -p adaedge-codecs --test kernel_equivalence

echo "==> encoder equivalence vs frozen reference (detected, scalar, swar backends)"
cargo test --release -q -p adaedge-codecs --test encoder_equivalence
ADAEDGE_SIMD=scalar cargo test --release -q -p adaedge-codecs --test encoder_equivalence
ADAEDGE_SIMD=swar cargo test --release -q -p adaedge-codecs --test encoder_equivalence

echo "==> FFT plan bit-identity vs frozen unplanned FFT (release)"
cargo test --release -q -p adaedge-codecs --test fft_equivalence

echo "==> batched scheduling equivalence (K>1 engine smoke, release)"
cargo test --release -q -p adaedge-core --test batch_equivalence

echo "==> shard equivalence + delta-sync staleness (release)"
cargo test --release -q -p adaedge-core --test shard_equivalence

echo "==> fleet equivalence (1-stream bit-identity, interleaving, evict/restore)"
cargo test --release -q -p adaedge-core --test fleet_equivalence

echo "==> spool crash-recovery fault suite (520 crash points, release)"
cargo test --release -q -p adaedge-storage --test spool_recovery

echo "==> spool store-and-forward integration (48h-disconnect smoke, release)"
cargo test --release -q -p adaedge-core --test spool_integration

echo "==> uplink chaos suite (lossy-link exactly-once, breaker recovery, release)"
cargo test --release -q -p adaedge-core --test uplink_chaos

echo "==> frame packer NACK-requeue proptests"
cargo test --release -q -p adaedge-core --test frame_packer_props

echo "==> engine throughput smoke (--quick)"
cargo run --release -q -p adaedge-bench --bin engine_throughput -- --quick

echo "==> fleet throughput smoke (1k streams, --quick)"
cargo run --release -q -p adaedge-bench --bin fleet_throughput -- --quick

echo "==> spool throughput smoke (--quick)"
cargo run --release -q -p adaedge-bench --bin spool_throughput -- --quick

echo "==> uplink goodput smoke (--quick)"
cargo run --release -q -p adaedge-bench --bin uplink_goodput -- --quick

echo "verify: OK"
