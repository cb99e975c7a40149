//! Durable-spool sustained-write, recovery-scan and replay throughput.
//!
//! Three phases per configuration, all on a private temp directory:
//!
//! 1. **Append**: sequential spool writes at a fixed payload size, with
//!    batched `fdatasync` (one sync per `sync_every` records — the
//!    ADR's ~1s batching at a deterministic record granularity) or a
//!    paranoid per-append sync as the contrast row.
//! 2. **Recovery**: drop the handle and time a cold `Spool::open`, i.e.
//!    the full tail-scan CRC validation over every segment on disk —
//!    the crash-restart cost a 48h backlog pays once at boot.
//! 3. **Replay**: time a full capture-order drain through the
//!    `Replayer` (read + CRC + frame decode, no packing).
//!
//! Each configuration reports the **median of N timed runs** with the
//! sample standard deviation alongside (matching the engine bench's
//! discipline — not best-of-N).
//!
//! Run: `cargo run --release -p adaedge-bench --bin spool_throughput`
//! (`-- --quick` for the CI smoke configuration). Prints a table and a
//! JSON object suitable for `BENCH_spool.json`.

use adaedge_bench::harness::{median, stddev};
use adaedge_storage::spool::{ReplayItem, Spool, SpoolConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One benchmark configuration.
struct Cfg {
    payload: usize,
    records: usize,
    /// Records per explicit `fdatasync` (1 = sync every append).
    sync_every: usize,
}

struct Sample {
    append_recs_per_sec: f64,
    append_mb_per_sec: f64,
    recover_secs: f64,
    recover_mb_per_sec: f64,
    replay_recs_per_sec: f64,
}

fn bench_dir() -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("adaedge-spool-bench-{}", std::process::id()));
    p
}

fn run_once(cfg: &Cfg) -> Sample {
    let dir = bench_dir();
    std::fs::remove_dir_all(&dir).ok();
    let mut scfg = SpoolConfig::new(&dir);
    scfg.segment_max_bytes = 1 << 20;
    // Sync cadence is driven explicitly below so runs are deterministic.
    scfg.sync_interval = Duration::from_secs(3600);
    let mut spool = Spool::open(scfg.clone()).expect("open");

    let payload = vec![0xA5u8; cfg.payload];
    let t0 = Instant::now();
    for i in 0..cfg.records {
        spool.append(i as u64, &payload).expect("append");
        if (i + 1) % cfg.sync_every == 0 {
            spool.sync().expect("sync");
        }
    }
    spool.sync().expect("final sync");
    let append_secs = t0.elapsed().as_secs_f64();
    let bytes = spool.stats().appended_bytes as f64;
    drop(spool);

    let t1 = Instant::now();
    let mut spool = Spool::open(scfg).expect("recover");
    let recover_secs = t1.elapsed().as_secs_f64();
    assert_eq!(
        spool.stats().records as usize,
        cfg.records,
        "lossless recovery"
    );

    let t2 = Instant::now();
    let mut replayed = 0usize;
    for item in spool.replayer(0).expect("replayer") {
        match item {
            ReplayItem::Record(r) => {
                assert_eq!(r.payload.len(), cfg.payload);
                replayed += 1;
            }
            ReplayItem::Gap { .. } => panic!("healthy spool has no gaps"),
        }
    }
    let replay_secs = t2.elapsed().as_secs_f64();
    assert_eq!(replayed, cfg.records, "replay is complete");

    drop(spool);
    std::fs::remove_dir_all(&dir).ok();

    Sample {
        append_recs_per_sec: cfg.records as f64 / append_secs,
        append_mb_per_sec: bytes / append_secs / 1e6,
        recover_secs,
        recover_mb_per_sec: bytes / recover_secs / 1e6,
        replay_recs_per_sec: cfg.records as f64 / replay_secs,
    }
}

struct Row {
    payload: usize,
    records: usize,
    sync_every: usize,
    append_recs: f64,
    append_recs_sd: f64,
    append_mb: f64,
    recover_ms: f64,
    recover_mb: f64,
    replay_recs: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let repeats = if quick { 1 } else { 5 };
    let scale = if quick { 8 } else { 1 };

    // Batched-sync rows across payload sizes, plus one per-append-sync
    // contrast row: the cost the ~1s fdatasync batching buys back.
    let cfgs = [
        Cfg {
            payload: 64,
            records: 40_000 / scale,
            sync_every: 1024,
        },
        Cfg {
            payload: 512,
            records: 40_000 / scale,
            sync_every: 1024,
        },
        Cfg {
            payload: 4096,
            records: 10_000 / scale,
            sync_every: 1024,
        },
        Cfg {
            payload: 512,
            records: 4_000 / scale,
            sync_every: 1,
        },
    ];

    println!(
        "Spool throughput: append / cold-recovery scan / replay, median of {repeats} (+/- sample stddev)"
    );
    println!(
        "{:>8} {:>8} {:>10} {:>14} {:>10} {:>10} {:>12} {:>10} {:>12}",
        "payload",
        "records",
        "sync/N",
        "append rec/s",
        "stddev",
        "MB/s",
        "recover ms",
        "scan MB/s",
        "replay rec/s"
    );

    let mut rows: Vec<Row> = Vec::new();
    for cfg in &cfgs {
        // One untimed warm-up run per configuration.
        run_once(&Cfg {
            payload: cfg.payload,
            records: cfg.records / 4,
            sync_every: cfg.sync_every,
        });
        let mut append = Vec::with_capacity(repeats);
        let mut append_mb = Vec::with_capacity(repeats);
        let mut recover = Vec::with_capacity(repeats);
        let mut recover_mb = Vec::with_capacity(repeats);
        let mut replay = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let s = run_once(cfg);
            append.push(s.append_recs_per_sec);
            append_mb.push(s.append_mb_per_sec);
            recover.push(s.recover_secs);
            recover_mb.push(s.recover_mb_per_sec);
            replay.push(s.replay_recs_per_sec);
        }
        let row = Row {
            payload: cfg.payload,
            records: cfg.records,
            sync_every: cfg.sync_every,
            append_recs_sd: stddev(&append),
            append_recs: median(&mut append),
            append_mb: median(&mut append_mb),
            recover_ms: median(&mut recover) * 1e3,
            recover_mb: median(&mut recover_mb),
            replay_recs: median(&mut replay),
        };
        println!(
            "{:>8} {:>8} {:>10} {:>14.0} {:>10.0} {:>10.1} {:>12.2} {:>10.1} {:>12.0}",
            row.payload,
            row.records,
            row.sync_every,
            row.append_recs,
            row.append_recs_sd,
            row.append_mb,
            row.recover_ms,
            row.recover_mb,
            row.replay_recs
        );
        rows.push(row);
    }

    println!("\nJSON:");
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"repeats\": {repeats},\n  \"statistic\": \"median\",\n  \"segment_max_bytes\": {},\n",
        1u64 << 20
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"payload_bytes\": {}, \"records\": {}, \"sync_every\": {}, \"append_recs_per_sec\": {:.0}, \"stddev\": {:.0}, \"append_mb_per_sec\": {:.1}, \"recover_ms\": {:.2}, \"recover_scan_mb_per_sec\": {:.1}, \"replay_recs_per_sec\": {:.0} }}{}\n",
            r.payload,
            r.records,
            r.sync_every,
            r.append_recs,
            r.append_recs_sd,
            r.append_mb,
            r.recover_ms,
            r.recover_mb,
            r.replay_recs,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"notes\": [\n    \
         \"Append is sequential single-write(2) frames with one fdatasync per sync_every records; sync_every=1 is the per-append-sync contrast row showing what the batched policy buys back.\",\n    \
         \"Recovery is a cold Spool::open: full tail-scan CRC-32C validation of every segment on disk (the crash-restart cost of the backlog). Replay is a full capture-order Replayer drain (read + CRC + frame decode, no packing).\",\n    \
         \"Each figure is the median of N timed runs after one untimed warm-up at quarter scale; sample stddev (n-1) alongside.\"\n  ]\n",
    );
    json.push('}');
    println!("{json}");
}
