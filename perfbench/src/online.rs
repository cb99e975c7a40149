//! `online`: one device in lossless online mode, run as a closed loop.
//!
//! `engine::run_pipeline` with one worker (S=1) and K=8 over a
//! pre-generated pool of 1000-point `SineStream` segments; every other
//! field is `EngineConfig::default()`, so the shipped selector runs. The
//! producer refills as fast as the worker recycles.
//!
//! The traced run replays the same decisions through the centralized
//! oracle loop (one `LosslessSelector`, segments in stream order, one
//! sticky arm per K-batch), which the repository's shard-equivalence
//! suite proves bit-identical to the S=1 engine, with spans around
//! `select_arm`, `compress_into` and `report_batch`.

use crate::report::Report;
use crate::trace::{drain_sink, FillSource, Trace};
use crate::{compress_span, derive, probe, stats, Opts};
use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge_core::engine::{run_pipeline, EngineConfig, EngineReport};
use adaedge_core::selector::{ArmOutcome, LosslessSelector};
use adaedge_datasets::{SegmentSource, SharedCycleSource, SineStream};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Points per segment.
pub const SEG_LEN: usize = 1000;
/// Segments per scheduling batch.
pub const K: usize = 8;

struct Size {
    pool: usize,
    episode: usize,
}

fn size(tiny: bool) -> Size {
    if tiny {
        Size {
            pool: 16,
            episode: 240,
        }
    } else {
        Size {
            pool: 256,
            episode: 6000,
        }
    }
}

/// The workload's engine configuration; `fault` makes every gzip
/// compress panic inside the worker.
pub fn engine_config(fault: bool) -> EngineConfig {
    EngineConfig {
        n_compression_threads: 1,
        batch_segments: K,
        fault_injection: fault.then_some(CodecId::Gzip),
        ..EngineConfig::default()
    }
}

/// What a replay of the S=1 worker loop produced.
#[derive(Debug, Default)]
struct Replay {
    bytes_out: u64,
    counts: BTreeMap<CodecId, u64>,
    failures: u64,
    mismatches: u64,
    decisions: u64,
}

/// Replay `n` segments of `pool` through the centralized worker loop with
/// the engine's containment semantics (a failed compress is reported as
/// a failure and the segment stored Raw). With `verify`, every block is
/// decompressed and compared with its input ([`exact`]).
fn replay(
    pool: &Arc<Vec<Vec<f64>>>,
    n: usize,
    cfg: &EngineConfig,
    trace: &mut Trace,
    verify: bool,
) -> Replay {
    let mut reg = CodecRegistry::new(cfg.precision);
    if let Some(id) = cfg.fault_injection {
        reg.inject_compress_panic(id);
    }
    let mut selector = LosslessSelector::new(cfg.lossless_arms.clone(), cfg.selector);
    let mut scratch = CodecScratch::new();
    let mut source = SharedCycleSource::new(pool.clone(), 0);
    let k = cfg.batch_segments.max(1);
    let mut batch: Vec<Vec<f64>> = (0..k).map(|_| Vec::with_capacity(SEG_LEN)).collect();
    let mut outcomes: Vec<ArmOutcome> = Vec::with_capacity(k);
    let mut out = Replay::default();
    let root = trace.enter("online.replay", 0);
    let mut seq = 0u64;
    while (seq as usize) < n {
        let take = k.min(n - seq as usize);
        batch.truncate(take);
        for (i, seg) in batch.iter_mut().enumerate() {
            trace.span("datasets.fill", seq + i as u64, || {
                source.next_segment_into(seg)
            });
        }
        let (arm, codec) = trace.span("selector.select", seq, || selector.select_arm());
        out.decisions += 1;
        outcomes.clear();
        for seg in &batch {
            let id = trace.enter(compress_span(codec), seq);
            let res = catch_unwind(AssertUnwindSafe(|| {
                reg.compress_into(codec, seg, &mut scratch)
                    .map(|b| (b.ratio(), b.to_block()))
            }));
            trace.exit(id);
            let block = match res {
                Ok(Ok((ratio, block))) => {
                    outcomes.push(ArmOutcome::Ratio(ratio));
                    block
                }
                _ => {
                    outcomes.push(ArmOutcome::Failure);
                    out.failures += 1;
                    match reg.compress_into(CodecId::Raw, seg, &mut scratch) {
                        Ok(b) => b.to_block(),
                        Err(_) => {
                            out.mismatches += 1;
                            seq += 1;
                            continue;
                        }
                    }
                }
            };
            out.bytes_out += block.compressed_bytes() as u64;
            *out.counts.entry(block.codec).or_insert(0) += 1;
            if verify && !exact(&reg, &block, seg) {
                out.mismatches += 1;
            }
            seq += 1;
        }
        trace.span("selector.report", seq - take as u64, || {
            selector.report_batch(arm, &outcomes)
        });
        batch.resize_with(k, || Vec::with_capacity(SEG_LEN));
    }
    trace.exit(root);
    out
}

/// Whether `block` decompresses to exactly `original`: every value equal
/// (`==`, so Sprintz's `0.0` for an input `-0.0` counts as exact).
pub fn exact(
    reg: &CodecRegistry,
    block: &adaedge_codecs::CompressedBlock,
    original: &[f64],
) -> bool {
    reg.decompress(block).is_ok_and(|back| {
        back.len() == original.len() && back.iter().zip(original).all(|(a, b)| a == b)
    })
}

fn engine_episode(
    pool: &Arc<Vec<Vec<f64>>>,
    n: usize,
    cfg: &EngineConfig,
    sink: Option<(Instant, Arc<Mutex<Vec<crate::trace::Span>>>)>,
) -> Result<(EngineReport, f64), String> {
    let mut source = FillSource::new(SharedCycleSource::new(pool.clone(), 0), sink);
    let t = Instant::now();
    let report =
        run_pipeline(&mut source, n, cfg).map_err(|e| format!("online: engine failed: {e}"))?;
    Ok((report, t.elapsed().as_secs_f64()))
}

fn counts_by_name(counts: &std::collections::HashMap<CodecId, u64>) -> BTreeMap<CodecId, u64> {
    counts.iter().map(|(&c, &n)| (c, n)).collect()
}

/// Run the `online` workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let sz = size(opts.tiny);
    let cfg = engine_config(opts.fault);
    let n = sz.episode;
    let mut rep = Report::new("online", opts.seed);
    rep.config("segment_points", SEG_LEN);
    rep.config("pool_segments", sz.pool);
    rep.config("episode_segments", n);
    rep.config("k", cfg.batch_segments);
    rep.config("shards", cfg.n_compression_threads);
    rep.config("buffer_segments", cfg.buffer_segments);
    rep.config("sync_interval", cfg.sync_interval);
    rep.config("fault_injection", format!("{:?}", cfg.fault_injection));
    crate::record_selector(&mut rep, "selector", &cfg.selector, &cfg.lossless_arms);

    let repeats = if opts.tiny { 1 } else { crate::SETUP_REPEATS };
    let (pool, setup_s) = crate::timed_setups(repeats, || {
        let mut sine = SineStream::new(SEG_LEN, 0.1, 4, derive(opts.seed, 1));
        let pool = SharedCycleSource::pregenerate_pool(&mut sine, sz.pool);
        engine_episode(&pool, (n / 4).max(K), &cfg, None)?;
        Ok(pool)
    })?;
    rep.set("setup_s", setup_s);

    let mut overheads_us = Vec::new();
    let mut first: Option<EngineReport> = None;
    let mut repeatable = true;
    // Traced-run series (one entry per round).
    let mut traced_engine_waits = Vec::new();
    let mut replay_walls = Vec::new();
    let mut traced_replay_walls = Vec::new();
    let mut compress_shares = Vec::new();
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last_trace = Trace::off();
    let mut trace_errors: Vec<String> = Vec::new();
    let mut traced_matches = true;

    let mut times = crate::Episodes::default();
    let episodes = crate::repeat_for(opts.seconds, 3, |_| {
        let watch = probe::Stopwatch::start();
        let (report, engine_wall) = engine_episode(&pool, n, &cfg, None)?;
        times.add(0, n as u64, watch.stop());
        match &first {
            None => first = Some(report),
            Some(f) => {
                repeatable &= f.bytes_out == report.bytes_out
                    && counts_by_name(&f.codec_counts) == counts_by_name(&report.codec_counts);
            }
        }
        if !opts.trace {
            return Ok(());
        }
        // Fill-traced engine run: producer time inside the source.
        let origin = Instant::now();
        let sink = Arc::new(Mutex::new(Vec::new()));
        let (_, wall) = engine_episode(&pool, n, &cfg, Some((origin, sink.clone())))?;
        let fills = drain_sink(&sink);
        let fill_ns: u64 = fills.iter().map(|s| s.dur_ns()).sum();
        traced_engine_waits.push(1.0 - fill_ns as f64 * 1e-9 / wall);
        durations
            .entry("datasets.fill")
            .or_default()
            .extend(fills.iter().map(|s| s.dur_ns() as f64));
        // Layer replay, untraced then traced.
        let t = Instant::now();
        replay(&pool, n, &cfg, &mut Trace::off(), false);
        let replay_wall = t.elapsed().as_secs_f64();
        replay_walls.push(replay_wall);
        let mut trace = Trace::on();
        let traced = replay(&pool, n, &cfg, &mut trace, false);
        let engine = first.as_ref().expect("set by this episode");
        traced_matches &= traced.bytes_out == engine.bytes_out
            && traced.counts == counts_by_name(&engine.codec_counts);
        let wall = trace.spans()[0].dur_ns() as f64 * 1e-9;
        traced_replay_walls.push(wall);
        let mut compress_ns = 0.0;
        let mut fill_ns = 0.0;
        for (name, ds) in trace.durations_by_name() {
            if name.starts_with("codecs.compress.") {
                compress_ns += ds.iter().sum::<f64>();
            }
            if name == "datasets.fill" {
                fill_ns += ds.iter().sum::<f64>();
            } else {
                durations.entry(name).or_default().extend(ds);
            }
        }
        compress_shares.push(compress_ns * 1e-9 / wall);
        // The engine's producer fills while the worker compresses, so the
        // replay's serial fill time is not part of what the engine adds.
        overheads_us.push((engine_wall - (replay_wall - fill_ns * 1e-9)) * 1e6 / n as f64);
        if let Err(e) = trace.check_self_times() {
            trace_errors.push(e);
        }
        last_trace = trace;
        Ok(())
    })?;
    let first = first.expect("at least one episode");
    let total_segments = (episodes * n) as u64;

    rep.attempted = total_segments;
    rep.failed = first.codec_failures * episodes as u64;
    rep.set("seg_per_s", times.seg_per_s());
    rep.set("cpu_us_per_seg", times.cpu_us_per_seg());
    rep.set(
        "egress_ratio",
        first.bytes_out as f64 / first.bytes_in as f64,
    );
    rep.set("failed_share", rep.failed as f64 / rep.attempted as f64);
    rep.config("episodes", episodes);

    // Correctness: the replay reproduces the run exactly, and every
    // replayed block decompresses back to its input.
    let check = replay(&pool, n, &cfg, &mut Trace::off(), true);
    let engine_counts = counts_by_name(&first.codec_counts);
    rep.check(
        "online.replay_bytes_out",
        check.bytes_out == first.bytes_out,
        format!("replay {} engine {}", check.bytes_out, first.bytes_out),
    );
    rep.check(
        "online.replay_pulls",
        check.counts == engine_counts,
        format!("replay {:?} engine {:?}", check.counts, engine_counts),
    );
    rep.check(
        "online.roundtrip_exact",
        check.mismatches == 0,
        format!("{} of {} segments mismatched", check.mismatches, n),
    );
    rep.check(
        "online.episodes_repeat",
        repeatable,
        format!("{episodes} episodes"),
    );
    rep.check(
        "online.failures_match_replay",
        check.failures == first.codec_failures,
        format!("replay {} engine {}", check.failures, first.codec_failures),
    );

    let counts: BTreeMap<&'static str, u64> =
        engine_counts.iter().map(|(c, &n)| (c.name(), n)).collect();
    let mut cost_us = BTreeMap::new();
    if opts.trace {
        crate::check_trace(&mut rep, &trace_errors);
        rep.check(
            "online.traced_replay_matches",
            traced_matches,
            "traced replay bytes_out and pulls against the engine",
        );
        for (name, ds) in &durations {
            if let Some(arm) = name.strip_prefix("codecs.compress.") {
                cost_us.insert(arm_static(arm), stats::median(ds) * 1e-3);
            }
        }
        if let Some(fills) = durations.get("datasets.fill") {
            rep.set_timing("datasets.fill_us", fills, 1e-3);
        }
        for (span, metric) in [
            ("selector.select", "selector.select_ns"),
            ("selector.report", "selector.report_ns"),
        ] {
            if let Some(ds) = durations.get(span) {
                rep.set_timing(metric, ds, 1.0);
            }
        }
        let replay_wall = stats::median(&replay_walls);
        let traced_wall = stats::median(&traced_replay_walls);
        rep.set(
            "engine.producer_wait_share",
            stats::median(&traced_engine_waits),
        );
        rep.set("engine.overhead_us", stats::median(&overheads_us));
        rep.set("codecs.compress_share", stats::median(&compress_shares));
        rep.set(
            "trace.overhead_share",
            (traced_wall - replay_wall) / replay_wall,
        );
        let path = opts
            .work_dir
            .join(format!("spans-online-seed{}.json", opts.seed));
        rep.self_ns = last_trace.self_ns_by_name().into_iter().collect();
        last_trace
            .write_json(
                &path,
                &format!("\"workload\": \"online\", \"seed\": {}", opts.seed),
            )
            .map_err(|e| format!("online: writing spans: {e}"))?;
        rep.config("spans_file", path.display());
    }
    rep.set("engine.spills", first.spills as f64);
    rep.set("engine.selector_syncs", first.selector_syncs as f64);
    rep.set("selector.decisions", check.decisions as f64);
    crate::selector_metrics(&mut rep, &counts, &cost_us);
    rep.set("peak_rss_mib", probe::peak_rss_mib());
    Ok(rep)
}

/// The `'static` arm name for a span-name suffix.
pub fn arm_static(name: &str) -> &'static str {
    CodecId::from_name(name).map_or("raw", CodecId::name)
}
