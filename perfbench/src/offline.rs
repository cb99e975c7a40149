//! `offline`: one device in offline mode under a storage budget.
//!
//! `OfflineAdaEdge` built with `OfflineConfig::new(budget,
//! OptimizationTarget::agg(AggKind::Sum))` and its defaults (ε=0.1,
//! θ=0.8, LRU), fed 1000-point `CbfStream` segments one `ingest` call
//! each and finished with `reconstruct_all`. The budget makes most
//! ingests recode while none exceeds it. This is the only workload that
//! runs the banded lossy selector, lossy recoding and the budgeted
//! `SegmentStore`.
//!
//! `engine::run_offline_pipeline` is not driven: it returns no stored
//! data, so its output cannot be checked.

use crate::report::Report;
use crate::trace::Trace;
use crate::{derive, probe, stats, Opts};
use adaedge_codecs::CodecRegistry;
use adaedge_core::offline::{OfflineAdaEdge, OfflineConfig};
use adaedge_core::query::AggKind;
use adaedge_core::targets::OptimizationTarget;
use adaedge_datasets::{CbfConfig, CbfStream, SegmentSource, SharedCycleSource};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Points per segment.
pub const SEG_LEN: usize = 1000;

#[derive(Clone, Copy)]
struct Size {
    /// Segments ingested per episode (one device from empty to full).
    segments: usize,
    budget: usize,
    /// Pre-generated input segments.
    pool: usize,
    /// Distinct episode inputs: rotations of the pool.
    offsets: usize,
}

fn size(tiny: bool) -> Size {
    if tiny {
        Size {
            segments: 40,
            budget: 20_000,
            pool: 80,
            offsets: 2,
        }
    } else {
        // 40 segments hold 320 kB raw; at 20 kB the store crosses θ·budget
        // after about 8 ingests, so most ingests recode while none is
        // refused. Under the SUM target the PAA and FFT recoders tie on
        // accuracy, so which one a device settles on (and with it the
        // episode's cost, FFT decoding being ~400x dearer) turns on small
        // differences in its input. A run therefore cycles through 64
        // rotations of a 1024-segment pool and reports the aggregate.
        Size {
            segments: 40,
            budget: 20_000,
            pool: 1024,
            offsets: 64,
        }
    }
}

impl Size {
    /// Pool offset where episode `i` starts reading.
    fn offset(&self, i: usize) -> usize {
        (i % self.offsets) * (self.pool / self.offsets)
    }
}

/// The workload's offline configuration.
pub fn offline_config(budget: usize) -> OfflineConfig {
    OfflineConfig::new(budget, OptimizationTarget::agg(AggKind::Sum))
}

/// Everything one episode observed.
#[derive(Debug, Clone, Default, PartialEq)]
struct Episode {
    wall_s: f64,
    ingested: u64,
    ingest_errors: u64,
    over_budget: u64,
    bad_length: u64,
    lossless_mismatches: u64,
    recodes: u64,
    recoding_ingests: u64,
    stored_bytes: u64,
    err_sum: f64,
    ref_sum: f64,
    counts: BTreeMap<&'static str, u64>,
    stored_codecs: BTreeMap<&'static str, u64>,
    lossless_us: BTreeMap<&'static str, Vec<f64>>,
    recode_us: Vec<f64>,
    codec_s: f64,
    reconstruct_s: f64,
}

impl Episode {
    /// The results that must repeat exactly (timings dropped).
    fn deterministic(&self) -> Self {
        Self {
            wall_s: 0.0,
            lossless_us: BTreeMap::new(),
            recode_us: Vec::new(),
            codec_s: 0.0,
            reconstruct_s: 0.0,
            ..self.clone()
        }
    }

    fn failed(&self) -> u64 {
        self.ingest_errors + self.lossless_mismatches + self.bad_length
    }
}

fn episode(
    inputs: &Arc<Vec<Vec<f64>>>,
    offset: usize,
    sz: &Size,
    trace: &mut Trace,
) -> Result<Episode, String> {
    let mut edge = OfflineAdaEdge::new(offline_config(sz.budget))
        .map_err(|e| format!("offline: config rejected: {e}"))?;
    let mut source = SharedCycleSource::new(inputs.clone(), offset);
    let mut seg: Vec<f64> = Vec::with_capacity(SEG_LEN);
    let mut ep = Episode::default();
    let t0 = Instant::now();
    let root = trace.enter("offline.episode", 0);
    for seq in 1..=sz.segments as u64 {
        trace.span("datasets.fill", seq, || source.next_segment_into(&mut seg));
        match trace.span("offline.ingest", seq, || edge.ingest(&seg)) {
            Ok(r) => {
                ep.ingested += 1;
                let arm = r.selection.codec.name();
                *ep.counts.entry(arm).or_insert(0) += 1;
                ep.lossless_us
                    .entry(arm)
                    .or_default()
                    .push(r.selection.seconds * 1e6);
                ep.codec_s += r.selection.seconds + r.recode_seconds;
                if r.recodes > 0 {
                    ep.recodes += r.recodes as u64;
                    ep.recoding_ingests += 1;
                    ep.recode_us.push(r.recode_seconds * 1e6 / r.recodes as f64);
                }
                if edge.store().used_bytes() > sz.budget {
                    ep.over_budget += 1;
                }
            }
            Err(_) => ep.ingest_errors += 1,
        }
    }
    let t_rec = Instant::now();
    let recon = trace
        .span("offline.reconstruct_all", 0, || edge.reconstruct_all())
        .map_err(|e| format!("offline: reconstruct_all failed: {e}"))?;
    ep.reconstruct_s = t_rec.elapsed().as_secs_f64();
    trace.exit(root);
    ep.wall_s = t0.elapsed().as_secs_f64();

    for (id, rec, orig) in &recon {
        let orig = orig.as_deref().unwrap_or(&[]);
        if rec.len() != SEG_LEN || orig.len() != SEG_LEN {
            ep.bad_length += 1;
            continue;
        }
        let block = edge.store().peek(*id).and_then(|s| s.block());
        *ep.stored_codecs
            .entry(block.map_or("none", |b| b.codec.name()))
            .or_insert(0) += 1;
        let lossless = block.is_none_or(|b| b.codec.is_lossless());
        if lossless && !rec.iter().zip(orig).all(|(a, b)| a == b) {
            ep.lossless_mismatches += 1;
        }
        let (s_rec, s_orig): (f64, f64) = (rec.iter().sum(), orig.iter().sum());
        ep.err_sum += (s_rec - s_orig).abs();
        ep.ref_sum += s_orig.abs();
    }
    ep.stored_bytes = edge.store().used_bytes() as u64;

    if trace.is_on() {
        // Per-segment decompress cost of the final store contents.
        let reg = CodecRegistry::new(4);
        for (seq, id) in edge.store().ids().into_iter().enumerate() {
            if let Some(block) = edge.store().peek(id).and_then(|s| s.block()) {
                let back = trace.span("codecs.decompress", seq as u64 + 1, || {
                    reg.decompress(block)
                });
                std::hint::black_box(back.ok());
            }
        }
    }
    Ok(ep)
}

/// Median per-call recode time (µs) of each lossy arm on the workload's
/// own inputs: compress to a 0.3 ratio, then recode to 0.15 (above every
/// arm's floor). Failed recodes are not timed.
fn lossy_recode_costs_us(inputs: &[Vec<f64>], reps: usize) -> BTreeMap<&'static str, f64> {
    let reg = CodecRegistry::new(4);
    CodecRegistry::lossy_candidates()
        .into_iter()
        .filter_map(|arm| {
            let lossy = reg.get_lossy(arm)?;
            let mut us = Vec::new();
            for _ in 0..reps {
                for seg in inputs.iter().take(32) {
                    let Ok(block) = lossy.compress_to_ratio(seg, 0.3) else {
                        continue;
                    };
                    let t = Instant::now();
                    let out = reg.recode(&block, 0.15);
                    let ns = t.elapsed().as_nanos() as f64;
                    if std::hint::black_box(out).is_ok() {
                        us.push(ns * 1e-3);
                    }
                }
            }
            (!us.is_empty()).then(|| (arm.name(), stats::median(&us)))
        })
        .collect()
}

/// Run the `offline` workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let sz = size(opts.tiny);
    let cfg = offline_config(sz.budget);
    let mut rep = Report::new("offline", opts.seed);
    rep.config("segment_points", SEG_LEN);
    rep.config("episode_segments", sz.segments);
    rep.config("pool_segments", sz.pool);
    rep.config("episode_offsets", sz.offsets);
    rep.config("budget_bytes", sz.budget);
    rep.config("recode_threshold", cfg.recode_threshold);
    rep.config("recode_factor", cfg.recode_factor);
    rep.config("policy", format!("{:?}", cfg.policy));
    rep.config("target", "agg(sum)");
    rep.config("k", 1);
    rep.config("shards", 1);
    crate::record_selector(&mut rep, "selector", &cfg.selector, &cfg.lossless_arms);
    let names: Vec<&str> = cfg.lossy_arms.iter().map(|a| a.name()).collect();
    rep.config("lossy_arms", names.join(","));

    let repeats = if opts.tiny { 1 } else { crate::SETUP_REPEATS };
    let (inputs, setup_s) = crate::timed_setups(repeats, || {
        let config = CbfConfig {
            seed: derive(opts.seed, 5),
            ..CbfConfig::default()
        };
        let inputs =
            SharedCycleSource::pregenerate_pool(&mut CbfStream::new(config, SEG_LEN), sz.pool);
        // Warm up on short episodes (just past the first recodes) at
        // several offsets, so set-up time does not hang on which recoder
        // one input happens to favour.
        let warm = Size {
            segments: sz.segments.min(12),
            ..sz
        };
        for i in 0..sz.offsets.min(16) {
            episode(&inputs, sz.offset(i), &warm, &mut Trace::off())?;
        }
        Ok(inputs)
    })?;
    rep.set("setup_s", setup_s);

    let mut times = crate::Episodes::default();
    let mut wall_s = 0.0;
    let mut failed = 0u64;
    let mut traced_wall_s = 0.0;
    let mut firsts: Vec<Episode> = Vec::new();
    let mut repeatable = true;
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut lossless_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut recode_us = Vec::new();
    let mut reconstruct_us = Vec::new();
    let mut codec_s = 0.0;
    let mut last_trace = Trace::off();
    let mut trace_errors: Vec<String> = Vec::new();
    let episodes = crate::repeat_for(opts.seconds, sz.offsets, |i| {
        let watch = probe::Stopwatch::start();
        let ep = episode(&inputs, sz.offset(i), &sz, &mut Trace::off())?;
        times.add(i % sz.offsets, ep.ingested, watch.stop());
        wall_s += ep.wall_s;
        failed += ep.failed();
        if i < sz.offsets {
            firsts.push(ep);
        } else {
            repeatable &= firsts[i % sz.offsets].deterministic() == ep.deterministic();
        }
        if opts.trace {
            let mut trace = Trace::on();
            let ep = episode(&inputs, sz.offset(i), &sz, &mut trace)?;
            traced_wall_s += ep.wall_s;
            for (name, ds) in trace.durations_by_name() {
                durations.entry(name).or_default().extend(ds);
            }
            for (arm, us) in ep.lossless_us {
                lossless_us.entry(arm).or_default().extend(us);
            }
            recode_us.extend(ep.recode_us);
            codec_s += ep.codec_s;
            reconstruct_us.push(ep.reconstruct_s * 1e6 / sz.segments as f64);
            if let Err(e) = trace.check_self_times() {
                trace_errors.push(e);
            }
            last_trace = trace;
        }
        Ok(())
    })?;

    // Quality and counts: one cycle over every offset, so they repeat
    // exactly for a seed whatever the run length.
    let total = |f: &dyn Fn(&Episode) -> u64| -> u64 { firsts.iter().map(f).sum() };
    let cycle_ingested = total(&|e| e.ingested);
    let cycle_stored = total(&|e| e.stored_bytes);
    let cycle_failed = total(&|e| e.failed());
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut stored_codecs: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in &firsts {
        for (arm, n) in &e.counts {
            *counts.entry(arm).or_insert(0) += n;
        }
        for (arm, n) in &e.stored_codecs {
            *stored_codecs.entry(arm).or_insert(0) += n;
        }
    }
    let err_sum: f64 = firsts.iter().map(|e| e.err_sum).sum();
    let ref_sum: f64 = firsts.iter().map(|e| e.ref_sum).sum();

    rep.config("episodes", episodes);
    rep.attempted = sz.segments as u64 * episodes as u64;
    rep.failed = failed;
    rep.set("seg_per_s", times.seg_per_s());
    rep.set("cpu_us_per_seg", times.cpu_us_per_seg());
    rep.config("fewest_episodes_per_offset", times.min_visits());
    rep.set(
        "egress_ratio",
        cycle_stored as f64 / (cycle_ingested.max(1) as f64 * SEG_LEN as f64 * 8.0),
    );
    rep.set(
        "failed_share",
        cycle_failed as f64 / (sz.segments * sz.offsets) as f64,
    );
    rep.set("agg_rel_error", err_sum / ref_sum.max(f64::MIN_POSITIVE));

    let worst = firsts.iter().map(|e| e.stored_bytes).max().unwrap_or(0);
    rep.check(
        "offline.no_ingest_errors",
        total(&|e| e.ingest_errors) == 0,
        format!("{} ingest errors", total(&|e| e.ingest_errors)),
    );
    rep.check(
        "offline.within_budget",
        total(&|e| e.over_budget) == 0 && worst <= sz.budget as u64,
        format!("largest store {worst} budget {}", sz.budget),
    );
    rep.check(
        "offline.lossless_exact",
        total(&|e| e.lossless_mismatches) == 0,
        format!(
            "{} lossless segments mismatched",
            total(&|e| e.lossless_mismatches)
        ),
    );
    rep.check(
        "offline.reconstruction_lengths",
        total(&|e| e.bad_length) == 0,
        format!("{} wrong lengths", total(&|e| e.bad_length)),
    );
    rep.check(
        "offline.episodes_repeat",
        repeatable,
        format!("{episodes} episodes over {} offsets", sz.offsets),
    );

    let mut cost_us: BTreeMap<&'static str, f64> = BTreeMap::new();
    if opts.trace {
        crate::check_trace(&mut rep, &trace_errors);
        for (arm, us) in &lossless_us {
            cost_us.insert(arm, stats::median(us));
        }
        cost_us.extend(lossy_recode_costs_us(
            &inputs,
            if opts.tiny { 1 } else { 3 },
        ));
        for (span, metric) in [
            ("datasets.fill", "datasets.fill_us"),
            ("offline.ingest", "offline.ingest_us"),
            ("codecs.decompress", "codecs.decompress_us"),
        ] {
            if let Some(ds) = durations.get(span) {
                rep.set_timing(metric, ds, 1e-3);
            }
        }
        let all_lossless: Vec<f64> = lossless_us.values().flatten().copied().collect();
        rep.set("offline.lossless_us", stats::median(&all_lossless));
        rep.set("offline.recode_us", stats::median(&recode_us));
        rep.set("offline.reconstruct_us", stats::median(&reconstruct_us));
        rep.set("codecs.compress_share", codec_s / traced_wall_s);
        rep.set("trace.overhead_share", (traced_wall_s - wall_s) / wall_s);
        let path = opts
            .work_dir
            .join(format!("spans-offline-seed{}.json", opts.seed));
        rep.self_ns = last_trace.self_ns_by_name().into_iter().collect();
        last_trace
            .write_json(
                &path,
                &format!("\"workload\": \"offline\", \"seed\": {}", opts.seed),
            )
            .map_err(|e| format!("offline: writing spans: {e}"))?;
        rep.config("spans_file", path.display());
    }
    crate::selector_metrics(&mut rep, &counts, &cost_us);
    rep.set("selector.decisions", cycle_ingested as f64);
    rep.set(
        "offline.recodes_per_seg",
        total(&|e| e.recodes) as f64 / cycle_ingested.max(1) as f64,
    );
    rep.set(
        "store.utilization",
        cycle_stored as f64 / (sz.budget * sz.offsets) as f64,
    );
    rep.config("recoding_ingests", total(&|e| e.recoding_ingests));
    rep.config("stored_codecs", format!("{stored_codecs:?}"));
    rep.set("peak_rss_mib", probe::peak_rss_mib());
    Ok(rep)
}
