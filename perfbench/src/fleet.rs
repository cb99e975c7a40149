//! `fleet`: a gateway multiplexing 10 000 warm-started streams.
//!
//! `fleet::run_fleet` with one worker, K=8, `buffer_segments: 1024` and
//! round-robin priorities. Every stream reads one shared
//! `SharedCycleSource` pool of 1000-point `SineStream` segments at its own
//! phase, and warm-starts from a converged posterior archive through the
//! fleet's own evict/restore path, so a run measures multiplexing (stream
//! table traffic, one-batch-in-flight scheduling, short effective batches,
//! frame packing) rather than bandit cold-start.
//!
//! The traced run records spans from the source wrapper and around
//! `load_posteriors`, and estimates codec time from per-arm compress
//! costs measured on the same pool.

use crate::report::Report;
use crate::trace::{drain_sink, FillSource, Trace};
use crate::{derive, probe, stats, DirGuard, Opts};
use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge_core::fleet::{run_fleet, FleetConfig, FleetReport, StreamSpec};
use adaedge_core::frame::Priority;
use adaedge_datasets::{SharedCycleSource, SineStream};
use adaedge_storage::{load_posteriors, save_posteriors, StreamPosterior};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Points per segment.
pub const SEG_LEN: usize = 1000;

struct Size {
    streams: usize,
    segs_per_stream: usize,
    pool: usize,
    train_segments: usize,
}

fn size(tiny: bool) -> Size {
    if tiny {
        Size {
            streams: 200,
            segs_per_stream: 2,
            pool: 8,
            train_segments: 128,
        }
    } else {
        Size {
            streams: 10_000,
            segs_per_stream: 2,
            pool: 64,
            train_segments: 512,
        }
    }
}

/// The workload's fleet configuration.
pub fn fleet_config(archive: Option<&Path>) -> FleetConfig {
    FleetConfig {
        n_compression_threads: 1,
        batch_segments: 8,
        buffer_segments: 1024,
        posterior_path: archive.map(Path::to_path_buf),
        ..FleetConfig::default()
    }
}

type Sink = Option<(Instant, Arc<Mutex<Vec<crate::trace::Span>>>)>;

fn specs(pool: &Arc<Vec<Vec<f64>>>, streams: usize, segs: usize, sink: &Sink) -> Vec<StreamSpec> {
    (0..streams as u64)
        .map(|id| {
            let source = FillSource::new(
                SharedCycleSource::new(pool.clone(), id as usize),
                sink.clone(),
            );
            StreamSpec::new(id, Priority::ALL[id as usize % 4], segs, Box::new(source))
        })
        .collect()
}

/// Train one stream to steady state and stamp its posterior onto every
/// stream id: the warm archive.
fn build_archive(pool: &Arc<Vec<Vec<f64>>>, sz: &Size, path: &Path) -> Result<Vec<u8>, String> {
    let train = run_fleet(
        specs(pool, 1, sz.train_segments, &None),
        &fleet_config(None),
    )
    .map_err(|e| format!("fleet: training run failed: {e}"))?;
    let proto = &train.stream_reports[0];
    let posteriors: Vec<StreamPosterior> = (0..sz.streams as u64)
        .map(|id| StreamPosterior {
            stream_id: id,
            arms: train.arms.clone(),
            pulls: proto.pulls.clone(),
            estimates: proto.estimates.clone(),
            failure_totals: proto.failure_totals.clone(),
            quarantine_bits: proto.quarantine_bits,
        })
        .collect();
    save_posteriors(path, posteriors.iter()).map_err(|e| format!("fleet: saving archive: {e}"))?;
    std::fs::read(path).map_err(|e| format!("fleet: reading archive: {e}"))
}

/// One fleet run from the pristine archive, with the (wall, CPU) seconds
/// of `run_fleet`.
fn episode(
    pool: &Arc<Vec<Vec<f64>>>,
    sz: &Size,
    archive: &Path,
    pristine: &[u8],
    sink: &Sink,
) -> Result<(FleetReport, (f64, f64)), String> {
    std::fs::write(archive, pristine).map_err(|e| format!("fleet: resetting archive: {e}"))?;
    let specs = specs(pool, sz.streams, sz.segs_per_stream, sink);
    let watch = probe::Stopwatch::start();
    let r = run_fleet(specs, &fleet_config(Some(archive)))
        .map_err(|e| format!("fleet: run failed: {e}"))?;
    Ok((r, watch.stop()))
}

/// Median per-call compress time (µs) of each arm on the pool.
fn arm_costs_us(pool: &[Vec<f64>], arms: &[CodecId], reps: usize) -> BTreeMap<&'static str, f64> {
    let reg = CodecRegistry::new(4);
    let mut scratch = CodecScratch::new();
    arms.iter()
        .map(|&arm| {
            let mut us = Vec::with_capacity(pool.len() * reps);
            for _ in 0..reps {
                for seg in pool {
                    let t = Instant::now();
                    let b = reg.compress_into(arm, seg, &mut scratch);
                    std::hint::black_box(b.map(|b| b.compressed_bytes()).ok());
                    us.push(t.elapsed().as_nanos() as f64 * 1e-3);
                }
            }
            (arm.name(), stats::median(&us))
        })
        .collect()
}

/// Run the `fleet` workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let sz = size(opts.tiny);
    let mut rep = Report::new("fleet", opts.seed);
    let cfg = fleet_config(None);
    rep.config("segment_points", SEG_LEN);
    rep.config("pool_segments", sz.pool);
    rep.config("streams", sz.streams);
    rep.config("segments_per_stream", sz.segs_per_stream);
    rep.config("train_segments", sz.train_segments);
    rep.config("k", cfg.batch_segments);
    rep.config("shards", cfg.n_compression_threads);
    rep.config("buffer_segments", cfg.buffer_segments);
    rep.config("payload_cap", cfg.frame.payload_cap);
    crate::record_selector(&mut rep, "selector", &cfg.selector, &cfg.lossless_arms);

    let dir = opts.work_dir.join(format!("fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("fleet: work dir: {e}"))?;
    let _cleanup = DirGuard(dir.clone());
    let archive = dir.join("warm.posteriors");

    let repeats = if opts.tiny { 1 } else { crate::SETUP_REPEATS };
    let ((pool, pristine), setup_s) = crate::timed_setups(repeats, || {
        let mut sine = SineStream::new(SEG_LEN, 0.1, 4, derive(opts.seed, 2));
        let pool = SharedCycleSource::pregenerate_pool(&mut sine, sz.pool);
        let pristine = build_archive(&pool, &sz, &archive)?;
        // Warm-up: a tenth of the streams through the restore path.
        let warm = Size {
            streams: (sz.streams / 10).max(1),
            ..sz
        };
        episode(&pool, &warm, &archive, &pristine, &None)?;
        Ok((pool, pristine))
    })?;
    rep.set("setup_s", setup_s);

    let mut walls = Vec::new();
    let mut first: Option<FleetReport> = None;
    let mut repeatable = true;
    let mut traced_walls = Vec::new();
    let mut fills = Vec::new();
    let mut load_ms = Vec::new();
    let mut last_fill_spans = Vec::new();
    let mut times = crate::Episodes::default();
    let episodes = crate::repeat_for(opts.seconds, 3, |_| {
        let (r, watch) = episode(&pool, &sz, &archive, &pristine, &None)?;
        times.add(0, r.segments, watch);
        walls.push(r.elapsed_seconds);
        match &first {
            None => first = Some(r),
            Some(f) => {
                repeatable &= f.bytes_out == r.bytes_out
                    && sorted_counts(f) == sorted_counts(&r)
                    && f.frames.frames == r.frames.frames;
            }
        }
        if opts.trace {
            let origin = Instant::now();
            let sink = Arc::new(Mutex::new(Vec::new()));
            let (r, _) = episode(
                &pool,
                &sz,
                &archive,
                &pristine,
                &Some((origin, sink.clone())),
            )?;
            traced_walls.push(r.elapsed_seconds);
            last_fill_spans = drain_sink(&sink);
            fills.extend(last_fill_spans.iter().map(|s| s.dur_ns() as f64));
            std::fs::write(&archive, &pristine).map_err(|e| format!("fleet: archive: {e}"))?;
            let t = Instant::now();
            let loaded = load_posteriors(&archive).map_err(|e| format!("fleet: load: {e}"))?;
            load_ms.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(loaded.len());
        }
        Ok(())
    })?;
    let first = first.expect("at least one episode");
    let per_episode = first.segments;
    let total = per_episode * episodes as u64;

    rep.config("episodes", episodes);
    rep.attempted = total;
    rep.failed = first.codec_failures * episodes as u64;
    rep.set("seg_per_s", times.seg_per_s());
    rep.set("cpu_us_per_seg", times.cpu_us_per_seg());
    rep.set(
        "egress_ratio",
        first.bytes_out as f64 / first.bytes_in as f64,
    );
    rep.set("failed_share", rep.failed as f64 / rep.attempted as f64);

    let expected = (sz.streams * sz.segs_per_stream) as u64;
    let egress_payload: u64 = first
        .stream_reports
        .iter()
        .map(|s| s.egress.payload_bytes)
        .sum();
    let counted: u64 = first.codec_counts.values().sum();
    rep.check(
        "fleet.restores_every_stream",
        first.restores == sz.streams as u64,
        format!("restores {} streams {}", first.restores, sz.streams),
    );
    rep.check(
        "fleet.frames_within_cap",
        first.frames.max_frame_used <= first.frames.payload_cap,
        format!(
            "max frame {} cap {}",
            first.frames.max_frame_used, first.frames.payload_cap
        ),
    );
    rep.check(
        "fleet.egress_adds_up",
        egress_payload == first.bytes_out,
        format!(
            "egress payload {egress_payload} bytes_out {}",
            first.bytes_out
        ),
    );
    rep.check(
        "fleet.every_segment_compressed",
        first.segments == expected && counted == expected,
        format!(
            "segments {} counted {counted} expected {expected}",
            first.segments
        ),
    );
    rep.check(
        "fleet.episodes_repeat",
        repeatable,
        format!("{episodes} episodes"),
    );

    let counts: BTreeMap<&'static str, u64> = first
        .codec_counts
        .iter()
        .map(|(c, &n)| (c.name(), n))
        .collect();
    let mut cost_us = BTreeMap::new();
    if opts.trace {
        cost_us = arm_costs_us(&pool, &first.arms, if opts.tiny { 1 } else { 3 });
        let wall = stats::median(&walls);
        let codec_s: f64 = counts
            .iter()
            .map(|(n, &c)| c as f64 * cost_us.get(n).copied().unwrap_or(0.0) * 1e-6)
            .sum();
        rep.set(
            "fleet.overhead_us",
            (wall - codec_s) * 1e6 / per_episode as f64,
        );
        rep.set("codecs.compress_share", codec_s / wall);
        rep.set("fleet.posterior_load_ms", stats::median(&load_ms));
        rep.set(
            "trace.overhead_share",
            (stats::median(&traced_walls) - wall) / wall,
        );
        rep.set_timing("datasets.fill_us", &fills, 1e-3);
        let mut trace = Trace::on();
        trace.absorb(last_fill_spans);
        let errors: Vec<String> = trace.check_self_times().err().into_iter().collect();
        crate::check_trace(&mut rep, &errors);
        let path = opts
            .work_dir
            .join(format!("spans-fleet-seed{}.json", opts.seed));
        rep.self_ns = trace.self_ns_by_name().into_iter().collect();
        trace
            .write_json(
                &path,
                &format!("\"workload\": \"fleet\", \"seed\": {}", opts.seed),
            )
            .map_err(|e| format!("fleet: writing spans: {e}"))?;
        rep.config("spans_file", path.display());
    }
    crate::selector_metrics(&mut rep, &counts, &cost_us);
    rep.set("fleet.restores", first.restores as f64);
    rep.set("fleet.evictions", first.evictions as f64);
    rep.set("fleet.peak_resident", first.peak_resident as f64);
    rep.set(
        "fleet.state_bytes_per_stream",
        first.per_stream_state_bytes as f64,
    );
    rep.set("frame.frames", first.frames.frames as f64);
    rep.set(
        "frame.fill_ratio",
        egress_payload as f64
            / (first.frames.frames.max(1) * first.frames.payload_cap as u64) as f64,
    );
    rep.set("peak_rss_mib", probe::peak_rss_mib());
    Ok(rep)
}

fn sorted_counts(r: &FleetReport) -> BTreeMap<CodecId, u64> {
    r.codec_counts.iter().map(|(&c, &n)| (c, n)).collect()
}
