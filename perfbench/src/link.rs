//! `link`: store-and-forward over a faulty, capacity-limited link, in
//! virtual time, as an open loop.
//!
//! One 256-point segment is captured per tick on a fixed schedule from a
//! pre-generated sequence that alternates high-entropy CBF phases with
//! low-entropy alphabet phases (`ShiftStream`). Each capture goes
//! `LosslessSelector::select_arm_biased(gauge level)` →
//! `CodecRegistry::compress_into` → `encode_block` → `Spool::append` →
//! `Uplink::offer`; the uplink ticks once per tick over a `FaultyLink`
//! carrying one frame per tick (640-byte payload cap) whose schedule has
//! clean phases, lossy phases and one stall long enough to trip the
//! breaker. Records cancelled by a trip are re-read with
//! `Spool::replayer` and offered again. The receive side runs
//! `Receiver::on_frame`/`take_ordered` → `decode_block` → `decompress`
//! and compares every release with its capture.
//!
//! Delivery time is counted in ticks from a segment's scheduled capture
//! tick to its in-order release, so a stall delays every later segment.

use crate::online::exact;
use crate::report::Report;
use crate::stats::{self, percentile_rank};
use crate::trace::Trace;
use crate::{compress_span, derive, probe, DirGuard, Opts};
use adaedge_codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge_core::selector::{ArmOutcome, LosslessSelector, SelectorConfig};
use adaedge_core::spooling::{decode_block, encode_block};
use adaedge_core::uplink::{
    Ack, BackoffConfig, BreakerConfig, FaultSpec, FaultyLink, FrameKind, LinkPressure, Phase,
    Receiver, Transport, Uplink, UplinkConfig, UplinkCounters, UplinkFrame,
};
use adaedge_core::FrameConfig;
use adaedge_datasets::{CbfConfig, SegmentSource, SharedCycleSource, ShiftStream};
use adaedge_storage::spool::{ReplayItem, Spool, SpoolConfig};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Points per captured segment.
pub const SEG_LEN: usize = 256;
/// Raw bytes per captured segment.
pub const RAW_BYTES: usize = SEG_LEN * 8;
/// Frame payload cap (bytes, fragment headers included).
pub const PAYLOAD_CAP: usize = 640;
/// Ticks between explicit `Spool::sync` calls.
pub const SYNC_EVERY: u64 = 500;

struct Size {
    capture_ticks: u64,
    phase_segments: usize,
    stall_ticks: u64,
    /// Pre-generated capture segments.
    pool: usize,
    /// Distinct episode inputs: rotations of the pool.
    offsets: usize,
}

fn size(tiny: bool) -> Size {
    if tiny {
        Size {
            capture_ticks: 400,
            phase_segments: 80,
            stall_ticks: 100,
            pool: 800,
            offsets: 2,
        }
    } else {
        // Whether the selector leaves BUFF for a dearer arm in a
        // low-entropy phase turns on small differences in the capture
        // sequence, so a run cycles through 32 rotations of a pool of two
        // episodes' worth of captures and reports the aggregate.
        Size {
            capture_ticks: 2000,
            phase_segments: 250,
            stall_ticks: 150,
            pool: 4000,
            offsets: 32,
        }
    }
}

impl Size {
    /// Pool offset of episode `i`'s first capture.
    fn offset(&self, i: usize) -> usize {
        (i % self.offsets) * (self.pool / self.offsets)
    }
}

/// The uplink sender configuration (`seed` drives backoff jitter).
pub fn uplink_config(seed: u64) -> UplinkConfig {
    UplinkConfig {
        frame: FrameConfig {
            payload_cap: PAYLOAD_CAP,
            fragment_overhead: 12,
        },
        window: 8,
        deadline_ticks: 24,
        max_retries: 20,
        frames_per_tick: 1,
        backoff: BackoffConfig {
            base_ticks: 2,
            max_ticks: 16,
            jitter: 0.25,
        },
        breaker: BreakerConfig {
            trip_after: 6,
            open_ticks: 64,
            probes_to_close: 2,
        },
        seed,
        ..UplinkConfig::default()
    }
}

/// The link's fault schedule: clean, 10% loss, a stall, 5% loss, clean.
fn schedule(sz: &Size) -> Vec<Phase> {
    let t = sz.capture_ticks;
    let stall_at = t * 9 / 20;
    vec![
        Phase {
            until_tick: t / 4,
            spec: FaultSpec::clean(2),
        },
        Phase {
            until_tick: stall_at,
            spec: FaultSpec::lossy(2, 0.10),
        },
        Phase {
            until_tick: stall_at + sz.stall_ticks,
            spec: FaultSpec::stalled(),
        },
        Phase {
            until_tick: t * 3 / 4,
            spec: FaultSpec::lossy(2, 0.05),
        },
        Phase {
            until_tick: u64::MAX,
            spec: FaultSpec::clean(2),
        },
    ]
}

/// The capture sequence: alternating high-entropy (CBF) and low-entropy
/// (4-value alphabet) phases of `phase_segments` each.
fn inputs(seed: u64, sz: &Size) -> Arc<Vec<Vec<f64>>> {
    let total = sz.pool;
    let mut out = Vec::with_capacity(total);
    let mut pair = 0u64;
    while out.len() < total {
        let config = CbfConfig {
            seed: derive(seed, 100 + pair),
            ..CbfConfig::default()
        };
        let mut s = ShiftStream::new(config, SEG_LEN, sz.phase_segments, 4);
        for _ in 0..2 * sz.phase_segments {
            if out.len() < total {
                out.push(s.next_segment());
            }
        }
        pair += 1;
    }
    Arc::new(out)
}

/// The faulty link with wire accounting: data frames and payload bytes
/// sent (retransmissions included).
struct MeteredLink {
    inner: FaultyLink,
    data_frames: u64,
    payload_bytes: u64,
}

impl Transport for MeteredLink {
    fn send_frame(&mut self, now: u64, frame: UplinkFrame) {
        if frame.kind == FrameKind::Data {
            self.data_frames += 1;
            self.payload_bytes += frame.payload_len() as u64;
        }
        self.inner.send_frame(now, frame);
    }

    fn send_ack(&mut self, now: u64, ack: Ack) {
        self.inner.send_ack(now, ack);
    }

    fn poll_frames(&mut self, now: u64) -> Vec<UplinkFrame> {
        self.inner.poll_frames(now)
    }

    fn poll_acks(&mut self, now: u64) -> Vec<Ack> {
        self.inner.poll_acks(now)
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// Everything one episode observed.
#[derive(Debug, Clone, Default, PartialEq)]
struct Episode {
    wall_s: f64,
    cpu_s: f64,
    ticks: u64,
    captured: u64,
    delivered_exact: u64,
    out_of_order: u64,
    mismatched: u64,
    codec_failures: u64,
    replay_gaps: u64,
    delivery_ticks: Vec<f64>,
    compressed_bytes: u64,
    counts: BTreeMap<&'static str, u64>,
    picks: u64,
    degraded_picks: u64,
    replayed_records: u64,
    uplink: UplinkCounters,
    duplicates: u64,
    rejected: u64,
    peak_backlog: u64,
    peak_pending: u64,
    peak_spool_bytes: u64,
    spool_syncs: u64,
    data_frames: u64,
    frame_payload_bytes: u64,
}

impl Episode {
    /// The virtual-time results (everything except wall time).
    fn deterministic(&self) -> Self {
        Self {
            wall_s: 0.0,
            cpu_s: 0.0,
            ..self.clone()
        }
    }
}

fn episode(
    inputs: &Arc<Vec<Vec<f64>>>,
    offset: usize,
    sz: &Size,
    seed: u64,
    spool_dir: &Path,
    trace: &mut Trace,
) -> Result<Episode, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("link: {what}: {e}");
    let reg = CodecRegistry::new(4);
    let mut selector = LosslessSelector::new(
        CodecRegistry::lossless_candidates(),
        SelectorConfig::default(),
    );
    let mut scratch = CodecScratch::new();
    let mut spool_cfg = SpoolConfig::new(spool_dir);
    // Syncs happen on the tick schedule only, never on the wall clock.
    spool_cfg.sync_interval = Duration::from_secs(24 * 3600);
    let mut spool = Spool::open(spool_cfg).map_err(|e| err("spool open", &e))?;
    let mut up = Uplink::new(uplink_config(derive(seed, 3)));
    let gauge = up.pressure();
    let mut rx = Receiver::new();
    let mut link = MeteredLink {
        inner: FaultyLink::with_schedule(schedule(sz), derive(seed, 4)),
        data_frames: 0,
        payload_bytes: 0,
    };
    let mut source = SharedCycleSource::new(inputs.clone(), offset);
    let mut seg: Vec<f64> = Vec::with_capacity(SEG_LEN);
    let mut queue: VecDeque<(u64, Vec<u8>)> = VecDeque::new();
    let mut outcome = [ArmOutcome::Failure];
    let capture = sz.capture_ticks;
    let max_ticks = capture * 4 + 4000;
    let mut ep = Episode::default();
    let mut released = 0u64;

    let watch = probe::Stopwatch::start();
    let root = trace.enter("link.episode", 0);
    for now in 0..max_ticks {
        // Receive side.
        for frame in link.poll_frames(now) {
            let ack = trace.span("receiver.on_frame", frame.frame_id, || rx.on_frame(&frame));
            if let Some(ack) = ack {
                link.send_ack(now, ack);
            }
        }
        let ready = trace.span("receiver.take_ordered", now, || rx.take_ordered());
        for (seq, bytes) in ready {
            released += 1;
            if seq != released {
                ep.out_of_order += 1;
                continue;
            }
            let back = trace.span("codecs.decompress", seq, || {
                decode_block(&bytes).map(|b| (reg.decompress(&b).is_ok(), b))
            });
            let ok = back.is_some_and(|(decoded, block)| {
                decoded
                    && exact(
                        &reg,
                        &block,
                        &inputs[(offset + seq as usize - 1) % inputs.len()],
                    )
            });
            if ok {
                ep.delivered_exact += 1;
                ep.delivery_ticks.push((now - (seq - 1)) as f64);
            } else {
                ep.mismatched += 1;
            }
        }

        // Send side: pump the uplink, then re-supply anything a breaker
        // trip cancelled from the spool.
        trace.span("uplink.tick", now, || up.tick(now, &mut link));
        let rewound = up.take_rewind();
        if let (Some(&lo), Some(&hi)) = (rewound.iter().min(), rewound.iter().max()) {
            let id = trace.enter("spool.replay", lo);
            let mut records = Vec::new();
            for item in spool.replayer(lo - 1).map_err(|e| err("replayer", &e))? {
                match item {
                    ReplayItem::Record(r) if r.seq <= hi => records.push((r.seq, r.payload)),
                    ReplayItem::Record(_) => break,
                    ReplayItem::Gap { .. } => ep.replay_gaps += 1,
                }
            }
            trace.exit(id);
            ep.replayed_records += records.len() as u64;
            for r in records.into_iter().rev() {
                queue.push_front(r);
            }
        }

        // Capture: one segment per tick on a fixed schedule.
        if now < capture {
            let seq = now + 1;
            trace.span("datasets.fill", seq, || source.next_segment_into(&mut seg));
            let level = gauge.level();
            ep.picks += 1;
            if level != LinkPressure::Nominal {
                ep.degraded_picks += 1;
            }
            let (arm, codec) =
                trace.span("selector.select", seq, || selector.select_arm_biased(level));
            let id = trace.enter(compress_span(codec), seq);
            let res = reg
                .compress_into(codec, &seg, &mut scratch)
                .map(|b| (b.ratio(), b.to_block()));
            trace.exit(id);
            let block = match res {
                Ok((ratio, block)) => {
                    outcome[0] = ArmOutcome::Ratio(ratio);
                    block
                }
                Err(_) => {
                    ep.codec_failures += 1;
                    outcome[0] = ArmOutcome::Failure;
                    reg.compress_into(CodecId::Raw, &seg, &mut scratch)
                        .map_err(|e| err("raw fallback", &e))?
                        .to_block()
                }
            };
            trace.span("selector.report", seq, || {
                selector.report_batch(arm, &outcome)
            });
            ep.compressed_bytes += block.compressed_bytes() as u64;
            *ep.counts.entry(block.codec.name()).or_insert(0) += 1;
            let payload = trace.span("spooling.encode_block", seq, || encode_block(&block));
            let got = trace
                .span("spool.append", seq, || spool.append(now, &payload))
                .map_err(|e| err("append", &e))?;
            if got != seq {
                return Err(format!("link: spool assigned seq {got}, expected {seq}"));
            }
            queue.push_back((seq, payload));
            ep.captured += 1;
        }

        // Offer as far as the sender accepts; the rest waits in the spool
        // queue and counts as external backlog. A refused re-offer means
        // the record was acknowledged meanwhile.
        while !queue.is_empty() && up.can_accept(now) {
            let (seq, payload) = queue.pop_front().expect("non-empty");
            trace.span("uplink.offer", seq, || up.offer(now, seq, payload));
        }
        up.set_external_backlog(queue.len());

        trace
            .span("spool.ack", now, || spool.ack(up.acked_seq()))
            .map_err(|e| err("ack", &e))?;
        if now % SYNC_EVERY == 0 {
            trace
                .span("spool.sync", now, || spool.sync())
                .map_err(|e| err("sync", &e))?;
        }
        ep.peak_backlog = ep.peak_backlog.max(up.backlog() as u64);
        ep.peak_pending = ep.peak_pending.max(rx.pending_release() as u64);
        ep.peak_spool_bytes = ep.peak_spool_bytes.max(spool.stats().bytes);
        ep.ticks = now + 1;
        if now >= capture && released == capture && queue.is_empty() && up.idle() && link.is_empty()
        {
            break;
        }
    }
    trace.exit(root);
    (ep.wall_s, ep.cpu_s) = watch.stop();
    ep.uplink = up.counters();
    let rc = rx.counters();
    ep.duplicates = rc.duplicate_fragments + rc.duplicate_records;
    ep.rejected = rc.frames_rejected;
    ep.spool_syncs = spool.stats().syncs;
    ep.data_frames = link.data_frames;
    ep.frame_payload_bytes = link.payload_bytes;
    Ok(ep)
}

/// Run the `link` workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let sz = size(opts.tiny);
    let mut rep = Report::new("link", opts.seed);
    let ucfg = uplink_config(derive(opts.seed, 3));
    rep.config("segment_points", SEG_LEN);
    rep.config("capture_ticks", sz.capture_ticks);
    rep.config("phase_segments", sz.phase_segments);
    rep.config("stall_ticks", sz.stall_ticks);
    rep.config("pool_segments", sz.pool);
    rep.config("episode_offsets", sz.offsets);
    rep.config("payload_cap", PAYLOAD_CAP);
    rep.config("frames_per_tick", ucfg.frames_per_tick);
    rep.config("window", ucfg.window);
    rep.config("deadline_ticks", ucfg.deadline_ticks);
    rep.config("breaker_trip_after", ucfg.breaker.trip_after);
    rep.config("spool_sync_every_ticks", SYNC_EVERY);
    rep.config("k", 1);
    rep.config("shards", 1);
    crate::record_selector(
        &mut rep,
        "selector",
        &SelectorConfig::default(),
        &CodecRegistry::lossless_candidates(),
    );

    let base = opts.work_dir.join(format!("link-{}", std::process::id()));
    let _cleanup = DirGuard(base.clone());
    let mut n_episode = 0u64;
    let mut run_episode = |inputs: &Arc<Vec<Vec<f64>>>, offset: usize, trace: &mut Trace| {
        n_episode += 1;
        let dir = base.join(format!("spool-{n_episode}"));
        let ep = episode(inputs, offset, &sz, opts.seed, &dir, trace);
        std::fs::remove_dir_all(&dir).ok();
        ep
    };

    let repeats = if opts.tiny { 1 } else { crate::SETUP_REPEATS };
    let (inputs, setup_s) = crate::timed_setups(repeats, || {
        let inputs = inputs(opts.seed, &sz);
        std::fs::create_dir_all(&base).map_err(|e| format!("link: work dir: {e}"))?;
        run_episode(&inputs, 0, &mut Trace::off())?;
        Ok(inputs)
    })?;
    rep.set("setup_s", setup_s);

    let mut times = crate::Episodes::default();
    let mut wall_s = 0.0;
    let mut delivered = 0u64;
    let mut captured = 0u64;
    let mut traced_wall_s = 0.0;
    let mut compress_s = 0.0;
    let mut firsts: Vec<Episode> = Vec::new();
    let mut repeatable = true;
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last_trace = Trace::off();
    let mut trace_errors: Vec<String> = Vec::new();
    let episodes = crate::repeat_for(opts.seconds, sz.offsets, |i| {
        let ep = run_episode(&inputs, sz.offset(i), &mut Trace::off())?;
        times.add(i % sz.offsets, ep.delivered_exact, (ep.wall_s, ep.cpu_s));
        wall_s += ep.wall_s;
        delivered += ep.delivered_exact;
        captured += ep.captured;
        if i < sz.offsets {
            firsts.push(ep);
        } else {
            repeatable &= firsts[i % sz.offsets].deterministic() == ep.deterministic();
        }
        if opts.trace {
            let mut trace = Trace::on();
            let ep = run_episode(&inputs, sz.offset(i), &mut trace)?;
            traced_wall_s += ep.wall_s;
            for (name, ds) in trace.durations_by_name() {
                if name.starts_with("codecs.compress.") {
                    compress_s += ds.iter().sum::<f64>() * 1e-9;
                }
                durations.entry(name).or_default().extend(ds);
            }
            if let Err(e) = trace.check_self_times() {
                trace_errors.push(e);
            }
            last_trace = trace;
        }
        Ok(())
    })?;

    // Virtual-time results: one cycle over every offset, so they repeat
    // exactly for a seed whatever the run length.
    let total = |f: &dyn Fn(&Episode) -> u64| -> u64 { firsts.iter().map(f).sum() };
    let peak = |f: &dyn Fn(&Episode) -> u64| -> u64 { firsts.iter().map(f).max().unwrap_or(0) };
    let cycle_captured = total(&|e| e.captured);
    let cycle_delivered = total(&|e| e.delivered_exact);
    let cycle_failed = cycle_captured - cycle_delivered + total(&|e| e.codec_failures);
    let delivery_ticks: Vec<f64> = firsts
        .iter()
        .flat_map(|e| e.delivery_ticks.iter().copied())
        .collect();
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in &firsts {
        for (arm, n) in &e.counts {
            *counts.entry(arm).or_insert(0) += n;
        }
    }
    let picks = total(&|e| e.picks);
    let frames_sent = total(&|e| e.uplink.frames_sent);
    let retries = total(&|e| e.uplink.retries);
    let data_frames = total(&|e| e.data_frames);

    rep.config("episodes", episodes);
    rep.attempted = captured;
    rep.failed = captured - delivered
        + (0..episodes)
            .map(|i| firsts[i % sz.offsets].codec_failures)
            .sum::<u64>();
    rep.set("seg_per_s", times.seg_per_s());
    rep.set("cpu_us_per_seg", times.cpu_us_per_seg());
    rep.config("fewest_episodes_per_offset", times.min_visits());
    rep.set(
        "egress_ratio",
        total(&|e| e.compressed_bytes) as f64 / (cycle_captured as f64 * RAW_BYTES as f64),
    );
    rep.set("failed_share", cycle_failed as f64 / cycle_captured as f64);
    rep.set(
        "goodput_B_per_tick",
        (cycle_delivered * RAW_BYTES as u64) as f64 / total(&|e| e.ticks) as f64,
    );
    rep.set("delivery_ticks_p50", percentile_rank(&delivery_ticks, 0.5));
    rep.set("delivery_ticks_p99", percentile_rank(&delivery_ticks, 0.99));

    let released = cycle_delivered + total(&|e| e.mismatched);
    rep.check(
        "link.every_capture_released_once_in_order",
        released == cycle_captured && total(&|e| e.out_of_order) == 0,
        format!(
            "captured {cycle_captured} released {released} out_of_order {}",
            total(&|e| e.out_of_order)
        ),
    );
    rep.check(
        "link.decodes_exact",
        total(&|e| e.mismatched) == 0,
        format!("{} mismatched", total(&|e| e.mismatched)),
    );
    rep.check(
        "link.replay_has_no_gaps",
        total(&|e| e.replay_gaps) == 0,
        format!("{} gaps", total(&|e| e.replay_gaps)),
    );
    let tripped = firsts
        .iter()
        .filter(|e| e.uplink.trips > 0 && e.replayed_records > 0)
        .count();
    rep.check(
        "link.breaker_trips_and_spool_replays",
        tripped > 0,
        format!(
            "{tripped} of {} episodes tripped and replayed",
            firsts.len()
        ),
    );
    rep.check(
        "link.episodes_repeat",
        repeatable,
        format!("{episodes} episodes over {} offsets", sz.offsets),
    );

    let mut cost_us = BTreeMap::new();
    if opts.trace {
        crate::check_trace(&mut rep, &trace_errors);
        for (name, ds) in &durations {
            if let Some(arm) = name.strip_prefix("codecs.compress.") {
                cost_us.insert(crate::online::arm_static(arm), stats::median(ds) * 1e-3);
            }
        }
        for (span, metric, per_ns) in [
            ("datasets.fill", "datasets.fill_us", 1e-3),
            ("selector.select", "selector.select_ns", 1.0),
            ("selector.report", "selector.report_ns", 1.0),
            ("codecs.decompress", "codecs.decompress_us", 1e-3),
            ("spool.append", "spool.append_us", 1e-3),
            ("spool.sync", "spool.sync_us", 1e-3),
            ("spool.ack", "spool.ack_us", 1e-3),
            ("spool.replay", "spool.replay_us", 1e-3),
            ("uplink.tick", "uplink.tick_us", 1e-3),
            ("uplink.offer", "uplink.offer_us", 1e-3),
            ("receiver.on_frame", "receiver.on_frame_us", 1e-3),
        ] {
            if let Some(ds) = durations.get(span) {
                rep.set_timing(metric, ds, per_ns);
            }
        }
        rep.set("codecs.compress_share", compress_s / traced_wall_s);
        rep.set("trace.overhead_share", (traced_wall_s - wall_s) / wall_s);
        let path = opts
            .work_dir
            .join(format!("spans-link-seed{}.json", opts.seed));
        rep.self_ns = last_trace.self_ns_by_name().into_iter().collect();
        last_trace
            .write_json(
                &path,
                &format!("\"workload\": \"link\", \"seed\": {}", opts.seed),
            )
            .map_err(|e| format!("link: writing spans: {e}"))?;
        rep.config("spans_file", path.display());
    }
    crate::selector_metrics(&mut rep, &counts, &cost_us);
    rep.set("selector.decisions", picks as f64);
    rep.set(
        "selector.degraded_share",
        total(&|e| e.degraded_picks) as f64 / picks.max(1) as f64,
    );
    rep.set("frame.frames", data_frames as f64);
    rep.set(
        "frame.fill_ratio",
        total(&|e| e.frame_payload_bytes) as f64 / (data_frames.max(1) * PAYLOAD_CAP as u64) as f64,
    );
    rep.set("spool.syncs", total(&|e| e.spool_syncs) as f64);
    rep.set("spool.peak_bytes", peak(&|e| e.peak_spool_bytes) as f64);
    rep.set(
        "spool.replayed_records",
        total(&|e| e.replayed_records) as f64,
    );
    rep.set("uplink.frames_sent", frames_sent as f64);
    rep.set("uplink.retries", retries as f64);
    rep.set("uplink.trips", total(&|e| e.uplink.trips) as f64);
    rep.set(
        "uplink.cancelled_on_trip",
        total(&|e| e.uplink.cancelled_on_trip) as f64,
    );
    rep.set("uplink.peak_backlog", peak(&|e| e.peak_backlog) as f64);
    rep.set(
        "uplink.retry_share",
        retries as f64 / frames_sent.max(1) as f64,
    );
    rep.set("receiver.duplicates", total(&|e| e.duplicates) as f64);
    rep.set("receiver.rejected", total(&|e| e.rejected) as f64);
    rep.set("receiver.peak_pending", peak(&|e| e.peak_pending) as f64);
    rep.set("peak_rss_mib", probe::peak_rss_mib());
    Ok(rep)
}
