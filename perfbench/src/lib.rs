//! # adaedge-perfbench
//!
//! One benchmark for the AdaEdge crates, driven only through their public
//! API. Four workloads stress different layers:
//!
//! * `online`  — the sharded engine (`core::engine`) at S=1, K=8;
//! * `fleet`   — the multi-tenant gateway (`core::fleet`) at 10k streams;
//! * `link`    — capture → spool → uplink → receiver → decode in virtual
//!   time over a faulty, capacity-limited link;
//! * `offline` — the budgeted store with lossy recoding
//!   (`core::offline`).
//!
//! An untraced run measures the end-to-end metrics; a traced run wraps
//! the benchmark's own calls into each layer in spans ([`trace`]) and
//! reports per-layer metrics. Every run checks its outputs.

pub mod fleet;
pub mod link;
pub mod offline;
pub mod online;
pub mod probe;
pub mod report;
pub mod stats;
pub mod trace;

use adaedge_codecs::CodecId;
use adaedge_core::selector::SelectorConfig;
use report::Report;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads, in the order they are documented.
pub const WORKLOADS: [&str; 4] = ["online", "fleet", "link", "offline"];

/// Options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Seconds the measured phase runs (at least the minimum number of
    /// episodes always completes).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Test-sized inputs (a few hundred segments per episode).
    pub tiny: bool,
    /// Inject a panicking arm (`online` only) to prove failures count.
    pub fault: bool,
    /// Scratch directory for the spool, the posterior archive and span
    /// dumps. Created on demand.
    pub work_dir: PathBuf,
}

impl Opts {
    /// Defaults for a test-sized run of `seed` under `work_dir`.
    pub fn tiny(seed: u64, work_dir: &Path) -> Self {
        Self {
            seed,
            seconds: 0.0,
            trace: false,
            tiny: true,
            fault: false,
            work_dir: work_dir.to_path_buf(),
        }
    }
}

/// Run one workload.
pub fn run(workload: &str, opts: &Opts) -> Result<Report, String> {
    match workload {
        "online" => online::run(opts),
        "fleet" => fleet::run(opts),
        "link" => link::run(opts),
        "offline" => offline::run(opts),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Derive an input seed for one use (`salt`) from the workload seed
/// (splitmix64 finalizer, so nearby seeds give unrelated streams).
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Run `setup` `repeats` times and return the last product with the
/// median wall time of one set-up.
pub fn timed_setups<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&secs)))
}

/// Call `episode(i)` for `i = 0, 1, ...` until `seconds` of wall time have
/// passed, and at least `min` times. Returns the number of episodes run.
pub fn repeat_for(
    seconds: f64,
    min: usize,
    mut episode: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let t0 = Instant::now();
    let mut n = 0;
    while n < min || t0.elapsed().as_secs_f64() < seconds {
        episode(n)?;
        n += 1;
    }
    Ok(n)
}

/// Wall and CPU times of the measured episodes, by input.
///
/// A shared host switches between speed levels for seconds at a time as
/// other tenants come and go. So the end-to-end rates take, for each input,
/// the tenth percentile of its episodes' times: the program's speed when
/// nothing else holds the core, which is what a device runs. Each input's
/// times are summed, so an expensive input weighs by its cost.
#[derive(Debug, Default)]
pub struct Episodes {
    /// Input → (segments completed per episode, wall seconds, CPU seconds).
    by_input: std::collections::BTreeMap<usize, (u64, Vec<f64>, Vec<f64>)>,
}

impl Episodes {
    /// Record one episode of `input` that completed `segments` segments.
    pub fn add(&mut self, input: usize, segments: u64, (wall_s, cpu_s): (f64, f64)) {
        let e = self
            .by_input
            .entry(input)
            .or_insert((segments, Vec::new(), Vec::new()));
        e.1.push(wall_s);
        e.2.push(cpu_s);
    }

    /// Segments summed over inputs, and the sum over inputs of the tenth
    /// percentile of their CPU times (`cpu`) or wall times.
    fn fast(&self, cpu: bool) -> (u64, f64) {
        self.by_input
            .values()
            .fold((0, 0.0), |(n, t), (segs, wall, cpus)| {
                let times = if cpu { cpus } else { wall };
                (n + segs, t + stats::quantile(&stats::sorted(times), 0.1))
            })
    }

    /// Completed segments per wall second.
    pub fn seg_per_s(&self) -> f64 {
        let (n, t) = self.fast(false);
        n as f64 / t
    }

    /// Process CPU microseconds per completed segment.
    pub fn cpu_us_per_seg(&self) -> f64 {
        let (n, t) = self.fast(true);
        t * 1e6 / n.max(1) as f64
    }

    /// Fewest episodes any input ran.
    pub fn min_visits(&self) -> usize {
        self.by_input
            .values()
            .map(|(_, w, _)| w.len())
            .min()
            .unwrap_or(0)
    }
}

/// Record the selector configuration a workload resolved.
pub fn record_selector(rep: &mut Report, prefix: &str, sel: &SelectorConfig, arms: &[CodecId]) {
    rep.config(
        &format!("{prefix}.algorithm"),
        format!("{:?}", sel.algorithm),
    );
    rep.config(&format!("{prefix}.epsilon"), sel.epsilon);
    rep.config(&format!("{prefix}.step"), format!("{:?}", sel.step));
    rep.config(&format!("{prefix}.optimistic_init"), sel.optimistic_init);
    rep.config(&format!("{prefix}.seed"), sel.seed);
    let names: Vec<&str> = arms.iter().map(|a| a.name()).collect();
    rep.config(&format!("{prefix}.arms"), names.join(","));
}

/// Span name for compressing with `id`.
pub fn compress_span(id: CodecId) -> &'static str {
    match id {
        CodecId::Gzip => "codecs.compress.gzip",
        CodecId::Snappy => "codecs.compress.snappy",
        CodecId::Zlib1 => "codecs.compress.zlib-1",
        CodecId::Zlib6 => "codecs.compress.zlib-6",
        CodecId::Zlib9 => "codecs.compress.zlib-9",
        CodecId::Dict => "codecs.compress.dict",
        CodecId::Rle => "codecs.compress.rle",
        CodecId::Gorilla => "codecs.compress.gorilla",
        CodecId::Chimp => "codecs.compress.chimp",
        CodecId::Sprintz => "codecs.compress.sprintz",
        CodecId::Elf => "codecs.compress.elf",
        CodecId::Buff => "codecs.compress.buff",
        CodecId::BuffLossy => "codecs.compress.buff-lossy",
        CodecId::Paa => "codecs.compress.paa",
        CodecId::Pla => "codecs.compress.pla",
        CodecId::Fft => "codecs.compress.fft",
        CodecId::RrdSample => "codecs.compress.rrd-sample",
        CodecId::Lttb => "codecs.compress.lttb",
        CodecId::Raw => "codecs.compress.raw",
    }
}

/// Per-layer selector and codec metrics shared by every workload: exact
/// per-arm pull counts, the explore share (segments not compressed by the
/// run's most-pulled arm), and — when per-arm compress times are known —
/// the share of compress time spent on arms that did not win.
///
/// `counts` maps arm name to segments compressed; `cost_us` maps arm name
/// to its per-call compress time.
pub fn selector_metrics(
    rep: &mut Report,
    counts: &std::collections::BTreeMap<&'static str, u64>,
    cost_us: &std::collections::BTreeMap<&'static str, f64>,
) {
    let total: u64 = counts.values().sum();
    let winner = counts
        .iter()
        .max_by_key(|(_, &c)| c)
        .map(|(&n, _)| n)
        .unwrap_or("");
    for arm in report::LOSSLESS_ARMS {
        rep.set(
            &format!("selector.pulls.{arm}"),
            counts.get(arm).copied().unwrap_or(0) as f64,
        );
    }
    let won = counts.get(winner).copied().unwrap_or(0);
    rep.set(
        "selector.explore_share",
        (total - won) as f64 / total.max(1) as f64,
    );
    for (arm, us) in cost_us {
        let name = format!("codecs.compress_us.{arm}");
        if report::unit_of(&name).is_some() {
            rep.set(&name, *us);
        }
    }
    let time = |pick: &dyn Fn(&str) -> bool| -> f64 {
        counts
            .iter()
            .filter(|(n, _)| pick(n))
            .map(|(n, &c)| c as f64 * cost_us.get(n).copied().unwrap_or(0.0))
            .sum()
    };
    let all = time(&|_| true);
    if all > 0.0 {
        rep.set("codecs.explore_time_share", time(&|n| n != winner) / all);
    }
}

/// Record the span-accounting check of a traced run: self times are never
/// negative and add up to each traced episode's wall time.
pub fn check_trace(rep: &mut Report, errors: &[String]) {
    rep.check(
        "trace.self_times_add_up",
        errors.is_empty(),
        errors.first().cloned().unwrap_or_default(),
    );
}

/// Removes a directory tree when dropped (work directories the benchmark
/// creates inside its checkout).
#[derive(Debug)]
pub struct DirGuard(pub PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
