//! The `adaedge` command-line tool: compress/decompress value files with
//! any codec, run the online/offline pipelines on simulated streams, and
//! print a quick codec comparison — the workflow a downstream user tries
//! first.
//!
//! ```text
//! adaedge codecs   [--points N] [--precision P]
//! adaedge compress --input vals.txt --output out.seg [--codec NAME]
//!                  [--precision P] [--ratio R] [--segment N]
//! adaedge decompress --input out.seg --output vals.txt
//! adaedge online   [--rate PTS/S] [--bandwidth BITS/S] [--segments N]
//!                  [--target sum|max|min|avg]
//! adaedge offline  [--budget BYTES] [--segments N] [--target sum|max|min|avg]
//! ```
//!
//! Value files are plain text: one f64 per line (blank lines and `#`
//! comments ignored). Compressed files use the adaedge-storage segment
//! format.

use adaedge::codecs::{CodecId, CodecRegistry, CodecScratch};
use adaedge::core::{
    AggKind, Constraints, OfflineAdaEdge, OfflineConfig, OnlineAdaEdge, OnlineConfig,
    OptimizationTarget,
};
use adaedge::datasets::{CbfConfig, CbfStream, SegmentSource};
use adaedge::storage::{load_segments, save_segments, Segment, SegmentId};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Options::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "codecs" => cmd_codecs(&opts),
        "compress" => cmd_compress(&opts),
        "decompress" => cmd_decompress(&opts),
        "online" => cmd_online(&opts),
        "offline" => cmd_offline(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
adaedge — dynamic compression selection for edge time series

USAGE:
  adaedge codecs     [--points N] [--precision P]
  adaedge compress   --input FILE --output FILE [--codec NAME]
                     [--precision P] [--ratio R] [--segment N]
  adaedge decompress --input FILE --output FILE [--precision P]
  adaedge online     [--rate PTS/S] [--bandwidth BITS/S] [--segments N]
                     [--target sum|max|min|avg]
  adaedge offline    [--budget BYTES] [--segments N] [--target sum|max|min|avg]

Codec names: gzip snappy zlib-1 zlib-6 zlib-9 dict rle gorilla chimp
sprintz elf buff buff-lossy paa pla fft rrd-sample lttb raw
(omit --codec to let the MAB choose per segment)";

#[derive(Debug, Default)]
struct Options {
    flags: HashMap<String, String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}`"));
            };
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Self { flags })
    }

    fn str(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.str(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.str(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }

    fn target(&self) -> Result<AggKind, String> {
        Ok(match self.str("target").unwrap_or("sum") {
            "sum" => AggKind::Sum,
            "max" => AggKind::Max,
            "min" => AggKind::Min,
            "avg" => AggKind::Avg,
            other => return Err(format!("--target: unknown aggregate `{other}`")),
        })
    }
}

fn read_values(path: &str) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        for field in line.split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            out.push(
                field
                    .parse::<f64>()
                    .map_err(|_| format!("{path}:{}: bad value `{field}`", lineno + 1))?,
            );
        }
    }
    if out.is_empty() {
        return Err(format!("{path}: no values"));
    }
    Ok(out)
}

fn write_values(path: &str, values: &[f64]) -> Result<(), String> {
    let mut text = String::with_capacity(values.len() * 12);
    for v in values {
        text.push_str(&format!("{v}\n"));
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_codecs(opts: &Options) -> Result<(), String> {
    let points: usize = opts.num("points", 4096)?;
    let precision: u8 = opts.num("precision", 4)?;
    let reg = CodecRegistry::new(precision);
    let mut stream = CbfStream::new(CbfConfig::default(), points);
    let data = stream.next_segment();
    println!("codec comparison on a {points}-point CBF sample (precision {precision}):\n");
    println!(
        "{:>12} {:>10} {:>14} {:>14}",
        "codec", "ratio", "compress µs", "decompress µs"
    );
    for id in CodecId::ALL {
        if id == CodecId::Raw {
            continue;
        }
        let t0 = std::time::Instant::now();
        let block = match reg.get_lossy(id) {
            Some(lossy) => lossy.compress_to_ratio(&data, 0.25),
            None => reg.get(id).compress(&data),
        };
        let Ok(block) = block else {
            println!("{:>12} {:>10}", id.name(), "n/a");
            continue;
        };
        let c_us = t0.elapsed().as_micros();
        let t0 = std::time::Instant::now();
        let _ = reg.decompress(&block).map_err(|e| e.to_string())?;
        let d_us = t0.elapsed().as_micros();
        println!(
            "{:>12} {:>10.4} {:>14} {:>14}",
            id.name(),
            block.ratio(),
            c_us,
            d_us
        );
    }
    Ok(())
}

fn cmd_compress(opts: &Options) -> Result<(), String> {
    let input = opts.required("input")?;
    let output = opts.required("output")?;
    let precision: u8 = opts.num("precision", 4)?;
    let segment: usize = opts.num("segment", 1024)?;
    let values = read_values(input)?;
    let reg = CodecRegistry::new(precision);

    let mut segments = Vec::new();
    let mut total_in = 0usize;
    let mut total_out = 0usize;
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    let mut selector = adaedge::core::LosslessSelector::new(
        CodecRegistry::extended_lossless_candidates(),
        adaedge::core::SelectorConfig::default(),
    );
    let mut scratch = CodecScratch::new();
    for (i, chunk) in values.chunks(segment).enumerate() {
        let block = match opts.str("codec") {
            Some(name) => {
                let id =
                    CodecId::from_name(name).ok_or_else(|| format!("unknown codec `{name}`"))?;
                match reg.get_lossy(id) {
                    Some(lossy) => {
                        let ratio: f64 = opts.num("ratio", 0.25)?;
                        lossy
                            .compress_to_ratio(chunk, ratio)
                            .map_err(|e| e.to_string())?
                    }
                    None => reg.get(id).compress(chunk).map_err(|e| e.to_string())?,
                }
            }
            None => {
                // MAB-selected lossless compression.
                selector
                    .compress(&reg, chunk, &mut scratch)
                    .map_err(|e| e.to_string())?
                    .block
            }
        };
        total_in += chunk.len() * 8;
        total_out += block.compressed_bytes();
        *counts.entry(block.codec.name()).or_insert(0) += 1;
        segments.push(Segment::compressed(SegmentId(i as u64), i as u64, block));
    }
    save_segments(&PathBuf::from(output), segments.iter()).map_err(|e| e.to_string())?;
    println!(
        "{} values → {} segments, {} → {} bytes (ratio {:.4})",
        values.len(),
        segments.len(),
        total_in,
        total_out,
        total_out as f64 / total_in as f64
    );
    let mut counts: Vec<_> = counts.into_iter().collect();
    counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    for (codec, count) in counts {
        println!("  {codec}: {count} segments");
    }
    Ok(())
}

fn cmd_decompress(opts: &Options) -> Result<(), String> {
    let input = opts.required("input")?;
    let output = opts.required("output")?;
    let precision: u8 = opts.num("precision", 4)?;
    let reg = CodecRegistry::new(precision);
    let mut segments = load_segments(&PathBuf::from(input)).map_err(|e| e.to_string())?;
    segments.sort_by_key(|s| s.id);
    let mut values = Vec::new();
    for seg in &segments {
        match seg.block() {
            Some(block) => values.extend(reg.decompress(block).map_err(|e| e.to_string())?),
            None => {
                if let adaedge::storage::SegmentData::Raw(points) = &seg.data {
                    values.extend_from_slice(points);
                }
            }
        }
    }
    write_values(output, &values)?;
    println!(
        "restored {} values from {} segments",
        values.len(),
        segments.len()
    );
    Ok(())
}

fn cmd_online(opts: &Options) -> Result<(), String> {
    let rate: f64 = opts.num("rate", 200_000.0)?;
    let bandwidth: f64 = opts.num("bandwidth", 2.0e6)?;
    let n_segments: usize = opts.num("segments", 100)?;
    let kind = opts.target()?;
    let constraints = Constraints::online(rate, bandwidth, 1024);
    println!(
        "online mode: {rate:.0} pts/s over {bandwidth:.0} bit/s → target ratio {:.4}",
        constraints.target_ratio().unwrap()
    );
    let config = OnlineConfig::new(constraints, OptimizationTarget::agg(kind));
    let mut edge = OnlineAdaEdge::new(config).map_err(|e| e.to_string())?;
    let mut stream = CbfStream::new(CbfConfig::default(), 1024);
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    for _ in 0..n_segments {
        let seg = stream.next_segment();
        let out = edge.process_segment(&seg).map_err(|e| e.to_string())?;
        *counts.entry(out.selection.codec.name()).or_insert(0) += 1;
    }
    let stats = edge.stats();
    println!(
        "{} segments: {} lossless / {} lossy; egress ratio {:.4}",
        stats.segments,
        stats.lossless_segments,
        stats.lossy_segments,
        stats.bytes_out as f64 / stats.bytes_in as f64
    );
    let mut counts: Vec<_> = counts.into_iter().collect();
    counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    for (codec, count) in counts {
        println!("  {codec}: {count}");
    }
    Ok(())
}

fn cmd_offline(opts: &Options) -> Result<(), String> {
    let budget: usize = opts.num("budget", 1_000_000)?;
    let n_segments: usize = opts.num("segments", 300)?;
    let kind = opts.target()?;
    let config = OfflineConfig::new(budget, OptimizationTarget::agg(kind));
    let mut edge = OfflineAdaEdge::new(config).map_err(|e| e.to_string())?;
    let mut stream = CbfStream::new(CbfConfig::default(), 1024);
    for _ in 0..n_segments {
        edge.ingest(&stream.next_segment())
            .map_err(|e| e.to_string())?;
    }
    println!(
        "ingested {} segments ({} KB raw) into a {} KB budget; utilization {:.1}%, {} recodes",
        edge.store().len(),
        n_segments * 1024 * 8 / 1000,
        budget / 1000,
        edge.utilization() * 100.0,
        edge.total_recodes()
    );
    let ratios: Vec<f64> = edge.store().iter().map(|s| s.ratio()).collect();
    let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
    let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
    println!("segment ratios: min {min:.4}, max {max:.4}");
    Ok(())
}
