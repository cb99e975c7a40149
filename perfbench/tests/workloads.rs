//! The benchmark's own tests, at test size: determinism under one seed,
//! seed sensitivity, a live failure metric, and span accounting.

use adaedge_perfbench::report::{per_layer, Report, END_TO_END};
use adaedge_perfbench::{run, Opts, WORKLOADS};
use std::path::PathBuf;

fn work_dir(test: &str, workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{workload}"))
}

fn tiny_run(test: &str, workload: &str, seed: u64, trace: bool) -> Report {
    let opts = Opts {
        trace,
        ..Opts::tiny(seed, &work_dir(test, workload))
    };
    let rep = run(workload, &opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(rep.correct(), "{workload}: {:?}", rep.checks);
    rep
}

/// Per-layer metrics that are timings or ratios of timings, plus
/// `engine.spills`, which counts queue-full events and so depends on how
/// the producer and worker threads interleave.
fn measured(name: &str) -> bool {
    matches!(
        name,
        "engine.spills"
            | "engine.producer_wait_share"
            | "codecs.compress_share"
            | "codecs.explore_time_share"
            | "trace.overhead_share"
    )
}

/// Every metric computed from virtual time, byte counts or decisions: the
/// quality metrics, `selector.pulls.*`, and every count.
fn deterministic(rep: &Report) -> Vec<(String, f64)> {
    let mut out = vec![("egress_ratio".to_string(), rep.get("egress_ratio").unwrap())];
    for (name, unit) in per_layer() {
        if matches!(unit, "count" | "B" | "ticks" | "B/tick" | "ratio" | "1/seg")
            && !measured(&name)
        {
            out.push((name.clone(), rep.get(&name).unwrap_or(0.0)));
        }
    }
    out
}

#[test]
fn one_seed_repeats_every_deterministic_metric() {
    for w in WORKLOADS {
        let a = tiny_run("repeat-a", w, 7, true);
        let b = tiny_run("repeat-b", w, 7, true);
        assert_eq!(deterministic(&a), deterministic(&b), "{w}");
        let pulls: f64 = deterministic(&a)
            .iter()
            .filter(|(n, _)| n.starts_with("selector.pulls."))
            .map(|(_, v)| v)
            .sum();
        assert!(pulls > 0.0, "{w}");
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    for w in WORKLOADS {
        let a = tiny_run("seed-a", w, 1, false);
        let b = tiny_run("seed-b", w, 2, false);
        assert_ne!(a.get("egress_ratio"), b.get("egress_ratio"), "{w}");
    }
}

#[test]
fn injected_codec_faults_count_as_failures() {
    let opts = Opts {
        fault: true,
        ..Opts::tiny(3, &work_dir("fault", "online"))
    };
    let rep = run("online", &opts).expect("online runs with faults contained");
    assert!(rep.failed > 0);
    assert!(rep.get("failed_share").unwrap() > 0.0);
    assert!(rep.correct(), "{:?}", rep.checks);
    let clean = tiny_run("fault-clean", "online", 3, false);
    assert_eq!(clean.failed, 0);
}

#[test]
fn traced_span_self_times_add_up() {
    for w in WORKLOADS {
        let rep = tiny_run("trace", w, 5, true);
        let check = rep
            .checks
            .iter()
            .find(|c| c.name == "trace.self_times_add_up")
            .unwrap_or_else(|| panic!("{w}: no span check"));
        assert!(check.ok, "{w}: {}", check.detail);
        let text = rep.render(true);
        let last = text.lines().last().unwrap();
        for (name, unit) in per_layer() {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{w}: {name} missing"
            );
            assert!(last.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json: String = std::fs::read_to_string(path)
        .expect("BENCHMARK.json beside the benchmark directory")
        .split_whitespace()
        .collect();
    let layer: Vec<(String, &str)> = per_layer();
    let all = END_TO_END
        .iter()
        .map(|&(n, u)| (n, u))
        .chain(layer.iter().map(|(n, u)| (n.as_str(), *u)));
    for (name, unit) in all {
        assert!(
            json.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\":\"{w}\"")), "{w}");
    }
}
