//! The spatialdb benchmark: three workloads over paper-scale TIGER-like
//! maps, every answer checked against an oracle that does not use the
//! R*-tree, every simulated figure checked for determinism.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload window_read|update_mix|join|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced run with `--trace 1`. A report and, when traced, every span go
//! to `perfbench/out/`.

mod common;
mod join;
mod measure;
mod oracle;
mod trace;
mod update_mix;
mod window_read;

use common::Outcome;
use measure::Metric;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["window_read", "update_mix", "join"];

/// The end-to-end metrics every workload reports, in report order.
const E2E: [&str; 9] = [
    "setup_s",
    "op_p50_us",
    "op_p99_us",
    "read_p50_us",
    "read_p99_us",
    "ops_per_s",
    "sim_io_ms",
    "space_amp",
    "peak_rss_mb",
];

/// The per-layer metrics of the traced run, with their units. A layer a
/// workload does not call reports 0.
const LAYERS: [(&str, &str); 36] = [
    ("data.generate_s", "s"),
    ("core.bulkload.load_s", "s"),
    ("core.query.filter_us", "us"),
    ("core.query.refine_us", "us"),
    ("core.executor.batch_s", "s"),
    ("core.executor.batch_1t_s", "s"),
    ("core.executor.speedup", "ratio"),
    ("core.executor.serial_share", "ratio"),
    ("core.db.commit_rest_us", "us"),
    ("storage.window_query_us", "us"),
    ("storage.candidates_us", "us"),
    ("storage.answers_per_candidate", "ratio"),
    ("storage.snapshot_clone_us", "us"),
    ("storage.occupied_pages", "count"),
    ("rtree.nodes_per_query", "count"),
    ("rtree.height", "count"),
    ("geom.window_test_ns", "ns"),
    ("geom.window_tests", "count"),
    ("geom.pair_test_ns", "ns"),
    ("disk.pool_hit_ratio", "ratio"),
    ("disk.pool_lock_contentions", "count"),
    ("disk.pages_read_per_query", "count"),
    ("disk.requests_per_query", "count"),
    ("disk.seeks_per_query", "count"),
    ("disk.pages_written_per_write", "count"),
    ("epoch.pin_ns", "ns"),
    ("epoch.retired_max", "count"),
    ("join.filter_s", "s"),
    ("join.refine_s", "s"),
    ("join.candidate_pairs", "count"),
    ("join.answers_per_candidate", "ratio"),
    ("join.sim_mbr_ms", "ms"),
    ("join.sim_transfer_ms", "ms"),
    ("join.sim_exact_ms", "ms"),
    ("trace.unaccounted_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload window_read|update_mix|join|all \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 1994,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.workload != "all" && !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(cfg)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The metrics the JSON line carries for this mode, in table order.
fn reported(cfg: &RunConfig, out: &Outcome) -> Vec<Metric> {
    if cfg.trace {
        LAYERS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: out.layers.get(name).unwrap_or(0.0),
                unit,
            })
            .collect()
    } else {
        E2E.iter()
            .map(|&name| {
                out.e2e
                    .0
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| panic!("{} did not report {name}", cfg.workload))
            })
            .collect()
    }
}

fn run_one(cfg: &RunConfig) -> ExitCode {
    let mut tr = Tracer::new(cfg.trace);
    let out = match cfg.workload.as_str() {
        "window_read" => window_read::run(cfg, &mut tr),
        "update_mix" => update_mix::run(cfg, &mut tr),
        "join" => join::run(cfg, &mut tr),
        other => unreachable!("unchecked workload {other}"),
    };
    let correct = out.failed == 0 && out.violations.is_empty();
    let metrics = reported(cfg, &out);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# {} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for n in &out.notes {
        let _ = writeln!(report, "# {n}");
    }
    for v in &out.violations {
        let _ = writeln!(report, "# DETERMINISM VIOLATION: {v}");
    }
    let _ = writeln!(report, "# end-to-end (workload names):");
    for m in &out.named.0 {
        let _ = writeln!(report, "#   {:<16} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        report,
        "#   {:<16} {:>14.4} ratio ({} of {} operations failed)",
        "failed_frac",
        out.failed_frac(),
        out.failed,
        out.attempted
    );
    if cfg.trace {
        let _ = writeln!(report, "# per-layer self time (traced run):");
        for (layer, ns) in tr.self_ns_by_layer() {
            let _ = writeln!(report, "#   {:<16} {:>14.3} ms", layer, ns / 1e6);
        }
    }
    let line = json_line(correct, out.attempted, out.failed, &metrics);
    print!("{report}");
    println!("{line}");

    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    let saved = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.txt")), format!("{report}{line}\n")))
        .and_then(|_| {
            if cfg.trace {
                tr.write_tsv(&dir.join(format!("{stem}.spans.tsv")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = saved {
        eprintln!(
            "perfbench: could not write the report to {}: {e}",
            dir.display()
        );
    }
    for v in &out.violations {
        eprintln!("perfbench: DETERMINISM VIOLATION: {v}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed",
            out.failed, out.attempted
        );
        ExitCode::FAILURE
    }
}

/// Run every workload in its own process (so each reports its own peak
/// memory) and print the workload-named metrics side by side.
fn run_all(cfg: &RunConfig) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &cfg.seed.to_string()])
            .args([
                "--seconds",
                &cfg.seconds.to_string(),
                "--trace",
                if cfg.trace { "1" } else { "0" },
            ])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg.workload == "all" {
        run_all(&cfg)
    } else {
        run_one(&cfg)
    }
}
