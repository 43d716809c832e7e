//! A figure-like mixed workload through the declarative scenario
//! harness, emitted as `BENCH_scenarios.json`.
//!
//! Unlike `io_latency` / `decluster` (which reproduce fixed benchmark
//! grids), this binary exercises the harness end to end the way a
//! user would: a seeded uniform dataset, an open-arrival window sweep
//! replayed over a depth × policy × arm grid, and a mixed
//! window/point/join/insert stream per organization — with the
//! accounting cross-check asserted on every phase. The report is the
//! scenario-native JSON ([`ScenarioReport::to_json`](spatialdb_workload::ScenarioReport::to_json)), deterministic
//! at any thread count.
//!
//! Flags: `--objects N` (default 4000), `--queries N` (default 96),
//! `--ops N` (default 128), `--threads N` (default 4), `--out PATH`.

use spatialdb::disk::{ArmPolicy, StripePolicy};
use spatialdb::{Arrival, EngineConfig};
use spatialdb_bench::arg;
use spatialdb_workload::{org_label, Dataset, Mix, Scenario, WindowSweep};

fn main() {
    let n_objects: u64 = arg("--objects")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4000);
    let n_queries: usize = arg("--queries").and_then(|s| s.parse().ok()).unwrap_or(96);
    let n_ops: usize = arg("--ops").and_then(|s| s.parse().ok()).unwrap_or(128);
    let threads: usize = arg("--threads").and_then(|s| s.parse().ok()).unwrap_or(4);
    let out_path = arg("--out").unwrap_or_else(|| "BENCH_scenarios.json".to_string());

    println!(
        "scenarios: {n_objects} objects, {n_queries} queries/cell, {n_ops} mixed ops, \
         {threads} threads"
    );
    let report = Scenario::new("fig-like")
        .dataset(Dataset::uniform(n_objects).polyline_segments(6))
        .databases(2)
        .engine(EngineConfig::default().buffer_pages(1024))
        .windows(
            WindowSweep::new(n_queries)
                .size_base(0.04)
                .size_amp(0.18)
                .size_period(6),
        )
        .arrivals(Arrival::open(0.7))
        .sweep_depths(&[4, 16])
        .sweep_policies(&[ArmPolicy::Fcfs, ArmPolicy::Elevator])
        .sweep_arms(&[1, 4])
        .sweep_stripes(&[StripePolicy::RoundRobin])
        .mix(Mix::new().window(0.6).point(0.2).join(0.1).insert(0.1))
        .operations(n_ops)
        .threads(threads)
        .seed(1994)
        .run();
    report.assert_stats_conserved();

    for m in &report.mixes {
        println!(
            "  mix {}: {} windows, {} points, {} joins, {} inserts, {} results",
            m.org.map_or("?", org_label),
            m.windows,
            m.points,
            m.joins,
            m.inserts,
            m.results
        );
    }
    std::fs::write(&out_path, report.to_json()).expect("write bench report");
    println!("wrote {out_path}");
}
