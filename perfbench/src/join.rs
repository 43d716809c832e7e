//! `join`: Map1 ⋈ Map2 series A, both cluster-organized in one workspace
//! with a 1,600-page buffer, through the sequential `JoinQuery::run()`
//! with the default transfer, every candidate pair refined by draining
//! the cursor. Each repetition starts from a cold buffer.
//!
//! The maps are fixed, so the seed draws the join's inputs as a 99 %
//! sample of each map: every seed joins a slightly different pair of
//! maps (and a claim checked on a held-out seed sees different inputs),
//! while the join's cost moves by well under 1 % between seeds.

use crate::common::{self, guarded, Outcome, SETUPS};
use crate::measure::{self, median, nproc, peak_rss_mb, percentile};
use crate::oracle::{pair_hash, JoinAnswer, Oracle};
use crate::trace::Tracer;
use crate::RunConfig;
use spatialdb::data::{rng::SmallRng, MapId, SpatialMap};
use spatialdb::{JoinStats, SpatialDatabase, SpatialJoin, TransferTechnique, Workspace};
use std::time::{Duration, Instant};

pub const BUFFER_PAGES: usize = 1_600;
/// Repetitions needed for the cross-repetition determinism check.
const MIN_REPS: usize = 2;
/// Candidate pairs timed for the exact-test cost (traced run).
const PAIR_SAMPLE: usize = 100_000;
/// Share of each map's objects the seed keeps.
const KEEP: f64 = 0.99;

/// Keep a seeded `KEEP` share of the map's objects.
fn sample(map: &mut SpatialMap, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    map.objects.retain(|_| rng.next_f64() < KEEP);
}

struct Engine {
    ws: Workspace,
    left: SpatialDatabase,
    right: SpatialDatabase,
}

/// A join's deterministic figures: `JoinStats` bit for bit, and the
/// buffer-pool hits and misses it caused.
fn stats_bits(s: &JoinStats, pool: (u64, u64)) -> (u64, u64, u64, u64, (u64, u64)) {
    (
        s.mbr_pairs,
        s.mbr_join_ms.to_bits(),
        s.transfer_ms.to_bits(),
        s.exact_test_ms.to_bits(),
        pool,
    )
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let threads = nproc();

    let (mut gen_s, mut load_s) = (Vec::new(), Vec::new());
    let mut kept: Option<(Engine, Oracle, Oracle, u64)> = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (mut m1, g1) = common::generate(MapId::Map1);
        let (mut m2, g2) = common::generate(MapId::Map2);
        sample(&mut m1, cfg.seed ^ 0x006a_6f69_6e31);
        sample(&mut m2, cfg.seed ^ 0x006a_6f69_6e32);
        let (o1, o2) = (common::oracle_of(&m1), common::oracle_of(&m2));
        let bytes = m1.total_bytes() + m2.total_bytes();
        let t = Instant::now();
        let ws = Workspace::new(BUFFER_PAGES);
        let (left, _) = common::load(&ws, m1, threads);
        let (right, _) = common::load(&ws, m2, threads);
        let l = t.elapsed();
        gen_s.push((g1 + g2).as_secs_f64());
        load_s.push(l.as_secs_f64());
        kept = Some((Engine { ws, left, right }, o1, o2, bytes));
    }
    let (eng, mut o1, o2, bytes) = kept.expect("at least one set-up");
    let setup: Vec<f64> = gen_s.iter().zip(&load_s).map(|(g, l)| g + l).collect();
    let want: JoinAnswer = o1.join(&o2);
    let occupied = eng.left.occupied_pages() + eng.right.occupied_pages();
    out.notes.push(format!(
        "Map1 ⋈ Map2 series A: {} × {} objects, {} data pages vs {} buffer pages; oracle: {} candidate pairs, {} answers",
        o1.len(), o2.len(), occupied, BUFFER_PAGES, want.candidates, want.answers
    ));

    let pool = eng.ws.pool();
    let (mut lat, mut untraced, mut traced_lat) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let mut sim_s = 0.0;
    let (mut hits, mut misses) = (0u64, 0u64);
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed() < Duration::from_secs_f64(cfg.seconds) {
        let traced = cfg.trace && reps % 2 == 1;
        tr.set_on(traced);
        pool.reset(BUFFER_PAGES);
        let (h0, m0) = (pool.hits(), pool.misses());
        if traced {
            tr.time("epoch.pin", || drop(eng.left.store()));
        }
        tr.next_op();
        let depth = tr.begin("op.join");
        let steal0 = measure::steal_s();
        let t0 = Instant::now();
        let got = guarded(|| {
            tr.begin("join.filter");
            let mut cur = eng.left.join(&eng.right).run();
            tr.end();
            let (candidates, stats) = (cur.num_candidates() as u64, cur.stats());
            tr.begin("join.refine");
            let (mut answers, mut fingerprint) = (0u64, 0u64);
            for (a, b) in cur.by_ref() {
                answers += 1;
                fingerprint = fingerprint.wrapping_add(pair_hash(a, b));
            }
            tr.end_with(candidates);
            (
                JoinAnswer {
                    candidates,
                    answers,
                    fingerprint,
                },
                stats,
            )
        });
        // A join runs for about a second on one vCPU: long enough to take
        // out the time other guests took from it.
        let dt =
            1e6 * measure::less_steal(t0.elapsed().as_secs_f64(), measure::steal_s() - steal0, 1);
        tr.close_to(depth);
        lat.push(dt);
        if cfg.trace {
            (if traced {
                &mut traced_lat
            } else {
                &mut untraced
            })
            .push(dt);
        }
        let pool_delta = (pool.hits() - h0, pool.misses() - m0);
        if traced {
            hits += pool_delta.0;
            misses += pool_delta.1;
        }
        out.tally(matches!(&got, Some((a, _)) if *a == want));
        if let Some((_, stats)) = got {
            sim_s = stats.total_seconds();
            let bits = stats_bits(&stats, pool_delta);
            match &first {
                None => first = Some(bits),
                Some(f) => out.same("join stats and pool counts across repetitions", *f, bits),
            }
        }
        reps += 1;
    }
    let Some(stats) = first else {
        out.violations.push("no join repetition completed".into());
        return out;
    };

    let space_amp = common::space_amp(occupied, bytes);
    let (p50, p99) = (percentile(&lat, 50.0), percentile(&lat, 99.0));
    let (setup_s, rss) = (median(&setup), peak_rss_mb());
    let answers_per_s = want.answers as f64 / (p50 / 1e6);
    out.notes.push(format!("{reps} join repetitions"));
    let e = &mut out.e2e;
    e.put("setup_s", setup_s, "s");
    e.put("op_p50_us", p50, "us");
    e.put("op_p99_us", p99, "us");
    e.put("read_p50_us", p50, "us");
    e.put("read_p99_us", p99, "us");
    e.put("ops_per_s", answers_per_s, "1/s");
    e.put("sim_io_ms", sim_s * 1e3, "ms");
    e.put("space_amp", space_amp, "ratio");
    e.put("peak_rss_mb", rss, "MB");
    let n = &mut out.named;
    n.put("setup_s", setup_s, "s");
    n.put("join_s", p50 / 1e6, "s");
    n.put("join_sim_s", sim_s, "s");
    n.put("space_amp", space_amp, "ratio");
    n.put("peak_rss_mb", rss, "MB");

    if cfg.trace {
        // The join layer's I/O-only entry point, from a cold buffer, must
        // charge what the query charged.
        pool.reset(BUFFER_PAGES);
        let io_only = {
            let (l, r) = (eng.left.store(), eng.right.store());
            tr.time("join.io_only", || {
                SpatialJoin::new(&*l, &*r).run_io_only(TransferTechnique::Complete)
            })
        };
        out.same(
            "SpatialJoin::run_io_only vs JoinQuery::run (pairs, MBR ms, transfer ms)",
            (stats.0, stats.1, stats.2),
            (
                io_only.mbr_pairs,
                io_only.mbr_join_ms.to_bits(),
                io_only.transfer_ms.to_bits(),
            ),
        );
        // The exact pair test on a sample of the candidate pairs.
        let pairs = o1.candidate_pairs(&o2);
        let step = (pairs.len() / PAIR_SAMPLE).max(1);
        let sample: Vec<_> = pairs
            .iter()
            .step_by(step)
            .map(|&(a, b)| {
                (
                    o1.geometry(a).expect("left"),
                    o2.geometry(b).expect("right"),
                )
            })
            .collect();
        tr.begin("geom.pair_test");
        let hit = sample.iter().filter(|(a, b)| a.intersects(b)).count();
        tr.end_with(sample.len() as u64);
        std::hint::black_box(hit);

        let l = &mut out.layers;
        let med_s = |name: &str| median(&tr.durations_ns(name)) / 1e9;
        let (test_ns, tests) = tr.totals("geom.pair_test");
        let js = f64::from_bits;
        l.put("data.generate_s", median(&gen_s), "s");
        l.put("core.bulkload.load_s", median(&load_s), "s");
        l.put("storage.occupied_pages", occupied as f64, "count");
        l.put(
            "rtree.height",
            f64::from(eng.left.store().tree().height()),
            "count",
        );
        l.put("geom.pair_test_ns", test_ns / tests.max(1) as f64, "ns");
        l.put(
            "disk.pool_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        l.put("epoch.pin_ns", median(&tr.durations_ns("epoch.pin")), "ns");
        l.put("join.filter_s", med_s("join.filter"), "s");
        l.put("join.refine_s", med_s("join.refine"), "s");
        l.put("join.candidate_pairs", stats.0 as f64, "count");
        l.put(
            "join.answers_per_candidate",
            want.answers as f64 / want.candidates as f64,
            "ratio",
        );
        l.put("join.sim_mbr_ms", js(stats.1), "ms");
        l.put("join.sim_transfer_ms", js(stats.2), "ms");
        l.put("join.sim_exact_ms", js(stats.3), "ms");
        l.put("trace.unaccounted_share", tr.unaccounted_share(), "ratio");
        l.put(
            "trace.overhead_ratio",
            median(&traced_lat) / median(&untraced) - 1.0,
            "ratio",
        );
    }
    out
}
