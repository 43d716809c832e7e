//! `window_read`: window queries on Map1 series A, cluster organization,
//! a 512-page buffer (the data is ~34.5k pages, so it does not fit).
//!
//! 678 windows at each of 0.001 %, 0.01 % and 0.1 % of the data space,
//! centred in object MBRs (§5.4), shuffled into one sequence. Each
//! repetition starts from a cold buffer and runs the sequence twice:
//! once by one closed-loop client (`query().window(w).run()` drained into
//! ids), once as one burst through `Workspace::run_batch` at `nproc`
//! threads. After the repetitions the same burst runs at one thread.

use crate::common::{self, guarded, Outcome, SETUPS};
use crate::measure::{self, median, nproc, peak_rss_mb, per_item_median, percentile, us};
use crate::oracle::Oracle;
use crate::trace::Tracer;
use crate::RunConfig;
use spatialdb::data::{rng::SmallRng, MapId};
use spatialdb::geom::{Point, Rect};
use spatialdb::storage::{QueryStats, WindowTechnique};
use spatialdb::{IoStats, SpatialDatabase, Workspace};
use std::time::{Duration, Instant};

pub const BUFFER_PAGES: usize = 512;
pub const AREAS: [f64; 3] = [1e-5, 1e-4, 1e-3];
pub const PER_AREA: usize = 678;
/// Repetitions needed for the cross-repetition determinism check.
const MIN_REPS: usize = 2;

/// The deterministic totals of one pass over the window sequence.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
struct PassTotals {
    candidates: usize,
    result_bytes: u64,
    io_ms_bits: u64,
    answers: u64,
    pages_read: u64,
    read_requests: u64,
    seeks: u64,
    /// Buffer-pool hits and misses over the pass.
    pool: (u64, u64),
}

impl PassTotals {
    fn of(stats: &QueryStats, io: &IoStats, answers: u64, pool: (u64, u64)) -> Self {
        PassTotals {
            candidates: stats.candidates,
            result_bytes: stats.result_bytes,
            io_ms_bits: stats.io_ms.to_bits(),
            answers,
            pages_read: io.pages_read,
            read_requests: io.read_requests,
            seeks: io.seeks,
            pool,
        }
    }

    fn io_ms(&self) -> f64 {
        f64::from_bits(self.io_ms_bits)
    }
}

/// Interleave the bits of a point's 16-bit grid coordinates (Z order).
fn z_key(x: f64, y: f64) -> u32 {
    let spread = |v: f64| {
        let mut b = (v.clamp(0.0, 1.0) * 65_535.0) as u32;
        b = (b | (b << 8)) & 0x00ff_00ff;
        b = (b | (b << 4)) & 0x0f0f_0f0f;
        b = (b | (b << 2)) & 0x3333_3333;
        (b | (b << 1)) & 0x5555_5555
    };
    spread(x) | (spread(y) << 1)
}

/// The windows of one run, in submission order.
///
/// As in §5.4, each centre is a random point in the MBR of a chosen
/// object, so the centres follow the MBR distribution. The objects are
/// chosen one per stratum of the map sorted in Z order of their MBR
/// centres, not independently: the set covers the map evenly, and its
/// total work moves between seeds by a fraction of what 678 independent
/// draws per area give.
pub fn windows(map: &spatialdb::SpatialMap, seed: u64) -> Vec<Rect> {
    let objs = &map.objects;
    let mut order: Vec<usize> = (0..objs.len()).collect();
    order.sort_by_key(|&i| {
        let c = objs[i].mbr.center();
        z_key(c.x, c.y)
    });
    let mut w = Vec::with_capacity(AREAS.len() * PER_AREA);
    for (i, &area) in AREAS.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(seed ^ (i as u64 + 1));
        let side = area.sqrt();
        for k in 0..PER_AREA {
            let stratum = k * objs.len() / PER_AREA..(k + 1) * objs.len() / PER_AREA;
            let m = objs[order[rng.gen_range(stratum)]].mbr;
            let c = Point::new(
                m.xmin + rng.next_f64() * m.width(),
                m.ymin + rng.next_f64() * m.height(),
            );
            w.push(Rect::centered(c, side, side));
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7769_6e64_6f77);
    for i in (1..w.len()).rev() {
        w.swap(i, rng.gen_range(0..i + 1));
    }
    w
}

struct Engine {
    ws: Workspace,
    db: SpatialDatabase,
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let threads = nproc();

    // Set-up, several times; the last one is kept.
    let (mut gen_s, mut load_s) = (Vec::new(), Vec::new());
    let mut kept: Option<(Engine, Vec<Rect>, Oracle, u64)> = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (map, g) = common::generate(MapId::Map1);
        let wins = windows(&map, cfg.seed);
        let oracle = common::oracle_of(&map);
        let bytes = map.total_bytes();
        let ws = Workspace::new(BUFFER_PAGES);
        let (db, l) = common::load(&ws, map, threads);
        gen_s.push(g.as_secs_f64());
        load_s.push(l.as_secs_f64());
        kept = Some((Engine { ws, db }, wins, oracle, bytes));
    }
    let (mut eng, wins, mut oracle, bytes) = kept.expect("at least one set-up");
    let setup: Vec<f64> = gen_s.iter().zip(&load_s).map(|(g, l)| g + l).collect();

    let expected: Vec<Vec<u64>> = wins.iter().map(|w| oracle.window(w)).collect();
    let occupied = eng.db.occupied_pages();
    let height = eng.db.store().tree().height();
    out.notes.push(format!(
        "Map1 series A: {} objects, {} data pages on disk vs {} buffer pages; {} windows ({} per area {:?}); {} threads",
        oracle.len(), occupied, BUFFER_PAGES, wins.len(), PER_AREA, AREAS, threads
    ));

    // Measured repetitions. The traced run records spans in every other
    // repetition; the untraced ones give the tracing overhead.
    let pool = eng.ws.pool();
    let mut closed_lat = Vec::new();
    let mut untraced_lat = Vec::new();
    let mut traced_lat = Vec::new();
    let (mut burst_s, mut burst_raw_s) = (Vec::new(), Vec::new());
    let mut first: Option<PassTotals> = None;
    let (mut hits, mut misses, mut contended) = (0u64, 0u64, 0u64);
    let mut filter_ns_per_pass = Vec::new();
    let mut node_count = 0u64;
    let mut probe_candidates = 0u64;
    let mut cand_buf = Vec::new();
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed() < Duration::from_secs_f64(cfg.seconds) {
        let traced = cfg.trace && reps % 2 == 1;
        tr.set_on(traced);

        // Closed loop, one client.
        eng.db.store_mut().begin_query();
        let (h0, m0) = (pool.hits(), pool.misses());
        let mut sum = QueryStats::default();
        let mut io_sum = IoStats::new();
        let mut answers = 0u64;
        let filter_before = tr.totals("core.query.filter").0;
        closed_lat.push(Vec::with_capacity(wins.len()));
        for (w, want) in wins.iter().zip(&expected) {
            tr.next_op();
            let depth = tr.begin("op.window");
            let t0 = Instant::now();
            let got = guarded(|| {
                tr.begin("core.query.filter");
                let mut cur = eng.db.query().window(*w).run();
                tr.end();
                let (stats, io) = (cur.stats(), cur.io_stats());
                tr.begin("core.query.refine");
                let ids: Vec<u64> = cur.by_ref().map(|(id, _)| id).collect();
                tr.end_with(ids.len() as u64);
                (ids, stats, io)
            });
            let dt = us(t0.elapsed());
            tr.close_to(depth);
            closed_lat.last_mut().expect("pass started").push(dt);
            if cfg.trace {
                (if traced {
                    &mut traced_lat
                } else {
                    &mut untraced_lat
                })
                .push(dt);
            }
            out.tally(matches!(&got, Some((ids, ..)) if ids == want));
            if let Some((ids, stats, io)) = got {
                sum.accumulate(&stats);
                io_sum = io_sum.plus(&io);
                answers += ids.len() as u64;
            }
            if traced {
                // Uncharged probes of the layers under the query.
                tr.begin("probe.window");
                tr.time("epoch.pin", || drop(eng.db.store()));
                let store = eng.db.store();
                tr.begin("storage.candidates");
                cand_buf.clear();
                store.window_candidates_into(w, &mut cand_buf);
                tr.end_with(cand_buf.len() as u64);
                tr.begin("geom.window_test");
                let pass = cand_buf
                    .iter()
                    .filter(|e| {
                        oracle
                            .geometry(e.oid.0)
                            .is_some_and(|g| g.intersects_rect(w))
                    })
                    .count();
                tr.end_with(cand_buf.len() as u64);
                std::hint::black_box(pass);
                node_count += store.tree().window_node_count(w) as u64;
                probe_candidates += cand_buf.len() as u64;
                drop(store);
                tr.end();
            }
        }
        let pool_delta = (pool.hits() - h0, pool.misses() - m0);
        if traced {
            hits += pool_delta.0;
            misses += pool_delta.1;
            filter_ns_per_pass.push(tr.totals("core.query.filter").0 - filter_before);
        }
        let totals = PassTotals::of(&sum, &io_sum, answers, pool_delta);
        match &first {
            None => first = Some(totals),
            Some(f) => out.same("window pass totals across repetitions", *f, totals),
        }

        // The same sequence as one burst at `threads` threads.
        eng.db.store_mut().begin_query();
        let c0 = pool.lock_contentions();
        let (raw, net, batch) = batch_run(&eng, &wins, threads, tr, "core.executor.batch");
        contended += pool.lock_contentions() - c0;
        burst_raw_s.push(raw);
        burst_s.push(net);
        check_batch(&mut out, "batch", batch, &expected, &totals);
        reps += 1;
    }
    let totals = first.expect("at least one repetition");

    // One burst at one thread: same answers and bit-identical stats.
    tr.set_on(cfg.trace);
    eng.db.store_mut().begin_query();
    let (_, batch_1t_s, batch) = batch_run(&eng, &wins, 1, tr, "core.executor.batch_1t");
    check_batch(&mut out, "1-thread batch", batch, &expected, &totals);

    if cfg.trace {
        // The charged storage call alone, from a cold buffer: it must
        // charge exactly what the queries charged.
        eng.db.store_mut().begin_query();
        let mut direct = QueryStats::default();
        for w in &wins {
            let store = eng.db.store();
            tr.begin("storage.window_query");
            let s = store.window_query(w, WindowTechnique::Slm);
            tr.end();
            direct.accumulate(&s);
        }
        out.same(
            "SpatialStore::window_query totals vs Query::run totals",
            (
                direct.candidates,
                direct.result_bytes,
                direct.io_ms.to_bits(),
            ),
            (totals.candidates, totals.result_bytes, totals.io_ms_bits),
        );
    }

    let q = wins.len() as f64;
    let per_burst = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{:.0}", q / s))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes.push(format!(
        "queries/s per burst at {threads} threads: {} (wall: {})",
        per_burst(&burst_s),
        per_burst(&burst_raw_s)
    ));
    let batch_s = median(&burst_s);
    let space_amp = common::space_amp(occupied, bytes);
    let sim = totals.io_ms() / (totals.result_bytes as f64 / 4096.0);
    let lat = per_item_median(&closed_lat);
    let (p50, p99) = (percentile(&lat, 50.0), percentile(&lat, 99.0));
    let (setup_s, rss) = (median(&setup), peak_rss_mb());
    out.notes.push(format!(
        "{reps} repetitions of {} closed-loop queries and one batch; {} candidates and {} answers per pass",
        wins.len(), totals.candidates, totals.answers
    ));
    let e = &mut out.e2e;
    e.put("setup_s", setup_s, "s");
    e.put("op_p50_us", p50, "us");
    e.put("op_p99_us", p99, "us");
    e.put("read_p50_us", p50, "us");
    e.put("read_p99_us", p99, "us");
    e.put("ops_per_s", q / batch_s, "1/s");
    e.put("sim_io_ms", sim, "ms");
    e.put("space_amp", space_amp, "ratio");
    e.put("peak_rss_mb", rss, "MB");
    let n = &mut out.named;
    n.put("setup_s", setup_s, "s");
    n.put("window_p50_us", p50, "us");
    n.put("window_p99_us", p99, "us");
    n.put("window_qps", q / batch_s, "queries/s");
    n.put("sim_ms_per_4kb", sim, "ms/4KB");
    n.put("space_amp", space_amp, "ratio");
    n.put("peak_rss_mb", rss, "MB");

    if cfg.trace {
        let l = &mut out.layers;
        let med_us = |tr: &Tracer, name: &str| median(&tr.durations_ns(name)) / 1e3;
        let (test_ns, tests) = tr.totals("geom.window_test");
        l.put("data.generate_s", median(&gen_s), "s");
        l.put("core.bulkload.load_s", median(&load_s), "s");
        l.put(
            "core.query.filter_us",
            med_us(tr, "core.query.filter"),
            "us",
        );
        l.put(
            "core.query.refine_us",
            med_us(tr, "core.query.refine"),
            "us",
        );
        l.put("core.executor.batch_s", batch_s, "s");
        l.put("core.executor.batch_1t_s", batch_1t_s, "s");
        l.put("core.executor.speedup", batch_1t_s / batch_s, "ratio");
        l.put(
            "core.executor.serial_share",
            median(&filter_ns_per_pass) / 1e9 / batch_s,
            "ratio",
        );
        l.put(
            "storage.window_query_us",
            med_us(tr, "storage.window_query"),
            "us",
        );
        l.put(
            "storage.candidates_us",
            med_us(tr, "storage.candidates"),
            "us",
        );
        l.put(
            "storage.answers_per_candidate",
            totals.answers as f64 / totals.candidates as f64,
            "ratio",
        );
        l.put("storage.occupied_pages", occupied as f64, "count");
        l.put(
            "rtree.nodes_per_query",
            node_count as f64 / (q * filter_ns_per_pass.len() as f64),
            "count",
        );
        l.put("rtree.height", f64::from(height), "count");
        l.put("geom.window_test_ns", test_ns / tests.max(1) as f64, "ns");
        l.put(
            "geom.window_tests",
            (probe_candidates / filter_ns_per_pass.len() as u64) as f64,
            "count",
        );
        l.put(
            "disk.pool_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        l.put(
            "disk.pool_lock_contentions",
            contended as f64 / reps as f64,
            "count",
        );
        l.put(
            "disk.pages_read_per_query",
            totals.pages_read as f64 / q,
            "count",
        );
        l.put(
            "disk.requests_per_query",
            totals.read_requests as f64 / q,
            "count",
        );
        l.put("disk.seeks_per_query", totals.seeks as f64 / q, "count");
        l.put("epoch.pin_ns", median(&tr.durations_ns("epoch.pin")), "ns");
        l.put("trace.unaccounted_share", tr.unaccounted_share(), "ratio");
        l.put(
            "trace.overhead_ratio",
            median(&traced_lat) / median(&untraced_lat) - 1.0,
            "ratio",
        );
    }
    out
}

/// A burst's outcome: the whole batch, and the pool hits and misses it
/// caused; `None` if `run_batch` panicked.
type Burst = Option<(spatialdb::BatchOutcome, (u64, u64))>;

/// Submit the window sequence as one `run_batch` burst. Returns its wall
/// time, the same less the time other guests took from the `threads`
/// vCPUs it kept busy (see [`measure::less_steal`]), and the outcome.
fn batch_run(
    eng: &Engine,
    wins: &[Rect],
    threads: usize,
    tr: &mut Tracer,
    span: &'static str,
) -> (f64, f64, Burst) {
    let pool = eng.ws.pool();
    let (h0, m0) = (pool.hits(), pool.misses());
    let queries = wins.iter().map(|w| eng.db.query().window(*w)).collect();
    tr.next_op();
    let depth = tr.begin(span);
    let steal0 = measure::steal_s();
    let t0 = Instant::now();
    let batch = guarded(|| eng.ws.run_batch(queries, threads));
    let wall = t0.elapsed().as_secs_f64();
    let steal = measure::steal_s() - steal0;
    tr.close_to(depth);
    let burst = batch.map(|b| (b, (pool.hits() - h0, pool.misses() - m0)));
    (wall, measure::less_steal(wall, steal, threads), burst)
}

/// Count every query of a burst, and hold the burst's totals to the
/// closed-loop pass's.
fn check_batch(
    out: &mut Outcome,
    what: &str,
    burst: Burst,
    expected: &[Vec<u64>],
    closed: &PassTotals,
) {
    let Some((batch, pool)) = burst else {
        for _ in expected {
            out.tally(false);
        }
        return;
    };
    let mut answers = 0;
    for (o, want) in batch.outcomes().iter().zip(expected) {
        out.tally(o.ids() == want.as_slice());
        answers += o.ids().len() as u64;
    }
    out.same(
        &format!("{what} totals vs closed-loop pass"),
        *closed,
        PassTotals::of(
            &batch.aggregate_stats(),
            &batch.aggregate_io(),
            answers,
            pool,
        ),
    );
}
