//! `update_mix`: one closed-loop client on Map1 series A, cluster
//! organization, with a buffer larger than the store (it fits in the
//! cache). A seeded stream of 3,300 operations: ⅓ inserts of fresh
//! polylines from the Map1 generator, ⅓ removes of random live ids, ⅓
//! 0.001 %-area window reads, half of them centred on a vertex of a
//! recently written object so read-your-writes is checked. Each
//! repetition loads a fresh database and replays the same stream.

use crate::common::{self, guarded, Outcome};
use crate::measure::{median, nproc, peak_rss_mb, per_item_median, percentile, us};
use crate::oracle::Oracle;
use crate::trace::Tracer;
use crate::RunConfig;
use spatialdb::data::{rng::SmallRng, MapId, SpatialMap};
use spatialdb::geom::{Point, Rect};
use spatialdb::{GeometryMode, Workspace};
use std::collections::{HashSet, VecDeque};
use std::time::{Duration, Instant};

pub const BUFFER_PAGES: usize = 65_536;
pub const PER_KIND: usize = 1_100;
const READ_AREA: f64 = 1e-5;
/// Writes a "recent write" read may target.
const RECENT: usize = 8;
/// Ids of inserted objects start here, above every generated id.
const FRESH_ID_BASE: u64 = 1 << 40;
/// Every k-th write is followed (traced run only) by a timed clone of
/// the pinned store, the part of a commit the copy-on-write path pays.
const CLONE_SAMPLE_EVERY: usize = 8;

#[derive(Clone, Debug)]
enum Op {
    Insert(usize),
    Remove(u64),
    /// A window read; `probe` names an object the answer must (true) or
    /// must not (false) contain.
    Read {
        w: Rect,
        probe: Option<(u64, bool)>,
    },
}

/// The deterministic results of one replay of the stream.
#[derive(Clone, Copy, PartialEq, Debug)]
struct ReplayTotals {
    sim_write_ms_bits: u64,
    pages_written: u64,
    answers: u64,
    occupied_pages: u64,
    space_amp_bits: u64,
    /// Buffer-pool hits and misses over the replay.
    pool: (u64, u64),
}

fn vertex(rng: &mut SmallRng, obj: &spatialdb::data::MapObject) -> Point {
    let v = obj.geometry.as_ref().expect("full geometry").vertices();
    v[rng.gen_range(0..v.len())]
}

/// The operation stream, generated from the seed before anything is timed.
fn stream(map: &SpatialMap, fresh: &SpatialMap, seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x006d_6978);
    let mut kinds: Vec<u8> = (0..3 * PER_KIND).map(|i| (i % 3) as u8).collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..i + 1));
    }
    let side = READ_AREA.sqrt();
    let object = |id: u64| match id.checked_sub(FRESH_ID_BASE) {
        Some(k) => &fresh.objects[k as usize],
        None => &map.objects[id as usize],
    };
    let mut live: Vec<u64> = map.objects.iter().map(|o| o.id).collect();
    let mut live_set: HashSet<u64> = live.iter().copied().collect();
    let mut recent: VecDeque<u64> = VecDeque::new();
    let mut inserted = 0;
    let mut ops = Vec::with_capacity(kinds.len());
    for k in kinds {
        let op = match k {
            0 => {
                let id = FRESH_ID_BASE + inserted as u64;
                live.push(id);
                live_set.insert(id);
                recent.push_back(id);
                inserted += 1;
                Op::Insert(inserted - 1)
            }
            1 => {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                live_set.remove(&id);
                recent.push_back(id);
                Op::Remove(id)
            }
            _ if !recent.is_empty() && rng.gen_bool(0.5) => {
                let id = recent[rng.gen_range(0..recent.len())];
                let c = vertex(&mut rng, object(id));
                Op::Read {
                    w: Rect::centered(c, side, side),
                    probe: Some((id, live_set.contains(&id))),
                }
            }
            _ => {
                let m = object(live[rng.gen_range(0..live.len())]).mbr;
                let c = Point::new(
                    m.xmin + rng.next_f64() * m.width(),
                    m.ymin + rng.next_f64() * m.height(),
                );
                Op::Read {
                    w: Rect::centered(c, side, side),
                    probe: None,
                }
            }
        };
        if recent.len() > RECENT {
            recent.pop_front();
        }
        ops.push(op);
    }
    ops
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let threads = nproc();
    let min_reps = if cfg.trace { 2 } else { common::SETUPS };

    // Inputs: the stream and the fresh objects, generated once.
    let (map, _) = common::generate(MapId::Map1);
    let scale = (PER_KIND as f64 + 0.5) / MapId::Map1.num_objects() as f64;
    let fresh = SpatialMap::generate(
        common::series_a(MapId::Map1),
        scale,
        GeometryMode::Full,
        cfg.seed ^ 0x0066_7265_7368,
    );
    assert!(fresh.len() >= PER_KIND, "fresh map too small");
    let ops = stream(&map, &fresh, cfg.seed);
    drop(map);

    let (mut gen_s, mut load_s) = (Vec::new(), Vec::new());
    let (mut write_lat, mut read_lat, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut untraced_lat, mut traced_lat) = (Vec::new(), Vec::new());
    let mut first: Option<ReplayTotals> = None;
    let (mut retired_max, mut height, mut objects) = (0usize, 0u32, 0usize);
    let (mut hits, mut misses) = (0u64, 0u64);
    let start = Instant::now();
    let mut reps = 0;
    while reps < min_reps || start.elapsed() < Duration::from_secs_f64(cfg.seconds) {
        let traced = cfg.trace && reps % 2 == 1;
        tr.set_on(traced);

        let (map, g) = common::generate(MapId::Map1);
        let mut oracle: Oracle = common::oracle_of(&map);
        objects = map.len();
        let ws = Workspace::new(BUFFER_PAGES);
        let (mut db, l) = common::load(&ws, map, threads);
        gen_s.push(g.as_secs_f64());
        load_s.push(l.as_secs_f64());
        height = db.store().tree().height();
        let pool = ws.pool();
        let (h0, m0) = (pool.hits(), pool.misses());

        let (mut sim_ms, mut pages_written, mut answers, mut writes) = (0.0, 0u64, 0u64, 0usize);
        write_lat.push(Vec::with_capacity(2 * PER_KIND));
        read_lat.push(Vec::with_capacity(PER_KIND));
        let mut busy = Duration::ZERO;
        for op in &ops {
            tr.next_op();
            let (ok, dt) = match op {
                Op::Insert(k) => {
                    let id = FRESH_ID_BASE + *k as u64;
                    let g = common::geometry_of(&fresh.objects[*k]);
                    let io0 = db.io_stats();
                    let depth = tr.begin("op.insert");
                    let t0 = Instant::now();
                    let done = guarded(|| tr.time("core.db.commit", || db.insert(id, g)));
                    let dt = t0.elapsed();
                    tr.close_to(depth);
                    let io = db.io_stats().since(&io0);
                    (sim_ms, pages_written, writes) = (
                        sim_ms + io.io_ms,
                        pages_written + io.pages_written,
                        writes + 1,
                    );
                    oracle.insert(id, common::geometry_of(&fresh.objects[*k]));
                    write_lat.last_mut().expect("replay started").push(us(dt));
                    (done.is_some(), dt)
                }
                Op::Remove(id) => {
                    let io0 = db.io_stats();
                    let depth = tr.begin("op.remove");
                    let t0 = Instant::now();
                    let done = guarded(|| tr.time("core.db.commit", || db.remove(*id)));
                    let dt = t0.elapsed();
                    tr.close_to(depth);
                    let io = db.io_stats().since(&io0);
                    (sim_ms, pages_written, writes) = (
                        sim_ms + io.io_ms,
                        pages_written + io.pages_written,
                        writes + 1,
                    );
                    write_lat.last_mut().expect("replay started").push(us(dt));
                    (done == Some(true) && oracle.remove(*id), dt)
                }
                Op::Read { w, probe } => {
                    let depth = tr.begin("op.read");
                    let t0 = Instant::now();
                    let got = guarded(|| {
                        tr.begin("core.query.filter");
                        let cur = db.query().window(*w).run();
                        tr.end();
                        tr.begin("core.query.refine");
                        let ids: Vec<u64> = cur.map(|(id, _)| id).collect();
                        tr.end_with(ids.len() as u64);
                        ids
                    });
                    let dt = t0.elapsed();
                    tr.close_to(depth);
                    read_lat.last_mut().expect("replay started").push(us(dt));
                    let want = oracle.window(w);
                    answers += want.len() as u64;
                    let ok = got.is_some_and(|ids| {
                        let probe_ok = probe
                            .is_none_or(|(id, present)| ids.binary_search(&id).is_ok() == present);
                        ids == want && probe_ok
                    });
                    (ok, dt)
                }
            };
            busy += dt;
            if cfg.trace {
                (if traced {
                    &mut traced_lat
                } else {
                    &mut untraced_lat
                })
                .push(us(dt));
            }
            // Epoch leak check: no operation may leave a reader pinned.
            let unpinned = db.pinned_readers() == 0;
            out.tally(ok && unpinned);
            retired_max = retired_max.max(db.retired_snapshots());
            if traced && !matches!(op, Op::Read { .. }) && writes % CLONE_SAMPLE_EVERY == 0 {
                tr.time("epoch.pin", || drop(db.store()));
                let store = db.store();
                tr.time("storage.snapshot_clone", || drop(store.snapshot()));
            }
        }
        let pool_delta = (pool.hits() - h0, pool.misses() - m0);
        if traced {
            hits += pool_delta.0;
            misses += pool_delta.1;
        }
        let occupied = db.occupied_pages();
        let amp = common::space_amp(occupied, oracle.live_bytes());
        let totals = ReplayTotals {
            sim_write_ms_bits: (sim_ms / writes as f64).to_bits(),
            pages_written,
            answers,
            occupied_pages: occupied,
            space_amp_bits: amp.to_bits(),
            pool: pool_delta,
        };
        match &first {
            None => first = Some(totals),
            Some(f) => out.same("update_mix replay totals across repetitions", *f, totals),
        }
        rate.push(ops.len() as f64 / busy.as_secs_f64());
        // Retired snapshots must drain at the next quiescent point.
        db.finish_loading();
        out.tally(db.retired_snapshots() == 0);
        reps += 1;
    }
    let totals = first.expect("at least one repetition");
    let sim_write_ms = f64::from_bits(totals.sim_write_ms_bits);
    let space_amp = f64::from_bits(totals.space_amp_bits);
    let setup: Vec<f64> = gen_s.iter().zip(&load_s).map(|(g, l)| g + l).collect();
    out.notes.push(format!(
        "Map1 series A: {objects} objects, {} data pages after the mix vs {BUFFER_PAGES} buffer pages; {} ops per replay ({PER_KIND} inserts, {PER_KIND} removes, {PER_KIND} reads); {reps} replays",
        totals.occupied_pages, ops.len()
    ));

    let per_replay: Vec<String> = write_lat
        .iter()
        .map(|l| format!("{:.0}", median(l)))
        .collect();
    out.notes.push(format!(
        "write p50 per replay (us): {}",
        per_replay.join(" ")
    ));
    let (write_lat, read_lat) = (per_item_median(&write_lat), per_item_median(&read_lat));
    let (wp50, wp99) = (percentile(&write_lat, 50.0), percentile(&write_lat, 99.0));
    let (rp50, rp99) = (percentile(&read_lat, 50.0), percentile(&read_lat, 99.0));
    let (setup_s, rss) = (median(&setup), peak_rss_mb());
    let e = &mut out.e2e;
    e.put("setup_s", setup_s, "s");
    e.put("op_p50_us", wp50, "us");
    e.put("op_p99_us", wp99, "us");
    e.put("read_p50_us", rp50, "us");
    e.put("read_p99_us", rp99, "us");
    e.put("ops_per_s", median(&rate), "1/s");
    e.put("sim_io_ms", sim_write_ms, "ms");
    e.put("space_amp", space_amp, "ratio");
    e.put("peak_rss_mb", rss, "MB");
    let n = &mut out.named;
    n.put("setup_s", setup_s, "s");
    n.put("write_p50_us", wp50, "us");
    n.put("write_p99_us", wp99, "us");
    n.put("read_p50_us", rp50, "us");
    n.put("read_p99_us", rp99, "us");
    n.put("sim_write_ms", sim_write_ms, "ms");
    n.put("space_amp", space_amp, "ratio");
    n.put("peak_rss_mb", rss, "MB");

    if cfg.trace {
        let l = &mut out.layers;
        let med = |name: &str| median(&tr.durations_ns(name));
        let commit_us = med("core.db.commit") / 1e3;
        let clone_us = med("storage.snapshot_clone") / 1e3;
        l.put("data.generate_s", median(&gen_s), "s");
        l.put("core.bulkload.load_s", median(&load_s), "s");
        l.put("core.query.filter_us", med("core.query.filter") / 1e3, "us");
        l.put("core.query.refine_us", med("core.query.refine") / 1e3, "us");
        l.put("core.db.commit_rest_us", commit_us - clone_us, "us");
        l.put("storage.snapshot_clone_us", clone_us, "us");
        l.put(
            "storage.occupied_pages",
            totals.occupied_pages as f64,
            "count",
        );
        l.put("rtree.height", f64::from(height), "count");
        l.put(
            "disk.pool_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        l.put(
            "disk.pages_written_per_write",
            totals.pages_written as f64 / (2 * PER_KIND) as f64,
            "count",
        );
        l.put("epoch.pin_ns", med("epoch.pin"), "ns");
        l.put("epoch.retired_max", retired_max as f64, "count");
        l.put("trace.unaccounted_share", tr.unaccounted_share(), "ratio");
        l.put(
            "trace.overhead_ratio",
            median(&traced_lat) / median(&untraced_lat) - 1.0,
            "ratio",
        );
    }
    out
}
