//! Parallel-executor equivalence: `run_par(k)` / `run_batch(.., k)` /
//! `run_stream(.., k)` must return byte-identical result sets and
//! identical per-query and aggregate statistics to sequential execution
//! — for every organization model and every window technique — and the
//! parallel join must produce exactly the sequential join's pairs.

use spatialdb::geom::{Point, Polyline, Rect};
use spatialdb::storage::{OrganizationKind, QueryStats, WindowTechnique};
use spatialdb::{run_stream, DbOptions, IoStats, OpOutcome, SpatialDatabase, StreamOp, Workspace};

const ALL_KINDS: [OrganizationKind; 3] = [
    OrganizationKind::Secondary,
    OrganizationKind::Primary,
    OrganizationKind::Cluster,
];

const ALL_TECHNIQUES: [WindowTechnique; 4] = [
    WindowTechnique::Complete,
    WindowTechnique::Threshold,
    WindowTechnique::Slm,
    WindowTechnique::PageByPage,
];

/// A 10k-object street-like map on the unit square, deterministic.
fn load(ws: &Workspace, kind: OrganizationKind, n: u64) -> SpatialDatabase {
    let mut db = ws.create_database(DbOptions::new(kind));
    let side = (n as f64).sqrt().ceil() as u64;
    for i in 0..n {
        let x = (i % side) as f64 / side as f64;
        let y = (i / side) as f64 / side as f64;
        db.insert(
            i,
            Polyline::new(vec![
                Point::new(x, y),
                Point::new(x + 0.6 / side as f64, y + 0.3 / side as f64),
                Point::new(x + 1.2 / side as f64, y),
            ]),
        );
    }
    db.finish_loading();
    db
}

fn windows() -> Vec<Rect> {
    vec![
        Rect::new(0.0, 0.0, 0.3, 0.3),
        Rect::new(0.2, 0.2, 0.6, 0.5),
        Rect::new(0.5, 0.1, 0.9, 0.4),
        Rect::new(0.05, 0.55, 0.45, 0.95),
        Rect::new(0.45, 0.45, 0.55, 0.55),
        Rect::new(-1.0, -1.0, 2.0, 2.0),
    ]
}

/// The acceptance matrix: 3 organizations × 4 window techniques on a
/// 10k-object database; `run_par(8)`, `run_batch(.., 8)` and
/// `run_stream(.., 1 | 2 | 8)` must match sequential execution exactly
/// (ids, per-query stats and I/O, aggregates).
#[test]
fn run_par_matches_sequential_all_orgs_and_techniques() {
    const N: u64 = 10_000;
    for kind in ALL_KINDS {
        let ws = Workspace::new(512);
        let mut db = load(&ws, kind, N);
        assert_eq!(db.len(), N as usize);
        for technique in ALL_TECHNIQUES {
            // Sequential reference, from a cold object buffer.
            db.store_mut().begin_query();
            let mut seq_ids: Vec<Vec<u64>> = Vec::new();
            let mut seq_stats: Vec<QueryStats> = Vec::new();
            let mut seq_ios: Vec<IoStats> = Vec::new();
            let mut seq_agg = QueryStats::default();
            let mut seq_io = IoStats::new();
            for w in windows() {
                let cursor = db.query().window(w).technique(technique).run();
                seq_stats.push(cursor.stats());
                seq_ios.push(cursor.io_stats());
                seq_agg.accumulate(&cursor.stats());
                seq_io = seq_io.plus(&cursor.io_stats());
                seq_ids.push(cursor.ids());
            }
            // Parallel batch from the same cold start.
            db.store_mut().begin_query();
            let batch = ws.run_batch(
                windows()
                    .into_iter()
                    .map(|w| db.query().window(w).technique(technique))
                    .collect(),
                8,
            );
            assert_eq!(batch.len(), seq_ids.len());
            for (i, outcome) in batch.outcomes().iter().enumerate() {
                assert_eq!(outcome.ids(), &seq_ids[i][..], "{kind:?}/{technique:?}/{i}");
                assert_eq!(outcome.stats(), seq_stats[i], "{kind:?}/{technique:?}/{i}");
                assert_eq!(outcome.io_stats(), seq_ios[i], "{kind:?}/{technique:?}/{i}");
            }
            assert_eq!(batch.aggregate_stats(), seq_agg, "{kind:?}/{technique:?}");
            assert_eq!(batch.aggregate_io(), seq_io, "{kind:?}/{technique:?}");
            // The same read-only op list as a stream. Stream window ops
            // use the database's own technique (the DbOptions default).
            if technique == DbOptions::new(kind).technique {
                for threads in [1, 2, 8] {
                    db.store_mut().begin_query();
                    let ops = windows()
                        .into_iter()
                        .map(|window| StreamOp::Window { db: &db, window })
                        .collect();
                    let stream = run_stream(ops, threads);
                    assert_eq!(stream.len(), seq_ids.len());
                    for (i, op) in stream.outcomes().iter().enumerate() {
                        let OpOutcome::Query { ids, stats, io } = op else {
                            panic!("op {i} is a window query");
                        };
                        let at = format!("{kind:?}/stream/{threads} threads/{i}");
                        assert_eq!(ids, &seq_ids[i], "{at}");
                        assert_eq!(*stats, seq_stats[i], "{at}");
                        assert_eq!(*io, seq_ios[i], "{at}");
                    }
                    assert_eq!(stream.aggregate_io(), seq_io, "{kind:?}/{threads}");
                }
            }
            // Single-query run_par(8): same result set and stats as the
            // sequential cursor, for each window in isolation.
            for (i, w) in windows().into_iter().enumerate() {
                db.store_mut().begin_query();
                let outcome = db.query().window(w).technique(technique).run_par(8);
                db.store_mut().begin_query();
                let cursor = db.query().window(w).technique(technique).run();
                assert_eq!(
                    outcome.stats(),
                    cursor.stats(),
                    "{kind:?}/{technique:?}/{i}"
                );
                assert_eq!(
                    outcome.into_ids(),
                    cursor.ids(),
                    "{kind:?}/{technique:?}/{i}"
                );
            }
        }
    }
}

/// Mixed window + point batches, including the in-memory baseline.
#[test]
fn mixed_batch_matches_sequential() {
    let ws = Workspace::new(256);
    let mut db = load(&ws, OrganizationKind::Cluster, 2_000);
    let points: Vec<Point> = (0..40)
        .map(|i| Point::new((i % 8) as f64 / 8.0, (i / 8) as f64 / 5.0))
        .collect();
    db.store_mut().begin_query();
    let mut seq: Vec<(Vec<u64>, QueryStats)> = Vec::new();
    for w in windows() {
        let c = db.query().window(w).run();
        let s = c.stats();
        seq.push((c.ids(), s));
    }
    for p in &points {
        let c = db.query().point(*p).run();
        let s = c.stats();
        seq.push((c.ids(), s));
    }
    db.store_mut().begin_query();
    let mut queries = Vec::new();
    for w in windows() {
        queries.push(db.query().window(w));
    }
    for p in &points {
        queries.push(db.query().point(*p));
    }
    let batch = ws.run_batch(queries, 8);
    assert_eq!(batch.len(), seq.len());
    for (outcome, (ids, stats)) in batch.outcomes().iter().zip(&seq) {
        assert_eq!(outcome.ids(), &ids[..]);
        assert_eq!(outcome.stats(), *stats);
    }
}

/// Truly concurrent reads: many threads querying one database through
/// `&SpatialDatabase` (the `Send + Sync` read path) still produce exact
/// results, and each thread's per-query stats delta stays self-consistent
/// despite interleaved charges on the shared disk.
#[test]
fn concurrent_reads_are_exact() {
    let ws = Workspace::new(512);
    let mut db = load(&ws, OrganizationKind::Cluster, 2_000);
    db.store_mut().begin_query();
    let expected: Vec<Vec<u64>> = windows()
        .into_iter()
        .map(|w| db.query().window(w).run().ids())
        .collect();
    db.store_mut().begin_query();
    let db = &db;
    let global_before = db.store().disk().stats();
    // Every thread reports the sum of its per-query io_ms deltas. The
    // deltas are taken against the thread-local tally, so each disk
    // request lands in exactly *one* query's delta: the reported sums
    // must conserve — add up to the global counter growth — under any
    // scheduling. (With the pre-refactor global-counter deltas, each
    // query would also absorb the other threads' concurrent charges and
    // the sum would come out a multiple of the actual I/O.)
    let reported: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let expected = &expected;
                scope.spawn(move || {
                    let mut my_ms = 0.0;
                    for (i, w) in windows().into_iter().enumerate() {
                        let cursor = db.query().window(w).run();
                        my_ms += cursor.stats().io_ms;
                        assert_eq!(cursor.ids(), expected[i]);
                    }
                    my_ms
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let global = db.store().disk().stats().since(&global_before);
    assert!(
        (reported - global.io_ms).abs() < 1e-6,
        "threads reported {reported} ms but the disk recorded {} ms",
        global.io_ms
    );
}

/// `run_batch` on a workspace rejects queries that belong to another
/// workspace's disk — the determinism contract is per-workspace.
#[test]
#[should_panic(expected = "another workspace")]
fn run_batch_rejects_foreign_workspace_queries() {
    let ws_a = Workspace::new(64);
    let ws_b = Workspace::new(64);
    let db_b = load(&ws_b, OrganizationKind::Cluster, 50);
    let _ = ws_a.run_batch(vec![db_b.query().window(Rect::new(0.0, 0.0, 1.0, 1.0))], 2);
}

/// The parallel join returns exactly the sequential join's refined
/// pairs (and candidate count) at every thread count.
#[test]
fn parallel_join_matches_sequential() {
    fn build_pair(ws: &Workspace) -> (SpatialDatabase, SpatialDatabase) {
        let mut a = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        let mut b = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
        for i in 0..1_500u64 {
            let x = (i % 40) as f64 / 40.0;
            let y = (i / 40) as f64 / 40.0;
            a.insert(
                i,
                Polyline::new(vec![Point::new(x, y), Point::new(x + 0.03, y + 0.02)]),
            );
            b.insert(
                i,
                Polyline::new(vec![
                    Point::new(x + 0.015, y + 0.02),
                    Point::new(x + 0.045, y),
                ]),
            );
        }
        a.finish_loading();
        b.finish_loading();
        (a, b)
    }
    let ws = Workspace::new(1024);
    let (a, b) = build_pair(&ws);
    let seq_cursor = a.join(&b).run();
    let seq_stats = seq_cursor.stats();
    let seq_pairs = seq_cursor.pairs();
    assert!(!seq_pairs.is_empty());
    for threads in [1, 2, 8] {
        // Fresh identical workspace so buffer state cannot leak between
        // the runs being compared.
        let ws2 = Workspace::new(1024);
        let (a2, b2) = build_pair(&ws2);
        let par_cursor = a2.join(&b2).run_par(threads);
        let par_stats = par_cursor.stats();
        assert_eq!(par_stats.mbr_pairs, seq_stats.mbr_pairs, "{threads}");
        assert_eq!(par_stats.exact_test_ms, seq_stats.exact_test_ms);
        assert_eq!(par_cursor.pairs(), seq_pairs, "{threads} threads");
        // Determinism of the merged stats for a fixed thread count.
        let ws3 = Workspace::new(1024);
        let (a3, b3) = build_pair(&ws3);
        let again = a3.join(&b3).run_par(threads).stats();
        assert_eq!(again.mbr_join_ms, par_stats.mbr_join_ms, "{threads}");
        assert_eq!(again.transfer_ms, par_stats.transfer_ms, "{threads}");
    }
}

/// Batches may span several databases of one workspace.
#[test]
fn batch_spans_multiple_databases() {
    let ws = Workspace::new(512);
    let streets = load(&ws, OrganizationKind::Cluster, 1_000);
    let rivers = load(&ws, OrganizationKind::Secondary, 1_000);
    let w = Rect::new(0.1, 0.1, 0.6, 0.6);
    let batch = ws.run_batch(vec![streets.query().window(w), rivers.query().window(w)], 2);
    assert_eq!(batch.len(), 2);
    assert_eq!(batch.outcomes()[0].ids(), batch.outcomes()[1].ids());
}
