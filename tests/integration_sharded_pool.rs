//! Integration tests of the sharded buffer pool: the shard-equivalence
//! matrix (1-shard pool ≡ the classic single-lock pool for every
//! organization × window technique), the conservation invariants of
//! N > 1 shards, the overlapped batch executor, and the panic-safety of
//! the I/O tallies.
//!
//! The byte-level anchor — a 1-shard [`ShardedPool`] mirroring
//! `BufferPool` operation for operation — is asserted by the
//! randomized mirror test inside `spatialdb-disk`; these tests pin the
//! same contract end-to-end through the storage backends and executor.

use spatialdb::data::workload::WindowQuerySet;
use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::disk::IoStats;
use spatialdb::storage::{QueryStats, WindowTechnique};
use spatialdb::{DbOptions, EngineConfig, OrganizationKind, SpatialDatabase, Workspace};

const ALL_KINDS: [OrganizationKind; 3] = [
    OrganizationKind::Secondary,
    OrganizationKind::Primary,
    OrganizationKind::Cluster,
];

const ALL_TECHNIQUES: [WindowTechnique; 4] = [
    WindowTechnique::Complete,
    WindowTechnique::Threshold,
    WindowTechnique::Slm,
    WindowTechnique::Optimum,
];

const BUFFER_PAGES: usize = 192;

fn a1() -> DataSet {
    DataSet {
        series: SeriesId::A,
        map: MapId::Map1,
    }
}

fn test_map() -> SpatialMap {
    SpatialMap::generate(a1(), 0.003, GeometryMode::Full, 42)
}

fn load(ws: &Workspace, kind: OrganizationKind, map: &SpatialMap) -> SpatialDatabase {
    let mut db = ws.create_database(DbOptions::new(kind).smax_bytes(40 * 1024));
    for obj in &map.objects {
        db.insert(obj.id, obj.geometry.clone().unwrap());
    }
    db.finish_loading();
    db
}

/// Run the window workload and collect per-query stats + I/O deltas.
fn run_workload(
    db: &mut SpatialDatabase,
    queries: &WindowQuerySet,
    technique: WindowTechnique,
) -> Vec<(Vec<u64>, QueryStats, IoStats)> {
    queries
        .windows
        .iter()
        .map(|w| {
            db.store_mut().begin_query();
            let mut cursor = db.query().window(*w).technique(technique).run();
            let stats = cursor.stats();
            let io = cursor.io_stats();
            let ids: Vec<u64> = cursor.by_ref().map(|(id, _)| id).collect();
            (ids, stats, io)
        })
        .collect()
}

/// The equivalence matrix of the refactor's acceptance criterion: for
/// every organization × window technique, a workspace on the 1-shard
/// `ShardedPool` produces **byte-identical** per-query `QueryStats` and
/// `IoStats` to `Workspace::new` — which is the pre-sharding
/// configuration (`SharedPool` used to be the single-lock pool; the
/// 1-shard pool mirrors it operation for operation, see the
/// `one_shard_mirrors_buffer_pool` test in `spatialdb-disk`).
#[test]
fn one_shard_matrix_byte_identical_stats() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    for kind in ALL_KINDS {
        for technique in ALL_TECHNIQUES {
            let ws_plain = Workspace::new(BUFFER_PAGES);
            let mut db_plain = load(&ws_plain, kind, &map);
            let plain = run_workload(&mut db_plain, &queries, technique);

            let ws_sharded =
                Workspace::from_config(EngineConfig::default().buffer_pages(BUFFER_PAGES));
            let mut db_sharded = load(&ws_sharded, kind, &map);
            let sharded = run_workload(&mut db_sharded, &queries, technique);

            assert_eq!(
                plain, sharded,
                "{kind:?}/{technique:?}: 1-shard stats must be byte-identical"
            );
        }
    }
}

/// N > 1 shards: exact answers and candidate sets never change, the
/// capacity budget is conserved, and for backends whose page-access
/// sequence does not depend on buffer contents (secondary and primary:
/// plain `read_set`/`read_page` paths) the hit + miss classification
/// count is conserved too — every requested-page access is classified
/// exactly once, whatever the shard count.
#[test]
fn multi_shard_conserves_answers_budget_and_access_counts() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    for kind in ALL_KINDS {
        let ws_one = Workspace::from_config(EngineConfig::default().buffer_pages(BUFFER_PAGES));
        let mut db_one = load(&ws_one, kind, &map);
        let base = run_workload(&mut db_one, &queries, WindowTechnique::Slm);
        let base_accesses = ws_one.pool().hits() + ws_one.pool().misses();

        for shards in [2usize, 4] {
            let ws = Workspace::from_config(
                EngineConfig::default()
                    .buffer_pages(BUFFER_PAGES)
                    .shards(shards),
            );
            assert_eq!(ws.pool().num_shards(), shards);
            let quota_total: usize = (0..shards).map(|i| ws.pool().shard_capacity(i)).sum();
            assert_eq!(quota_total, BUFFER_PAGES, "budget conserved across quotas");

            let mut db = load(&ws, kind, &map);
            let run = run_workload(&mut db, &queries, WindowTechnique::Slm);
            for (i, ((ids, stats, _), (base_ids, base_stats, _))) in
                run.iter().zip(base.iter()).enumerate()
            {
                assert_eq!(ids, base_ids, "{kind:?} query {i}: answers changed");
                assert_eq!(
                    stats.candidates, base_stats.candidates,
                    "{kind:?} query {i}: candidate set changed"
                );
                assert_eq!(stats.result_bytes, base_stats.result_bytes);
            }
            // The pool never holds more pages than its budget.
            assert!(ws.pool().len() <= BUFFER_PAGES);
            if matches!(
                kind,
                OrganizationKind::Secondary | OrganizationKind::Primary
            ) {
                let accesses = ws.pool().hits() + ws.pool().misses();
                assert_eq!(
                    accesses, base_accesses,
                    "{kind:?}/{shards} shards: hit+miss count not conserved"
                );
            }
        }
    }
}

/// Region-keyed shard routing (`EngineConfig::routing(ByRegion)`): each
/// database file becomes one lock domain. Answers and candidate sets
/// never change versus page-hash routing, the budget is conserved, and
/// every page of one region really routes to one shard.
#[test]
fn region_routing_conserves_answers_and_partitions_regions() {
    use spatialdb::Routing;
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    for kind in ALL_KINDS {
        let ws_page =
            Workspace::from_config(EngineConfig::default().buffer_pages(BUFFER_PAGES).shards(4));
        let mut db_page = load(&ws_page, kind, &map);
        let base = run_workload(&mut db_page, &queries, WindowTechnique::Slm);

        let ws_region = Workspace::from_config(
            EngineConfig::default()
                .buffer_pages(BUFFER_PAGES)
                .shards(4)
                .routing(Routing::ByRegion),
        );
        assert_eq!(ws_region.pool().routing(), Routing::ByRegion);
        let mut db_region = load(&ws_region, kind, &map);
        let run = run_workload(&mut db_region, &queries, WindowTechnique::Slm);

        for (i, ((ids, stats, _), (base_ids, base_stats, _))) in
            run.iter().zip(base.iter()).enumerate()
        {
            assert_eq!(ids, base_ids, "{kind:?} query {i}: answers changed");
            assert_eq!(stats.candidates, base_stats.candidates);
            assert_eq!(stats.result_bytes, base_stats.result_bytes);
        }
        assert!(ws_region.pool().len() <= BUFFER_PAGES, "budget conserved");
        // Every page of a region routes to that region's one shard.
        let pool = ws_region.pool();
        for region in (0..4u16).map(spatialdb::disk::RegionId) {
            let home = pool.shard_of(&spatialdb::disk::PageId::new(region, 0));
            for offset in 1..100u64 {
                assert_eq!(
                    pool.shard_of(&spatialdb::disk::PageId::new(region, offset)),
                    home,
                    "{kind:?}: region {} split across shards",
                    region.0
                );
            }
        }
    }
}

/// Panic-safety of the I/O tallies: a refinement worker that panics
/// (here: refining a filter-only record bulk-loaded without exact
/// geometry) aborts the batch, but every charge the filter phase made
/// stays in the workspace's cumulative disk counters — nothing leaks.
#[test]
fn panicking_batch_worker_leaks_no_charges() {
    use spatialdb::geom::Rect;
    use spatialdb::rtree::ObjectId;
    use spatialdb::storage::ObjectRecord;

    let ws = Workspace::new(BUFFER_PAGES);
    let mut db = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
    // Filter-only records: refinement has no exact geometry and panics.
    let records: Vec<ObjectRecord> = (0..40u64)
        .map(|i| {
            let x = (i % 8) as f64 / 8.0;
            let y = (i / 8) as f64 / 8.0;
            ObjectRecord::new(ObjectId(i), Rect::new(x, y, x + 0.05, y + 0.05), 700)
        })
        .collect();
    db.store_mut().bulk_load(&records);
    db.finish_loading();

    let before = db.io_stats();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ws.run_batch(vec![db.query().window(Rect::new(0.0, 0.0, 1.0, 1.0))], 4)
    }));
    assert!(outcome.is_err(), "refining filter-only records must panic");
    let grown = db.io_stats().since(&before);
    // The filter step's page reads all survived the unwind.
    assert!(
        grown.read_requests > 0,
        "filter-phase charges leaked out of the cumulative stats"
    );
}

/// The stream engine's panic paths: a query whose refinement panics
/// (filter-only records) followed by an insert reaches the caller
/// without deadlock, and both the query's filter charges and the
/// insert's commit survive in the cumulative stats; a panic in phase A
/// reaches the caller too.
#[test]
fn panicking_stream_refinement_keeps_filter_and_commit_charges() {
    use spatialdb::geom::{Point, Polyline, Rect};
    use spatialdb::rtree::ObjectId;
    use spatialdb::storage::ObjectRecord;
    use spatialdb::{run_stream, StreamOp};

    let ws = Workspace::new(BUFFER_PAGES);
    let mut db = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
    let records: Vec<ObjectRecord> = (0..40u64)
        .map(|i| {
            let x = (i % 8) as f64 / 8.0;
            let y = (i / 8) as f64 / 8.0;
            ObjectRecord::new(ObjectId(i), Rect::new(x, y, x + 0.05, y + 0.05), 700)
        })
        .collect();
    db.store_mut().bulk_load(&records);
    db.finish_loading();

    let before = db.io_stats();
    let street = Polyline::new(vec![Point::new(0.3, 0.3), Point::new(0.35, 0.32)]);
    for threads in [1, 4] {
        let id = 1_000 + threads as u64;
        let ops = vec![
            StreamOp::Window {
                db: &db,
                window: Rect::new(0.0, 0.0, 1.0, 1.0),
            },
            StreamOp::Insert {
                db: &db,
                id,
                geometry: street.clone().into(),
            },
        ];
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_stream(ops, threads)));
        assert!(outcome.is_err(), "refining filter-only records must panic");
        assert!(db.geometry(id).is_some(), "the insert committed");
    }
    let grown = db.io_stats().since(&before);
    assert!(grown.read_requests > 0, "filter charges leaked out");
    assert!(grown.write_requests > 0, "commit charges leaked out");
    assert_eq!(db.pinned_readers(), 0, "a snapshot pin outlived the panic");

    // A panic in phase A itself (a duplicate insert) must release the
    // waiting workers instead of deadlocking the stream.
    let duplicate = vec![StreamOp::Insert {
        db: &db,
        id: 1_001,
        geometry: street.into(),
    }];
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_stream(duplicate, 4)));
    assert!(outcome.is_err(), "a duplicate insert must panic");
}
