//! What every workload shares: input generation, the timed set-up
//! (map generation + `bulk_load_par` + `finish_loading`), the per-run
//! outcome and the guarded execution of one operation.

use crate::measure::Metrics;
use crate::oracle::Oracle;
use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::{DbOptions, Geometry, OrganizationKind, SpatialDatabase, Workspace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Smax of series A (Table 1).
pub const SMAX_BYTES: u64 = 80 * 1024;
/// Grid resolution of the answer oracle.
pub const ORACLE_GRID: usize = 512;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Seed of the two maps. They stand in for the paper's fixed TIGER
/// extracts: the county layout a map seed draws moves join and window
/// costs by 50 % and more, so the maps stay fixed and `--seed` drives the
/// workload on them (windows, operation stream, inserted objects).
pub const MAP_SEED: u64 = 1994;

/// Everything a workload reports for one run.
#[derive(Default, Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Broken determinism or conservation checks. Any entry makes the
    /// run incorrect.
    pub violations: Vec<String>,
    /// End-to-end metrics under the names of `BENCHMARK.json`.
    pub e2e: Metrics,
    /// The same end-to-end figures under their workload-specific names.
    pub named: Metrics,
    /// Per-layer metrics (traced run only).
    pub layers: Metrics,
    /// One-line facts about the run (sizes, counts) for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation; `ok == false` counts it failed.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Require two figures of one deterministic quantity to agree
    /// bit for bit.
    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: T, b: T) {
        if a != b {
            self.violations
                .push(format!("{what}: {a:?} != {b:?} (must be bit-identical)"));
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Run one engine operation, turning a panic into `None` (counted as a
/// failed operation by the caller).
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

pub fn series_a(map: MapId) -> DataSet {
    DataSet {
        series: SeriesId::A,
        map,
    }
}

/// Generate a full-geometry series-A map at paper scale, timed.
pub fn generate(map: MapId) -> (SpatialMap, Duration) {
    let t = Instant::now();
    let m = SpatialMap::generate(series_a(map), 1.0, GeometryMode::Full, MAP_SEED);
    (m, t.elapsed())
}

/// The oracle's own copy of a map's exact geometry.
pub fn oracle_of(map: &SpatialMap) -> Oracle {
    let mut o = Oracle::new(ORACLE_GRID);
    for obj in &map.objects {
        o.insert(obj.id, geometry_of(obj));
    }
    o
}

pub fn geometry_of(obj: &spatialdb::data::MapObject) -> Geometry {
    obj.geometry
        .clone()
        .expect("GeometryMode::Full keeps the polyline")
        .into()
}

/// Create a cluster-organized database on `ws` and bulk-load `map` into
/// it with `threads` workers, timed.
pub fn load(ws: &Workspace, map: SpatialMap, threads: usize) -> (SpatialDatabase, Duration) {
    let t = Instant::now();
    let mut db =
        ws.create_database(DbOptions::new(OrganizationKind::Cluster).smax_bytes(SMAX_BYTES));
    let objects: Vec<(u64, Geometry)> = map
        .objects
        .into_iter()
        .map(|o| {
            let g = o.geometry.expect("GeometryMode::Full keeps the polyline");
            (o.id, g.into())
        })
        .collect();
    ws.bulk_load_par(&mut db, objects, threads);
    db.finish_loading();
    (db, t.elapsed())
}

/// Occupied bytes over the exact-object bytes they hold.
pub fn space_amp(occupied_pages: u64, object_bytes: u64) -> f64 {
    (occupied_pages * spatialdb::disk::PAGE_SIZE as u64) as f64 / object_bytes as f64
}
