//! The streaming query layer: [`Query`] builder, lazy [`ResultCursor`],
//! and the [`JoinQuery`] / [`JoinCursor`] pair for composable joins.
//!
//! A query runs in the paper's two steps. [`Query::run`] executes the
//! **filter step** eagerly — the store walks its R\*-tree and transfers
//! the exact representations of all candidates, charging the simulated
//! disk — and snapshots the I/O cost of *exactly this query* (the disk's
//! counters are deltas around the call, never workspace-cumulative
//! totals). The **refinement step** is lazy: the returned cursor tests
//! each candidate against its exact [`Geometry`] only as the caller
//! iterates, yielding `(id, &Geometry)` pairs in ascending id order.
//!
//! ```
//! use spatialdb::geom::{Point, Polyline, Rect};
//! use spatialdb::storage::WindowTechnique;
//! use spatialdb::{DbOptions, OrganizationKind, Workspace};
//!
//! let ws = Workspace::new(256);
//! let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
//! db.insert(1, Polyline::new(vec![Point::new(0.1, 0.1), Point::new(0.2, 0.2)]));
//! db.finish_loading();
//!
//! let mut cursor = db
//!     .query()
//!     .window(Rect::new(0.0, 0.0, 0.5, 0.5))
//!     .technique(WindowTechnique::Slm)
//!     .run();
//! let stats = cursor.stats(); // cost of this query alone
//! assert_eq!(stats.candidates, 1);
//! let (id, geometry) = cursor.next().unwrap();
//! assert_eq!(id, 1);
//! assert!(geometry.as_polyline().is_some());
//! ```

use crate::db::{SpatialDatabase, StoreRead};
use spatialdb_disk::{
    simulate, ArmPolicy, ArrayConfig, Arrivals, IoStats, LatencyStats, PageRequest, QueryTrace,
};
use spatialdb_geom::Geometry;
use spatialdb_geom::{Point, Rect};
use spatialdb_join::{JoinConfig, JoinStats, SpatialJoin};
use spatialdb_storage::{QueryStats, SpatialStore, TransferTechnique, WindowTechnique};

/// What a [`Query`] searches for.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Target {
    /// All objects sharing a point with the window.
    Window(Rect),
    /// All objects containing the point.
    Point(Point),
}

/// The filter step: run the store query for `target` and capture both
/// per-query deltas against the calling thread's I/O tally — so the
/// reported cost is this query's alone even while other threads query
/// concurrently. One implementation shared by the sequential cursor
/// ([`Query::run`]) and the execution engine.
///
/// With `traced`, the query goes through the stores' batched read path
/// ([`SpatialStore::window_query_traced`]): the same synchronous
/// execution, answers and deltas, plus the captured [`PageRequest`]
/// trace for the arm scheduler. Untraced, the trace is empty.
pub(crate) fn execute_filter(
    store: &dyn SpatialStore,
    target: &Target,
    technique: WindowTechnique,
    traced: bool,
) -> (QueryStats, IoStats, Vec<PageRequest>) {
    let disk = store.disk();
    let io_before = disk.local_stats();
    let (stats, trace) = match (target, traced) {
        (Target::Window(w), false) => (store.window_query(w, technique), Vec::new()),
        (Target::Point(p), false) => (store.point_query(p), Vec::new()),
        (Target::Window(w), true) => store.window_query_traced(w, technique),
        (Target::Point(p), true) => store.point_query_traced(p),
    };
    let io = disk.local_stats().since(&io_before);
    (stats, io, trace)
}

/// The refinement predicate: the exact geometry of `id` if it really
/// answers `target`, `None` if the candidate was a false MBR hit.
/// Shared by the sequential cursor and the parallel executor so the two
/// paths cannot drift.
///
/// # Panics
///
/// Objects loaded through `SpatialDatabase::insert` always have exact
/// geometry. Records bulk-loaded directly into the store are
/// filter-only: they cannot be refined, so refining such a database is
/// a usage error in every build profile.
pub(crate) fn refined_geometry<'g>(
    db: &'g SpatialDatabase,
    target: &Target,
    id: u64,
) -> Option<&'g Geometry> {
    // `get_any`: the candidate may come from a pinned snapshot older
    // than a concurrent delete — the tombstoned geometry must still
    // refine it.
    let Some(geometry) = db.geoms.get_any(id) else {
        panic!(
            "candidate {id} has no exact geometry; records bulk-loaded \
             via store_mut() are filter-only — read the query's stats() \
             instead of refining it, or insert through SpatialDatabase::insert"
        );
    };
    let hit = match target {
        Target::Window(w) => geometry.intersects_rect(w),
        Target::Point(p) => geometry.contains_point(p),
    };
    hit.then_some(geometry)
}

/// The join refinement predicate: whether the candidate pair `(a, b)`
/// really intersects on exact geometry. Shared by [`JoinCursor`] and
/// the execution engine so the two paths cannot drift.
///
/// # Panics
///
/// Panics when either side lacks exact geometry (records bulk-loaded
/// directly into the store are filter-only).
pub(crate) fn refine_pair(
    left: &SpatialDatabase,
    right: &SpatialDatabase,
    a: spatialdb_rtree::ObjectId,
    b: spatialdb_rtree::ObjectId,
) -> bool {
    // `get_any`: tombstoned geometry still refines pairs drawn from an
    // older pinned snapshot (see `refined_geometry`).
    let (Some(ga), Some(gb)) = (left.geoms.get_any(a.0), right.geoms.get_any(b.0)) else {
        panic!(
            "join candidate ({}, {}) lacks exact geometry; read stats() \
             instead of iterating, or insert through SpatialDatabase::insert",
            a.0, b.0
        );
    };
    ga.intersects(gb)
}

/// Sorted candidate ids of `target`, re-read from the warm directory
/// without charging I/O, using `scratch` as the entry buffer.
pub(crate) fn candidate_ids(
    store: &dyn SpatialStore,
    target: &Target,
    scratch: &mut Vec<spatialdb_rtree::LeafEntry>,
) -> Vec<u64> {
    match target {
        Target::Window(w) => store.window_candidates_into(w, scratch),
        Target::Point(p) => store.point_candidates_into(p, scratch),
    }
    let mut ids: Vec<u64> = scratch.iter().map(|e| e.oid.0).collect();
    ids.sort_unstable();
    ids
}

/// A fluent query under construction. Created by
/// [`SpatialDatabase::query`]; consumed by [`Query::run`].
#[must_use = "a Query does nothing until .run()"]
#[derive(Debug)]
pub struct Query<'a> {
    pub(crate) db: &'a SpatialDatabase,
    pub(crate) target: Option<Target>,
    pub(crate) technique: Option<WindowTechnique>,
}

impl<'a> Query<'a> {
    pub(crate) fn new(db: &'a SpatialDatabase) -> Self {
        Query {
            db,
            target: None,
            technique: None,
        }
    }

    /// Search for all objects sharing at least one point with `window`.
    pub fn window(mut self, window: Rect) -> Self {
        self.target = Some(Target::Window(window));
        self
    }

    /// Search for all objects containing `point`.
    pub fn point(mut self, point: Point) -> Self {
        self.target = Some(Target::Point(point));
        self
    }

    /// Override the window transfer technique for this query (defaults
    /// to the database's configured technique; only the cluster
    /// organization distinguishes them).
    pub fn technique(mut self, technique: WindowTechnique) -> Self {
        self.technique = Some(technique);
        self
    }

    /// Execute the filter step (charging the simulated disk) and return
    /// a lazy cursor over the refined results.
    ///
    /// # Panics
    ///
    /// Panics if neither [`window`](Query::window) nor
    /// [`point`](Query::point) was set.
    pub fn run(self) -> ResultCursor<'a> {
        let (db, target, technique) = self.lower();
        // One pinned snapshot for the whole cursor: the filter step and
        // the lazy candidate re-read see the same store version even if
        // writers publish in between.
        let store = db.store();
        let (stats, io, _) = execute_filter(&*store, &target, technique, false);
        ResultCursor {
            db,
            store,
            target,
            // Materialized on first iteration: a stats-only caller never
            // pays for the candidate re-read.
            candidates: None,
            next: 0,
            stats,
            io,
        }
    }

    /// The database, target and effective window technique of the
    /// query: what every execution path runs.
    ///
    /// # Panics
    ///
    /// Panics if neither [`window`](Query::window) nor
    /// [`point`](Query::point) was set.
    pub(crate) fn lower(self) -> (&'a SpatialDatabase, Target, WindowTechnique) {
        let target = self
            .target
            .expect("Query::run() needs .window(..) or .point(..) first");
        (self.db, target, self.technique.unwrap_or(self.db.technique))
    }

    /// Execute the query with the refinement step fanned across
    /// `n_threads` worker threads.
    ///
    /// The filter step (the part that charges the simulated disk) runs
    /// exactly as in [`run`](Query::run), on the calling thread, and the
    /// CPU-bound exact-geometry tests are partitioned across the
    /// execution engine's workers ([`crate::stream`]). The returned
    /// [`QueryOutcome`](crate::executor::QueryOutcome) therefore carries
    /// the **same result set and the same per-query stats** as the
    /// sequential cursor, materialized.
    pub fn run_par(self, n_threads: usize) -> crate::executor::QueryOutcome {
        crate::executor::run_one_par(self, n_threads)
    }
}

/// A lazy stream of query results.
///
/// Iterating yields `(object id, exact geometry)` for every candidate
/// that survives exact refinement, in ascending id order. The refinement
/// is performed per [`next`](Iterator::next) call — consuming only the
/// first few results does only the first few geometry tests.
///
/// The cursor also carries the cost of the query that produced it:
/// [`stats`](ResultCursor::stats) and
/// [`io_stats`](ResultCursor::io_stats) describe **this query alone**,
/// not the workspace's cumulative counters.
#[derive(Debug)]
pub struct ResultCursor<'a> {
    db: &'a SpatialDatabase,
    /// The pinned store snapshot this cursor reads. Held for the
    /// cursor's whole lifetime: concurrent writers publish around it,
    /// and the epoch pin keeps the snapshot from being reclaimed.
    store: StoreRead<'a>,
    target: Target,
    /// Sorted candidate ids, re-read lazily from the warm directory (no
    /// I/O charged) when iteration starts.
    candidates: Option<Vec<u64>>,
    next: usize,
    stats: QueryStats,
    io: IoStats,
}

impl<'a> ResultCursor<'a> {
    /// Filter-step statistics of this query alone (candidates, queried
    /// bytes, simulated I/O milliseconds).
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Detailed I/O counters of this query alone (requests, pages,
    /// seeks, latencies, milliseconds).
    pub fn io_stats(&self) -> IoStats {
        self.io
    }

    /// Number of candidates the filter step produced (refinement may
    /// discard some of them while iterating).
    pub fn num_candidates(&self) -> usize {
        self.stats.candidates
    }

    /// Drain the cursor into the sorted ids of all exact answers.
    pub fn ids(self) -> Vec<u64> {
        self.map(|(id, _)| id).collect()
    }

    /// The epoch this cursor's snapshot is pinned at (diagnostics and
    /// the snapshot-isolation tests).
    pub fn pinned_epoch(&self) -> u64 {
        self.store.pinned_epoch()
    }

    fn candidates(&mut self) -> &[u64] {
        let (store, target) = (&self.store, &self.target);
        self.candidates
            .get_or_insert_with(|| candidate_ids(&**store, target, &mut Vec::new()))
    }
}

impl<'a> Iterator for ResultCursor<'a> {
    type Item = (u64, &'a Geometry);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let i = self.next;
            let &id = self.candidates().get(i)?;
            self.next += 1;
            if let Some(geometry) = refined_geometry(self.db, &self.target, id) {
                return Some((id, geometry));
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let upper = match &self.candidates {
            Some(c) => c.len() - self.next,
            None => self.stats.candidates,
        };
        (0, Some(upper))
    }
}

/// A spatial join under construction. Created by
/// [`SpatialDatabase::join`]; consumed by [`JoinQuery::run`].
#[must_use = "a JoinQuery does nothing until .run()"]
#[derive(Debug)]
pub struct JoinQuery<'a> {
    left: &'a SpatialDatabase,
    right: &'a SpatialDatabase,
    config: JoinConfig,
}

impl<'a> JoinQuery<'a> {
    pub(crate) fn new(left: &'a SpatialDatabase, right: &'a SpatialDatabase) -> Self {
        JoinQuery {
            left,
            right,
            config: JoinConfig::default(),
        }
    }

    /// Object-transfer technique (only meaningful for cluster-organized
    /// operands).
    pub fn transfer(mut self, technique: TransferTechnique) -> Self {
        self.config.transfer = technique;
        self
    }

    /// CPU cost charged per exact geometry test (paper: 0.75 ms).
    pub fn exact_test_ms(mut self, ms: f64) -> Self {
        self.config.exact_test_ms = ms;
        self
    }

    /// Replace the whole join configuration.
    pub fn config(mut self, config: JoinConfig) -> Self {
        self.config = config;
        self
    }

    /// Run the MBR join and object transfer (charging the simulated
    /// disk) and return a lazy cursor over the exactly-refined pairs.
    ///
    /// # Panics
    ///
    /// Panics if the two databases do not share one workspace (disk +
    /// buffer pool).
    pub fn run(self) -> JoinCursor<'a> {
        let JoinQuery {
            left,
            right,
            config,
        } = self;
        let (pairs, stats) = {
            let (ls, rs) = (left.store(), right.store());
            SpatialJoin::new(&*ls, &*rs).run_with_pairs(config)
        };
        JoinCursor {
            left,
            right,
            pairs,
            next: 0,
            stats,
            latency: None,
        }
    }

    /// Run the join and additionally replay its captured request trace
    /// through the disk-arm scheduler with a `depth`-deep submission
    /// window under `policy`, attaching the join's simulated
    /// [`LatencyStats`] to the cursor
    /// ([`JoinCursor::latency_stats`]).
    ///
    /// The join executes synchronously — pairs and [`JoinStats`] are
    /// identical to [`run`](JoinQuery::run) — so the latency figure is
    /// the *overlapped* service time of exactly the requests the
    /// synchronous join charged.
    ///
    /// # Panics
    ///
    /// Panics if the two databases do not share one workspace.
    pub fn run_timed(self, depth: usize, policy: ArmPolicy) -> JoinCursor<'a> {
        let JoinQuery {
            left,
            right,
            config,
        } = self;
        let disk = left.store().disk();
        let (pairs, stats, trace) = {
            let (ls, rs) = (left.store(), right.store());
            SpatialJoin::new(&*ls, &*rs).run_with_pairs_traced(config)
        };
        let array = ArrayConfig {
            policy,
            ..ArrayConfig::default()
        };
        let traces = [QueryTrace {
            arrival_ms: 0.0,
            requests: trace,
        }];
        let latency = simulate(disk.params(), array, depth, Arrivals::Open, &traces)
            .0
            .pop();
        JoinCursor {
            left,
            right,
            pairs,
            next: 0,
            stats,
            latency,
        }
    }

    /// Run the join with the MBR phase partitioned across `n_threads`
    /// threads (see
    /// [`SpatialJoin::run_par`](spatialdb_join::SpatialJoin::run_par)).
    ///
    /// The candidate pairs — and therefore the refined results — are
    /// identical to [`run`](JoinQuery::run); the MBR-phase I/O cost is
    /// accounted on per-partition scratch disks and merged
    /// deterministically.
    ///
    /// # Panics
    ///
    /// Panics if the two databases do not share one workspace.
    pub fn run_par(self, n_threads: usize) -> JoinCursor<'a> {
        let JoinQuery {
            left,
            right,
            config,
        } = self;
        let (pairs, stats) = {
            let (ls, rs) = (left.store(), right.store());
            SpatialJoin::new(&*ls, &*rs).run_par_with_pairs(config, n_threads)
        };
        JoinCursor {
            left,
            right,
            pairs,
            next: 0,
            stats,
            latency: None,
        }
    }
}

/// A lazy stream of join results: candidate pairs in MBR-join processing
/// order, each tested on the exact geometries as the caller iterates.
#[derive(Debug)]
pub struct JoinCursor<'a> {
    left: &'a SpatialDatabase,
    right: &'a SpatialDatabase,
    pairs: Vec<(spatialdb_rtree::ObjectId, spatialdb_rtree::ObjectId)>,
    next: usize,
    stats: JoinStats,
    latency: Option<LatencyStats>,
}

impl<'a> JoinCursor<'a> {
    /// Cost breakdown of this join alone (§6.3 / Figure 17).
    pub fn stats(&self) -> JoinStats {
        self.stats
    }

    /// Simulated latency of the join's I/O under the arm scheduler —
    /// present only for [`JoinQuery::run_timed`].
    pub fn latency_stats(&self) -> Option<LatencyStats> {
        self.latency
    }

    /// Number of candidate pairs the MBR join produced.
    pub fn num_candidates(&self) -> usize {
        self.pairs.len()
    }

    /// Drain the cursor into the sorted exact result pairs.
    pub fn pairs(self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self.collect();
        out.sort_unstable();
        out
    }
}

impl<'a> Iterator for JoinCursor<'a> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.next < self.pairs.len() {
            let (a, b) = self.pairs[self.next];
            self.next += 1;
            if refine_pair(self.left, self.right, a, b) {
                return Some((a.0, b.0));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.pairs.len() - self.next))
    }
}
