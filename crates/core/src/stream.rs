//! The execution engine: one phase-A loop on the calling thread, one
//! refinement queue drained by worker threads. Every executor entry
//! point runs on it: [`run_stream`] for mixed read/write streams,
//! [`Workspace::run_batch`](crate::db::Workspace::run_batch) for query
//! batches (plain or timed), and
//! [`Query::run_par`](crate::query::Query::run_par) for one query.
//!
//! The engine splits each operation the way the paper splits a query:
//!
//! * **Phase A (stream order, calling thread):** every operation's
//!   I/O-charging half runs here, in submission order. A query pins a
//!   snapshot, runs its filter step (R\*-tree walk and object transfer,
//!   charging the simulated disk) and fixes its sorted candidate ids; a
//!   join pins both operands and runs the MBR join; an insert or delete
//!   commits through the `&self` shadow-paging write path and publishes
//!   a new root. Which page accesses become disk requests depends on the
//!   exact order pages enter the shared buffer, so one fixed order is
//!   what makes the cost figures reproducible. Per-op [`IoStats`]
//!   deltas are measured against the calling thread's local tally, so
//!   they are exact and independent of the worker count.
//! * **Refinement (worker threads, concurrent):** the CPU-bound
//!   exact-geometry tests of each query or join go onto a shared work
//!   queue the moment its phase-A half completes, and the workers drain
//!   the queue **while phase A keeps running**. A writer never waits for
//!   a reader's refinement, and a reader's candidates stay consistent:
//!   they were fixed under an epoch pin, and deletes only tombstone
//!   exact geometry ([`StableMap`](spatialdb_epoch::StableMap) keeps it
//!   addressable).
//!
//! A timed batch captures each filter step's request trace in phase A;
//! once phase A ends, the calling thread replays the traces through the
//! disk-arm scheduler ([`spatialdb_disk::simulate`]) while the workers
//! finish refining.
//!
//! Results are merged back by index, so every outcome (answers, per-op
//! stats, per-op I/O, simulated latencies) is **byte-identical at any
//! thread count**: determinism comes from phase A's fixed order, not
//! from barriers.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::db::SpatialDatabase;
use crate::query::{candidate_ids, execute_filter, refine_pair, refined_geometry, Query, Target};
use spatialdb_disk::{IoStats, PageRequest};
use spatialdb_geom::{Geometry, Point, Rect};
use spatialdb_join::{JoinConfig, SpatialJoin};
use spatialdb_rtree::{LeafEntry, ObjectId};
use spatialdb_storage::{QueryStats, WindowTechnique};

/// One operation of a mixed read/write stream.
#[derive(Debug)]
pub enum StreamOp<'a> {
    /// A window query: all objects sharing a point with the rectangle.
    Window {
        /// Database to query.
        db: &'a SpatialDatabase,
        /// The query window.
        window: Rect,
    },
    /// A point query: all objects containing the point.
    Point {
        /// Database to query.
        db: &'a SpatialDatabase,
        /// The query point.
        point: Point,
    },
    /// A spatial join between two databases of one workspace (the
    /// default [`JoinConfig`]).
    Join {
        /// Left operand.
        left: &'a SpatialDatabase,
        /// Right operand.
        right: &'a SpatialDatabase,
    },
    /// Insert an object (commits through the `&self` shadow-paging
    /// write path).
    Insert {
        /// Database to insert into.
        db: &'a SpatialDatabase,
        /// New object id (must not be stored yet).
        id: u64,
        /// Exact geometry of the object.
        geometry: Geometry,
    },
    /// Delete an object by id (a miss is recorded, not an error).
    Delete {
        /// Database to delete from.
        db: &'a SpatialDatabase,
        /// Object id to delete.
        id: u64,
    },
}

/// The materialized result of one [`StreamOp`].
#[derive(Clone, Debug)]
pub enum OpOutcome {
    /// A window/point query: refined ids (ascending), filter stats and
    /// this op's exact I/O delta.
    Query {
        /// Exact answers, sorted ascending.
        ids: Vec<u64>,
        /// Filter-step statistics of this query alone.
        stats: QueryStats,
        /// I/O charged by this query alone.
        io: IoStats,
    },
    /// A join: number of exactly-intersecting pairs and the I/O delta
    /// of the MBR join + object transfer.
    Join {
        /// Pairs surviving exact refinement.
        pairs: u64,
        /// I/O charged by this join alone.
        io: IoStats,
    },
    /// An insert commit.
    Insert {
        /// I/O charged by this insert alone.
        io: IoStats,
    },
    /// A delete commit.
    Delete {
        /// Whether the object existed (and was removed).
        existed: bool,
        /// I/O charged by this delete alone.
        io: IoStats,
    },
}

impl OpOutcome {
    /// This operation's exact I/O delta.
    pub fn io_stats(&self) -> IoStats {
        match self {
            OpOutcome::Query { io, .. }
            | OpOutcome::Join { io, .. }
            | OpOutcome::Insert { io }
            | OpOutcome::Delete { io, .. } => *io,
        }
    }

    /// Exact answers this operation produced: refined ids for a query,
    /// refined pairs for a join, 0 for writes.
    pub fn results(&self) -> u64 {
        match self {
            OpOutcome::Query { ids, .. } => ids.len() as u64,
            OpOutcome::Join { pairs, .. } => *pairs,
            OpOutcome::Insert { .. } | OpOutcome::Delete { .. } => 0,
        }
    }
}

/// Results of a mixed stream, one [`OpOutcome`] per op in stream order.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    outcomes: Vec<OpOutcome>,
}

impl StreamOutcome {
    /// Per-op outcomes in stream order.
    pub fn outcomes(&self) -> &[OpOutcome] {
        &self.outcomes
    }

    /// Number of operations executed.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` if the stream was empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Total exact answers across the stream (query ids + join pairs).
    pub fn results(&self) -> u64 {
        self.outcomes.iter().map(OpOutcome::results).sum()
    }

    /// Aggregate I/O, summed in stream order — identical to a
    /// sequential loop's accumulation.
    pub fn aggregate_io(&self) -> IoStats {
        let mut total = IoStats::new();
        for o in &self.outcomes {
            total = total.plus(&o.io_stats());
        }
        total
    }
}

/// One operation as phase A runs it: a [`StreamOp`] or a batch
/// [`Query`], with each query lowered to its target
/// and window technique.
pub(crate) enum Step<'a> {
    Query {
        db: &'a SpatialDatabase,
        target: Target,
        technique: WindowTechnique,
    },
    Join {
        left: &'a SpatialDatabase,
        right: &'a SpatialDatabase,
    },
    Insert {
        db: &'a SpatialDatabase,
        id: u64,
        geometry: Geometry,
    },
    Delete {
        db: &'a SpatialDatabase,
        id: u64,
    },
}

impl<'a> From<StreamOp<'a>> for Step<'a> {
    fn from(op: StreamOp<'a>) -> Self {
        match op {
            StreamOp::Window { db, window } => Step::Query {
                db,
                target: Target::Window(window),
                technique: db.technique,
            },
            StreamOp::Point { db, point } => Step::Query {
                db,
                target: Target::Point(point),
                technique: db.technique,
            },
            StreamOp::Join { left, right } => Step::Join { left, right },
            StreamOp::Insert { db, id, geometry } => Step::Insert { db, id, geometry },
            StreamOp::Delete { db, id } => Step::Delete { db, id },
        }
    }
}

impl<'a> From<Query<'a>> for Step<'a> {
    fn from(query: Query<'a>) -> Self {
        let (db, target, technique) = query.lower();
        Step::Query {
            db,
            target,
            technique,
        }
    }
}

/// A refinement unit: the pure-CPU half of a query or join, detached
/// from phase A the moment its candidates are fixed.
enum RefineJob<'a> {
    Query {
        index: usize,
        db: &'a SpatialDatabase,
        target: Target,
        candidates: Vec<u64>,
    },
    Join {
        index: usize,
        left: &'a SpatialDatabase,
        right: &'a SpatialDatabase,
        pairs: Vec<(ObjectId, ObjectId)>,
    },
}

/// What a worker hands back for a job, keyed by its index.
enum Refined {
    Ids(Vec<u64>),
    Pairs(u64),
}

impl RefineJob<'_> {
    fn run(self) -> (usize, Refined) {
        match self {
            RefineJob::Query {
                index,
                db,
                target,
                candidates,
            } => {
                let ids = candidates
                    .into_iter()
                    .filter(|&id| refined_geometry(db, &target, id).is_some())
                    .collect();
                (index, Refined::Ids(ids))
            }
            RefineJob::Join {
                index,
                left,
                right,
                pairs,
            } => {
                let n = pairs
                    .iter()
                    .filter(|&&(a, b)| refine_pair(left, right, a, b))
                    .count();
                (index, Refined::Pairs(n as u64))
            }
        }
    }
}

/// The shared refinement queue: phase A pushes, workers pop; closing
/// wakes everyone to drain and exit.
struct RefineQueue<'a> {
    state: Mutex<QueueState<'a>>,
    ready: Condvar,
}

struct QueueState<'a> {
    jobs: VecDeque<RefineJob<'a>>,
    closed: bool,
}

impl<'a> RefineQueue<'a> {
    fn new() -> Self {
        RefineQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn locked(&self) -> MutexGuard<'_, QueueState<'a>> {
        // lint: raw-lock-audited — Condvar::wait needs the std guard, which
        // DepMutex does not expose. The queue is strictly leaf-level: no
        // other lock is ever held while pushing, popping, or waiting here
        // (phase A pushes only after its commit/pin released everything).
        self.state.lock().expect("refinement queue poisoned")
    }

    fn push(&self, job: RefineJob<'a>) {
        self.locked().jobs.push_back(job);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.locked().closed = true;
        self.ready.notify_all();
    }

    /// Blocking pop; `None` once the queue is closed and drained.
    fn pop(&self) -> Option<RefineJob<'a>> {
        let mut state = self.locked();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .expect("refinement queue poisoned while waiting");
        }
    }
}

/// Closes the queue when phase A ends, also by unwinding: a panic in
/// phase A must release the workers, not leave them waiting forever.
struct CloseOnDrop<'q, 'a>(&'q RefineQueue<'a>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Run `phase_a` on the calling thread while `workers` scoped threads
/// drain the refinement jobs it pushes. Returns `phase_a`'s value and
/// every job's result with its index, in no particular order. A worker
/// panic propagates once phase A is done and the other workers drained.
fn refine_while<'a, R>(
    workers: usize,
    phase_a: impl FnOnce(&RefineQueue<'a>) -> R,
) -> (R, Vec<(usize, Refined)>) {
    let queue = RefineQueue::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(job) = queue.pop() {
                        done.push(job.run());
                    }
                    done
                })
            })
            .collect();
        let value = {
            let _close = CloseOnDrop(&queue);
            phase_a(&queue)
        };
        let refined = handles
            .into_iter()
            .flat_map(|h| h.join().expect("refinement worker panicked"))
            .collect();
        (value, refined)
    })
}

/// Phase A of one query: pin a snapshot, run the filter step and fix
/// the sorted candidate ids. Returns the filter stats, the query's exact
/// I/O delta, its request trace (empty unless `traced`, see
/// [`execute_filter`]) and the candidates.
pub(crate) fn filter_query(
    db: &SpatialDatabase,
    target: &Target,
    technique: WindowTechnique,
    traced: bool,
    scratch: &mut Vec<LeafEntry>,
) -> (QueryStats, IoStats, Vec<PageRequest>, Vec<u64>) {
    // One pinned snapshot for the filter step and the candidate re-read,
    // dropped on return so reclamation is never held up by an op that
    // already detached its refinement.
    let store = db.store();
    let (stats, io, trace) = execute_filter(&*store, target, technique, traced);
    let candidates = candidate_ids(&*store, target, scratch);
    (stats, io, trace, candidates)
}

/// Run `steps` through the engine on `threads` refinement workers.
///
/// With `traced`, every query step captures its request trace. `tail`
/// runs on the calling thread once phase A is done, while the workers
/// still refine; it sees the phase-A outcomes (query ids still empty)
/// and the traces of the query steps, in order.
pub(crate) fn execute<'a, T>(
    steps: Vec<Step<'a>>,
    threads: usize,
    traced: bool,
    tail: impl FnOnce(&[OpOutcome], Vec<Vec<PageRequest>>) -> T,
) -> (Vec<OpOutcome>, T) {
    let n = steps.len();
    let ((mut outcomes, value), refined) = refine_while(threads.clamp(1, n.max(1)), |queue| {
        let mut outcomes: Vec<OpOutcome> = Vec::with_capacity(n);
        let mut traces: Vec<Vec<PageRequest>> = Vec::new();
        let mut scratch: Vec<LeafEntry> = Vec::new();
        // Phase A: submission order on this thread. Every disk charge and
        // every commit happens here, so the per-op deltas cannot depend
        // on the worker count — and every refinement job is live on the
        // queue before the next commit runs, never after a barrier.
        for (index, step) in steps.into_iter().enumerate() {
            let outcome = match step {
                Step::Query {
                    db,
                    target,
                    technique,
                } => {
                    let (stats, io, trace, candidates) =
                        filter_query(db, &target, technique, traced, &mut scratch);
                    traces.push(trace);
                    queue.push(RefineJob::Query {
                        index,
                        db,
                        target,
                        candidates,
                    });
                    OpOutcome::Query {
                        ids: Vec::new(),
                        stats,
                        io,
                    }
                }
                Step::Join { left, right } => {
                    let disk = left.store().disk();
                    let before = disk.local_stats();
                    let pairs = {
                        let (ls, rs) = (left.store(), right.store());
                        SpatialJoin::new(&*ls, &*rs)
                            .run_with_pairs(JoinConfig::default())
                            .0
                    };
                    let io = disk.local_stats().since(&before);
                    queue.push(RefineJob::Join {
                        index,
                        left,
                        right,
                        pairs,
                    });
                    OpOutcome::Join { pairs: 0, io }
                }
                Step::Insert { db, id, geometry } => {
                    let disk = db.store().disk();
                    let before = disk.local_stats();
                    db.insert(id, geometry);
                    OpOutcome::Insert {
                        io: disk.local_stats().since(&before),
                    }
                }
                Step::Delete { db, id } => {
                    let disk = db.store().disk();
                    let before = disk.local_stats();
                    let existed = db.remove(id);
                    OpOutcome::Delete {
                        existed,
                        io: disk.local_stats().since(&before),
                    }
                }
            };
            outcomes.push(outcome);
        }
        let value = tail(&outcomes, traces);
        (outcomes, value)
    });
    // Merge the detached refinements back by index.
    for (index, result) in refined {
        match (&mut outcomes[index], result) {
            (OpOutcome::Query { ids, .. }, Refined::Ids(v)) => *ids = v,
            (OpOutcome::Join { pairs, .. }, Refined::Pairs(n)) => *pairs = n,
            _ => unreachable!("refinement result kind mismatches its op"),
        }
    }
    (outcomes, value)
}

/// Refine one query's sorted candidates on up to `threads` workers, as
/// contiguous chunks through the refinement queue; concatenating the
/// chunks in order keeps the ids ascending.
pub(crate) fn refine_chunked(
    db: &SpatialDatabase,
    target: Target,
    candidates: Vec<u64>,
    threads: usize,
) -> Vec<u64> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let workers = threads.clamp(1, candidates.len());
    let per = candidates.len().div_ceil(workers);
    let ((), mut parts) = refine_while(workers, |queue| {
        for (index, chunk) in candidates.chunks(per).enumerate() {
            queue.push(RefineJob::Query {
                index,
                db,
                target,
                candidates: chunk.to_vec(),
            });
        }
    });
    parts.sort_unstable_by_key(|&(index, _)| index);
    parts
        .into_iter()
        .flat_map(|(_, part)| match part {
            Refined::Ids(ids) => ids,
            Refined::Pairs(_) => unreachable!("a query chunk refines to ids"),
        })
        .collect()
}

/// Execute a mixed read/write stream on `threads` refinement workers.
///
/// See the [module docs](self) for the execution model. The returned
/// [`StreamOutcome`] is byte-identical at any `threads` value; all
/// databases referenced by the ops should share one workspace (their
/// per-op I/O is measured on the calling thread's tally).
pub fn run_stream(ops: Vec<StreamOp<'_>>, threads: usize) -> StreamOutcome {
    let steps = ops.into_iter().map(Step::from).collect();
    let (outcomes, ()) = execute(steps, threads, false, |_, _| ());
    StreamOutcome { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{DbOptions, Workspace};
    use spatialdb_geom::Polyline;
    use spatialdb_storage::OrganizationKind;

    fn street(x: f64, y: f64) -> Geometry {
        Polyline::new(vec![
            Point::new(x, y),
            Point::new((x + 0.01).min(1.0), (y + 0.005).min(1.0)),
        ])
        .into()
    }

    fn loaded_db(ws: &Workspace, n: u64) -> SpatialDatabase {
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        for i in 0..n {
            let f = i as f64 / n as f64;
            db.insert(i, street(f * 0.9, (f * 7.0) % 0.9));
        }
        db.finish_loading();
        db
    }

    fn mixed_ops<'a>(db: &'a SpatialDatabase, other: &'a SpatialDatabase) -> Vec<StreamOp<'a>> {
        vec![
            StreamOp::Window {
                db,
                window: Rect::new(0.0, 0.0, 0.6, 0.6),
            },
            StreamOp::Insert {
                db,
                id: 10_000,
                geometry: street(0.5, 0.5),
            },
            StreamOp::Point {
                db,
                point: Point::new(0.305, 0.135),
            },
            StreamOp::Join {
                left: db,
                right: other,
            },
            StreamOp::Delete { db, id: 3 },
            StreamOp::Window {
                db,
                window: Rect::new(0.4, 0.4, 1.0, 1.0),
            },
            StreamOp::Delete { db, id: 999_999 },
        ]
    }

    #[test]
    fn stream_outcome_is_identical_at_any_thread_count() {
        let run = |threads: usize| {
            let ws = Workspace::new(256);
            let a = loaded_db(&ws, 40);
            let b = loaded_db(&ws, 25);
            let out = run_stream(mixed_ops(&a, &b), threads);
            (format!("{out:?}"), out.results(), out.aggregate_io())
        };
        let one = run(1);
        for threads in [2, 8] {
            assert_eq!(one, run(threads), "diverged at {threads} threads");
        }
    }

    #[test]
    fn writes_take_effect_in_stream_order() {
        let ws = Workspace::new(256);
        let a = loaded_db(&ws, 40);
        let b = loaded_db(&ws, 25);
        let out = run_stream(mixed_ops(&a, &b), 4);
        assert_eq!(out.len(), 7);
        // The insert landed before the second window; the delete of id 3
        // happened after the first window (which still saw it).
        let OpOutcome::Query { ids: first, .. } = &out.outcomes()[0] else {
            panic!("op 0 is a window");
        };
        assert!(first.contains(&3), "op 0 predates the delete");
        let OpOutcome::Query { ids: last, .. } = &out.outcomes()[5] else {
            panic!("op 5 is a window");
        };
        assert!(last.contains(&10_000), "op 5 follows the insert");
        assert!(!last.contains(&3), "op 5 follows the delete");
        let OpOutcome::Delete { existed, .. } = out.outcomes()[4] else {
            panic!("op 4 is a delete");
        };
        assert!(existed);
        let OpOutcome::Delete { existed: miss, .. } = out.outcomes()[6] else {
            panic!("op 6 is a delete");
        };
        assert!(!miss, "deleting an unknown id reports a miss");
        assert!(a.geometry(3).is_none());
        assert!(a.geometry(10_000).is_some());
    }

    #[test]
    fn per_op_io_sums_to_the_global_delta() {
        let ws = Workspace::new(256);
        let a = loaded_db(&ws, 40);
        let b = loaded_db(&ws, 25);
        let before = ws.disk().stats();
        let out = run_stream(mixed_ops(&a, &b), 3);
        let global = ws.disk().stats().since(&before);
        let attributed = out.aggregate_io();
        // Integer counters exactly; io_ms within float-summation
        // tolerance (the global counter accumulates in a different
        // association order than the per-op deltas).
        assert_eq!(attributed.read_requests, global.read_requests);
        assert_eq!(attributed.pages_read, global.pages_read);
        assert_eq!(attributed.write_requests, global.write_requests);
        assert_eq!(attributed.pages_written, global.pages_written);
        assert_eq!(attributed.seeks, global.seeks);
        assert_eq!(attributed.latencies, global.latencies);
        assert!((attributed.io_ms - global.io_ms).abs() <= 1e-6 * global.io_ms.abs().max(1.0));
    }
}
