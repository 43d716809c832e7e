//! Query batches and single queries on the execution engine.
//!
//! A batch is a list of independent window/point queries, possibly
//! against several databases of one workspace. [`run_batch`] lowers it
//! onto the engine in [`crate::stream`]: the filter steps (R\*-tree walk
//! and object transfer, the part that charges the simulated disk) run in
//! submission order on the calling thread, and the exact-geometry
//! refinement runs on worker threads **while** later filter steps are
//! still running. Per-query and aggregate [`QueryStats`]/[`IoStats`]
//! are therefore *identical* to running the same queries sequentially,
//! and every outcome is byte-identical at any thread count.
//!
//! An [`ExecPlan`] picks the worker count and the [`FilterMode`]: a bare
//! thread count (`run_batch(queries, 8)`) runs the plain batch;
//! [`ExecPlan::timed`] additionally replays each filter step's captured
//! request trace through the disk-arm scheduler and attaches per-query
//! [`LatencyStats`] to the outcomes.
//!
//! Entry points: [`Query::run_par`](crate::query::Query::run_par) for
//! one query, and [`Workspace::run_batch`](crate::db::Workspace::run_batch)
//! for a batch.

use crate::query::Query;
use crate::stream::{execute, filter_query, refine_chunked, OpOutcome, Step};
use spatialdb_disk::{
    simulate, ArmPolicy, ArmStats, ArrayConfig, Arrivals, IoStats, LatencyStats, QueryTrace,
    RotationModel, StripePolicy,
};
use spatialdb_storage::QueryStats;

/// Materialized result of one query executed by the parallel executor.
///
/// Carries exactly what the sequential
/// [`ResultCursor`](crate::query::ResultCursor) would have produced:
/// the refined ids in ascending order and the per-query cost deltas.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    ids: Vec<u64>,
    stats: QueryStats,
    io: IoStats,
    latency: Option<LatencyStats>,
}

impl QueryOutcome {
    /// The exact answers (ids of objects surviving refinement), sorted
    /// ascending — byte-identical to the sequential cursor's
    /// [`ids`](crate::query::ResultCursor::ids).
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Consume the outcome, returning the sorted ids.
    pub fn into_ids(self) -> Vec<u64> {
        self.ids
    }

    /// Filter-step statistics of this query alone.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Detailed I/O counters of this query alone.
    pub fn io_stats(&self) -> IoStats {
        self.io
    }

    /// Simulated latency of this query under the disk-arm scheduler —
    /// present only for batches run under
    /// [`FilterMode::OverlappedIo`] (queue wait, service and completion
    /// time in simulated ms).
    pub fn latency_stats(&self) -> Option<LatencyStats> {
        self.latency
    }
}

/// Results of a batch run: one [`QueryOutcome`] per submitted query, in
/// submission order, plus deterministic aggregates.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    outcomes: Vec<QueryOutcome>,
    arm_stats: Vec<ArmStats>,
    inter_arrival_ms: f64,
}

impl BatchOutcome {
    /// Per-query outcomes in submission order.
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }

    /// Per-arm cumulative statistics of the simulated disk array
    /// (utilization, mean queue depth), indexed by arm — non-empty only
    /// for batches run under [`FilterMode::OverlappedIo`].
    pub fn arm_stats(&self) -> &[ArmStats] {
        &self.arm_stats
    }

    /// The open-arrival spacing the timed run actually used: query *i*
    /// arrived at `i · inter_arrival_ms` on the simulated clock. Derived
    /// from the batch's own mean service time under
    /// [`Arrival::Open`]; `0.0` for untimed batches and closed bursts.
    pub fn inter_arrival_ms(&self) -> f64 {
        self.inter_arrival_ms
    }

    /// Number of queries executed.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` if the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Aggregate [`QueryStats`] accumulated in submission order —
    /// identical to accumulating the stats of a sequential loop over the
    /// same queries (same values, same floating-point summation order).
    pub fn aggregate_stats(&self) -> QueryStats {
        let mut total = QueryStats::default();
        for o in &self.outcomes {
            total.accumulate(&o.stats);
        }
        total
    }

    /// Aggregate I/O counters, summed in submission order.
    pub fn aggregate_io(&self) -> IoStats {
        let mut total = IoStats::new();
        for o in &self.outcomes {
            total = total.plus(&o.io);
        }
        total
    }
}

impl IntoIterator for BatchOutcome {
    type Item = QueryOutcome;
    type IntoIter = std::vec::IntoIter<QueryOutcome>;

    fn into_iter(self) -> Self::IntoIter {
        self.outcomes.into_iter()
    }
}

/// When the queries of a timed batch arrive on the simulated clock
/// (the arrival process of [`FilterMode::OverlappedIo`]).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum Arrival {
    /// All queries arrive at time 0 — a closed burst with maximal
    /// queueing. The default.
    #[default]
    Burst,
    /// Fixed spacing: query *i* arrives at `i ·` the given milliseconds.
    Every(f64),
    /// Open arrivals at a load factor: the spacing is the batch's own
    /// mean synchronous service time (`Σ io_ms / n`, measured during the
    /// traced filter phase) divided by the load. `Open(1.0)` keeps the
    /// arm saturated on average; lower loads thin the queue. The factor
    /// must be positive.
    Open(f64),
    /// A closed loop of `clients` concurrent clients, each issuing its
    /// next query `think_ms` after its previous one **completes**:
    /// arrivals self-throttle under load, producing the classic
    /// response-time-vs-clients curve
    /// ([`Arrivals::Closed`]).
    Closed {
        /// Concurrent clients (0 is treated as 1). Client `c` issues
        /// queries `c, c + clients, c + 2·clients, …` of the batch.
        clients: usize,
        /// Think time between a query's completion and the same
        /// client's next arrival (simulated ms).
        think_ms: f64,
    },
}

impl Arrival {
    /// Open arrivals at `load` (see [`Arrival::Open`]).
    pub fn open(load: f64) -> Self {
        assert!(load > 0.0, "arrival load factor must be positive");
        Arrival::Open(load)
    }

    /// Fixed spacing of `ms` simulated milliseconds between arrivals.
    pub fn every_ms(ms: f64) -> Self {
        assert!(ms >= 0.0, "arrival spacing must be non-negative");
        Arrival::Every(ms)
    }

    /// A closed loop of `clients` clients with `think_ms` think time
    /// (see [`Arrival::Closed`]).
    pub fn closed(clients: usize, think_ms: f64) -> Self {
        assert!(clients > 0, "a closed loop needs at least one client");
        assert!(think_ms >= 0.0, "think time must be non-negative");
        Arrival::Closed { clients, think_ms }
    }

    /// The inter-arrival spacing in ms, given the batch's mean
    /// synchronous service time. Closed loops have no fixed spacing
    /// (arrivals chain off completions), so they report 0 like bursts.
    fn spacing_ms(&self, mean_service_ms: f64) -> f64 {
        match *self {
            Arrival::Burst | Arrival::Closed { .. } => 0.0,
            Arrival::Every(ms) => ms,
            Arrival::Open(load) => {
                assert!(load > 0.0, "arrival load factor must be positive");
                mean_service_ms / load
            }
        }
    }
}

/// Configuration of the overlapped-I/O filter mode
/// ([`FilterMode::OverlappedIo`]): how deep each query's submission
/// window is, how the arms order outstanding requests, and how fast
/// queries arrive.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OverlapConfig {
    /// Maximum requests one query keeps outstanding on the arm: its
    /// first `depth` requests are submitted at arrival, each completion
    /// releases the next. Depth 1 reproduces the synchronous request
    /// order.
    pub depth: usize,
    /// Arm scheduling policy across the queries' outstanding requests.
    pub policy: ArmPolicy,
    /// The arrival process stamping each query's arrival time.
    pub arrival: Arrival,
    /// Number of independent disk arms the simulated array declusters
    /// regions across (0 is treated as 1). With 1 arm (the default) the
    /// timeline is byte-identical to the single-arm scheduler whatever
    /// the stripe policy.
    pub arms: usize,
    /// How regions map to arms (see [`StripePolicy`]).
    pub stripe: StripePolicy,
    /// Rotational-latency model of the arms' timelines (the charged
    /// accounting always stays on the flat §5.1 average).
    pub rotation: RotationModel,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        OverlapConfig {
            depth: 4,
            policy: ArmPolicy::Elevator,
            arrival: Arrival::Burst,
            arms: 1,
            stripe: StripePolicy::RoundRobin,
            rotation: RotationModel::FlatAverage,
        }
    }
}

/// Whether a batch also simulates its I/O timeline.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum FilterMode {
    /// Answers and per-query stats only. The default, and the mode
    /// every paper figure runs under.
    #[default]
    Serialized,
    /// The overlapped-I/O mode: filter steps execute in submission
    /// order through the stores' **batched read path** (answers,
    /// `QueryStats` and charged `IoStats` byte-identical to
    /// [`Serialized`](FilterMode::Serialized)), each query's captured
    /// requests are replayed through the **disk-arm scheduler** with a
    /// depth-*k* submission window under the configured arrival
    /// process, and the per-query [`LatencyStats`] land on the outcomes
    /// ([`QueryOutcome::latency_stats`]). The replay runs on the calling
    /// thread while the workers refine. Deterministic at every thread
    /// count.
    OverlappedIo(OverlapConfig),
}

/// How a batch executes: worker-thread count plus [`FilterMode`].
///
/// The one argument of [`run_batch`] (and of
/// [`Workspace::run_batch`](crate::db::Workspace::run_batch)). A bare
/// `usize` converts into the plain plan, so `run_batch(queries, 8)`
/// keeps working:
///
/// ```
/// use spatialdb::executor::{ExecPlan, OverlapConfig};
///
/// let plain = ExecPlan::threads(8);
/// let timed = ExecPlan::threads(8).timed(OverlapConfig::default());
/// # let _ = (plain, timed);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ExecPlan {
    /// Worker threads for the refinement step.
    pub threads: usize,
    /// Whether the batch also simulates its I/O timeline.
    pub mode: FilterMode,
}

impl ExecPlan {
    /// A plain plan on `n` worker threads.
    pub fn threads(n: usize) -> Self {
        ExecPlan {
            threads: n,
            mode: FilterMode::Serialized,
        }
    }

    /// Replay the filter steps through the disk-arm scheduler
    /// ([`FilterMode::OverlappedIo`]), attaching per-query
    /// [`LatencyStats`] to the outcomes.
    #[must_use]
    pub fn timed(mut self, cfg: OverlapConfig) -> Self {
        self.mode = FilterMode::OverlappedIo(cfg);
        self
    }
}

impl Default for ExecPlan {
    fn default() -> Self {
        ExecPlan::threads(1)
    }
}

impl From<usize> for ExecPlan {
    fn from(n_threads: usize) -> Self {
        ExecPlan::threads(n_threads)
    }
}

/// Run a batch under an [`ExecPlan`] (a bare thread count converts to
/// the plain plan) on the execution engine: filter steps in submission
/// order on the calling thread, refinement on the plan's worker threads
/// meanwhile, outcomes in submission order.
///
/// # Panics
///
/// Panics if a query has neither a window nor a point, or if a timed
/// batch spans databases of different workspaces (it simulates one
/// disk array).
pub fn run_batch(queries: Vec<Query<'_>>, plan: impl Into<ExecPlan>) -> BatchOutcome {
    let plan = plan.into();
    let timing = match plan.mode {
        FilterMode::OverlappedIo(cfg) => timed_disk_params(&queries).map(|params| (params, cfg)),
        FilterMode::Serialized => None,
    };
    let steps: Vec<Step<'_>> = queries.into_iter().map(Step::from).collect();
    let (ops, (spacing, timed)) = execute(steps, plan.threads, timing.is_some(), |ops, traces| {
        let Some((params, cfg)) = timing else {
            return (0.0, None);
        };
        // The open-arrival spacing comes from the batch's own traced
        // filter phase: mean synchronous service time over the load
        // factor, summed in submission order (the order of a sequential
        // loop, so the figure is bit-reproducible).
        let io_ms = ops.iter().map(|op| match op {
            OpOutcome::Query { stats, .. } => stats.io_ms,
            _ => unreachable!("a batch holds only queries"),
        });
        let mean = io_ms.sum::<f64>() / ops.len() as f64;
        let spacing = cfg.arrival.spacing_ms(mean);
        let traces: Vec<QueryTrace> = traces
            .into_iter()
            .enumerate()
            .map(|(i, requests)| QueryTrace {
                arrival_ms: i as f64 * spacing,
                requests,
            })
            .collect();
        let arrivals = match cfg.arrival {
            Arrival::Closed { clients, think_ms } => Arrivals::Closed { clients, think_ms },
            _ => Arrivals::Open,
        };
        let array = ArrayConfig {
            arms: cfg.arms,
            stripe: cfg.stripe,
            policy: cfg.policy,
            rotation: cfg.rotation,
        };
        let timed = simulate(params, array, cfg.depth, arrivals, &traces);
        (spacing, Some(timed))
    });
    let (latency, arm_stats) = match timed {
        Some((latency, arm_stats)) => (latency.into_iter().map(Some).collect(), arm_stats),
        None => (vec![None; ops.len()], Vec::new()),
    };
    let outcomes = ops
        .into_iter()
        .zip(latency)
        .map(|(op, latency)| match op {
            OpOutcome::Query { ids, stats, io } => QueryOutcome {
                ids,
                stats,
                io,
                latency,
            },
            _ => unreachable!("a batch holds only queries"),
        })
        .collect();
    BatchOutcome {
        outcomes,
        arm_stats,
        inter_arrival_ms: spacing,
    }
}

/// The disk parameters of a timed batch's one disk array, or `None` for
/// an empty batch. A timed batch is the one mode with cross-query shared
/// state, so this holds even when [`run_batch`] is called directly
/// rather than through `Workspace::run_batch`.
fn timed_disk_params(queries: &[Query<'_>]) -> Option<spatialdb_disk::DiskParams> {
    let disk = queries.first()?.db.store().disk();
    for (i, q) in queries.iter().enumerate() {
        assert!(
            std::sync::Arc::ptr_eq(&q.db.store().disk(), &disk),
            "query {i} targets a database of another workspace; \
             a timed batch simulates one disk array"
        );
    }
    Some(disk.params())
}

/// Run one query with its refinement partitioned across `n_threads`
/// workers (contiguous chunks of the sorted candidate list).
pub(crate) fn run_one_par(query: Query<'_>, n_threads: usize) -> QueryOutcome {
    let (db, target, technique) = query.lower();
    let (stats, io, _, candidates) = filter_query(db, &target, technique, false, &mut Vec::new());
    QueryOutcome {
        ids: refine_chunked(db, target, candidates, n_threads),
        stats,
        io,
        latency: None,
    }
}
