//! Multi-arm declustered storage: a disk array striping regions across
//! N independent arms.
//!
//! The paper's cost model (§5.1) — and the PR-4 [`DiskArm`] built on it
//! — assume a single arm, so every page request funnels through one
//! queue. The [`DiskArray`] generalizes that to N arms, each with its
//! own request queue, FCFS/elevator ordering and seek state, behind a
//! [`StripePolicy`] that maps region ids to `(arm, local cylinder
//! band)`. Regions stay physically contiguous on exactly one arm (this
//! is *declustering across regions*, not page-level striping — the
//! §5.1 contiguity that makes vector reads and the one-seek-per-cluster
//! rule meaningful is preserved per region), and independent regions on
//! different arms are serviced in parallel.
//!
//! The two-views contract of the single arm carries over unchanged:
//! charged accounting (`IoStats`) is the flat per-request model and is
//! **identical for any arm count** under FCFS — striping shapes the
//! simulated timeline ([`LatencyStats`], [`ArmStats`]), not the charge.
//! A 1-arm array with any stripe policy is byte-identical to the plain
//! [`DiskArm`]: every policy degenerates to the identity mapping
//! `(arm 0, band = region id)` at N = 1.

use std::collections::{HashMap, VecDeque};

use crate::arm::{
    ArmGeometry, ArmPolicy, ArmStats, Completion, DiskArm, LatencyStats, PageRequest, QueryTrace,
    RotationModel,
};
use crate::model::{DiskParams, RegionId};

/// How region ids are declustered across the arms of a [`DiskArray`].
///
/// Every policy is a *partition*: each region maps to exactly one arm
/// and one arm-local cylinder band, deterministically (stable across
/// array rebuilds). With a single arm every policy is the identity
/// mapping, which is what keeps N = 1 byte-identical to the plain
/// [`DiskArm`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StripePolicy {
    /// Region `r` on arm `r mod N`, band `r / N`. Spreads consecutively
    /// created regions — and therefore the tree/objects region pair of
    /// each database — across different arms: maximal spread.
    #[default]
    RoundRobin,
    /// Region `r` on arm `hash(r) mod N` (Fibonacci multiplicative
    /// hash), band `r` (the hashed placement has no compact inverse, so
    /// each arm keeps the global band layout and simply owns a sparse
    /// subset of it). Decorrelates placement from creation order.
    RegionHash,
    /// Co-locate spatially near regions: every storage organization
    /// creates its regions as one consecutive group per database (tree +
    /// objects / overflow / cluster units), all covering the same data
    /// MBR — so region-id adjacency is the locality proxy. Groups of
    /// [`StripePolicy::LOCALITY_GROUP`] consecutive regions land on the
    /// same arm (`(r / G) mod N`) in consecutive bands, trading
    /// intra-query parallelism for shorter seeks between a query's tree
    /// and object requests.
    MbrLocality,
}

impl StripePolicy {
    /// Regions per locality group of [`StripePolicy::MbrLocality`] —
    /// every disk-backed organization creates exactly two regions per
    /// database (tree + objects/overflow/units), in one consecutive
    /// id pair.
    pub const LOCALITY_GROUP: u64 = 2;

    /// The arm owning `region` in an array of `arms` arms.
    pub fn arm_of(&self, region: RegionId, arms: usize) -> usize {
        let n = arms.max(1) as u64;
        let r = u64::from(region.0);
        let arm = match self {
            StripePolicy::RoundRobin => r % n,
            StripePolicy::RegionHash => (r.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % n,
            StripePolicy::MbrLocality => (r / Self::LOCALITY_GROUP) % n,
        };
        arm as usize
    }

    /// The arm-local cylinder band of `region` (dense per arm for the
    /// closed-form policies, global for [`StripePolicy::RegionHash`]).
    pub fn local_band(&self, region: RegionId, arms: usize) -> u64 {
        let n = arms.max(1) as u64;
        let r = u64::from(region.0);
        match self {
            StripePolicy::RoundRobin => r / n,
            StripePolicy::RegionHash => r,
            StripePolicy::MbrLocality => {
                let g = Self::LOCALITY_GROUP;
                (r / (g * n)) * g + r % g
            }
        }
    }
}

/// Shape of a [`DiskArray`]: arm count, stripe policy, per-arm queue
/// ordering and rotational model. The default is a single elevator arm
/// with the flat rotational average — exactly the PR-4 scheduler.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ArrayConfig {
    /// Number of independent arms (0 is treated as 1).
    pub arms: usize,
    /// Region → arm mapping.
    pub stripe: StripePolicy,
    /// Queue ordering of every arm.
    pub policy: ArmPolicy,
    /// Rotational-latency model of every arm's timeline.
    pub rotation: RotationModel,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig {
            arms: 1,
            stripe: StripePolicy::default(),
            policy: ArmPolicy::default(),
            rotation: RotationModel::default(),
        }
    }
}

/// N independent disk arms with declustered region placement and a
/// global completion order.
///
/// Submission routes each request to the arm owning its region
/// ([`StripePolicy::arm_of`]) at that region's arm-local cylinder band;
/// [`DiskArray::service_next`] pops the globally-earliest completion
/// across arms (deterministic tie-break by arm index). Request ids form
/// one sequence across the array, so the `Disk` front-end and the
/// executor cannot tell how many arms serve them.
#[derive(Clone, Debug)]
pub struct DiskArray {
    geometry: ArmGeometry,
    stripe: StripePolicy,
    arms: Vec<DiskArm>,
    next_id: u64,
}

impl DiskArray {
    /// Create an idle array per `config`, all heads at cylinder 0.
    pub fn new(params: DiskParams, geometry: ArmGeometry, config: ArrayConfig) -> Self {
        let arms = (0..config.arms.max(1))
            .map(|_| {
                let mut arm = DiskArm::new(params, geometry, config.policy);
                arm.set_rotation(config.rotation);
                arm
            })
            .collect();
        DiskArray {
            geometry,
            stripe: config.stripe,
            arms,
            next_id: 0,
        }
    }

    /// Number of arms.
    pub fn num_arms(&self) -> usize {
        self.arms.len()
    }

    /// The stripe policy.
    pub fn stripe(&self) -> StripePolicy {
        self.stripe
    }

    /// The queue-ordering policy (uniform across arms).
    pub fn policy(&self) -> ArmPolicy {
        self.arms[0].policy()
    }

    /// Change the queue ordering of every arm. Affects only requests
    /// not yet serviced.
    pub fn set_policy(&mut self, policy: ArmPolicy) {
        for arm in &mut self.arms {
            arm.set_policy(policy);
        }
    }

    /// The rotational model (uniform across arms).
    pub fn rotation(&self) -> RotationModel {
        self.arms[0].rotation()
    }

    /// Change the rotational model of every arm's timeline.
    pub fn set_rotation(&mut self, rotation: RotationModel) {
        for arm in &mut self.arms {
            arm.set_rotation(rotation);
        }
    }

    /// The cylinder mapping shared by the arms.
    pub fn geometry(&self) -> ArmGeometry {
        self.geometry
    }

    /// The arm owning `region` under this array's stripe policy.
    pub fn arm_of(&self, region: RegionId) -> usize {
        self.stripe.arm_of(region, self.arms.len())
    }

    /// Read access to the arms (index = arm id).
    pub fn arms(&self) -> &[DiskArm] {
        &self.arms
    }

    /// Total outstanding requests across all arms.
    pub fn pending(&self) -> usize {
        self.arms.iter().map(|a| a.pending()).sum()
    }

    /// Per-arm cumulative statistics, indexed by arm.
    pub fn arm_stats(&self) -> Vec<ArmStats> {
        self.arms
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let mut s = a.stats();
                s.arm = i;
                s
            })
            .collect()
    }

    /// Submit a request arriving now (at the owning arm's clock).
    ///
    /// # Panics
    ///
    /// Panics on an empty run — empty runs are free in the synchronous
    /// model and must not be submitted.
    pub fn submit(&mut self, request: PageRequest) -> u64 {
        let arrival = self.arms[self.arm_of(request.run.start.region)].clock_ms();
        self.submit_at(request, arrival)
    }

    /// Submit a request with an explicit arrival time, routed to the
    /// arm owning its region at the region's arm-local cylinder band.
    pub fn submit_at(&mut self, request: PageRequest, arrival_ms: f64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let region = request.run.start.region;
        let arm = self.arm_of(region);
        let band = self.stripe.local_band(region, self.arms.len());
        let cylinder = self.geometry.cylinder_in_band(band, &request.run.start);
        let end_cylinder = self.geometry.end_cylinder_in_band(band, &request.run);
        self.arms[arm].submit_routed(id, request, arrival_ms, cylinder, end_cylinder);
        id
    }

    /// Service the request that finishes earliest across all arms — the
    /// parallel drain. Ties break deterministically by arm index.
    /// Returns `None` when every queue is empty.
    pub fn service_next(&mut self) -> Option<Completion> {
        if self.arms.len() == 1 {
            // Fast path; also keeps the 1-arm array trivially identical
            // to the plain arm.
            return self.arms[0].service_next();
        }
        let mut best: Option<(f64, usize)> = None;
        for (i, arm) in self.arms.iter().enumerate() {
            if let Some(finish) = arm.peek_next_finish() {
                let better = match best {
                    None => true,
                    Some((bf, _)) => finish < bf,
                };
                if better {
                    best = Some((finish, i));
                }
            }
        }
        let (_, i) = best?;
        self.arms[i].service_next()
    }

    /// Service everything outstanding, in global completion order.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::with_capacity(self.pending());
        while let Some(c) = self.service_next() {
            out.push(c);
        }
        out
    }
}

/// When the queries of a [`simulate`] run arrive on the simulated clock.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum Arrivals {
    /// Open arrivals: each query arrives at its trace's `arrival_ms`,
    /// however loaded the array is. The default.
    #[default]
    Open,
    /// A closed loop of `clients` clients. Client `c` issues queries
    /// `c, c + clients, c + 2·clients, …` in order: the first `clients`
    /// queries arrive at time 0, and each query's **completion** (its
    /// last request finishing) activates the same client's next query
    /// `think_ms` later. Arrivals self-throttle under load instead of
    /// piling up, which produces the classic response-time-vs-clients
    /// curve. The traces' own `arrival_ms` stamps are ignored.
    Closed {
        /// Concurrent clients (0 is treated as 1).
        clients: usize,
        /// Think time between a query's completion and the same
        /// client's next arrival (simulated ms).
        think_ms: f64,
    },
}

/// Replay per-query request traces through a [`DiskArray`] shaped by
/// `config`, returning one [`LatencyStats`] per query (same order) plus
/// the final per-arm [`ArmStats`].
///
/// Each query keeps at most `depth` requests outstanding: its first
/// `depth` requests are submitted at arrival, and each completion
/// releases the query's next request, which may land on a different
/// arm. The arms service the union of all outstanding requests under
/// `config.policy`; with one arm, `depth == 1` and a single query this
/// degenerates to the synchronous request order. A query with an empty
/// trace completes at its arrival. `arrivals` picks the arrival process.
///
/// Deterministic: no wall clock, no randomness.
pub fn simulate(
    params: DiskParams,
    config: ArrayConfig,
    depth: usize,
    arrivals: Arrivals,
    queries: &[QueryTrace],
) -> (Vec<LatencyStats>, Vec<ArmStats>) {
    let depth = depth.max(1);
    let n = queries.len();
    let mut array = DiskArray::new(params, ArmGeometry::default(), config);
    // Every query is activated exactly once, which stamps its record.
    let mut stats = vec![LatencyStats::default(); n];
    // Queries whose arrival is due: (query, arrival time). An open run
    // seeds every query up front; a closed run seeds one per client.
    let mut activations: VecDeque<(usize, f64)> = match arrivals {
        Arrivals::Open => queries
            .iter()
            .enumerate()
            .map(|(qi, q)| (qi, q.arrival_ms))
            .collect(),
        Arrivals::Closed { clients, .. } => {
            (0..clients.max(1).min(n)).map(|qi| (qi, 0.0)).collect()
        }
    };
    // The query a closed client issues after `qi` completes at `done_ms`.
    let next_of = |qi: usize, done_ms: f64| match arrivals {
        Arrivals::Open => None,
        Arrivals::Closed { clients, think_ms } => Some(qi + clients.max(1))
            .filter(|&next| next < n)
            .map(|next| (next, done_ms + think_ms)),
    };
    let mut next_req: Vec<usize> = vec![0; n];
    let mut outstanding: Vec<usize> = vec![0; n];
    let mut owner: HashMap<u64, usize> = HashMap::new();
    loop {
        while let Some((qi, at)) = activations.pop_front() {
            stats[qi] = LatencyStats::arriving_at(at);
            let requests = &queries[qi].requests;
            if requests.is_empty() {
                activations.extend(next_of(qi, at));
            }
            for &r in requests.iter().take(depth) {
                next_req[qi] += 1;
                outstanding[qi] += 1;
                owner.insert(array.submit_at(r, at), qi);
            }
        }
        let Some(c) = array.service_next() else { break };
        let qi = owner.remove(&c.id).expect("completion for unknown request");
        stats[qi].absorb(&c);
        outstanding[qi] -= 1;
        if let Some(&r) = queries[qi].requests.get(next_req[qi]) {
            // The query observes the completion and issues its next
            // request immediately.
            next_req[qi] += 1;
            outstanding[qi] += 1;
            owner.insert(array.submit_at(r, c.finished_ms), qi);
        } else if outstanding[qi] == 0 {
            activations.extend(next_of(qi, c.finished_ms));
        }
    }
    (stats, array.arm_stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arm::PageRequest;
    use crate::model::{PageId, PageRun};

    fn pg(r: u16, o: u64) -> PageId {
        PageId::new(RegionId(r), o)
    }

    fn read1(r: u16, o: u64) -> PageRequest {
        PageRequest::read(PageRun::new(pg(r, o), 1))
    }

    const ALL_POLICIES: [StripePolicy; 3] = [
        StripePolicy::RoundRobin,
        StripePolicy::RegionHash,
        StripePolicy::MbrLocality,
    ];

    #[test]
    fn every_policy_is_identity_at_one_arm() {
        for policy in ALL_POLICIES {
            for r in 0..200u16 {
                assert_eq!(policy.arm_of(RegionId(r), 1), 0);
                assert_eq!(policy.local_band(RegionId(r), 1), u64::from(r));
            }
        }
    }

    #[test]
    fn round_robin_spreads_consecutive_regions() {
        let p = StripePolicy::RoundRobin;
        assert_eq!(p.arm_of(RegionId(0), 4), 0);
        assert_eq!(p.arm_of(RegionId(1), 4), 1);
        assert_eq!(p.arm_of(RegionId(5), 4), 1);
        assert_eq!(p.local_band(RegionId(5), 4), 1);
    }

    #[test]
    fn mbr_locality_keeps_region_pairs_together() {
        let p = StripePolicy::MbrLocality;
        for base in (0..40u16).step_by(2) {
            let a = p.arm_of(RegionId(base), 4);
            let b = p.arm_of(RegionId(base + 1), 4);
            assert_eq!(a, b, "group {base} split across arms");
            // And the pair occupies consecutive local bands.
            assert_eq!(
                p.local_band(RegionId(base + 1), 4),
                p.local_band(RegionId(base), 4) + 1
            );
        }
    }

    #[test]
    fn one_arm_array_matches_plain_arm() {
        // Same submissions through a 1-arm array (each stripe policy)
        // and a bare DiskArm: identical completions, byte for byte.
        let params = DiskParams::default();
        let geometry = ArmGeometry::default();
        for stripe in ALL_POLICIES {
            let mut arm = DiskArm::new(params, geometry, ArmPolicy::Elevator);
            let mut array = DiskArray::new(
                params,
                geometry,
                ArrayConfig {
                    arms: 1,
                    stripe,
                    policy: ArmPolicy::Elevator,
                    rotation: RotationModel::FlatAverage,
                },
            );
            let reqs = [
                read1(0, 0),
                read1(3, 32 * 7),
                read1(1, 32 * 2),
                read1(2, 0),
                read1(0, 32 * 9),
            ];
            for r in reqs {
                arm.submit_at(r, 0.0);
                array.submit_at(r, 0.0);
            }
            let a = arm.drain();
            let b = array.drain();
            assert_eq!(a, b, "1-arm array diverged under {stripe:?}");
        }
    }

    #[test]
    fn parallel_drain_pops_globally_earliest() {
        // Two arms, one request each: completions come back ordered by
        // finish time regardless of submission order.
        let mut array = DiskArray::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArrayConfig {
                arms: 2,
                stripe: StripePolicy::RoundRobin,
                policy: ArmPolicy::Fcfs,
                rotation: RotationModel::FlatAverage,
            },
        );
        // Region 1 (arm 1): far cylinder → long seek. Region 0 (arm 0):
        // cylinder 0 → no seek, finishes first despite later submission.
        let far = array.submit_at(read1(1, 32 * 900), 0.0);
        let near = array.submit_at(read1(0, 0), 0.0);
        let done = array.drain();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].id, near);
        assert_eq!(done[1].id, far);
        assert!(done[0].finished_ms < done[1].finished_ms);
        // Both arms started at their own clock 0 — true overlap.
        assert_eq!(done[0].started_ms, 0.0);
        assert_eq!(done[1].started_ms, 0.0);
    }

    #[test]
    fn tie_breaks_by_arm_index() {
        // Identical offsets in two different regions on two arms:
        // identical finish times, arm 0's completion pops first.
        let mut array = DiskArray::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArrayConfig {
                arms: 2,
                stripe: StripePolicy::RoundRobin,
                policy: ArmPolicy::Fcfs,
                rotation: RotationModel::FlatAverage,
            },
        );
        let a1 = array.submit_at(read1(1, 0), 0.0); // arm 1, submitted first
        let a0 = array.submit_at(read1(0, 0), 0.0); // arm 0
        let done = array.drain();
        assert_eq!(done[0].finished_ms, done[1].finished_ms);
        assert_eq!(done[0].id, a0, "tie must break toward arm 0");
        assert_eq!(done[1].id, a1);
    }

    #[test]
    fn arm_stats_account_for_all_services() {
        let mut array = DiskArray::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArrayConfig {
                arms: 4,
                stripe: StripePolicy::RoundRobin,
                policy: ArmPolicy::Elevator,
                rotation: RotationModel::FlatAverage,
            },
        );
        for r in 0..8u16 {
            for o in 0..5u64 {
                array.submit_at(read1(r, 32 * o), 0.0);
            }
        }
        let done = array.drain();
        let stats = array.arm_stats();
        assert_eq!(stats.len(), 4);
        assert_eq!(
            stats.iter().map(|s| s.serviced).sum::<u64>() as usize,
            done.len()
        );
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(s.arm, i);
            assert_eq!(s.pending, 0);
            // Every arm got 2 regions × 5 requests under round-robin.
            assert_eq!(s.serviced, 10);
            assert!(s.utilization() > 0.0 && s.utilization() <= 1.0);
            assert!(s.mean_queue_depth() > 0.0);
        }
    }

    #[test]
    fn striped_simulation_with_one_arm_matches_single_arm_harness() {
        // Every stripe policy is the identity at one arm, so the replay
        // cannot tell them apart.
        let traces = vec![
            QueryTrace {
                arrival_ms: 0.0,
                requests: vec![read1(0, 0), read1(1, 32 * 3), read1(0, 32 * 5)],
            },
            QueryTrace {
                arrival_ms: 4.0,
                requests: vec![read1(2, 0), read1(3, 32 * 2)],
            },
        ];
        let replay = |stripe| {
            let config = ArrayConfig {
                stripe,
                ..ArrayConfig::default()
            };
            simulate(DiskParams::default(), config, 4, Arrivals::Open, &traces)
        };
        let (single, _) = replay(StripePolicy::default());
        for stripe in ALL_POLICIES {
            let (striped, arms) = replay(stripe);
            assert_eq!(single, striped, "1-arm striped sim diverged ({stripe:?})");
            assert_eq!(arms.len(), 1);
            assert_eq!(arms[0].serviced, 5);
        }
    }

    #[test]
    fn closed_loop_with_enough_clients_is_the_open_burst() {
        // With one client per query and zero think time every query
        // arrives at 0 — exactly the open burst, byte for byte.
        let traces: Vec<QueryTrace> = (0..6u16)
            .map(|q| QueryTrace {
                arrival_ms: 0.0,
                requests: vec![read1(q % 4, 32 * u64::from(q) * 3), read1(q % 4, 0)],
            })
            .collect();
        let config = ArrayConfig {
            arms: 2,
            stripe: StripePolicy::RoundRobin,
            policy: ArmPolicy::Elevator,
            rotation: RotationModel::FlatAverage,
        };
        let (open, open_arms) = simulate(DiskParams::default(), config, 3, Arrivals::Open, &traces);
        let closed_loop = Arrivals::Closed {
            clients: traces.len(),
            think_ms: 0.0,
        };
        let (closed, closed_arms) =
            simulate(DiskParams::default(), config, 3, closed_loop, &traces);
        assert_eq!(open, closed);
        assert_eq!(open_arms, closed_arms);
    }

    #[test]
    fn one_client_serializes_the_stream() {
        // A single client issues query q+1 only after q completes (plus
        // think): arrivals chain off completions, and no query ever
        // queues behind another.
        let traces: Vec<QueryTrace> = (0..5u16)
            .map(|q| QueryTrace {
                arrival_ms: 0.0,
                requests: vec![read1(q % 2, 32 * u64::from(q) * 5)],
            })
            .collect();
        let think = 2.5;
        let closed_loop = Arrivals::Closed {
            clients: 1,
            think_ms: think,
        };
        let (stats, _) = simulate(
            DiskParams::default(),
            ArrayConfig::default(),
            4,
            closed_loop,
            &traces,
        );
        for w in stats.windows(2) {
            assert_eq!(
                w[1].arrival_ms,
                w[0].completed_ms + think,
                "next arrival must be previous completion plus think time"
            );
            assert_eq!(w[1].queue_ms, 0.0, "a lone client never queues");
        }
    }

    #[test]
    fn fewer_clients_never_worsen_latency() {
        // The same stream under 1, 2, 4 and 8 clients: per-query mean
        // latency is monotonically non-decreasing in the client count
        // (more concurrency = more queueing), while an empty trace
        // still completes instantly and keeps its client's chain alive.
        let mut traces: Vec<QueryTrace> = (0..16u16)
            .map(|q| QueryTrace {
                arrival_ms: 0.0,
                requests: vec![
                    read1(q % 4, 32 * u64::from(q) * 2),
                    read1(q % 4, 32 * u64::from(q % 3) * 7),
                ],
            })
            .collect();
        traces[5].requests.clear(); // a buffer-hit query: no I/O at all
        let mean = |clients: usize| {
            let closed_loop = Arrivals::Closed {
                clients,
                think_ms: 1.0,
            };
            let (stats, _) = simulate(
                DiskParams::default(),
                ArrayConfig::default(),
                4,
                closed_loop,
                &traces,
            );
            assert_eq!(stats.len(), traces.len());
            assert_eq!(stats[5].requests, 0);
            assert_eq!(stats[5].completed_ms, stats[5].arrival_ms);
            stats.iter().map(|s| s.latency_ms()).sum::<f64>() / stats.len() as f64
        };
        let curve: Vec<f64> = [1, 2, 4, 8].into_iter().map(mean).collect();
        for w in curve.windows(2) {
            assert!(
                w[1] >= w[0],
                "mean latency must not improve with more clients: {curve:?}"
            );
        }
        assert!(
            curve[3] > curve[0],
            "saturation must show between 1 and 8 clients: {curve:?}"
        );
    }

    #[test]
    fn more_arms_never_lengthen_the_fcfs_makespan() {
        // A closed burst over 8 regions: the array's makespan (last
        // completion) shrinks as arms are added, and aggregate
        // throughput rises.
        let mut makespans = Vec::new();
        for arms in [1usize, 2, 4, 8] {
            let mut array = DiskArray::new(
                DiskParams::default(),
                ArmGeometry::default(),
                ArrayConfig {
                    arms,
                    stripe: StripePolicy::RoundRobin,
                    policy: ArmPolicy::Fcfs,
                    rotation: RotationModel::FlatAverage,
                },
            );
            for o in 0..6u64 {
                for r in 0..8u16 {
                    array.submit_at(read1(r, 32 * o * 3), 0.0);
                }
            }
            let done = array.drain();
            let makespan = done
                .iter()
                .map(|c| c.finished_ms)
                .fold(f64::NEG_INFINITY, f64::max);
            makespans.push(makespan);
        }
        for w in makespans.windows(2) {
            assert!(
                w[1] < w[0],
                "makespan must shrink with more arms: {makespans:?}"
            );
        }
    }
}
