//! The disk-arm request scheduler: overlapped I/O for the simulated disk.
//!
//! The synchronous cost model charges every request at its call site with
//! the paper's *average* figures (§5.1): `t_s` = 9 ms seek, `t_l` = 6 ms
//! latency, `t_t` = 1 ms per page. That is the right model for
//! *throughput* figures, but it cannot speak to *latency*: a server
//! running many queries at once keeps several requests outstanding, and
//! what each query observes depends on how the single disk arm schedules
//! them. This module adds that missing dimension:
//!
//! * [`ArmGeometry`] maps page addresses to **cylinders**. Each region
//!   (file) occupies its own band of cylinders, so requests within one
//!   file are short seeks and cross-file jumps are long ones.
//! * [`SeekCurve`] is a distance-dependent seek-time curve
//!   `t(d) = t_min + (t_max − t_min) · √(d/D)` **calibrated so that the
//!   mean over uniformly distributed distances equals the paper's
//!   `seek_ms`** (9.0 ms by default) — the average-cost model is the
//!   expectation of this curve, so the two models describe the same
//!   disk.
//! * [`DiskArm`] holds a queue of outstanding [`PageRequest`]s and
//!   services them under an [`ArmPolicy`]: FCFS (arrival order) or
//!   **elevator** (SCAN: sweep the cylinders in one direction, servicing
//!   requests on the way, flip at the last outstanding cylinder).
//! * [`simulate`](crate::array::simulate) replays per-query request
//!   traces through the arms with a bounded per-query submission window
//!   (queue depth *k*), producing per-query [`LatencyStats`].
//!
//! ## Two measures, one contract
//!
//! The arm computes **simulated time** (queue wait, service, completion
//! in ms on the arm's clock) with the distance-dependent curve. The
//! **charged accounting** ([`crate::stats::IoStats`]) stays on the
//! paper's flat per-request model, and flows through the very same
//! [`Disk::charge`](crate::disk::Disk::charge) code path — which is what
//! makes depth-1 submission **byte-identical** to the synchronous charge
//! path (the mirror test in `disk.rs` pins this). At depth > 1 under the
//! elevator policy, a request dispatched on the cylinder where the arm
//! already stands *and* co-scheduled with the previous request (it was
//! queued before the previous dispatch began) is charged without its
//! seek — the same-cylinder rule of §5.4.3 extended across queued
//! requests. Requests whose `skip_seek` flag was already set by the
//! cost model (SLM follow-up runs inside one cluster unit, §5.4.2/§5.4.3)
//! keep it: the scheduler never turns a skipped seek back into a charged
//! one, so elevator-merged adjacent runs cannot double-charge seeks.

use crate::model::{DiskParams, PageId, PageRun};
use crate::stats::IoKind;

/// One I/O request submitted to the arm: a transfer of one physically
/// consecutive [`PageRun`], as produced by the existing request-forming
/// layers (`runs_of`, SLM schedules, extent reads).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PageRequest {
    /// Read or write.
    pub kind: IoKind,
    /// The consecutive pages the request transfers (never empty).
    pub run: PageRun,
    /// `true` if the synchronous cost model would skip the seek for this
    /// request (subsequent requests within one cluster unit, §5.4.3).
    /// The scheduler preserves this flag when charging — see the module
    /// docs.
    pub skip_seek: bool,
}

impl PageRequest {
    /// A read request for `run` paying a full seek.
    pub fn read(run: PageRun) -> Self {
        PageRequest {
            kind: IoKind::Read,
            run,
            skip_seek: false,
        }
    }

    /// A write request for `run` paying a full seek.
    pub fn write(run: PageRun) -> Self {
        PageRequest {
            kind: IoKind::Write,
            run,
            skip_seek: false,
        }
    }
}

/// How the arm orders outstanding requests.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ArmPolicy {
    /// First come, first served: requests are serviced in arrival order.
    /// Models a naive queue in front of today's synchronous path.
    Fcfs,
    /// Elevator (SCAN): the arm sweeps the cylinders in one direction,
    /// servicing outstanding requests as it passes them, and reverses at
    /// the outermost outstanding cylinder. Minimizes total head travel
    /// across queued requests; starvation-free because every sweep
    /// reaches both ends of the pending set.
    #[default]
    Elevator,
}

/// Maps page addresses to cylinders.
///
/// Pages of one region are laid out consecutively,
/// `pages_per_cylinder` to a cylinder; each region starts at its own
/// `cylinders_per_region` band, so different files live in different
/// areas of the disk (per [`crate::model`], pages of different regions
/// are never physically consecutive). A region that outgrows its band
/// stays clamped to the band's last cylinder — the mapping only shapes
/// seek distances, not capacity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArmGeometry {
    /// 4 KB pages per cylinder.
    pub pages_per_cylinder: u64,
    /// Cylinder band reserved per region.
    pub cylinders_per_region: u64,
}

impl Default for ArmGeometry {
    fn default() -> Self {
        ArmGeometry {
            pages_per_cylinder: 32,
            cylinders_per_region: 1024,
        }
    }
}

impl ArmGeometry {
    /// Cylinder of a page. Zero field values are treated as 1 — the
    /// fields are public, and a degenerate geometry should collapse the
    /// mapping, not panic or underflow.
    pub fn cylinder(&self, page: &PageId) -> u64 {
        self.cylinder_in_band(u64::from(page.region.0), page)
    }

    /// Cylinder of a page placed in an explicit band instead of the
    /// region-indexed one — the [`DiskArray`](crate::array::DiskArray)
    /// places each region in an **arm-local** band so every arm's
    /// cylinder space stays compact. `cylinder_in_band(region.0, page)`
    /// is exactly [`cylinder`](ArmGeometry::cylinder), the single-disk
    /// identity mapping.
    pub fn cylinder_in_band(&self, band: u64, page: &PageId) -> u64 {
        let pages = self.pages_per_cylinder.max(1);
        let width = self.cylinders_per_region.max(1);
        let within = (page.offset / pages).min(width - 1);
        band * width + within
    }

    /// Cylinder of the last page of a run.
    pub fn end_cylinder(&self, run: &PageRun) -> u64 {
        let last = PageId::new(run.start.region, run.end_offset().saturating_sub(1));
        self.cylinder(&last)
    }

    /// Cylinder of the last page of a run placed in an explicit band
    /// (see [`cylinder_in_band`](ArmGeometry::cylinder_in_band)).
    pub fn end_cylinder_in_band(&self, band: u64, run: &PageRun) -> u64 {
        let last = PageId::new(run.start.region, run.end_offset().saturating_sub(1));
        self.cylinder_in_band(band, &last)
    }

    /// Starting angular position of a page's first sector within its
    /// cylinder, as a fraction of one revolution in `[0, 1)` — the
    /// target phase of the [`RotationModel::Sectored`] latency model.
    pub fn sector_phase(&self, page: &PageId) -> f64 {
        let pages = self.pages_per_cylinder.max(1);
        (page.offset % pages) as f64 / pages as f64
    }
}

/// How the arm's timeline charges rotational latency.
///
/// The **charged accounting** always stays on the paper's flat
/// `t_l = 6 ms` average (§5.1) — the rotation model shapes only the
/// simulated timeline, exactly like the distance-dependent
/// [`SeekCurve`] does for seeks.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RotationModel {
    /// Every request waits the average rotational latency
    /// (`params.latency_ms`). The default; keeps the timeline identical
    /// to the PR-4 single-arm scheduler.
    #[default]
    FlatAverage,
    /// The platter spins continuously at `period = 2 · latency_ms` per
    /// revolution (so the *mean* delay over uniformly distributed
    /// arrival angles is the paper's `latency_ms` — calibration is
    /// built in). A request's rotational delay is the time until its
    /// first sector ([`ArmGeometry::sector_phase`]) next passes under
    /// the head after the seek completes: sequential same-cylinder
    /// requests that land just behind the head pay almost a full
    /// revolution, requests that arrive just ahead of their sector pay
    /// almost nothing — the interaction \[SLM93\] assumes between SLM
    /// bridging and the elevator.
    Sectored,
}

/// Cumulative service statistics of one arm — the utilization /
/// queue-depth side of the array that
/// [`LatencyStats`] (per-query) cannot see.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ArmStats {
    /// Index of the arm within its array (0 for a lone arm).
    pub arm: usize,
    /// Requests serviced so far.
    pub serviced: u64,
    /// Total time spent servicing (seek + latency + transfer on the
    /// timeline).
    pub busy_ms: f64,
    /// Total time completed requests spent waiting in this arm's queue.
    /// By Little's law, `queue_wait_ms / clock_ms` is the time-average
    /// queue depth.
    pub queue_wait_ms: f64,
    /// The arm's simulated clock (end of its last service).
    pub clock_ms: f64,
    /// Requests still outstanding in the queue.
    pub pending: usize,
}

impl ArmStats {
    /// Fraction of the arm's timeline spent servicing requests
    /// (`busy_ms / clock_ms`; 0 for an arm that never served).
    pub fn utilization(&self) -> f64 {
        if self.clock_ms > 0.0 {
            self.busy_ms / self.clock_ms
        } else {
            0.0
        }
    }

    /// Time-average queue depth over the arm's timeline
    /// (`queue_wait_ms / clock_ms`, Little's law; 0 for an idle arm).
    pub fn mean_queue_depth(&self) -> f64 {
        if self.clock_ms > 0.0 {
            self.queue_wait_ms / self.clock_ms
        } else {
            0.0
        }
    }
}

/// Distance-dependent seek time `t(d) = t_min + (t_max − t_min)·√(d/D)`
/// for `0 < d ≤ D` (clamped at the full stroke `D`); `t(0) = 0`.
///
/// With `d` uniform on `(0, D]` the mean of `√(d/D)` is `2/3`, so
/// [`SeekCurve::calibrated`] chooses `t_min = seek_ms/3` and
/// `t_max = t_min + 3/2·(seek_ms − t_min)` — making the **expected seek
/// equal the paper's average `seek_ms`** (9 ms ⇒ 3 ms track-to-track,
/// 12 ms full stroke). The average-cost model and the arm's timeline are
/// therefore two views of the same disk.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SeekCurve {
    /// Seek time at distance 1 (track-to-track), ms.
    pub min_ms: f64,
    /// Seek time at the full stroke, ms.
    pub max_ms: f64,
    /// Full-stroke distance in cylinders.
    pub full_stroke: u64,
}

impl SeekCurve {
    /// Calibrate the curve so its mean over uniform distances equals
    /// `params.seek_ms` (see the type docs).
    pub fn calibrated(params: &DiskParams, full_stroke: u64) -> Self {
        let min_ms = params.seek_ms / 3.0;
        let max_ms = min_ms + 1.5 * (params.seek_ms - min_ms);
        SeekCurve {
            min_ms,
            max_ms,
            full_stroke: full_stroke.max(1),
        }
    }

    /// The default calibration: paper parameters over a 4096-cylinder
    /// stroke (four default region bands).
    pub fn paper_default() -> Self {
        Self::calibrated(&DiskParams::default(), 4096)
    }

    /// Seek time for a head movement of `distance` cylinders.
    pub fn seek_ms(&self, distance: u64) -> f64 {
        if distance == 0 {
            return 0.0;
        }
        let d = distance.min(self.full_stroke) as f64 / self.full_stroke as f64;
        self.min_ms + (self.max_ms - self.min_ms) * d.sqrt()
    }
}

/// A serviced request: what happened to it on the arm's timeline, plus
/// what the accounting layer should charge for it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Completion {
    /// Id assigned at submission.
    pub id: u64,
    /// The request as submitted.
    pub request: PageRequest,
    /// When the request entered the queue (simulated ms).
    pub submitted_ms: f64,
    /// When the arm began servicing it.
    pub started_ms: f64,
    /// When the transfer finished.
    pub finished_ms: f64,
    /// Seek component of the service time (distance-dependent curve).
    pub seek_ms: f64,
    /// `true` if the charged cost should skip the seek: either the
    /// request's own `skip_seek`, or an elevator same-cylinder merge
    /// (§5.4.3 across queued requests — see the module docs).
    pub effective_skip_seek: bool,
}

impl Completion {
    /// Time the request waited in the queue before service.
    pub fn queue_ms(&self) -> f64 {
        self.started_ms - self.submitted_ms
    }

    /// Time the arm spent servicing the request (seek + latency +
    /// transfer on the timeline).
    pub fn service_ms(&self) -> f64 {
        self.finished_ms - self.started_ms
    }
}

/// Per-query latency accounting over the arm's simulated clock — the
/// latency-side companion of [`crate::stats::IoStats`].
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LatencyStats {
    /// Requests serviced for this query.
    pub requests: u64,
    /// Total time its requests waited in the arm queue.
    pub queue_ms: f64,
    /// Total time the arm spent servicing its requests.
    pub service_ms: f64,
    /// When the query arrived (simulated ms).
    pub arrival_ms: f64,
    /// When its last request completed (equals `arrival_ms` for a query
    /// that issued no I/O).
    pub completed_ms: f64,
}

impl LatencyStats {
    /// A fresh record for a query arriving at `arrival_ms`.
    pub fn arriving_at(arrival_ms: f64) -> Self {
        LatencyStats {
            arrival_ms,
            completed_ms: arrival_ms,
            ..Self::default()
        }
    }

    /// Fold one completion into the record.
    pub fn absorb(&mut self, c: &Completion) {
        self.requests += 1;
        self.queue_ms += c.queue_ms();
        self.service_ms += c.service_ms();
        if c.finished_ms > self.completed_ms {
            self.completed_ms = c.finished_ms;
        }
    }

    /// End-to-end latency the query observed: last completion minus
    /// arrival.
    #[must_use = "the latency delta is the measurement; dropping it loses it"]
    pub fn latency_ms(&self) -> f64 {
        self.completed_ms - self.arrival_ms
    }

    /// Mean queue wait per request (0 for a query without I/O).
    #[must_use = "the mean queue wait is the measurement; dropping it loses it"]
    pub fn mean_queue_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.queue_ms / self.requests as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    id: u64,
    request: PageRequest,
    arrival_ms: f64,
    cylinder: u64,
    end_cylinder: u64,
}

/// One disk arm: a queue of outstanding requests, a head position, and a
/// simulated clock.
///
/// The arm is a pure scheduler — it computes the timeline and the
/// effective charge flags, but charges nothing itself. The accounting
/// front-end is [`Disk::submit`](crate::disk::Disk::submit) /
/// [`Disk::complete_next`](crate::disk::Disk::complete_next); the
/// multi-query replay is [`simulate`](crate::array::simulate).
#[derive(Clone, Debug)]
pub struct DiskArm {
    params: DiskParams,
    geometry: ArmGeometry,
    curve: SeekCurve,
    policy: ArmPolicy,
    clock_ms: f64,
    head: u64,
    sweep_up: bool,
    pending: Vec<Pending>,
    next_id: u64,
    /// Start time of the most recent dispatch: a request that arrived
    /// before this instant was co-scheduled with the previous request
    /// (the elevator saw both at once), which is what licenses the
    /// same-cylinder charge merge.
    last_dispatch_start_ms: f64,
    rotation: RotationModel,
    serviced: u64,
    busy_ms: f64,
    queue_wait_ms: f64,
}

impl DiskArm {
    /// Create an idle arm at cylinder 0.
    pub fn new(params: DiskParams, geometry: ArmGeometry, policy: ArmPolicy) -> Self {
        let curve = SeekCurve::calibrated(&params, 4 * geometry.cylinders_per_region);
        DiskArm {
            params,
            geometry,
            curve,
            policy,
            clock_ms: 0.0,
            head: 0,
            sweep_up: true,
            pending: Vec::new(),
            next_id: 0,
            last_dispatch_start_ms: f64::NEG_INFINITY,
            rotation: RotationModel::default(),
            serviced: 0,
            busy_ms: 0.0,
            queue_wait_ms: 0.0,
        }
    }

    /// The scheduling policy.
    pub fn policy(&self) -> ArmPolicy {
        self.policy
    }

    /// Change the policy. Affects only requests not yet serviced.
    pub fn set_policy(&mut self, policy: ArmPolicy) {
        self.policy = policy;
    }

    /// The rotational-latency model of the timeline.
    pub fn rotation(&self) -> RotationModel {
        self.rotation
    }

    /// Change the rotational model. Affects only future services; the
    /// charged accounting always stays on the flat §5.1 average.
    pub fn set_rotation(&mut self, rotation: RotationModel) {
        self.rotation = rotation;
    }

    /// Cumulative service statistics (utilization, mean queue depth).
    pub fn stats(&self) -> ArmStats {
        ArmStats {
            arm: 0,
            serviced: self.serviced,
            busy_ms: self.busy_ms,
            queue_wait_ms: self.queue_wait_ms,
            clock_ms: self.clock_ms,
            pending: self.pending.len(),
        }
    }

    /// The seek-time curve.
    pub fn curve(&self) -> SeekCurve {
        self.curve
    }

    /// The cylinder mapping.
    pub fn geometry(&self) -> ArmGeometry {
        self.geometry
    }

    /// Current simulated time in ms.
    pub fn clock_ms(&self) -> f64 {
        self.clock_ms
    }

    /// Current head cylinder.
    pub fn head_cylinder(&self) -> u64 {
        self.head
    }

    /// Number of outstanding requests.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Submit a request arriving now (at the arm's clock).
    ///
    /// # Panics
    ///
    /// Panics on an empty run — empty runs are free in the synchronous
    /// model and must not be submitted.
    pub fn submit(&mut self, request: PageRequest) -> u64 {
        self.submit_at(request, self.clock_ms)
    }

    /// Submit a request with an explicit arrival time (which may lie in
    /// the arm's future; it becomes eligible once the clock reaches it).
    pub fn submit_at(&mut self, request: PageRequest, arrival_ms: f64) -> u64 {
        let id = self.next_id;
        let cylinder = self.geometry.cylinder(&request.run.start);
        let end_cylinder = self.geometry.end_cylinder(&request.run);
        self.submit_routed(id, request, arrival_ms, cylinder, end_cylinder);
        id
    }

    /// Submit with an externally assigned id and pre-mapped cylinders —
    /// the [`DiskArray`](crate::array::DiskArray) entry point, which
    /// keeps one id sequence across arms and maps regions to arm-local
    /// cylinder bands itself.
    pub fn submit_routed(
        &mut self,
        id: u64,
        request: PageRequest,
        arrival_ms: f64,
        cylinder: u64,
        end_cylinder: u64,
    ) {
        assert!(!request.run.is_empty(), "cannot submit an empty run");
        self.next_id = self.next_id.max(id + 1);
        self.pending.push(Pending {
            id,
            request,
            arrival_ms,
            cylinder,
            end_cylinder,
        });
    }

    /// Pick the index of the next request to service among `eligible`
    /// indices into `self.pending`.
    fn pick(&self, eligible: &[usize]) -> usize {
        match self.policy {
            ArmPolicy::Fcfs => *eligible
                .iter()
                .min_by(|&&a, &&b| {
                    let (pa, pb) = (&self.pending[a], &self.pending[b]);
                    pa.arrival_ms
                        .total_cmp(&pb.arrival_ms)
                        .then(pa.id.cmp(&pb.id))
                })
                .expect("eligible set is non-empty"),
            ArmPolicy::Elevator => {
                // SCAN: nearest outstanding cylinder in the sweep
                // direction; if the direction is exhausted, reverse.
                let pos = |i: &&usize| self.pending[**i].cylinder;
                let ahead_up = |i: &&usize| pos(i) >= self.head;
                let ahead_down = |i: &&usize| pos(i) <= self.head;
                let key_up = |&&i: &&usize| {
                    let p = &self.pending[i];
                    (p.cylinder, p.id)
                };
                let key_down = |&&i: &&usize| {
                    let p = &self.pending[i];
                    (std::cmp::Reverse(p.cylinder), p.id)
                };
                let chosen = if self.sweep_up {
                    eligible
                        .iter()
                        .filter(ahead_up)
                        .min_by_key(key_up)
                        .or_else(|| eligible.iter().filter(ahead_down).min_by_key(key_down))
                } else {
                    eligible
                        .iter()
                        .filter(ahead_down)
                        .min_by_key(key_down)
                        .or_else(|| eligible.iter().filter(ahead_up).min_by_key(key_up))
                };
                *chosen.expect("eligible set is non-empty")
            }
        }
    }

    /// Service one outstanding request, advancing the clock. Returns
    /// `None` when the queue is empty. If no queued request has arrived
    /// yet, the clock jumps to the earliest arrival (idle wait).
    pub fn service_next(&mut self) -> Option<Completion> {
        if self.pending.is_empty() {
            return None;
        }
        let earliest = self
            .pending
            .iter()
            .map(|p| p.arrival_ms)
            .fold(f64::INFINITY, f64::min);
        if earliest > self.clock_ms {
            self.clock_ms = earliest;
        }
        let eligible: Vec<usize> = (0..self.pending.len())
            .filter(|&i| self.pending[i].arrival_ms <= self.clock_ms)
            .collect();
        let p = self.pending.remove(self.pick(&eligible));

        let distance = self.head.abs_diff(p.cylinder);
        // Timeline: purely physical head movement. A skip_seek request
        // serviced right after its cluster leader sits on the head's
        // cylinder, so distance — and seek time — is 0 there naturally;
        // if the scheduler moved the arm elsewhere in between, the
        // comeback travel is real and is charged to the timeline (the
        // *accounting* flag below is a separate, §5.4.3 matter).
        let seek_ms = self.curve.seek_ms(distance);
        // Charging: the request's own flag, or the §5.4.3 same-cylinder
        // rule extended to co-scheduled queued requests. At depth 1 a
        // request is only ever submitted after the previous one
        // completed, so no merge fires and the charge equals the
        // synchronous path's, byte for byte.
        let co_scheduled = p.arrival_ms <= self.last_dispatch_start_ms;
        let merged = self.policy == ArmPolicy::Elevator && distance == 0 && co_scheduled;
        let effective_skip_seek = p.request.skip_seek || merged;

        let started_ms = self.clock_ms;
        let latency_ms = match self.rotation {
            RotationModel::FlatAverage => self.params.latency_ms,
            RotationModel::Sectored => {
                self.rotational_delay(started_ms + seek_ms, &p.request.run.start)
            }
        };
        let service = seek_ms + latency_ms + self.params.transfer_ms * p.request.run.len as f64;
        let finished_ms = started_ms + service;
        if p.cylinder > self.head {
            self.sweep_up = true;
        } else if p.cylinder < self.head {
            self.sweep_up = false;
        }
        self.head = p.end_cylinder;
        self.clock_ms = finished_ms;
        self.last_dispatch_start_ms = started_ms;
        self.serviced += 1;
        self.busy_ms += service;
        self.queue_wait_ms += started_ms - p.arrival_ms;
        Some(Completion {
            id: p.id,
            request: p.request,
            submitted_ms: p.arrival_ms,
            started_ms,
            finished_ms,
            seek_ms,
            effective_skip_seek,
        })
    }

    /// Rotational delay of a request whose seek finishes at `ready_ms`:
    /// the time until the request's first sector next passes under the
    /// head, on a platter spinning one revolution per
    /// `2 · latency_ms` (see [`RotationModel::Sectored`]).
    fn rotational_delay(&self, ready_ms: f64, start: &PageId) -> f64 {
        let period = 2.0 * self.params.latency_ms;
        if period <= 0.0 {
            return 0.0;
        }
        let target = self.geometry.sector_phase(start) * period;
        (target - ready_ms.rem_euclid(period)).rem_euclid(period)
    }

    /// Finish time of the completion the next
    /// [`service_next`](DiskArm::service_next) call would return, without mutating the
    /// arm — what the [`DiskArray`](crate::array::DiskArray) compares
    /// across arms to pop the globally-earliest completion.
    pub fn peek_next_finish(&self) -> Option<f64> {
        self.clone().service_next().map(|c| c.finished_ms)
    }

    /// Service everything outstanding, in policy order.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::with_capacity(self.pending.len());
        while let Some(c) = self.service_next() {
            out.push(c);
        }
        out
    }
}

/// The recorded I/O of one query, to be replayed through an arm.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// When the query arrives (simulated ms).
    pub arrival_ms: f64,
    /// Its disk requests, in issue order (as captured by
    /// [`Disk::trace_begin`](crate::disk::Disk::trace_begin)).
    pub requests: Vec<PageRequest>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RegionId;

    fn pg(r: u16, o: u64) -> PageId {
        PageId::new(RegionId(r), o)
    }

    fn read1(r: u16, o: u64) -> PageRequest {
        PageRequest::read(PageRun::new(pg(r, o), 1))
    }

    /// Open-arrival replay through one arm under `policy`.
    fn replay(policy: ArmPolicy, depth: usize, queries: &[QueryTrace]) -> Vec<LatencyStats> {
        let config = crate::array::ArrayConfig {
            policy,
            ..Default::default()
        };
        let open = crate::array::Arrivals::Open;
        crate::array::simulate(DiskParams::default(), config, depth, open, queries).0
    }

    #[test]
    fn seek_curve_mean_matches_paper_seek() {
        let curve = SeekCurve::paper_default();
        assert_eq!(curve.seek_ms(0), 0.0);
        assert!((curve.seek_ms(curve.full_stroke) - 12.0).abs() < 1e-9);
        assert!((curve.seek_ms(1) - curve.min_ms).abs() < 0.2);
        // Mean over uniform distances 1..=D equals seek_ms within 0.5%.
        let d = curve.full_stroke;
        let mean: f64 = (1..=d).map(|x| curve.seek_ms(x)).sum::<f64>() / d as f64;
        assert!(
            (mean - 9.0).abs() < 0.045,
            "mean seek {mean} != 9.0 (calibration drifted)"
        );
    }

    #[test]
    fn seek_curve_monotone_and_clamped() {
        let curve = SeekCurve::paper_default();
        let mut last = 0.0;
        for d in [1, 2, 16, 256, 1024, 4096] {
            let s = curve.seek_ms(d);
            assert!(s > last, "curve must increase");
            last = s;
        }
        assert_eq!(curve.seek_ms(100_000), curve.seek_ms(curve.full_stroke));
    }

    #[test]
    fn geometry_maps_regions_to_bands() {
        let g = ArmGeometry::default();
        assert_eq!(g.cylinder(&pg(0, 0)), 0);
        assert_eq!(g.cylinder(&pg(0, 31)), 0);
        assert_eq!(g.cylinder(&pg(0, 32)), 1);
        assert_eq!(g.cylinder(&pg(1, 0)), 1024);
        // Overflow clamps to the band's last cylinder.
        assert_eq!(g.cylinder(&pg(0, 32 * 5000)), 1023);
        let run = PageRun::new(pg(1, 30), 4); // crosses a cylinder edge
        assert_eq!(g.end_cylinder(&run), 1025);
    }

    #[test]
    fn fcfs_services_in_arrival_order() {
        let mut arm = DiskArm::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArmPolicy::Fcfs,
        );
        let a = arm.submit(read1(0, 32 * 100));
        let b = arm.submit(read1(0, 0));
        let c = arm.submit(read1(0, 32 * 50));
        let order: Vec<u64> = arm.drain().iter().map(|x| x.id).collect();
        assert_eq!(order, vec![a, b, c]);
    }

    #[test]
    fn elevator_sweeps_monotonically() {
        let mut arm = DiskArm::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArmPolicy::Elevator,
        );
        // Scattered cylinders (head starts at 0): one ascending sweep.
        for cyl in [500u64, 20, 900, 5, 300] {
            arm.submit(read1(0, cyl * 32));
        }
        let cylinders: Vec<u64> = arm
            .drain()
            .iter()
            .map(|c| ArmGeometry::default().cylinder(&c.request.run.start))
            .collect();
        assert_eq!(cylinders, vec![5, 20, 300, 500, 900]);
    }

    #[test]
    fn elevator_reverses_at_sweep_end_and_never_starves() {
        let mut arm = DiskArm::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArmPolicy::Elevator,
        );
        // A far request plus a cluster near the head. The far request is
        // reached on the same sweep; requests behind the head (arriving
        // while the arm sweeps up) are serviced on the way back down.
        let far = arm.submit(read1(0, 32 * 1000));
        for i in 0..8u64 {
            arm.submit(read1(0, 32 * (10 + i)));
        }
        let first = arm.service_next().unwrap();
        let behind = arm.submit(read1(0, 0)); // behind the head now
        let mut completed = vec![first.id];
        completed.extend(arm.drain().iter().map(|c| c.id));
        assert!(completed.contains(&far), "far request starved");
        assert!(completed.contains(&behind), "reverse-sweep request starved");
        assert_eq!(completed.len(), 10);
        // The sweep is bitonic: cylinders rise to the turn-around, then
        // fall. (behind=cyl 0 is serviced after far=cyl 1000.)
        assert_eq!(*completed.last().unwrap(), behind);
    }

    #[test]
    fn depth_one_never_merges_charges() {
        // Submitting one request at a time (wait for each completion)
        // must keep every request's own skip_seek flag — the
        // depth-1-degenerates-to-sync contract.
        let mut arm = DiskArm::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArmPolicy::Elevator,
        );
        let mut completions = Vec::new();
        for o in [0u64, 1, 2, 3] {
            arm.submit(read1(0, o)); // same cylinder every time
            completions.push(arm.service_next().unwrap());
        }
        assert!(completions.iter().all(|c| !c.effective_skip_seek));
        // Timeline still sees the same-cylinder adjacency (no seek time
        // after the first) — that is the latency model, not the charge.
        assert!(completions[1..].iter().all(|c| c.seek_ms == 0.0));
    }

    #[test]
    fn co_scheduled_same_cylinder_requests_merge_charges_under_elevator() {
        let mut arm = DiskArm::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArmPolicy::Elevator,
        );
        arm.submit(read1(0, 0));
        arm.submit(read1(0, 1)); // same cylinder, queued together
        let first = arm.service_next().unwrap();
        let second = arm.service_next().unwrap();
        assert!(!first.effective_skip_seek);
        assert!(second.effective_skip_seek, "co-scheduled merge must fire");
        // FCFS never merges.
        let mut fcfs = DiskArm::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArmPolicy::Fcfs,
        );
        fcfs.submit(read1(0, 0));
        fcfs.submit(read1(0, 1));
        assert!(fcfs.drain().iter().all(|c| !c.effective_skip_seek));
    }

    #[test]
    fn skip_seek_requests_stay_skipped_under_any_policy() {
        for policy in [ArmPolicy::Fcfs, ArmPolicy::Elevator] {
            let mut arm = DiskArm::new(DiskParams::default(), ArmGeometry::default(), policy);
            arm.submit(PageRequest {
                kind: IoKind::Read,
                run: PageRun::new(pg(0, 0), 2),
                skip_seek: false,
            });
            arm.submit(PageRequest {
                kind: IoKind::Read,
                run: PageRun::new(pg(0, 8), 2),
                skip_seek: true, // SLM follow-up run within the cluster
            });
            let done = arm.drain();
            assert!(!done[0].effective_skip_seek);
            assert!(done[1].effective_skip_seek);
            assert_eq!(done[1].seek_ms, 0.0, "skipped seek must cost no time");
        }
    }

    #[test]
    fn elevator_total_time_beats_fcfs_on_scattered_queue() {
        let requests: Vec<PageRequest> = [900u64, 10, 850, 40, 700, 90, 500, 200]
            .iter()
            .map(|&cyl| read1(0, cyl * 32))
            .collect();
        let run = |policy| {
            let mut arm = DiskArm::new(DiskParams::default(), ArmGeometry::default(), policy);
            for r in &requests {
                arm.submit(*r);
            }
            arm.drain();
            arm.clock_ms()
        };
        let fcfs = run(ArmPolicy::Fcfs);
        let elevator = run(ArmPolicy::Elevator);
        assert!(
            elevator < fcfs,
            "elevator {elevator} ms not faster than fcfs {fcfs} ms"
        );
    }

    #[test]
    fn idle_arm_waits_for_future_arrivals() {
        let mut arm = DiskArm::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArmPolicy::Fcfs,
        );
        arm.submit_at(read1(0, 0), 100.0);
        let c = arm.service_next().unwrap();
        assert_eq!(c.started_ms, 100.0);
        assert_eq!(c.queue_ms(), 0.0);
        assert!(arm.clock_ms() > 100.0);
    }

    #[test]
    fn latency_stats_absorb_and_report() {
        let mut arm = DiskArm::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArmPolicy::Fcfs,
        );
        arm.submit(read1(0, 0));
        arm.submit(read1(0, 32 * 200));
        let mut stats = LatencyStats::arriving_at(0.0);
        for c in arm.drain() {
            stats.absorb(&c);
        }
        assert_eq!(stats.requests, 2);
        assert!(stats.queue_ms > 0.0, "second request waited");
        assert!(stats.service_ms > 0.0);
        assert!((stats.latency_ms() - arm.clock_ms()).abs() < 1e-9);
        assert!(stats.mean_queue_ms() > 0.0);
        let empty = LatencyStats::arriving_at(5.0);
        assert_eq!(empty.latency_ms(), 0.0);
        assert_eq!(empty.mean_queue_ms(), 0.0);
    }

    #[test]
    fn sectored_rotation_mean_calibrates_to_flat_latency() {
        // The same sector read at arrival phases sampling one full
        // revolution (midpoint sampling, so the discrete mean equals
        // the continuum mean exactly): the delays sweep the revolution
        // and average to the paper's flat 6 ms — the calibration
        // contract of the sectored model.
        let params = DiskParams::default();
        let geometry = ArmGeometry::default();
        let period = 2.0 * params.latency_ms;
        let samples = 32;
        let mut total = 0.0;
        for k in 0..samples {
            let mut arm = DiskArm::new(params, geometry, ArmPolicy::Fcfs);
            arm.set_rotation(RotationModel::Sectored);
            let arrival = (k as f64 + 0.5) / samples as f64 * period;
            arm.submit_at(read1(0, 0), arrival);
            let c = arm.drain().pop().expect("one completion");
            // service = seek(0) + rotation + transfer(1 page); the idle
            // arm starts at the arrival instant, so the head's phase at
            // readiness is exactly `arrival`.
            let rotation = c.finished_ms - c.started_ms - params.transfer_ms;
            assert!(
                (0.0..period).contains(&rotation),
                "rotation {rotation} outside one revolution"
            );
            total += rotation;
        }
        let mean = total / samples as f64;
        assert!(
            (mean - params.latency_ms).abs() < 1e-9,
            "mean rotational delay {mean} != {} (calibration drifted)",
            params.latency_ms
        );
    }

    #[test]
    fn sectored_rotation_depends_on_arrival_angle() {
        // The same target sector reached at two different clock phases
        // pays two different delays — and a request landing exactly on
        // its sector pays zero.
        let params = DiskParams::default();
        let geometry = ArmGeometry::default();
        let period = 2.0 * params.latency_ms;
        let mut arm = DiskArm::new(params, geometry, ArmPolicy::Fcfs);
        arm.set_rotation(RotationModel::Sectored);
        // Offset 0 → target phase 0; ready at clock 0 → zero delay.
        arm.submit_at(read1(0, 0), 0.0);
        let first = arm.service_next().expect("completion");
        assert_eq!(first.finished_ms - first.started_ms, params.transfer_ms);
        // Same sector again: the head is mid-revolution now, so the
        // arm waits for the platter to come around — a positive delay
        // shorter than one revolution.
        arm.submit_at(read1(0, 0), first.finished_ms);
        let second = arm.service_next().expect("completion");
        let delay = second.finished_ms - second.started_ms - params.transfer_ms;
        assert!(delay > 0.0 && delay < period, "delay {delay}");
        // And the flat default stays flat.
        let mut flat = DiskArm::new(params, geometry, ArmPolicy::Fcfs);
        flat.submit(read1(0, 0));
        let c = flat.service_next().expect("completion");
        assert_eq!(
            c.finished_ms - c.started_ms,
            params.latency_ms + params.transfer_ms
        );
    }

    #[test]
    fn simulate_queries_tracks_per_query_latency() {
        let q = |arrival: f64, cyls: &[u64]| QueryTrace {
            arrival_ms: arrival,
            requests: cyls.iter().map(|&c| read1(0, c * 32)).collect(),
        };
        let queries = vec![
            q(0.0, &[100, 101, 102]),
            q(5.0, &[500, 501]),
            q(10.0, &[]), // no I/O: completes at arrival
        ];
        let stats = replay(ArmPolicy::Elevator, 2, &queries);
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].requests, 3);
        assert_eq!(stats[1].requests, 2);
        assert_eq!(stats[2].requests, 0);
        assert_eq!(stats[2].latency_ms(), 0.0);
        assert!(stats[0].latency_ms() > 0.0);
        assert!(stats[1].latency_ms() > 0.0);
        // Conservation: every request serviced exactly once.
        let total: u64 = stats.iter().map(|s| s.requests).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn simulate_depth_bounds_outstanding_requests() {
        // One query, many same-cost requests: at depth 1 each request is
        // submitted only after the previous completed, so no queue wait
        // accrues at all.
        let queries = vec![QueryTrace {
            arrival_ms: 0.0,
            requests: (0..16).map(|i| read1(0, i * 64)).collect(),
        }];
        let d1 = replay(ArmPolicy::Elevator, 1, &queries);
        assert_eq!(d1[0].queue_ms, 0.0, "depth-1 has no queueing");
        let d4 = replay(ArmPolicy::Elevator, 4, &queries);
        assert!(d4[0].queue_ms > 0.0, "depth-4 overlaps requests");
        // Elevator reordering can only shorten the busy span.
        assert!(d4[0].completed_ms <= d1[0].completed_ms + 1e-9);
    }

    #[test]
    fn elevator_beats_fcfs_mean_latency_at_depth() {
        // 8 queries arriving back-to-back, each touching a different
        // region band: lots of cross-file head travel for FCFS to waste.
        let queries: Vec<QueryTrace> = (0..8u16)
            .map(|r| QueryTrace {
                arrival_ms: r as f64 * 10.0,
                requests: (0..6u64).map(|o| read1(r % 4, o * 96)).collect(),
            })
            .collect();
        let mean = |policy| {
            let stats = replay(policy, 4, &queries);
            stats.iter().map(|s| s.latency_ms()).sum::<f64>() / stats.len() as f64
        };
        let fcfs = mean(ArmPolicy::Fcfs);
        let elevator = mean(ArmPolicy::Elevator);
        assert!(
            elevator < fcfs,
            "elevator mean {elevator} not below fcfs mean {fcfs}"
        );
    }
}
