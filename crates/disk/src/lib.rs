//! # spatialdb-disk
//!
//! Magnetic-disk I/O cost simulator for the reproduction of Brinkhoff &
//! Kriegel, VLDB 1994.
//!
//! The paper evaluates every organization model with an analytical disk
//! cost model (§3.1, §5.1): the access time of a request decomposes into
//! *seek time* `t_s` (9 ms), *latency / rotational delay* `t_l` (6 ms) and
//! *transfer time* `t_t` (1 ms per 4 KB page); physically consecutive pages
//! can be read with a single request that pays the seek and latency once.
//! This crate implements that model together with everything the storage
//! layer needs to talk to it:
//!
//! * [`model`] — pages, page runs, regions, and the [`model::DiskParams`]
//!   cost constants;
//! * [`disk::Disk`] — the shared accounting object every request is
//!   charged against, with per-category [`stats::IoStats`];
//! * [`alloc`] — sequential (append-only) and extent (free-list) page
//!   allocators; pages of different *regions* are never physically
//!   consecutive, modelling separate files on the disk;
//! * [`buddy`] — the buddy system of §5.3.1, including the *restricted*
//!   variant with three buddy sizes used in Figure 7;
//! * [`buffer`] — an LRU page buffer with write-back semantics and the
//!   *vector read* / *normal read* distinction of Figure 15;
//! * [`schedule`] — the SLM read schedules of \[SLM93\] (§5.4.2): one read
//!   request bridges gaps of non-requested pages shorter than
//!   `l = t_l/t_t − 1/2`;
//! * [`arm`] — the overlapped-I/O subsystem: a disk-arm request
//!   scheduler with FCFS / elevator (SCAN) ordering over cylinder-mapped
//!   region offsets, a distance-dependent seek curve calibrated so its
//!   mean equals the paper's average `seek_ms`, and per-query
//!   [`arm::LatencyStats`]. Requests are submitted via
//!   [`disk::Disk::submit`] and charged at service time through the same
//!   `charge` path — depth-1 submission is byte-identical to the
//!   synchronous model;
//! * [`array`](mod@array) — multi-arm declustered storage: a [`array::DiskArray`]
//!   of N independent arms behind a [`array::StripePolicy`] mapping
//!   each region to one arm's local cylinder band, with a parallel
//!   drain popping the globally-earliest completion across arms and
//!   per-arm [`arm::ArmStats`] (utilization, mean queue depth). A
//!   1-arm array is byte-identical to the single [`arm::DiskArm`]
//!   under every stripe policy.
//!
//! The simulator is deterministic: identical request sequences produce
//! identical I/O counts, which is what makes the reproduced figures
//! meaningful. Since the thread-safety refactor every type here is
//! `Send + Sync` — the disk's counters live behind a mutex (with a
//! thread-local tally for per-query deltas, see
//! [`disk::Disk::local_stats`]), and the buffer shared between threads
//! is the [`shard::ShardedPool`] (the storage layer's `SharedPool`):
//! N page-hash shards, each its own lock and LRU list, under one
//! capacity budget. With one shard it is byte-identical to the
//! single-lock [`buffer::BufferPool`], which remains the reference
//! implementation (and the private scratch pool of the parallel join).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
pub(crate) mod test_util {
    /// Tiny deterministic xorshift for the randomized mirror tests (no
    /// external rand dependency) — one definition shared by the disk
    /// and shard test modules.
    pub(crate) struct Rng(pub u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }
}

pub mod alloc;
pub mod arm;
pub mod array;
pub mod buddy;
pub mod buffer;
pub mod disk;
pub mod lockdep;
pub mod model;
pub mod schedule;
pub mod shard;
pub mod stats;

pub use alloc::{ExtentAllocator, SequentialAllocator};
pub use arm::{
    ArmGeometry, ArmPolicy, ArmStats, Completion, DiskArm, LatencyStats, PageRequest, QueryTrace,
    RotationModel, SeekCurve,
};
pub use array::{simulate, ArrayConfig, Arrivals, DiskArray, StripePolicy};
pub use buddy::{BuddyAllocator, BuddyConfig};
pub use buffer::{BufferPool, LruBuffer, ReadMode, SeekPolicy};
pub use disk::{Disk, DiskHandle, ScratchTally};
pub use lockdep::{wait_graph, DepGuard, DepMutex, LockClass};
pub use model::{DiskParams, PageId, PageRun, RegionId, PAGE_SIZE};
pub use schedule::{slm_gap_limit, slm_schedule, ScheduledRun};
pub use shard::{Routing, ShardedPool};
pub use stats::{IoKind, IoStats};
