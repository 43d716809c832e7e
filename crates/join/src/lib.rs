//! # spatialdb-join
//!
//! The spatial (intersection) join of §6 of Brinkhoff & Kriegel,
//! VLDB 1994, built on the R\*-tree join of \[BKS93b\] (Brinkhoff, Kriegel,
//! Seeger, SIGMOD 1993).
//!
//! A complete intersection join runs in three steps (§6.3, \[BKSS94\]):
//!
//! 1. **MBR join** ([`mbr_join`](mod@mbr_join)): synchronized traversal of the two
//!    R\*-trees. Pairs of intersecting directory entries are processed in
//!    ascending order of their smallest x-coordinate, with one subtree
//!    *pinned* against all its partners before moving on — combined with
//!    an LRU buffer of reasonable size this reads most tree pages only
//!    once.
//! 2. **Object transfer** ([`transfer`]): the exact representations of
//!    all candidate objects are fetched from the organization models.
//!    Unlike a window query, the join *"may read an object in an
//!    unpredictable manner many times"* (§6.2) — what gets re-read is
//!    decided by the shared LRU buffer, which is why Figures 14 and 16
//!    sweep the buffer size. The cluster organization supports the
//!    transfer techniques *complete*, *vector read*, *read* and
//!    *optimum*.
//! 3. **Exact geometry test**: each candidate pair is tested on the
//!    decomposed representations; the paper charges ≈ 0.75 msec of CPU
//!    time per test, which [`pipeline`] reproduces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mbr_join;
pub mod pipeline;
pub mod transfer;

pub use mbr_join::{mbr_join, MbrJoinResult};
pub use pipeline::{JoinConfig, JoinStats, SpatialJoin};
pub use transfer::transfer_objects;
