//! # spatialdb
//!
//! A from-scratch reproduction of Brinkhoff & Kriegel, *"The Impact of
//! Global Clustering on Spatial Database Systems"*, VLDB 1994 — a spatial
//! database storage engine built around the paper's **cluster
//! organization** for global clustering, together with the secondary and
//! primary organization baselines, an R\*-tree, a magnetic-disk I/O cost
//! simulator, the window-query techniques (complete / geometric threshold
//! / SLM / optimum), the R\*-tree spatial join, and a TIGER-like data
//! generator.
//!
//! Storage backends are pluggable behind the
//! [`SpatialStore`] trait, and queries stream through the [`Query`]
//! builder.
//!
//! ## Quickstart
//!
//! ```
//! use spatialdb::{DbOptions, OrganizationKind, Workspace};
//! use spatialdb::geom::{Point, Polygon, Polyline, Rect};
//! use spatialdb::storage::WindowTechnique;
//!
//! // A workspace is one simulated machine: disk + buffer pool.
//! let ws = Workspace::new(512);
//! let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
//!
//! // Store a street (polyline), a well (point) and a park (polygon).
//! db.insert(1, Polyline::new(vec![
//!     Point::new(0.10, 0.20),
//!     Point::new(0.12, 0.21),
//!     Point::new(0.15, 0.20),
//! ]));
//! db.insert(2, Point::new(0.11, 0.205));
//! db.insert(3, Polygon::new(vec![
//!     Point::new(0.13, 0.19),
//!     Point::new(0.14, 0.19),
//!     Point::new(0.14, 0.22),
//! ]));
//! db.finish_loading();
//!
//! // Build a window query and stream the exactly-refined results.
//! let mut results = db
//!     .query()
//!     .window(Rect::new(0.0, 0.0, 0.2, 0.3))
//!     .technique(WindowTechnique::Slm)
//!     .run();
//!
//! // The cursor carries the cost of *this* query alone…
//! assert_eq!(results.stats().candidates, 3);
//! assert!(results.stats().io_ms > 0.0);
//!
//! // …and lazily yields (id, &Geometry) pairs in ascending id order.
//! let ids: Vec<u64> = results.by_ref().map(|(id, _)| id).collect();
//! assert_eq!(ids, vec![1, 2, 3]);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`geom`] | geometry kernel (points, MBRs, polylines, polygons, [`Geometry`]) |
//! | [`disk`] | disk cost model, buffer pool, buddy system, SLM schedules |
//! | [`rtree`] | the R\*-tree |
//! | [`storage`] | the `SpatialStore` trait, the three organization models & the in-memory baseline |
//! | [`join`] | the spatial join pipeline |
//! | [`data`] | synthetic TIGER-like maps & workloads (Table 1) |
//! | [`query`] | the streaming `Query` builder and cursors |
//! | [`executor`] | query batches and `run_par` on the execution engine (`run_batch`) |
//! | [`stream`] | the execution engine and mixed read/write streams (`run_stream`) |
//! | [`experiments`] | drivers regenerating every table/figure of the paper |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulkload;
pub mod config;
pub mod db;
pub mod executor;
pub mod experiments;
pub mod query;
pub mod report;
pub mod stream;

pub use bulkload::bulk_load_records_par;
pub use config::{ConfigError, EngineConfig};
pub use db::{DbOptions, SpatialDatabase, StoreRead, Workspace};
pub use executor::{Arrival, BatchOutcome, ExecPlan, FilterMode, OverlapConfig, QueryOutcome};
pub use query::{JoinCursor, JoinQuery, Query, ResultCursor};
pub use stream::{run_stream, OpOutcome, StreamOp, StreamOutcome};

pub use spatialdb_data as data;
pub use spatialdb_disk as disk;
pub use spatialdb_geom as geom;
pub use spatialdb_join as join;
pub use spatialdb_rtree as rtree;
pub use spatialdb_storage as storage;

pub use spatialdb_data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
pub use spatialdb_disk::{
    ArmPolicy, ArmStats, Disk, DiskHandle, DiskParams, IoStats, LatencyStats, RotationModel,
    Routing, StripePolicy,
};
pub use spatialdb_geom::Geometry;
pub use spatialdb_join::{JoinConfig, JoinStats, SpatialJoin};
pub use spatialdb_rtree::ObjectId;
pub use spatialdb_storage::{
    ClusterConfig, MemoryStore, Organization, OrganizationKind, QueryStats, SpatialStore,
    TransferTechnique, WindowTechnique,
};
