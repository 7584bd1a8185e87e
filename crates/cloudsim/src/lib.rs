//! Virtualized-cluster substrate for the PREPARE reproduction.
//!
//! The paper runs on Xen hosts in NCSU's Virtual Computing Lab; PREPARE
//! itself only interacts with that testbed through three narrow surfaces:
//!
//! 1. **Out-of-band monitoring** — dom0 reads each guest VM's resource
//!    usage (`libxenstat`) plus an in-guest memory daemon ([`Monitor`]).
//! 2. **Elastic resource scaling** — adjusting a VM's CPU cap or memory
//!    allocation (~100 ms actuation, Table I).
//! 3. **Live VM migration** — relocating a VM to another host with
//!    matching resources (~8.5 s per 512 MB, longer under load).
//!
//! This crate simulates exactly those surfaces with a discrete 1-second
//! clock: [`Cluster`] owns hosts and VMs, applications push per-tick
//! resource [`Demand`]s and receive a [`ServiceQuality`] describing how
//! much of the demand the virtualization layer could satisfy (CPU
//! contention, memory pressure/paging, migration brown-out), and the
//! [`Monitor`] converts VM state into the 13-attribute
//! [`prepare_metrics::MetricVector`] stream PREPARE consumes.
//!
//! # Example
//!
//! ```
//! use prepare_cloudsim::{Cluster, HostSpec, Demand};
//! use prepare_metrics::Timestamp;
//!
//! let mut cluster = Cluster::new();
//! let host = cluster.add_host(HostSpec::vcl_default());
//! let vm = cluster.create_vm(host, 100.0, 512.0)?;
//! let q = cluster.apply_demand(vm, Demand { cpu: 50.0, mem_mb: 256.0, ..Demand::default() }, Timestamp::ZERO);
//! assert!((q.cpu_fraction - 1.0).abs() < 1e-9); // plenty of headroom
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actions;
mod chaos;
mod cluster;
mod costs;
mod invariants;
mod monitor;
mod placement;
mod spec;

pub use actions::{ActionKind, ActionRecord, MigrateError, PlacementError, ScaleError};
pub use chaos::{ChaosEngine, ChaosFault, ChaosKind, ChaosPlan, ChaosStats};
pub use cluster::{
    Cluster, HostId, MigrationState, VmState, CPU_BACKLOG_CAP_SECS, PAGE_IN_RATE_MB_PER_SEC,
};
pub use costs::{ActuationCosts, TABLE1_COSTS};
pub use monitor::Monitor;
pub use placement::{
    BestFit, FirstFit, PlacementPolicy, PlacementRequest, PlacementStore, WorstFit,
};
pub use spec::{Demand, HostSpec, ServiceQuality};
