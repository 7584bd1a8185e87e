//! Simulated case-study applications for the PREPARE reproduction
//! (paper §III-A).
//!
//! The paper evaluates PREPARE with two real distributed systems that are
//! not available to us (IBM System S is proprietary; RUBiS needs a full
//! EJB stack), so this crate provides behavioural models that expose the
//! same surfaces PREPARE interacts with:
//!
//! - [`SystemS`] — the 7-PE tax-calculation dataflow of Fig. 4, with the
//!   paper's SLO (output/input rate ≥ 0.95 and per-tuple time ≤ 20 ms).
//! - [`Rubis`] — the 3-tier auction topology of Fig. 5 (web server, two
//!   app servers, DB) with an M/M/1-style response-time model and the
//!   paper's 200 ms SLO.
//! - [`Workload`] — client workload generators, including a synthesized
//!   stand-in for the NASA-95 web trace ([`Workload::nasa_trace`]).
//! - [`FaultPlan`] — the three fault injections of §III-A: memory leak,
//!   CPU hog, and the workload-ramp bottleneck.
//!
//! Every component runs in its own VM on a [`prepare_cloudsim::Cluster`];
//! per tick, each app converts its incoming request/tuple rate into
//! per-VM resource [`prepare_cloudsim::Demand`]s, lets the cluster
//! resolve contention, and derives achieved throughput / response time
//! from the returned [`prepare_cloudsim::ServiceQuality`].

mod app;
mod component;
mod faults;
mod rubis;
mod systems;
mod workload;

pub use app::{AppTick, Application};
pub use component::ComponentSpec;
pub use faults::{FaultInjection, FaultKind, FaultPlan};
pub use rubis::Rubis;
pub use systems::SystemS;
pub use workload::Workload;
