//! The PREPARE reproduction's control-loop benchmark.
//!
//! One driver loop ([`driver::drive`]) is parameterised into four
//! workloads ([`workloads::Workload`]) and measures the system only
//! through public functions. End-to-end numbers come from untraced
//! passes; a traced run wraps every call the driver makes in a span
//! ([`trace::Tracer`]) and shadows the opaque controller round with the
//! same inputs fed to standalone layer objects ([`shadow::Shadow`]).
//! README.md has the metric tables and the reasoning behind them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod driver;
pub mod fleet;
pub mod pass;
pub mod report;
pub mod shadow;
pub mod stats;
pub mod trace;
pub mod workloads;
