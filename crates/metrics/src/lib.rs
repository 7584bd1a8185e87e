//! Metric foundation for the PREPARE reproduction.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! - [`AttributeKind`]: the 13 system-level metrics PREPARE monitors per VM
//!   (CPU, memory, network, disk and load statistics — §II-A of the paper).
//! - [`MetricVector`] / [`MetricSample`]: one monitoring observation.
//! - [`TimeSeries`]: storage and windowed statistics.
//! - [`Discretizer`] / [`VectorDiscretizer`]: equal-width binning that turns
//!   continuous metrics into the discrete states consumed by the Markov
//!   value predictors and the TAN classifier.
//! - [`SloLog`] / [`Label`]: automatic runtime data labeling by matching
//!   measurement timestamps against SLO-violation intervals (§II-B).
//! - [`CusumDetector`]: change-point detection used to tell workload changes
//!   apart from internal faults (§II-C).
//!
//! # Example
//!
//! ```
//! use prepare_metrics::{AttributeKind, MetricVector, Timestamp};
//!
//! let mut v = MetricVector::zeros();
//! v.set(AttributeKind::CpuTotal, 42.0);
//! assert_eq!(v.get(AttributeKind::CpuTotal), 42.0);
//! assert_eq!(Timestamp::from_secs(5).as_secs(), 5);
//! ```

mod attr;
mod changepoint;
mod discretize;
mod fingerprint;
pub mod guard;
pub mod json;
mod label;
pub mod persist;
mod sample;
mod series;
mod staleness;
mod stats;
mod time;
mod trace;

pub use attr::{AttributeKind, ScalableResource, VmId, ATTRIBUTE_COUNT};
pub use changepoint::{ChangePoint, CusumDetector, CUSUM_DRIFT, CUSUM_THRESHOLD, CUSUM_WARMUP};
pub use discretize::{DiscreteVector, Discretizer, VectorDiscretizer};
pub use fingerprint::Fingerprint64;
pub use label::{Label, SloLog};
pub use persist::{Persist, PersistError, Reader, Writer};
pub use sample::{MetricSample, MetricVector};
pub use series::{SeriesIter, SeriesStats, TimeSeries};
pub use staleness::{LastValueImputer, StalenessBudget, StampedSample, DEFAULT_STALENESS_SECS};
pub use stats::{mean, mean_std, percentile, std_dev};
pub use time::{Duration, Timestamp};
pub use trace::{TraceError, TraceStore};
