//! Umbrella crate re-exporting the PREPARE reproduction workspace.

pub use prepare_anomaly as anomaly;
pub use prepare_apps as apps;
pub use prepare_cloudsim as cloudsim;
pub use prepare_core as core;
pub use prepare_markov as markov;
pub use prepare_metrics as metrics;
pub use prepare_par as par;
pub use prepare_tan as tan;
