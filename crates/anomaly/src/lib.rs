//! Online anomaly prediction for PREPARE (paper §II-B).
//!
//! The anomaly predictor combines **attribute value prediction** (Markov
//! chain models from [`prepare_markov`]) with **multi-variant anomaly
//! classification** (TAN from [`prepare_tan`]): at every sampling point it
//! predicts each attribute's value a look-ahead window into the future and
//! classifies the *predicted* metric vector, raising an advance alert when
//! the classifier says *abnormal*.
//!
//! The crate provides:
//!
//! - [`AnomalyPredictor`] — the per-VM model (one per application VM).
//! - [`MonolithicPredictor`] — the baseline that stuffs all VMs' attributes
//!   into a single model (Fig. 10 shows why this is worse).
//! - [`AlertFilter`] — the `k`-of-`W` majority-vote false-alarm filter
//!   (§II-C, k=3 / W=4 in the paper's experiments).
//! - [`ConfusionMatrix`] — `A_T` / `A_F` accuracy scoring (Eq. 3).
//! - [`OutlierDetector`] — the unsupervised extension sketched in §V for
//!   anomalies never seen before.
//!
//! # Example
//!
//! ```
//! use prepare_anomaly::{AnomalyPredictor, PredictorConfig};
//! use prepare_metrics::{AttributeKind, MetricSample, MetricVector, SloLog, TimeSeries, Timestamp, Duration};
//!
//! // Build a training series where CpuTotal ramps into saturation and the
//! // SLO breaks whenever it is above 90%.
//! let mut series = TimeSeries::new();
//! let mut slo = SloLog::new();
//! for i in 0..240u64 {
//!     let t = Timestamp::from_secs(i * 5);
//!     let cpu = ((i % 60) as f64 * 2.0).min(100.0);
//!     let mut v = MetricVector::zeros();
//!     v.set(AttributeKind::CpuTotal, cpu);
//!     series.push(MetricSample::new(t, v));
//!     slo.record(t, cpu > 90.0);
//! }
//! let cfg = PredictorConfig::default();
//! let mut p = AnomalyPredictor::train(&series, &slo, &cfg)?;
//! for s in series.iter().take(50) {
//!     p.observe(s);
//! }
//! let pred = p.predict(Duration::from_secs(30));
//! assert!(pred.score.is_finite());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod accuracy;
mod alert;
mod clustering;
mod filter;
mod model;
mod monolithic;
mod outlier;
mod predictor;
mod roc;
mod trainer;
mod unsupervised;

pub use accuracy::ConfusionMatrix;
pub use alert::Prediction;
pub use clustering::{ClusterClassifier, KMeans};
pub use filter::{AlertFilter, Vote};
pub use model::{MarkovKind, ValueModel};
pub use monolithic::MonolithicPredictor;
pub use outlier::OutlierDetector;
pub use predictor::{AnomalyPredictor, PredictorConfig};
pub use roc::{RocCurve, RocPoint};
pub use trainer::FleetTrainer;
pub use unsupervised::{UnsupervisedPrediction, UnsupervisedPredictor};

pub use prepare_tan::TrainError;
