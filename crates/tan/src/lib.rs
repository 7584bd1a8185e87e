//! Discrete Bayesian anomaly classifiers (paper §II-B/§II-C, Fig. 3).
//!
//! PREPARE classifies (predicted) metric vectors into *normal*/*abnormal*
//! with the **Tree-Augmented Naive Bayesian network (TAN)** of Cohen et
//! al. \[12\]. TAN extends Naive Bayes with a Chow–Liu tree over the
//! attributes (maximum spanning tree on conditional mutual information),
//! so each attribute may depend on one other attribute in addition to the
//! class. Its decision rule is Eq. 1:
//!
//! ```text
//! Σᵢ log [ P(aᵢ | a_pᵢ, C=1) / P(aᵢ | a_pᵢ, C=0) ] + log P(C=1)/P(C=0) > 0
//! ```
//!
//! and the per-attribute terms `Lᵢ` (Eq. 2) rank how strongly each metric
//! pushed the decision toward *abnormal* — the anomaly cause inference
//! signal (Fig. 3).
//!
//! [`NaiveBayes`] is also provided: it is the authors' earlier classifier
//! \[10\] and the paper's stated reason for adopting TAN ("it cannot
//! provide the metric attribution information accurately").
//!
//! # Example
//!
//! ```
//! use prepare_tan::{Dataset, TanClassifier, Classifier};
//! use prepare_metrics::Label;
//!
//! let mut ds = Dataset::new(vec![2, 2]); // two binary attributes
//! for _ in 0..50 {
//!     ds.push(vec![0, 0], Label::Normal)?;
//!     ds.push(vec![1, 1], Label::Abnormal)?;
//! }
//! let tan = TanClassifier::train(&ds)?;
//! assert_eq!(tan.classify(&[1, 1]), Label::Abnormal);
//! assert_eq!(tan.classify(&[0, 0]), Label::Normal);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chow_liu;
mod dataset;
mod export;
mod invariants;
mod mutual_info;
mod naive;
mod tan;

pub use chow_liu::chow_liu_tree;
pub use dataset::{Dataset, DatasetError};
pub use mutual_info::conditional_mutual_information;
pub use naive::NaiveBayes;
pub use tan::{AttributeStrength, TanClassifier, TanVerdict};

use prepare_metrics::Label;

/// Errors arising while training a classifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The dataset contains no rows.
    EmptyDataset,
    /// The dataset contains rows of only one class; a discriminative
    /// model cannot be fit. Carries the single class present.
    SingleClass(Label),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::EmptyDataset => f.write_str("training dataset is empty"),
            TrainError::SingleClass(l) => {
                write!(f, "training dataset contains only {l} examples")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// A trained binary (normal/abnormal) classifier over discretized metric
/// vectors.
pub trait Classifier: Sized {
    /// Fits the classifier to a labeled dataset.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if the dataset is empty or single-class.
    fn train(dataset: &Dataset) -> Result<Self, TrainError>;

    /// The decision score — the left-hand side of Eq. 1. Positive means
    /// *abnormal*.
    fn score(&self, x: &[usize]) -> f64;

    /// Classifies a discretized vector.
    fn classify(&self, x: &[usize]) -> Label {
        Label::from_violation(self.score(x) > 0.0)
    }

    /// Per-attribute impact strengths `Lᵢ` (Eq. 2) for this input, in
    /// attribute order. Larger means more responsible for an *abnormal*
    /// verdict.
    fn attribute_strengths(&self, x: &[usize]) -> Vec<f64>;
}
