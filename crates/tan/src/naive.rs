//! Naive Bayes classifier — the authors' earlier anomaly classifier \[10\],
//! kept as a baseline (the paper replaced it because its attribute
//! attribution is unreliable, not because its accuracy was poor).

use crate::{Classifier, Dataset, TrainError};
use prepare_metrics::Label;

/// Class-conditional probability table for one attribute with no attribute
/// parent: `P(a_i = v | C = c)`, Laplace-smoothed.
#[derive(Debug, Clone, PartialEq)]
struct RootCpt {
    /// log_p[c][v]
    log_p: [Vec<f64>; 2],
}

impl RootCpt {
    fn fit(ds: &Dataset, attr: usize, alpha: f64) -> Self {
        let card = ds.cardinality(attr);
        let mut counts = [vec![0.0f64; card], vec![0.0f64; card]];
        for (row, label) in ds.iter() {
            // xtask-allow: index-in-loop -- Dataset::push keeps every value below its cardinality
            counts[label.is_abnormal() as usize][row[attr]] += 1.0;
        }
        Self::from_counts(counts, alpha)
    }

    /// Derives the smoothed log-probability table from per-class value
    /// counts — the only count→probability code path for root CPTs.
    fn from_counts(counts: [Vec<f64>; 2], alpha: f64) -> Self {
        let card = counts[0].len();
        let log_p: [Vec<f64>; 2] = counts.map(|cs| {
            let total: f64 = cs.iter().sum::<f64>() + alpha * card as f64;
            cs.iter().map(|c| ((c + alpha) / total).ln()).collect()
        });
        for row in &log_p {
            crate::invariants::debug_assert_row_stochastic(row, "RootCpt::fit");
        }
        RootCpt { log_p }
    }

    fn log_prob(&self, value: usize, class: Label) -> f64 {
        self.log_p[class.is_abnormal() as usize][value]
    }
}

/// A trained Naive Bayes anomaly classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBayes {
    cpts: Vec<RootCpt>,
    log_prior_ratio: f64,
    cardinalities: Vec<usize>,
}

pub(crate) fn log_prior_ratio(ds: &Dataset) -> Result<f64, TrainError> {
    log_prior_ratio_from_counts(ds.len(), ds.class_counts())
}

/// The prior derivation: empty before single-class in error precedence.
fn log_prior_ratio_from_counts(
    rows: usize,
    (normal, abnormal): (usize, usize),
) -> Result<f64, TrainError> {
    if rows == 0 {
        return Err(TrainError::EmptyDataset);
    }
    if normal == 0 {
        return Err(TrainError::SingleClass(Label::Abnormal));
    }
    if abnormal == 0 {
        return Err(TrainError::SingleClass(Label::Normal));
    }
    Ok(prepare_metrics::debug_assert_finite!((abnormal as f64
        / normal as f64)
        .ln()))
}

pub(crate) fn clamp_value(x: &[usize], i: usize, card: usize) -> usize {
    x[i].min(card - 1)
}

impl Classifier for NaiveBayes {
    fn train(ds: &Dataset) -> Result<Self, TrainError> {
        let log_prior_ratio = log_prior_ratio(ds)?;
        let cpts = (0..ds.n_attributes())
            .map(|i| RootCpt::fit(ds, i, 1.0))
            .collect();
        Ok(NaiveBayes {
            cpts,
            log_prior_ratio,
            cardinalities: ds.cardinalities().to_vec(),
        })
    }

    fn score(&self, x: &[usize]) -> f64 {
        assert_eq!(x.len(), self.cpts.len(), "input arity mismatch");
        self.attribute_strengths(x).iter().sum::<f64>() + self.log_prior_ratio
    }

    fn attribute_strengths(&self, x: &[usize]) -> Vec<f64> {
        assert_eq!(x.len(), self.cpts.len(), "input arity mismatch");
        self.cpts
            .iter()
            .enumerate()
            .map(|(i, cpt)| {
                let v = clamp_value(x, i, self.cardinalities[i]);
                cpt.log_prob(v, Label::Abnormal) - cpt.log_prob(v, Label::Normal)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable_dataset() -> Dataset {
        let mut ds = Dataset::with_uniform_bins(3, 4);
        for k in 0..100usize {
            // Normal: low values; abnormal: high values on attrs 0 and 1.
            if k % 2 == 0 {
                ds.push(vec![0, 1, k % 4], Label::Normal).unwrap();
            } else {
                ds.push(vec![3, 3, k % 4], Label::Abnormal).unwrap();
            }
        }
        ds
    }

    #[test]
    fn classifies_separable_data() {
        let nb = NaiveBayes::train(&separable_dataset()).unwrap();
        assert_eq!(nb.classify(&[0, 1, 2]), Label::Normal);
        assert_eq!(nb.classify(&[3, 3, 2]), Label::Abnormal);
    }

    #[test]
    fn informative_attributes_have_larger_strength() {
        let nb = NaiveBayes::train(&separable_dataset()).unwrap();
        let s = nb.attribute_strengths(&[3, 3, 1]);
        assert!(
            s[0] > s[2],
            "attr0 {:.3} should out-blame noise {:.3}",
            s[0],
            s[2]
        );
        assert!(s[1] > s[2]);
    }

    #[test]
    fn empty_dataset_is_error() {
        let ds = Dataset::new(vec![2]);
        assert_eq!(NaiveBayes::train(&ds), Err(TrainError::EmptyDataset));
    }

    #[test]
    fn single_class_is_error() {
        let mut ds = Dataset::new(vec![2]);
        ds.push(vec![0], Label::Normal).unwrap();
        assert_eq!(
            NaiveBayes::train(&ds),
            Err(TrainError::SingleClass(Label::Normal))
        );
    }

    #[test]
    fn out_of_range_input_is_clamped() {
        let nb = NaiveBayes::train(&separable_dataset()).unwrap();
        // A runtime value above the trained range clamps to the top bin.
        assert_eq!(nb.classify(&[9, 9, 9]), nb.classify(&[3, 3, 3]));
    }
}
