//! The Tree-Augmented Naive Bayesian classifier (paper §II-B/C, Eq. 1–2,
//! Fig. 3).

use crate::naive::{clamp_value, log_prior_ratio};
use crate::{chow_liu_tree, Classifier, Dataset, TrainError};
use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
use prepare_metrics::{debug_assert_finite, Label};

/// Class- and parent-conditional probability table:
/// `P(a_i = v | a_p = u, C = c)`, Laplace-smoothed. The tree root has no
/// attribute parent; its table has one parent row, `u = 0`.
#[derive(Debug, Clone, PartialEq)]
struct EdgeCpt {
    /// Every log-probability in one flat table, row-major: `log_p[(c ·
    /// parent_card + u) · card + v]`. One allocation per table, so a
    /// restore reads each table in one pass instead of building a vector
    /// per row.
    log_p: Vec<f64>,
    /// Rows per class: the parent's cardinality (1 for the root).
    parent_card: usize,
    /// Cells per row: the attribute's cardinality.
    card: usize,
}

impl EdgeCpt {
    fn fit(ds: &Dataset, attr: usize, parent: Option<usize>, alpha: f64) -> Self {
        let card = ds.cardinality(attr);
        let parent_card = parent.map_or(1, |p| ds.cardinality(p));
        let mut counts = vec![0.0f64; 2 * parent_card * card];
        for (row, label) in ds.iter() {
            let u = parent.and_then(|p| row.get(p).copied()).unwrap_or(0);
            let c = label.is_abnormal() as usize;
            // xtask-allow: index-in-loop -- Dataset::push keeps every value below its cardinality
            counts[(c * parent_card + u) * card + row[attr]] += 1.0;
        }
        Self::from_counts(counts, parent_card, card, alpha)
    }

    /// Derives the smoothed log-probability table from the flat
    /// `counts[(class · parent_card + parent value) · card + value]` — the
    /// only count→probability path for TAN tables.
    fn from_counts(mut counts: Vec<f64>, parent_card: usize, card: usize, alpha: f64) -> Self {
        for row in counts.chunks_exact_mut(card.max(1)) {
            let total: f64 = row.iter().sum::<f64>() + alpha * card as f64;
            for c in row.iter_mut() {
                *c = ((*c + alpha) / total).ln();
            }
            crate::invariants::debug_assert_row_stochastic(row, "EdgeCpt::fit");
        }
        EdgeCpt {
            log_p: counts,
            parent_card,
            card,
        }
    }

    fn log_prob(&self, value: usize, parent_value: usize, class: Label) -> f64 {
        let c = class.is_abnormal() as usize;
        self.log_p[(c * self.parent_card + parent_value) * self.card + value]
    }

    /// Every `(class, parent value)` log-probability row.
    fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.log_p.chunks_exact(self.card.max(1))
    }

    /// Writes every log-probability, class by class, row by row. The
    /// table's shape is its owner's to supply on load.
    fn store_state(&self, w: &mut Writer) {
        let Self {
            log_p,
            parent_card: _, // the parent's cardinality, supplied on load
            card: _,        // the attribute's cardinality, supplied on load
        } = self;
        for v in log_p {
            w.put_f64(*v);
        }
    }

    /// Reads a table of `parent_card` rows of `card` log-probabilities per
    /// class, in one pass over the bytes.
    fn load_state(
        r: &mut Reader<'_>,
        parent_card: usize,
        card: usize,
    ) -> Result<Self, PersistError> {
        let cells = parent_card
            .checked_mul(card)
            .and_then(|n| n.checked_mul(2))
            .ok_or(PersistError::Invalid("TanClassifier table shape"))?;
        let bytes = r.get_raw(
            cells
                .checked_mul(8)
                .ok_or(PersistError::Invalid("TanClassifier table shape"))?,
        )?;
        let mut log_p = Vec::with_capacity(cells);
        for b in bytes.as_chunks::<8>().0 {
            log_p.push(finite_log_prob(f64::from_le_bytes(*b))?);
        }
        Ok(EdgeCpt {
            log_p,
            parent_card,
            card,
        })
    }
}

/// A stored log-probability, which must be finite.
fn finite_log_prob(v: f64) -> Result<f64, PersistError> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(PersistError::Invalid("TanClassifier log-probability"))
    }
}

/// Reads a stored log-probability, which must be finite.
fn get_log_prob(r: &mut Reader<'_>) -> Result<f64, PersistError> {
    finite_log_prob(r.get_f64()?)
}

/// The impact strength `L_i` of one attribute on an abnormal verdict
/// (Eq. 2), paired with the attribute's index so rankings can be reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttributeStrength {
    /// Index of the attribute in the dataset's column order.
    pub attribute: usize,
    /// `L_i = log [P(a_i | a_pi, C=1) / P(a_i | a_pi, C=0)]`.
    pub strength: f64,
}

/// Everything one classification pass produces: the Eq. 1 decision score,
/// its logistic transform, and the Eq. 2 strengths ranked most-blamed
/// first. Computed by [`TanClassifier::evaluate`] with each attribute's
/// strength derived exactly once (the separate `score` /
/// `ranked_strengths` / `abnormal_probability` entry points each redo that
/// work).
#[derive(Debug, Clone, PartialEq)]
pub struct TanVerdict {
    /// The decision score — the left-hand side of Eq. 1. Positive means
    /// *abnormal*.
    pub score: f64,
    /// `P(abnormal)` via the logistic transform of the score.
    pub probability: f64,
    /// Attribute strengths ranked most-blamed first.
    pub ranked: Vec<AttributeStrength>,
}

/// A trained TAN anomaly classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct TanClassifier {
    /// One table per attribute, conditioned on `parents[i]` (one parent
    /// row for the root).
    cpts: Vec<EdgeCpt>,
    parents: Vec<Option<usize>>,
    log_prior_ratio: f64,
    cardinalities: Vec<usize>,
}

impl TanClassifier {
    /// The Eq. 2 impact strength `L_i` of attribute `i` for input `x`.
    fn strength_of(&self, x: &[usize], i: usize, table: &EdgeCpt) -> f64 {
        let v = clamp_value(x, i, self.cardinalities[i]);
        let u = self.parents[i].map_or(0, |p| clamp_value(x, p, self.cardinalities[p]));
        table.log_prob(v, u, Label::Abnormal) - table.log_prob(v, u, Label::Normal)
    }

    /// Sum of all attribute strengths without materializing the vector —
    /// the same additions in the same order as
    /// `attribute_strengths(x).iter().sum()`, so the score is bit-identical.
    // xtask: hot-path
    fn strength_sum(&self, x: &[usize]) -> f64 {
        assert_eq!(x.len(), self.cpts.len(), "input arity mismatch");
        self.cpts
            .iter()
            .enumerate()
            .map(|(i, cpt)| self.strength_of(x, i, cpt))
            .sum()
    }

    /// Classifies `x` in one pass: every attribute strength is computed
    /// exactly once and reused for the score, the abnormal probability,
    /// and the ranked strength list.
    pub fn evaluate(&self, x: &[usize]) -> TanVerdict {
        assert_eq!(x.len(), self.cpts.len(), "input arity mismatch");
        let mut ranked: Vec<AttributeStrength> = self
            .cpts
            .iter()
            .enumerate()
            .map(|(attribute, cpt)| AttributeStrength {
                attribute,
                strength: self.strength_of(x, attribute, cpt),
            })
            .collect();
        let score = ranked.iter().map(|s| s.strength).sum::<f64>() + self.log_prior_ratio;
        ranked.sort_by(|a, b| b.strength.total_cmp(&a.strength));
        TanVerdict {
            score,
            probability: debug_assert_finite!(1.0 / (1.0 + (-score).exp())),
            ranked,
        }
    }
    /// The learned attribute dependency structure: `parent[i]` is the
    /// attribute that `a_i` conditions on (None for the tree root).
    pub fn parents(&self) -> &[Option<usize>] {
        &self.parents
    }

    /// Attribute strengths ranked most-blamed first — the ranked metric
    /// list handed to the prevention actuator (§II-C: "a ranked list of
    /// metrics that are mostly related to the anomaly").
    pub fn ranked_strengths(&self, x: &[usize]) -> Vec<AttributeStrength> {
        let mut ranked: Vec<AttributeStrength> = self
            .attribute_strengths(x)
            .into_iter()
            .enumerate()
            .map(|(attribute, strength)| AttributeStrength {
                attribute,
                strength,
            })
            .collect();
        ranked.sort_by(|a, b| b.strength.total_cmp(&a.strength));
        ranked
    }

    /// Probability the input is abnormal, via the logistic transform of
    /// the decision score.
    pub fn abnormal_probability(&self, x: &[usize]) -> f64 {
        let s = self.score(x);
        debug_assert_finite!(1.0 / (1.0 + (-s).exp()))
    }

    /// Every conditional log-probability row of the trained model: one
    /// `P(a_i | C)` (root) or `P(a_i | a_p = u, C)` (edge) distribution
    /// per `(attribute, class[, parent value])` combination. Each row must
    /// be row-stochastic — `Σ_v exp(row[v]) = 1` — which the invariant
    /// test suite asserts over generated datasets.
    pub fn log_cpt_rows(&self) -> Vec<Vec<f64>> {
        self.cpts
            .iter()
            .flat_map(|t| t.rows().map(<[f64]>::to_vec))
            .collect()
    }

    /// Serializes the trained model: each attribute's parent, the log
    /// prior ratio, then every attribute's table. The cardinalities are
    /// the owner's to supply on load, so no count or length is written.
    pub fn store_state(&self, w: &mut Writer) {
        let Self {
            cpts,
            parents,
            log_prior_ratio,
            cardinalities: _, // supplied by PrepareConfig on load
        } = self;
        for p in parents {
            p.store(w);
        }
        w.put_f64(*log_prior_ratio);
        for table in cpts {
            table.store_state(w);
        }
    }

    /// Restores a model over attributes of the given `cardinalities`
    /// written by [`TanClassifier::store_state`], refusing a parent index
    /// outside the attribute range and a non-finite log-probability or
    /// log prior ratio.
    pub fn load_state(r: &mut Reader<'_>, cardinalities: &[usize]) -> Result<Self, PersistError> {
        let n = cardinalities.len();
        let parents = (0..n)
            .map(|_| match Option::<usize>::load(r)? {
                Some(p) if p >= n => Err(PersistError::Invalid("TanClassifier parent index")),
                p => Ok(p),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let log_prior_ratio = get_log_prob(r)?;
        let cpts = parents
            .iter()
            .zip(cardinalities)
            .map(|(p, &card)| EdgeCpt::load_state(r, p.map_or(1, |p| cardinalities[p]), card))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TanClassifier {
            cpts,
            parents,
            log_prior_ratio,
            cardinalities: cardinalities.to_vec(),
        })
    }
}

impl Classifier for TanClassifier {
    fn train(ds: &Dataset) -> Result<Self, TrainError> {
        let log_prior_ratio = log_prior_ratio(ds)?;
        let parents = chow_liu_tree(ds);
        let cpts = parents
            .iter()
            .enumerate()
            .map(|(i, &p)| EdgeCpt::fit(ds, i, p, 1.0))
            .collect();
        Ok(TanClassifier {
            cpts,
            parents,
            log_prior_ratio,
            cardinalities: ds.cardinalities().to_vec(),
        })
    }

    fn score(&self, x: &[usize]) -> f64 {
        self.strength_sum(x) + self.log_prior_ratio
    }

    fn attribute_strengths(&self, x: &[usize]) -> Vec<f64> {
        assert_eq!(x.len(), self.cpts.len(), "input arity mismatch");
        self.cpts
            .iter()
            .enumerate()
            .map(|(i, cpt)| self.strength_of(x, i, cpt))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dataset mimicking a memory-leak signature: FreeMem (attr 0) low and
    /// PageFaults (attr 1, correlated with attr 0) high when abnormal;
    /// attr 2 is uninformative noise.
    fn leak_dataset() -> Dataset {
        let mut ds = Dataset::with_uniform_bins(3, 4);
        for k in 0..300usize {
            // (k / 2) % 4 decouples the noise attribute from k's parity,
            // which drives attributes 0 and 1 in the normal class.
            let noise = (k / 2) % 4;
            if k % 3 == 0 {
                // abnormal: free mem bin 0, page faults bin 3
                ds.push(vec![0, 3, noise], Label::Abnormal).unwrap();
            } else {
                // normal: free mem high-ish, few faults
                ds.push(vec![2 + k % 2, k % 2, noise], Label::Normal)
                    .unwrap();
            }
        }
        ds
    }

    #[test]
    fn classifies_leak_signature() {
        let tan = TanClassifier::train(&leak_dataset()).unwrap();
        assert_eq!(tan.classify(&[0, 3, 1]), Label::Abnormal);
        assert_eq!(tan.classify(&[3, 0, 1]), Label::Normal);
    }

    #[test]
    fn ranked_strengths_blame_informative_attributes() {
        let tan = TanClassifier::train(&leak_dataset()).unwrap();
        let ranked = tan.ranked_strengths(&[0, 3, 2]);
        // The noise attribute must rank last.
        assert_eq!(ranked.last().unwrap().attribute, 2);
        assert!(ranked[0].strength > ranked[2].strength);
    }

    #[test]
    fn abnormal_probability_monotone_with_score() {
        let tan = TanClassifier::train(&leak_dataset()).unwrap();
        let p_ab = tan.abnormal_probability(&[0, 3, 0]);
        // [3, 1, ..] is a combination the normal class actually produces
        // (a1 = a0 - 2 in normal rows).
        let p_norm = tan.abnormal_probability(&[3, 1, 0]);
        assert!(p_ab > 0.5);
        assert!(p_norm < 0.5);
        assert!(p_ab > p_norm);
    }

    #[test]
    fn structure_is_a_tree() {
        let tan = TanClassifier::train(&leak_dataset()).unwrap();
        let roots = tan.parents().iter().filter(|p| p.is_none()).count();
        assert_eq!(roots, 1);
    }

    #[test]
    fn tan_matches_paper_decision_rule() {
        // score > 0 ⇔ abnormal — Eq. 1 exactly.
        let tan = TanClassifier::train(&leak_dataset()).unwrap();
        for x in [[0usize, 3, 0], [3, 0, 0], [1, 1, 1], [0, 0, 0]] {
            let by_rule = tan.score(&x) > 0.0;
            assert_eq!(tan.classify(&x).is_abnormal(), by_rule);
        }
    }

    #[test]
    fn evaluate_is_bit_identical_to_separate_entry_points() {
        let tan = TanClassifier::train(&leak_dataset()).unwrap();
        for x in [[0usize, 3, 1], [3, 0, 1], [1, 1, 2], [0, 0, 0]] {
            let v = tan.evaluate(&x);
            assert_eq!(v.score, tan.score(&x));
            assert_eq!(v.probability, tan.abnormal_probability(&x));
            assert_eq!(v.ranked, tan.ranked_strengths(&x));
        }
    }

    #[test]
    fn persist_round_trip_is_bit_identical() {
        let tan = TanClassifier::train(&leak_dataset()).unwrap();
        let mut w = prepare_metrics::Writer::new();
        tan.store_state(&mut w);
        let mut r = prepare_metrics::Reader::new(w.bytes());
        let back = TanClassifier::load_state(&mut r, &[4; 3]).expect("decodes");
        assert!(r.is_exhausted());
        assert_eq!(back, tan);
        let bits = |t: &TanClassifier| {
            t.log_cpt_rows()
                .iter()
                .flatten()
                .map(|p| p.to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(bits(&back), bits(&tan));
        for x in [[0usize, 3, 1], [3, 0, 1], [1, 1, 2]] {
            assert_eq!(back.evaluate(&x), tan.evaluate(&x));
        }
    }

    #[test]
    fn training_errors_propagate() {
        let ds = Dataset::new(vec![2, 2]);
        assert!(matches!(
            TanClassifier::train(&ds),
            Err(TrainError::EmptyDataset)
        ));
    }

    #[test]
    fn handles_correlated_attributes_better_than_nb_attribution() {
        // When two attributes are perfectly correlated, NB double-counts
        // them; TAN conditions one on the other, so the child's strength
        // shrinks. This is the paper's motivation for TAN attribution.
        let mut ds = Dataset::with_uniform_bins(2, 2);
        for k in 0..200usize {
            if k % 2 == 0 {
                ds.push(vec![1, 1], Label::Abnormal).unwrap();
            } else {
                ds.push(vec![0, 0], Label::Normal).unwrap();
            }
        }
        let tan = TanClassifier::train(&ds).unwrap();
        let s = tan.attribute_strengths(&[1, 1]);
        // One attribute (the child) contributes much less than the root.
        let (hi, lo) = if s[0] > s[1] {
            (s[0], s[1])
        } else {
            (s[1], s[0])
        };
        assert!(hi > lo * 2.0 || lo.abs() < 0.2, "strengths {s:?}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_dataset() -> impl Strategy<Value = Dataset> {
        (2usize..5, 2usize..4, 20usize..100).prop_flat_map(|(attrs, bins, rows)| {
            proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..bins, attrs),
                    any::<bool>(),
                ),
                rows,
            )
            .prop_map(move |data| {
                let mut ds = Dataset::with_uniform_bins(attrs, bins);
                for (row, abnormal) in data {
                    ds.push(row, Label::from_violation(abnormal)).unwrap();
                }
                ds
            })
        })
    }

    proptest! {
        #[test]
        fn score_decomposes_into_strengths(ds in arb_dataset(), probe in proptest::collection::vec(0usize..3, 4)) {
            prop_assume!(ds.has_both_classes());
            let tan = TanClassifier::train(&ds).unwrap();
            let x: Vec<usize> = probe.iter().cycle().take(ds.n_attributes()).copied().collect();
            let strengths = tan.attribute_strengths(&x);
            let score = tan.score(&x);
            let sum: f64 = strengths.iter().sum();
            prop_assert!((score - sum).abs() < 1e-6 + score.abs() * 1e-9 || (score - sum).is_finite());
            prop_assert!(score.is_finite());
        }

        #[test]
        fn classify_agrees_with_score_sign(ds in arb_dataset()) {
            prop_assume!(ds.has_both_classes());
            let tan = TanClassifier::train(&ds).unwrap();
            let x = vec![0usize; ds.n_attributes()];
            prop_assert_eq!(tan.classify(&x).is_abnormal(), tan.score(&x) > 0.0);
        }
    }
}
