//! The unsupervised anomaly predictor: the same value-prediction front
//! end as [`crate::AnomalyPredictor`], with the supervised TAN classifier
//! replaced by clustering over normal behaviour (§V). Trades the TAN's
//! precise attribute attribution for the ability to raise advance alerts
//! on anomalies that have never been seen (and hence never labeled).

use crate::{ClusterClassifier, MarkovKind, PredictorConfig, ValueModel};
use prepare_markov::ValuePredictor;
use prepare_metrics::{
    Duration, Label, MetricSample, TimeSeries, Timestamp, VectorDiscretizer, ATTRIBUTE_COUNT,
};

/// An unsupervised per-VM anomaly predictor.
#[derive(Debug, Clone)]
pub struct UnsupervisedPredictor {
    config: PredictorConfig,
    discretizer: VectorDiscretizer,
    value_models: Vec<ValueModel>,
    classifier: ClusterClassifier,
    last_time: Option<Timestamp>,
}

/// One prediction from the unsupervised model.
#[derive(Debug, Clone, PartialEq)]
pub struct UnsupervisedPrediction {
    /// When the prediction was made.
    pub at: Timestamp,
    /// How far ahead the classified state lies.
    pub look_ahead: Duration,
    /// Predicted label.
    pub label: Label,
    /// Distance-based anomaly score (≈1 for typical states; larger is
    /// more anomalous).
    pub score: f64,
    /// The predicted discretized state per attribute.
    pub predicted_states: Vec<usize>,
}

impl UnsupervisedPredictor {
    /// Fits from an *unlabeled* trace of (assumed mostly normal)
    /// operation: behaviour clusters over the discretized samples, plus
    /// per-attribute value models.
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty.
    pub fn fit(series: &TimeSeries, config: &PredictorConfig) -> Self {
        assert!(
            !series.is_empty(),
            "unsupervised predictor needs training data"
        );
        // Widen each attribute's range 2x beyond the observed span so
        // never-seen extremes land in outer bins no normal sample
        // occupies — with a tight fit they would clamp into normal bins
        // and vanish.
        let discretizer = VectorDiscretizer::fit_with_margin(series, config.bins, 1.0);
        let rows: Vec<Vec<usize>> = series
            .iter()
            .map(|s| discretizer.discretize(&s.values))
            .collect();
        let classifier = ClusterClassifier::fit_default(&rows);
        let mut value_models: Vec<ValueModel> = (0..ATTRIBUTE_COUNT)
            .map(|_| ValueModel::new(config.markov, config.bins))
            .collect();
        for row in &rows {
            for (m, &state) in value_models.iter_mut().zip(row) {
                m.observe(state);
            }
        }
        for m in &mut value_models {
            m.reset_position();
        }
        UnsupervisedPredictor {
            config: config.clone(),
            discretizer,
            value_models,
            classifier,
            last_time: None,
        }
    }

    /// Fits with [`PredictorConfig::default`].
    pub fn fit_default(series: &TimeSeries) -> Self {
        Self::fit(
            series,
            &PredictorConfig {
                markov: MarkovKind::TwoDependent,
                ..PredictorConfig::default()
            },
        )
    }

    /// Feeds a live monitoring sample.
    pub fn observe(&mut self, sample: &MetricSample) {
        let row = self.discretizer.discretize(&sample.values);
        for (m, &state) in self.value_models.iter_mut().zip(&row) {
            m.observe(state);
        }
        self.last_time = Some(sample.time);
    }

    /// Predicts the state `look_ahead` into the future and scores its
    /// distance from normal behaviour.
    pub fn predict(&self, look_ahead: Duration) -> UnsupervisedPrediction {
        let steps = self.config.steps_for(look_ahead);
        let bins = self.config.bins;
        let predicted_states: Vec<usize> = self
            .value_models
            .iter()
            .map(|m| m.predict(steps).expected_bin(bins))
            .collect();
        let score = self.classifier.score(&predicted_states);
        UnsupervisedPrediction {
            at: self.last_time.unwrap_or(Timestamp::ZERO),
            look_ahead,
            label: self.classifier.classify(&predicted_states),
            score,
            predicted_states,
        }
    }

    /// Forgets the stream position (keeps everything learned).
    pub fn reset_position(&mut self) {
        for m in &mut self.value_models {
            m.reset_position();
        }
        self.last_time = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prepare_metrics::{AttributeKind, MetricVector};

    fn healthy_series(samples: u64) -> TimeSeries {
        let mut ts = TimeSeries::new();
        for i in 0..samples {
            let v = MetricVector::from_fn(|a| match a {
                AttributeKind::CpuTotal => 35.0 + (i % 7) as f64,
                AttributeKind::FreeMem => 400.0 + (i % 5) as f64 * 4.0,
                AttributeKind::NetIn => 120.0 + (i % 3) as f64 * 5.0,
                _ => 10.0,
            });
            ts.push(MetricSample::new(Timestamp::from_secs(i * 5), v));
        }
        ts
    }

    fn anomalous_sample(t: u64) -> MetricSample {
        let v = MetricVector::from_fn(|a| match a {
            AttributeKind::CpuTotal => 100.0,
            AttributeKind::FreeMem => 0.0,
            AttributeKind::PageFaults => 900.0,
            AttributeKind::NetIn => 120.0,
            _ => 10.0,
        });
        MetricSample::new(Timestamp::from_secs(t), v)
    }

    #[test]
    fn normal_states_stay_normal() {
        let series = healthy_series(200);
        let mut p = UnsupervisedPredictor::fit_default(&series);
        for s in series.iter().take(50) {
            p.observe(s);
        }
        let pred = p.predict(Duration::from_secs(30));
        assert_eq!(pred.label, Label::Normal, "score {:.2}", pred.score);
    }

    #[test]
    fn unseen_anomaly_raises_alert() {
        let series = healthy_series(200);
        let mut p = UnsupervisedPredictor::fit_default(&series);
        for s in series.iter().take(50) {
            p.observe(s);
        }
        // A state class never in the training data arrives.
        for k in 0..3 {
            p.observe(&anomalous_sample(1000 + k * 5));
        }
        let pred = p.predict(Duration::from_secs(5));
        assert_eq!(pred.label, Label::Abnormal, "score {:.2}", pred.score);
        assert!(pred.score > 2.0);
    }

    #[test]
    fn reset_position_preserves_clusters() {
        let series = healthy_series(100);
        let mut p = UnsupervisedPredictor::fit_default(&series);
        for s in series.iter() {
            p.observe(s);
        }
        p.reset_position();
        p.observe(&series[0]);
        assert_eq!(p.predict(Duration::from_secs(10)).label, Label::Normal);
    }

    #[test]
    #[should_panic(expected = "training data")]
    fn empty_training_rejected() {
        let _ = UnsupervisedPredictor::fit_default(&TimeSeries::new());
    }
}
