//! The monolithic-model baseline (paper §II-B / Fig. 10): one prediction
//! model over the concatenated attributes of *all* application VMs.
//!
//! The paper keeps this model around only to show why per-VM models win:
//! "as the number of attributes increases, the attribute value prediction
//! errors will accumulate. As a result, the classification accuracy over
//! predicted values will degrade."

use crate::{ConfusionMatrix, ValueModel};
use prepare_markov::ValuePredictor;
use prepare_metrics::{
    Duration, Label, MetricSample, SloLog, TimeSeries, VectorDiscretizer, ATTRIBUTE_COUNT,
};
use prepare_tan::{Classifier, Dataset, TanClassifier, TrainError};

use crate::PredictorConfig;

/// A single anomaly prediction model spanning every VM of an application.
#[derive(Debug, Clone)]
pub struct MonolithicPredictor {
    config: PredictorConfig,
    /// One discretizer per VM (each VM's value ranges differ).
    discretizers: Vec<VectorDiscretizer>,
    /// One value model per concatenated attribute (`n_vms × 13`).
    value_models: Vec<ValueModel>,
    classifier: TanClassifier,
}

impl MonolithicPredictor {
    /// Trains the monolithic model from per-VM traces that are aligned
    /// sample-by-sample (same sampling schedule), labeled by the shared
    /// application SLO log.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] for an empty or single-class trace.
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty or the traces have differing lengths.
    pub fn train(
        series: &[TimeSeries],
        slo: &SloLog,
        config: &PredictorConfig,
    ) -> Result<Self, TrainError> {
        assert!(
            !series.is_empty(),
            "monolithic model needs at least one VM trace"
        );
        let len = series[0].len();
        assert!(
            series.iter().all(|s| s.len() == len),
            "per-VM traces must be aligned"
        );
        if len == 0 {
            return Err(TrainError::EmptyDataset);
        }

        let discretizers: Vec<VectorDiscretizer> = series
            .iter()
            .map(|s| VectorDiscretizer::fit(s, config.bins))
            .collect();

        let n_attrs = series.len() * ATTRIBUTE_COUNT;
        let mut dataset = Dataset::with_uniform_bins(n_attrs, config.bins);
        let mut value_models: Vec<ValueModel> = (0..n_attrs)
            .map(|_| ValueModel::new(config.markov, config.bins))
            .collect();
        for (i, sample) in series[0].samples().iter().enumerate() {
            let row = Self::concat_row(&discretizers, series, i);
            for (m, &state) in value_models.iter_mut().zip(&row) {
                m.observe(state);
            }
            let label = Label::from_violation(slo.is_violated_at(sample.time));
            #[expect(
                clippy::expect_used,
                reason = "concat_row yields n_attrs states, each below config.bins"
            )]
            dataset
                .push(row, label)
                .expect("concatenated rows match schema");
        }
        let classifier = TanClassifier::train(&dataset)?;
        for m in &mut value_models {
            m.reset_position();
        }

        Ok(MonolithicPredictor {
            config: config.clone(),
            discretizers,
            value_models,
            classifier,
        })
    }

    fn concat_row(
        discretizers: &[VectorDiscretizer],
        series: &[TimeSeries],
        i: usize,
    ) -> Vec<usize> {
        let mut row = Vec::with_capacity(series.len() * ATTRIBUTE_COUNT);
        for (d, s) in discretizers.iter().zip(series) {
            // xtask-allow: index-in-loop -- callers pass i below the length train asserts for every trace
            row.extend(d.discretize(&s.samples()[i].values));
        }
        row
    }

    /// Number of VMs the model spans.
    pub fn n_vms(&self) -> usize {
        self.discretizers.len()
    }

    /// Feeds one aligned sample per VM.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != n_vms()`.
    pub fn observe(&mut self, samples: &[MetricSample]) {
        assert_eq!(samples.len(), self.n_vms(), "one sample per VM required");
        let states = self
            .discretizers
            .iter()
            .zip(samples)
            .flat_map(|(d, s)| d.discretize(&s.values));
        for (m, state) in self.value_models.iter_mut().zip(states) {
            m.observe(state);
        }
    }

    /// Predicted label `look_ahead` into the future.
    pub fn predict_label(&self, look_ahead: Duration) -> Label {
        let steps = self.config.steps_for(look_ahead);
        let states: Vec<usize> = self
            .value_models
            .iter()
            .map(|m| m.predict(steps).most_likely())
            .collect();
        self.classifier.classify(&states)
    }

    /// Forgets stream positions (keeps learned statistics).
    pub fn reset_position(&mut self) {
        for m in &mut self.value_models {
            m.reset_position();
        }
    }

    /// Trace-driven accuracy evaluation, mirroring
    /// [`crate::AnomalyPredictor::evaluate_trace`] over aligned per-VM
    /// traces.
    ///
    /// # Panics
    ///
    /// Panics if the traces are not aligned with the training layout.
    pub fn evaluate_trace(
        &self,
        series: &[TimeSeries],
        slo: &SloLog,
        look_ahead: Duration,
    ) -> ConfusionMatrix {
        assert_eq!(series.len(), self.n_vms(), "one trace per VM required");
        let len = series[0].len();
        assert!(
            series.iter().all(|s| s.len() == len),
            "traces must be aligned"
        );
        let mut model = self.clone();
        model.reset_position();
        let mut matrix = ConfusionMatrix::new();
        if len == 0 {
            return matrix;
        }
        let end = series[0].samples()[len - 1].time;
        for i in 0..len {
            // xtask-allow: index-in-loop -- i < len, the length asserted for every trace above
            let samples: Vec<MetricSample> = series.iter().map(|s| s.samples()[i]).collect();
            model.observe(&samples);
            let target = samples[0].time + look_ahead;
            if target > end {
                continue;
            }
            let predicted = model.predict_label(look_ahead);
            let truth = Label::from_violation(slo.is_violated_at(target));
            matrix.record(predicted, truth);
        }
        matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prepare_metrics::{AttributeKind, MetricVector, Timestamp};

    /// Three aligned VM traces; only VM 0 carries the anomaly signal.
    fn fixture(samples: usize) -> (Vec<TimeSeries>, SloLog) {
        let mut all = vec![TimeSeries::new(), TimeSeries::new(), TimeSeries::new()];
        let mut slo = SloLog::new();
        for i in 0..samples as u64 {
            let t = Timestamp::from_secs(i * 5);
            let phase = i % 40;
            let cpu = (phase as f64 / 40.0) * 100.0;
            for (vm, ts) in all.iter_mut().enumerate() {
                let v = MetricVector::from_fn(|a| match (vm, a) {
                    (0, AttributeKind::CpuTotal) => cpu,
                    (0, AttributeKind::Load1) => cpu / 25.0,
                    // other VMs: mild noise decoupled from the fault
                    (_, AttributeKind::CpuTotal) => 20.0 + ((i * (vm as u64 + 3)) % 7) as f64,
                    _ => 5.0,
                });
                ts.push(MetricSample::new(t, v));
            }
            slo.record(t, cpu > 80.0);
        }
        (all, slo)
    }

    #[test]
    fn trains_and_evaluates() {
        let (series, slo) = fixture(400);
        let cfg = PredictorConfig::default();
        let m = MonolithicPredictor::train(&series, &slo, &cfg).unwrap();
        assert_eq!(m.n_vms(), 3);
        let cm = m.evaluate_trace(&series, &slo, Duration::from_secs(15));
        assert!(cm.total() > 0);
        assert!(cm.true_positive_rate() >= 0.0 && cm.false_alarm_rate() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn rejects_misaligned_traces() {
        let (mut series, slo) = fixture(100);
        series[1] = TimeSeries::new();
        let cfg = PredictorConfig::default();
        let _ = MonolithicPredictor::train(&series, &slo, &cfg);
    }

    #[test]
    fn empty_traces_error() {
        let cfg = PredictorConfig::default();
        let res = MonolithicPredictor::train(
            &[TimeSeries::new(), TimeSeries::new()],
            &SloLog::new(),
            &cfg,
        );
        assert!(matches!(res, Err(TrainError::EmptyDataset)));
    }

    #[test]
    fn observe_requires_one_sample_per_vm() {
        let (series, slo) = fixture(120);
        let cfg = PredictorConfig::default();
        let mut m = MonolithicPredictor::train(&series, &slo, &cfg).unwrap();
        let s = series[0].samples()[0];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.observe(&[s]);
        }));
        assert!(result.is_err());
    }
}
