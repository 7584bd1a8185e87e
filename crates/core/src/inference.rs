//! Online anomaly cause inference (paper §II-C).
//!
//! Two questions are answered once an alert is confirmed: *which VMs are
//! faulty* (whichever per-VM models alert) and *which metrics on those
//! VMs are to blame* (TAN attribute strengths, Eq. 2). A third inference
//! runs continuously: simultaneous change points across all components
//! mean *workload change*, not an internal fault.

use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
use prepare_metrics::{
    AttributeKind, CusumDetector, MetricSample, SloLog, TimeSeries, Timestamp, VmId,
};
use prepare_par::ParConfig;
use std::collections::BTreeMap;

/// Sustained CPU utilization (percent of allocation) treated as pinned.
const CPU_SATURATION_PCT: f64 = 93.0;

/// Run-queue load (demand over allocation) treated as overload.
const LOAD_OVERLOAD: f64 = 1.15;

/// Major page faults per second treated as sustained paging.
const PAGING_FAULTS_PER_SEC: f64 = 100.0;

/// Fault localization across VMs (the paper §II-B delegates this to PAL
/// \[13\]: "PREPARE relies on previously developed fault localization
/// techniques to identify the faulty VMs and train the corresponding
/// per-VM anomaly predictors").
///
/// A VM is *implicated* in an anomaly when, during a completed
/// SLO-violation interval, its own metrics show **local resource
/// exhaustion**: CPU pinned at its cap, run-queue load past the
/// allocation, or sustained paging. VMs without exhaustion markers
/// merely experienced the fault's ripple (a starved downstream component,
/// diurnal workload drift) and must NOT have their states labeled
/// abnormal — otherwise their models learn time- or load-correlated
/// coincidences and alert-storm on healthy state. Exhaustion is also
/// precisely the condition PREPARE's prevention actions (resource
/// scaling, migration to a bigger host) can actually fix.
///
/// `series` holds one series per VM; the result is the implicated
/// indices into it, ascending. The per-VM scoring is sharded across the
/// workers of `par`; the scores — and therefore the implicated set — are
/// identical for every worker count: each VM is scored purely from its
/// own series, and the merge keeps input order.
pub fn implicated_vms(series: &[&TimeSeries], slo: &SloLog, par: &ParConfig) -> Vec<usize> {
    let entries: Vec<(usize, &TimeSeries)> = series.iter().copied().enumerate().collect();
    prepare_par::par_map(par, entries, |(slot, ts)| {
        (implication_score(ts, slo) >= 1.0).then_some(slot)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The implication score of one VM: the strongest resource-exhaustion
/// marker observed during any completed violation interval, normalized so
/// that `1.0` is the implication threshold (see [`implicated_vms`]).
pub fn implication_score(series: &TimeSeries, slo: &SloLog) -> f64 {
    let mut best = 0.0_f64;
    for (start, end) in slo.intervals() {
        if end.since(start).is_zero() {
            continue;
        }
        let cpu = series.stats(AttributeKind::CpuTotal, start, end);
        let load = series.stats(AttributeKind::Load1, start, end);
        let faults = series.stats(AttributeKind::PageFaults, start, end);
        if cpu.count < 3 {
            continue;
        }
        best = best.max(cpu.mean / CPU_SATURATION_PCT);
        best = best.max(load.mean / LOAD_OVERLOAD);
        best = best.max(faults.mean / PAGING_FAULTS_PER_SEC);
    }
    best
}

/// Tracks per-VM change points for the workload-change inference.
#[derive(Debug, Clone)]
pub struct CauseInference {
    /// One CUSUM per VM on its input-traffic metric (NetIn) — workload
    /// shifts arrive through the network on every component.
    detectors: BTreeMap<VmId, CusumDetector>,
    /// Quorum fraction required to call a workload change.
    quorum: f64,
    /// How recent (seconds) a change point must be to count.
    recency_secs: u64,
    /// Shard configuration for the per-VM detector updates.
    par: ParConfig,
}

impl CauseInference {
    /// Creates the inference engine for `vms` with detector updates
    /// sharded per VM across the workers of `par`. Each CUSUM detector
    /// consumes only its own VM's samples (in arrival order), so the
    /// detector states — and every inference derived from them — are
    /// identical for any worker count.
    pub fn with_par(vms: &[VmId], quorum: f64, recency_secs: u64, par: ParConfig) -> Self {
        CauseInference {
            detectors: vms.iter().map(|&vm| (vm, CusumDetector::new())).collect(),
            quorum,
            recency_secs,
            par,
        }
    }

    /// Feeds this sampling round's observations into the change-point
    /// detectors, one shard of VMs per worker.
    pub fn observe(&mut self, samples: &[(VmId, MetricSample)]) {
        let mut per_vm: BTreeMap<VmId, Vec<&MetricSample>> = BTreeMap::new();
        for (vm, sample) in samples {
            per_vm.entry(*vm).or_default().push(sample);
        }
        let mut work: Vec<(&mut CusumDetector, Vec<&MetricSample>)> = self
            .detectors
            .iter_mut()
            .filter_map(|(vm, det)| per_vm.remove(vm).map(|batch| (det, batch)))
            .collect();
        prepare_par::par_for_each_mut(&self.par, &mut work, |(det, batch)| {
            for sample in batch.iter() {
                det.observe(sample.time, sample.values.get(AttributeKind::NetIn));
            }
        });
    }

    /// True when at least the quorum fraction of components shows a
    /// recent change point — the paper's workload-change predicate.
    pub fn workload_change(&self, now: Timestamp) -> bool {
        if self.detectors.is_empty() {
            return false;
        }
        let changed = self
            .detectors
            .values()
            .filter(|d| d.changed_recently(now, self.recency_secs))
            .count();
        (changed as f64 / self.detectors.len() as f64) >= self.quorum
    }

    /// Serializes the inference state — the detectors, in VM-id order
    /// and without their ids — for a controller checkpoint. The ids and
    /// the tunables are the owner's to supply on load, and the shard
    /// configuration is the recovering process's.
    pub fn store_state(&self, w: &mut Writer) {
        let Self {
            detectors,
            quorum: _,       // supplied by PrepareConfig on load
            recency_secs: _, // supplied by PrepareConfig on load
            par: _,          // runtime worker config, supplied by the recovering process
        } = self;
        for detector in detectors.values() {
            detector.store(w);
        }
    }

    /// Restores inference state written by [`CauseInference::store_state`]
    /// for the VMs `vms` (in any order), under the tunables
    /// [`CauseInference::with_par`] takes.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] of a detector.
    pub fn load_state(
        r: &mut Reader<'_>,
        vms: &[VmId],
        quorum: f64,
        recency_secs: u64,
        par: ParConfig,
    ) -> Result<Self, PersistError> {
        let mut inference = CauseInference::with_par(vms, quorum, recency_secs, par);
        for detector in inference.detectors.values_mut() {
            *detector = CusumDetector::load(r)?;
        }
        Ok(inference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prepare_metrics::{MetricVector, Timestamp};

    fn sample(t: u64, net_in: f64) -> MetricSample {
        let mut v = MetricVector::zeros();
        v.set(AttributeKind::NetIn, net_in);
        MetricSample::new(Timestamp::from_secs(t), v)
    }

    fn feed(ci: &mut CauseInference, vms: &[VmId], t: u64, rates: &[f64]) {
        let samples: Vec<(VmId, MetricSample)> = vms
            .iter()
            .zip(rates)
            .map(|(&vm, &r)| (vm, sample(t, r)))
            .collect();
        ci.observe(&samples);
    }

    #[test]
    fn global_traffic_jump_is_workload_change() {
        let vms: Vec<VmId> = (0..4).map(VmId).collect();
        let mut ci = CauseInference::with_par(&vms, 0.8, 30, ParConfig::serial());
        // Stable phase (with slight wiggle so CUSUM baselines are sane).
        for t in 0..40u64 {
            let w = if t % 2 == 0 { 1.0 } else { -1.0 };
            feed(
                &mut ci,
                &vms,
                t * 5,
                &[100.0 + w, 50.0 + w, 50.0 + w, 100.0 + w],
            );
        }
        assert!(!ci.workload_change(Timestamp::from_secs(200)));
        // Workload doubles everywhere.
        let mut fired_at = None;
        for t in 40..60u64 {
            feed(&mut ci, &vms, t * 5, &[200.0, 100.0, 100.0, 200.0]);
            if ci.workload_change(Timestamp::from_secs(t * 5)) {
                fired_at = Some(t * 5);
                break;
            }
        }
        assert!(
            fired_at.is_some(),
            "quorum change must fire during the jump"
        );
    }

    #[test]
    fn single_vm_change_is_not_workload_change() {
        let vms: Vec<VmId> = (0..4).map(VmId).collect();
        let mut ci = CauseInference::with_par(&vms, 0.8, 30, ParConfig::serial());
        for t in 0..40u64 {
            let w = if t % 2 == 0 { 1.0 } else { -1.0 };
            feed(
                &mut ci,
                &vms,
                t * 5,
                &[100.0 + w, 50.0 + w, 50.0 + w, 100.0 + w],
            );
        }
        // Only vm0's traffic explodes (a local fault symptom).
        for t in 40..60u64 {
            let w = if t % 2 == 0 { 1.0 } else { -1.0 };
            feed(
                &mut ci,
                &vms,
                t * 5,
                &[500.0, 50.0 + w, 50.0 + w, 100.0 + w],
            );
            assert!(
                !ci.workload_change(Timestamp::from_secs(t * 5)),
                "single-VM change must never reach quorum"
            );
        }
    }

    #[test]
    fn change_points_age_out() {
        let vms: Vec<VmId> = (0..2).map(VmId).collect();
        let mut ci = CauseInference::with_par(&vms, 0.8, 30, ParConfig::serial());
        for t in 0..40u64 {
            let w = if t % 2 == 0 { 0.5 } else { -0.5 };
            feed(&mut ci, &vms, t * 5, &[100.0 + w, 100.0 + w]);
        }
        let mut fired_at = None;
        for t in 40..55u64 {
            feed(&mut ci, &vms, t * 5, &[300.0, 300.0]);
            if ci.workload_change(Timestamp::from_secs(t * 5)) {
                fired_at = Some(t * 5);
                break;
            }
        }
        let fired_at = fired_at.expect("change fires during the jump");
        let much_later = Timestamp::from_secs(fired_at + 300);
        assert!(!ci.workload_change(much_later));
    }

    #[test]
    fn sharded_detector_updates_are_bit_identical_to_sequential() {
        let vms: Vec<VmId> = (0..5).map(VmId).collect();
        let mut serial = CauseInference::with_par(&vms, 0.8, 30, ParConfig::serial());
        let mut sharded: Vec<CauseInference> = [2usize, 7]
            .iter()
            .map(|&w| CauseInference::with_par(&vms, 0.8, 30, ParConfig::with_workers(w)))
            .collect();
        for t in 0..80u64 {
            let base = if t < 50 { 100.0 } else { 260.0 };
            let w = if t % 2 == 0 { 1.0 } else { -1.0 };
            let rates: Vec<f64> = (0..5).map(|i| base + w + i as f64).collect();
            feed(&mut serial, &vms, t * 5, &rates);
            let now = Timestamp::from_secs(t * 5);
            for ci in sharded.iter_mut() {
                feed(ci, &vms, t * 5, &rates);
                assert_eq!(
                    format!("{:?}", ci.detectors),
                    format!("{:?}", serial.detectors),
                    "detector state diverged at t={t}"
                );
                assert_eq!(ci.workload_change(now), serial.workload_change(now));
            }
        }
    }

    #[test]
    fn empty_vm_set_never_infers_change() {
        let ci = CauseInference::with_par(&[], 0.8, 30, ParConfig::serial());
        assert!(!ci.workload_change(Timestamp::from_secs(0)));
    }

    #[test]
    fn state_round_trips_mid_stream() {
        let vms: Vec<VmId> = (0..3).map(VmId).collect();
        let mut ci = CauseInference::with_par(&vms, 0.8, 30, ParConfig::serial());
        for t in 0..50u64 {
            let base = if t < 40 { 100.0 } else { 260.0 };
            let w = if t % 2 == 0 { 1.0 } else { -1.0 };
            feed(&mut ci, &vms, t * 5, &[base + w, base - w, base + 2.0 * w]);
        }
        let mut w = prepare_metrics::persist::Writer::new();
        ci.store_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = prepare_metrics::persist::Reader::new(&bytes);
        let back = CauseInference::load_state(&mut r, &vms, 0.8, 30, ParConfig::with_workers(7))
            .expect("state loads");
        assert!(r.is_exhausted());
        assert_eq!(
            format!("{:?}", back.detectors),
            format!("{:?}", ci.detectors)
        );
        assert_eq!(back.quorum.to_bits(), ci.quorum.to_bits());
        assert_eq!(back.recency_secs, ci.recency_secs);
        // Both copies must keep evolving identically after the restore.
        let mut back = back;
        for t in 50..60u64 {
            feed(&mut ci, &vms, t * 5, &[260.0, 261.0, 262.0]);
            feed(&mut back, &vms, t * 5, &[260.0, 261.0, 262.0]);
            let now = Timestamp::from_secs(t * 5);
            assert_eq!(back.workload_change(now), ci.workload_change(now));
        }
    }
}

#[cfg(test)]
mod implication_tests {
    use super::*;
    use prepare_metrics::{MetricSample, MetricVector};

    /// Two VMs, SLO violated t in [200, 400): VM0 exhausts its memory
    /// (free collapses, heavy paging) during the violation; VM1 only sees
    /// the ripple (its input traffic drops) and never exhausts anything.
    fn fixture() -> ([TimeSeries; 2], SloLog) {
        let mut s0 = TimeSeries::new();
        let mut s1 = TimeSeries::new();
        let mut slo = SloLog::new();
        for i in 0..120u64 {
            let t = Timestamp::from_secs(i * 5);
            let violated = (200..400).contains(&t.as_secs());
            let mut v0 = MetricVector::zeros();
            v0.set(
                AttributeKind::FreeMem,
                if violated {
                    0.0
                } else {
                    200.0 + (i % 3) as f64
                },
            );
            v0.set(
                AttributeKind::PageFaults,
                if violated { 800.0 } else { 0.0 },
            );
            v0.set(AttributeKind::CpuTotal, 40.0 + (i % 5) as f64);
            v0.set(AttributeKind::Load1, 0.4);
            let mut v1 = MetricVector::zeros();
            v1.set(
                AttributeKind::NetIn,
                if violated {
                    120.0
                } else {
                    400.0 + (i % 4) as f64
                },
            );
            v1.set(AttributeKind::CpuTotal, 30.0 + (i % 3) as f64);
            v1.set(AttributeKind::Load1, 0.3);
            s0.push(MetricSample::new(t, v0));
            s1.push(MetricSample::new(t, v1));
            slo.record(t, violated);
        }
        ([s0, s1], slo)
    }

    #[test]
    fn faulty_vm_is_implicated_ripples_are_not() {
        let (series, slo) = fixture();
        let implicated = implicated_vms(&series.each_ref(), &slo, &ParConfig::serial());
        assert_eq!(implicated, vec![0]);
    }

    #[test]
    fn scores_separate_cleanly() {
        let (series, slo) = fixture();
        let s0 = implication_score(&series[0], &slo);
        let s1 = implication_score(&series[1], &slo);
        assert!(s0 > 1.0, "faulty VM score {s0}");
        assert!(
            s1 < 1.0,
            "innocent VM score {s1} — ripple must not implicate"
        );
    }

    #[test]
    fn cpu_saturation_implicates() {
        let mut s = TimeSeries::new();
        let mut slo = SloLog::new();
        for i in 0..100u64 {
            let t = Timestamp::from_secs(i * 5);
            let violated = (200..400).contains(&t.as_secs());
            let mut v = MetricVector::zeros();
            v.set(AttributeKind::CpuTotal, if violated { 100.0 } else { 45.0 });
            v.set(AttributeKind::Load1, if violated { 1.6 } else { 0.45 });
            s.push(MetricSample::new(t, v));
            slo.record(t, violated);
        }
        assert!(implication_score(&s, &slo) > 1.0);
    }

    #[test]
    fn parallel_implication_matches_sequential() {
        let (series, slo) = fixture();
        let expect = implicated_vms(&series.each_ref(), &slo, &ParConfig::serial());
        for workers in [1usize, 2, 7] {
            let got = implicated_vms(&series.each_ref(), &slo, &ParConfig::with_workers(workers));
            assert_eq!(got, expect, "diverged at workers={workers}");
        }
    }

    #[test]
    fn no_violations_means_no_implication() {
        let (series, _) = fixture();
        let quiet = SloLog::new();
        assert!(implicated_vms(&series.each_ref(), &quiet, &ParConfig::serial()).is_empty());
        assert_eq!(implication_score(&series[0], &quiet), 0.0);
    }
}
