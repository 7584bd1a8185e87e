//! Small-scope exhaustive exploration of chaos-fault interleavings.
//!
//! Pinned chaos plans can only reach the orderings someone thought to
//! write down. This explorer drives the real controller on a tiny
//! 2-host / 3-VM cluster through a synthetic recurring memory-leak
//! anomaly and enumerates *every* single fault over every activation
//! window and *every* unordered pair of distinct faults over every
//! distinct temporal relation of the window set — overlapping, A
//! adjacent-before B, B adjacent-before A, A gapped-before B, and the
//! reverse. Every resulting event trace is checked against the full
//! registered property catalogue.
//!
//! Every case runs under a [`RecoveryManager`]: the controller journals
//! each round and checkpoints periodically, and the catalogue's
//! [`ChaosKind::ControllerCrash`] entry kills and resurrects it
//! mid-scenario — so crash recovery is explored interleaved with every
//! monitoring- and actuation-plane fault, not just in isolation.
//!
//! Everything is fixed (catalogue, windows, seeds, synthetic workload),
//! so the exploration is deterministic: same binary, same cases, same
//! verdicts.

use crate::properties::standard_properties;
use crate::{check_all, Violation};
use prepare_cloudsim::{ChaosEngine, ChaosKind, ChaosPlan, Cluster, HostId, HostSpec};
use prepare_core::{ControllerEvent, PrepareConfig, PrepareController, RecoveryManager, Scheme};
use prepare_metrics::{
    AttributeKind, Duration, MetricSample, MetricVector, StampedSample, Timestamp, VmId,
};
use prepare_par::{par_map, ParConfig};

/// Seed for the chaos engine's keyed coins in every explored case (the
/// catalogue faults are deterministic at probability 1.0; the seed only
/// feeds the coin hash).
const COIN_SEED: u64 = 7;

/// Sampling rounds driven per case: 240 rounds × 5 s = 1200 s — train on
/// the first anomaly period, inject faults around the second, and leave
/// a fault-free tail past the last `leads_to` deadline (window end 1120
/// + the 70 s retry-answer allowance = 1190 < 1200).
pub const ROUNDS: u64 = 240;

/// Seconds between sampling rounds (mirrors the default predictor
/// configuration).
pub const SAMPLING_SECS: u64 = 5;

/// Every case is identical (no faults active) before this time, so the
/// explorer drives the shared prefix once and forks the cluster,
/// controller state for each interleaving. Must not exceed any window
/// start.
pub const PREFIX_SECS: u64 = 880;

/// Fault activation windows (seconds): spanning the evaluated anomaly's
/// predictive-alert ramp into its SLO-violation peak, staggered so
/// pairwise combinations produce before/after, overlapping, and adjacent
/// activations.
const WINDOWS: [(u64, u64); 3] = [(880, 960), (960, 1040), (1040, 1120)];

/// Control rounds between checkpoints for the explorer's recovery
/// manager: 8 rounds × 5 s = 40 s, comfortably inside the
/// `checkpoint-liveness` window the property catalogue enforces, and
/// short enough that the many explored crash points each replay only a
/// small journal suffix (the sweep shares the lint's CI time budget).
/// Not a divisor of the post-prefix range, so a crash sweep over it
/// hits crashes right after a checkpoint (empty journal), right before
/// one (longest journal), and everywhere in between.
pub const CHECKPOINT_EVERY_ROUNDS: u64 = 8;

/// The fixed fault catalogue, by index. Probabilities are 1.0 so a
/// window's effect does not depend on coin flips. One representative
/// per fault class: monitoring loss on the leaking VM, a frozen sensor
/// on the blamed attribute, actuation rejection, migration failure, a
/// whole-host observability blackout, and a controller kill that forces
/// checkpoint + journal recovery. (`DelaySamples` is left to the
/// randomized chaos suite — for the checker's purposes its staleness
/// effect is subsumed by `DropSamples`. The crash fault keeps a
/// sub-1.0 probability on purpose: the seeded coins then scatter kills
/// across different rounds of each window, instead of crashing every
/// round the same way.)
fn catalogue() -> Vec<ChaosKind> {
    vec![
        ChaosKind::DropSamples {
            vm: Some(VmId(0)),
            probability: 1.0,
        },
        ChaosKind::StuckAttribute {
            vm: VmId(0),
            attribute: AttributeKind::FreeMem,
        },
        ChaosKind::HypervisorBusy { probability: 1.0 },
        ChaosKind::MigrationTimeout {
            timeout: Duration::from_secs(3),
        },
        ChaosKind::HostBlackout { host: HostId(0) },
        ChaosKind::ControllerCrash { probability: 0.35 },
    ]
}

/// One explored interleaving: which catalogue faults ran in which
/// windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// `(catalogue index, window index)` per activated fault.
    pub faults: Vec<(usize, usize)>,
}

impl std::fmt::Display for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self
            .faults
            .iter()
            .map(|(fi, wi)| format!("fault{fi}@w{wi}"))
            .collect();
        write!(f, "{}", parts.join("+"))
    }
}

/// A property violation found during exploration, tagged with its case.
#[derive(Debug, Clone)]
pub struct CaseViolation {
    /// The interleaving that produced the trace.
    pub case: String,
    /// The violation itself.
    pub violation: Violation,
}

/// Outcome of one full exploration sweep.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Interleavings executed (singles + pairs).
    pub cases: usize,
    /// Total events across every checked trace.
    pub events_checked: usize,
    /// Every violation found, tagged by case.
    pub violations: Vec<CaseViolation>,
}

/// A synthetic 13-attribute sample: `cpu` busy, `free_mem` MB free,
/// heavy paging once memory is exhausted (the localization marker the
/// diagnosis engine keys on).
fn sample_for(t: u64, cpu: f64, free_mem: f64) -> MetricSample {
    let v = MetricVector::from_fn(|a| match a {
        AttributeKind::CpuTotal => cpu,
        AttributeKind::CpuUser => cpu * 0.7,
        AttributeKind::FreeMem => free_mem,
        AttributeKind::Load1 => cpu / 50.0,
        AttributeKind::PageFaults => {
            if free_mem <= 0.0 {
                600.0
            } else {
                0.0
            }
        }
        _ => 10.0,
    });
    MetricSample::new(Timestamp::from_secs(t), v)
}

/// Free memory of the leaking VM at sampling round `i`: a 120-round
/// (600 s) period — steady, ramp to exhaustion, depleted, recovered.
fn leak_free_mem(i: u64) -> f64 {
    let phase = i % 120;
    match phase {
        0..=39 => 500.0,
        40..=89 => 500.0 - ((phase - 39) as f64) * 10.0,
        90..=109 => 0.0,
        _ => 500.0,
    }
}

/// The shared fault-free prefix of every explored case: the tiny
/// cluster and the controller state after driving the scenario to
/// `PREFIX_SECS` (880 s) with no faults active. Cloned per interleaving.
#[derive(Debug, Clone)]
pub struct Prefix {
    /// The cluster at `PREFIX_SECS`.
    pub cluster: Cluster,
    /// The controller at `PREFIX_SECS`.
    pub controller: PrepareController,
}

/// The scenario's inputs for the sampling round at time `t` (which must
/// be a [`SAMPLING_SECS`] boundary): the delivered readings — routed
/// through the chaos engine's monitoring-plane faults when one is active
/// — and the SLO status.
pub fn round_inputs(
    t: u64,
    cluster: &Cluster,
    chaos: Option<&mut ChaosEngine>,
) -> (Vec<(VmId, StampedSample)>, bool) {
    let now = Timestamp::from_secs(t);
    let i = t / SAMPLING_SECS;
    let free = leak_free_mem(i);
    let violated = free < 50.0;
    let samples = [
        (VmId(0), sample_for(t, 40.0, free)),
        (VmId(1), sample_for(t, 30.0, 400.0)),
        (VmId(2), sample_for(t, 25.0, 450.0)),
    ];
    let readings: Vec<(VmId, StampedSample)> = match chaos {
        Some(c) => samples
            .iter()
            .filter_map(|&(vm, sample)| {
                let host = cluster.vm(vm).host;
                c.deliver(vm, host, sample, now).map(|s| (vm, s))
            })
            .collect(),
        None => samples
            .iter()
            .map(|&(vm, sample)| (vm, StampedSample::fresh(sample)))
            .collect(),
    };
    (readings, violated)
}

/// Drives one fault-free simulated second of the shared prefix,
/// sampling the controller on [`SAMPLING_SECS`] boundaries.
fn step(t: u64, cluster: &mut Cluster, controller: &mut PrepareController) {
    let now = Timestamp::from_secs(t);
    cluster.advance(now);
    if !t.is_multiple_of(SAMPLING_SECS) {
        return;
    }
    let (readings, violated) = round_inputs(t, cluster, None);
    controller.on_readings(now, &readings, violated, cluster);
}

/// Builds the shared prefix: two VCL hosts, the leaking VM 0 and a
/// healthy VM 1 on host 0, a healthy VM 2 on host 1 (so migration has a
/// target and a host blackout blinds two VMs at once), driven fault-free
/// to `PREFIX_SECS` by a controller whose engine runs `workers` workers.
/// Returns `None` only if the tiny cluster cannot place its VMs (it
/// always can on fresh VCL hosts).
pub fn build_prefix(workers: usize) -> Option<Prefix> {
    let mut cluster = Cluster::new();
    let h0 = cluster.add_host(HostSpec::vcl_default());
    let h1 = cluster.add_host(HostSpec::vcl_default());
    let created = [
        cluster.create_vm(h0, 100.0, 512.0),
        cluster.create_vm(h0, 100.0, 512.0),
        cluster.create_vm(h1, 100.0, 512.0),
    ];
    if created.iter().any(|c| c.is_err()) {
        return None;
    }
    let vms = vec![VmId(0), VmId(1), VmId(2)];
    let config = PrepareConfig::default().with_workers(workers);
    let mut controller = PrepareController::new(vms, config, Scheme::Prepare);
    for t in 0..PREFIX_SECS {
        step(t, &mut cluster, &mut controller);
    }
    Some(Prefix {
        cluster,
        controller,
    })
}

/// Runs one interleaving from a shared prefix and returns the
/// controller's full event trace (prefix events included).
///
/// The case's controller runs under a [`RecoveryManager`] (write-ahead
/// journal, checkpoint every `CHECKPOINT_EVERY_ROUNDS` (8) rounds), so
/// every explored trace carries checkpoint bookkeeping — and a
/// [`ChaosKind::ControllerCrash`] fault can kill the controller
/// mid-scenario and resurrect it from the durable artifacts, with the
/// property catalogue checking the crash never duplicates an actuation.
pub fn run_case_from(prefix: &Prefix, case: &Case) -> Vec<ControllerEvent> {
    let mut cluster = prefix.cluster.clone();
    let mut manager = RecoveryManager::new(prefix.controller.clone(), CHECKPOINT_EVERY_ROUNDS);

    let mut plan = ChaosPlan::new(COIN_SEED);
    let kinds = catalogue();
    for &(fi, wi) in &case.faults {
        let (Some(kind), Some(&(from, until))) = (kinds.get(fi), WINDOWS.get(wi)) else {
            return Vec::new();
        };
        plan = plan.with_fault(
            Timestamp::from_secs(from),
            Timestamp::from_secs(until),
            *kind,
        );
    }
    let mut chaos = ChaosEngine::new(plan);
    let par = ParConfig::from_env();

    for t in PREFIX_SECS..ROUNDS * SAMPLING_SECS {
        let now = Timestamp::from_secs(t);
        cluster.advance(now);
        chaos.tick(&mut cluster, now);
        if !t.is_multiple_of(SAMPLING_SECS) {
            continue;
        }
        // A kill decided this round strikes before the round runs: the
        // process dies, and a fresh one rebuilds the exact pre-crash
        // controller from the last checkpoint plus the journal suffix,
        // then handles the round like any other. The cluster (the
        // outside world) keeps its state across the crash.
        if chaos.controller_crashed(now) {
            let image = manager.crash_image();
            let Ok(recovered) = RecoveryManager::recover(&image, CHECKPOINT_EVERY_ROUNDS, par, now)
            else {
                // A checkpoint this process just sealed cannot be corrupt;
                // bailing with an empty trace fails the coverage tests
                // loudly instead of checking vacuous properties.
                return Vec::new();
            };
            manager = recovered;
        }
        let (readings, violated) = round_inputs(t, &cluster, Some(&mut chaos));
        manager.tick(now, &readings, violated, &mut cluster);
    }
    manager.controller().events().to_vec()
}

/// Runs one interleaving standalone (builds a private prefix). The
/// explorer proper shares one prefix across all cases via
/// [`build_prefix`] + [`run_case_from`]; this entry point exists for
/// spot-checking a single case.
pub fn run_case(case: &Case) -> Vec<ControllerEvent> {
    match build_prefix(ParConfig::from_env().workers) {
        Some(prefix) => run_case_from(&prefix, case),
        None => Vec::new(),
    }
}

/// Window-index combinations explored for each unordered fault pair.
///
/// The full 3x3 product only adds phase-shifted copies of the same
/// temporal relations; these five cover every distinct relation class —
/// overlapping, A adjacent-before B (and the reverse), and A
/// gapped-before B (and the reverse) — which keeps the sweep inside the
/// shared lint+tlc CI budget as the fault catalogue grows.
const PAIR_COMBOS: [(usize, usize); 5] = [(0, 0), (0, 1), (1, 0), (0, 2), (2, 0)];

/// Every single-fault case over every window, followed by every
/// unordered pair of distinct faults over the `PAIR_COMBOS` window pairs.
pub fn all_cases() -> Vec<Case> {
    let n = catalogue().len();
    let w = WINDOWS.len();
    let mut cases = Vec::new();
    for fi in 0..n {
        for wi in 0..w {
            cases.push(Case {
                faults: vec![(fi, wi)],
            });
        }
    }
    for a in 0..n {
        for b in (a + 1)..n {
            for &(wa, wb) in &PAIR_COMBOS {
                cases.push(Case {
                    faults: vec![(a, wa), (b, wb)],
                });
            }
        }
    }
    cases
}

/// Runs the full sweep: every case, every registered property.
///
/// The shared fault-free prefix is driven once, then each case forks it
/// and replays only the fault-affected suffix; cases fan out over the
/// workspace's deterministic parallel engine (the ordered merge keeps
/// the report order independent of the worker count).
pub fn explore() -> ExploreReport {
    let props = standard_properties();
    let cases = all_cases();
    let mut report = ExploreReport {
        cases: cases.len(),
        events_checked: 0,
        violations: Vec::new(),
    };
    let par = ParConfig::from_env();
    let Some(prefix) = build_prefix(par.workers) else {
        report.violations.push(CaseViolation {
            case: "prefix".to_string(),
            violation: Violation {
                property: "explorer-setup",
                at: Timestamp::from_secs(0),
                message: "tiny cluster could not place its VMs".to_string(),
            },
        });
        return report;
    };
    let per_case = par_map(&par, cases, |case| {
        let events = run_case_from(&prefix, &case);
        let violations = check_all(&props, &events);
        (case.to_string(), events.len(), violations)
    });
    for (case, events, violations) in per_case {
        report.events_checked += events;
        for violation in violations {
            report.violations.push(CaseViolation {
                case: case.clone(),
                violation,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_enumeration_covers_singles_and_pairs() {
        let n = catalogue().len();
        let w = WINDOWS.len();
        let cases = all_cases();
        assert_eq!(cases.len(), n * w + n * (n - 1) / 2 * PAIR_COMBOS.len());
        // Pair combos must stay within the window set and cover the
        // overlap relation plus both orderings.
        assert!(PAIR_COMBOS.iter().all(|&(wa, wb)| wa < w && wb < w));
        assert!(PAIR_COMBOS.iter().any(|&(wa, wb)| wa == wb));
        assert!(PAIR_COMBOS.iter().any(|&(wa, wb)| wa < wb));
        assert!(PAIR_COMBOS.iter().any(|&(wa, wb)| wa > wb));
        // Every catalogue fault appears in at least one single and one
        // pair case.
        for fi in 0..n {
            assert!(cases
                .iter()
                .any(|c| c.faults.len() == 1 && c.faults[0].0 == fi));
            assert!(cases
                .iter()
                .any(|c| c.faults.len() == 2 && c.faults.iter().any(|&(f, _)| f == fi)));
        }
    }

    #[test]
    fn windows_start_after_the_shared_prefix() {
        // The prefix-forking optimisation is only sound if no fault can
        // activate inside the shared prefix.
        assert!(WINDOWS.iter().all(|&(from, until)| {
            from >= PREFIX_SECS && from < until && until < ROUNDS * SAMPLING_SECS
        }));
    }

    #[test]
    fn exploration_is_deterministic_per_case() {
        let case = Case {
            faults: vec![(0, 0), (4, 1)],
        };
        let a = run_case(&case);
        let b = run_case(&case);
        assert!(!a.is_empty(), "the scenario must produce events");
        assert_eq!(a, b, "same case must replay identically");
    }

    #[test]
    fn faulted_cases_reach_the_hard_paths() {
        // The explorer is only worth its runtime if the catalogue
        // actually drives the controller into its defensive machinery:
        // a host blackout must degrade monitoring, and a busy
        // hypervisor during the actuation phase must force retries.
        let prefix =
            build_prefix(ParConfig::from_env().workers).expect("tiny cluster must place its VMs");
        let blackout = run_case_from(
            &prefix,
            &Case {
                faults: vec![(4, 1)],
            },
        );
        assert!(blackout
            .iter()
            .any(|e| matches!(e, ControllerEvent::MonitoringDegraded { .. })));
        let busy = run_case_from(
            &prefix,
            &Case {
                faults: vec![(2, 1)],
            },
        );
        assert!(busy
            .iter()
            .any(|e| matches!(e, ControllerEvent::ActionRetried { .. })));
    }

    #[test]
    fn controller_crash_case_recovers_deterministically() {
        // The last catalogue entry is the controller kill: its case must
        // actually crash (markers present), recover every crash, keep
        // checkpointing, and replay byte-identically.
        let crash_idx = catalogue().len() - 1;
        assert!(matches!(
            catalogue()[crash_idx],
            ChaosKind::ControllerCrash { .. }
        ));
        let case = Case {
            faults: vec![(crash_idx, 1)],
        };
        let events = run_case(&case);
        let crashes = events
            .iter()
            .filter(|e| matches!(e, ControllerEvent::ControllerCrashed { .. }))
            .count();
        let recoveries = events
            .iter()
            .filter(|e| matches!(e, ControllerEvent::RecoveryCompleted { .. }))
            .count();
        assert!(crashes > 0, "the crash window must kill the controller");
        assert_eq!(crashes, recoveries, "every crash must be recovered");
        assert!(events
            .iter()
            .any(|e| matches!(e, ControllerEvent::CheckpointTaken { .. })));
        assert_eq!(events, run_case(&case), "crash cases must replay exactly");
    }

    #[test]
    fn benign_case_trains_and_acts() {
        // No faults at all: the leak scenario itself must exercise the
        // loop (alerts and at least one action), or the explorer would
        // be vacuously checking empty traces.
        let events = run_case(&Case { faults: vec![] });
        assert!(events
            .iter()
            .any(|e| matches!(e, ControllerEvent::ModelsTrained { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, ControllerEvent::ActionIssued { .. })));
    }
}
