//! Fault injection (paper §III-A).
//!
//! Three fault classes are injected, matching the paper:
//!
//! - **memory leak** — a process in the target VM continuously allocates
//!   memory and never frees it (gradual manifestation: free memory ramps
//!   down, then paging sets in);
//! - **CPU hog** — an infinite-loop / CPU-bound competitor starts inside
//!   the target VM (sudden manifestation);
//! - **bottleneck** — the client workload is gradually increased until it
//!   hits the capacity limit of the application's bottleneck component.
//!
//! "Since the current prototype of PREPARE can only handle recurrent
//! anomalies, we inject two faults of the same type and each fault
//! injection lasts about 300 seconds" — a [`FaultPlan`] holds any number
//! of [`FaultInjection`]s and exposes, per tick, the extra resource
//! demand each VM suffers and the global workload multiplier.

use prepare_cloudsim::Demand;
use prepare_metrics::{Duration, Timestamp, VmId};

/// One class of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Continuous allocation at `rate_mb_per_sec` in the target VM.
    MemLeak {
        /// Leak growth rate, MB per second.
        rate_mb_per_sec: f64,
    },
    /// A CPU-bound competitor consuming `cpu` percent-of-core inside the
    /// target VM.
    CpuHog {
        /// Hog demand in percent-of-core units.
        cpu: f64,
    },
    /// Client workload ramps linearly from 1× to `peak_multiplier`× over
    /// the injection window (the bottleneck fault has no target VM — it
    /// stresses whichever component saturates first).
    WorkloadRamp {
        /// Multiplier reached at the end of the window.
        peak_multiplier: f64,
    },
    /// A noisy co-tenant consumes `host_cpu` percent-of-core on the host
    /// where the target VM lives when the injection begins — the
    /// "resource contentions" anomaly cause from the paper's
    /// introduction. Scaling the squeezed VM cannot help; migrating it
    /// off the contended host can.
    NeighborInterference {
        /// Background CPU load imposed on the host.
        host_cpu: f64,
    },
}

impl FaultKind {
    /// Short name used in experiment output ("memleak" / "cpuhog" /
    /// "bottleneck" — the paper's fault labels).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::MemLeak { .. } => "memleak",
            FaultKind::CpuHog { .. } => "cpuhog",
            FaultKind::WorkloadRamp { .. } => "bottleneck",
            FaultKind::NeighborInterference { .. } => "contention",
        }
    }
}

/// One scheduled fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjection {
    /// The VM the fault process runs in; `None` for workload-level faults.
    pub target: Option<VmId>,
    /// What is injected.
    pub kind: FaultKind,
    /// Injection start.
    pub start: Timestamp,
    /// Injection length (the paper uses ~300 s).
    pub duration: Duration,
}

impl FaultInjection {
    /// True while the injection is active at `now`.
    pub fn is_active(&self, now: Timestamp) -> bool {
        now >= self.start && now < self.start + self.duration
    }

    /// Seconds since the injection started (0 if not yet active).
    fn elapsed(&self, now: Timestamp) -> f64 {
        now.since(self.start).as_secs() as f64
    }
}

/// A schedule of fault injections for one experiment run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    injections: Vec<FaultInjection>,
}

impl FaultPlan {
    /// Empty plan (fault-free run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an injection.
    pub fn add(&mut self, injection: FaultInjection) -> &mut Self {
        self.injections.push(injection);
        self
    }

    /// The paper's standard schedule: two injections of the same fault
    /// kind against the same target, `duration` long, starting at `first`
    /// and `second`. ("Our prediction model learns the anomaly during the
    /// first fault injection and starts to make prediction for the second
    /// injected fault.")
    pub fn recurrent(
        target: Option<VmId>,
        kind: FaultKind,
        first: Timestamp,
        second: Timestamp,
        duration: Duration,
    ) -> Self {
        let mut plan = FaultPlan::new();
        plan.add(FaultInjection {
            target,
            kind,
            start: first,
            duration,
        });
        plan.add(FaultInjection {
            target,
            kind,
            start: second,
            duration,
        });
        plan
    }

    /// All injections.
    pub fn injections(&self) -> &[FaultInjection] {
        &self.injections
    }

    /// Extra resource demand imposed on `vm` at `now` by active faults
    /// (leaked memory, hog CPU).
    pub fn overlay(&self, vm: VmId, now: Timestamp) -> Demand {
        let mut extra = Demand::default();
        for inj in &self.injections {
            if inj.target != Some(vm) || !inj.is_active(now) {
                continue;
            }
            match inj.kind {
                FaultKind::MemLeak { rate_mb_per_sec } => {
                    extra.mem_mb += rate_mb_per_sec * inj.elapsed(now);
                    // The leaking process also burns a little CPU.
                    extra.cpu += 2.0;
                }
                FaultKind::CpuHog { cpu } => {
                    extra.cpu += cpu;
                }
                FaultKind::WorkloadRamp { .. } | FaultKind::NeighborInterference { .. } => {}
            }
        }
        extra
    }

    /// Active neighbor-interference injections at `now`:
    /// `(injection index, target VM, host background CPU)`. The caller
    /// (the experiment loop) resolves the contended host from the target
    /// VM's placement at injection start and applies the load to the
    /// cluster — the noisy neighbor stays on that host even if the victim
    /// migrates away.
    pub fn interference(&self, now: Timestamp) -> Vec<(usize, VmId, f64)> {
        self.injections
            .iter()
            .enumerate()
            .filter_map(|(i, inj)| match (inj.kind, inj.target) {
                (FaultKind::NeighborInterference { host_cpu }, Some(vm)) if inj.is_active(now) => {
                    Some((i, vm, host_cpu))
                }
                _ => None,
            })
            .collect()
    }

    /// Global client-workload multiplier at `now` (≥ 1.0; the bottleneck
    /// fault ramps it linearly to its peak over each injection window).
    pub fn workload_multiplier(&self, now: Timestamp) -> f64 {
        let mut mult: f64 = 1.0;
        for inj in &self.injections {
            if let FaultKind::WorkloadRamp { peak_multiplier } = inj.kind {
                if inj.is_active(now) {
                    let frac = inj.elapsed(now) / inj.duration.as_secs().max(1) as f64;
                    mult = mult.max(1.0 + (peak_multiplier - 1.0) * frac.min(1.0));
                }
            }
        }
        mult
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn d(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn leak_grows_linearly_then_stops() {
        let plan = FaultPlan::recurrent(
            Some(VmId(2)),
            FaultKind::MemLeak {
                rate_mb_per_sec: 2.0,
            },
            t(100),
            t(600),
            d(300),
        );
        assert_eq!(plan.overlay(VmId(2), t(50)).mem_mb, 0.0);
        assert_eq!(plan.overlay(VmId(2), t(200)).mem_mb, 200.0);
        assert_eq!(plan.overlay(VmId(2), t(399)).mem_mb, 598.0);
        // After the injection ends the process dies and memory is freed.
        assert_eq!(plan.overlay(VmId(2), t(450)).mem_mb, 0.0);
        // Second recurrence starts fresh.
        assert_eq!(plan.overlay(VmId(2), t(700)).mem_mb, 200.0);
    }

    #[test]
    fn leak_only_hits_target_vm() {
        let plan = FaultPlan::recurrent(
            Some(VmId(2)),
            FaultKind::MemLeak {
                rate_mb_per_sec: 2.0,
            },
            t(0),
            t(500),
            d(300),
        );
        assert_eq!(plan.overlay(VmId(1), t(100)).mem_mb, 0.0);
    }

    #[test]
    fn hog_is_a_step() {
        let plan = FaultPlan::recurrent(
            Some(VmId(0)),
            FaultKind::CpuHog { cpu: 80.0 },
            t(100),
            t(600),
            d(300),
        );
        assert_eq!(plan.overlay(VmId(0), t(99)).cpu, 0.0);
        assert_eq!(plan.overlay(VmId(0), t(100)).cpu, 80.0);
        assert_eq!(plan.overlay(VmId(0), t(399)).cpu, 80.0);
        assert_eq!(plan.overlay(VmId(0), t(400)).cpu, 0.0);
    }

    #[test]
    fn workload_ramp_multiplier() {
        let plan = FaultPlan::recurrent(
            None,
            FaultKind::WorkloadRamp {
                peak_multiplier: 2.0,
            },
            t(0),
            t(600),
            d(300),
        );
        assert_eq!(plan.workload_multiplier(t(0)), 1.0);
        assert!((plan.workload_multiplier(t(150)) - 1.5).abs() < 1e-9);
        assert!((plan.workload_multiplier(t(299)) - 1.9966).abs() < 1e-2);
        assert_eq!(plan.workload_multiplier(t(350)), 1.0);
        // Workload faults impose no per-VM overlay.
        assert_eq!(plan.overlay(VmId(0), t(150)), Demand::default());
    }

    #[test]
    fn fault_names_match_paper() {
        assert_eq!(
            FaultKind::MemLeak {
                rate_mb_per_sec: 1.0
            }
            .name(),
            "memleak"
        );
        assert_eq!(FaultKind::CpuHog { cpu: 1.0 }.name(), "cpuhog");
        assert_eq!(
            FaultKind::WorkloadRamp {
                peak_multiplier: 2.0
            }
            .name(),
            "bottleneck"
        );
    }
}
