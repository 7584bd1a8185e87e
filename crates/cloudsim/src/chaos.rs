//! Seeded, deterministic infrastructure-fault injection.
//!
//! The paper's *application* faults (`prepare-apps`) corrupt the workload
//! running inside a VM. This module attacks the other side: the
//! monitoring and actuation plane itself — dropped and delayed metric
//! samples, stuck attribute readings, transient hypervisor rejections,
//! migrations that time out mid-copy, and whole-host monitoring
//! blackouts. Every decision is a pure function of
//! `(plan seed, fault index, entity, tick)` through a splitmix64-style
//! finalizer, so a [`ChaosPlan`] replays byte-for-byte on any worker
//! count and never consults `std::time` or an ambient RNG.
//!
//! The engine sits between the [`crate::Monitor`] and the controller:
//! the experiment loop calls [`ChaosEngine::tick`] once per simulated
//! second (actuation-plane faults) and routes every rendered sample
//! through [`ChaosEngine::deliver`] (monitoring-plane faults). With no
//! plan wired in, neither hook exists on the call path — the layer is
//! zero-cost when off.

use crate::{Cluster, HostId};
use prepare_metrics::{AttributeKind, Duration, MetricSample, StampedSample, Timestamp, VmId};
use std::collections::{BTreeMap, VecDeque};

/// splitmix64 finalizer: a well-mixed 64-bit hash of `x`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Keyed coin in `[0, 1)`: depends only on the four key components,
/// never on call order — the property that makes chaos decisions
/// identical across `PREPARE_WORKERS` settings.
fn coin(seed: u64, fault: u64, entity: u64, tick: u64) -> f64 {
    let mixed = splitmix64(
        seed ^ splitmix64(fault.wrapping_add(0x517C_C1B7_2722_0A95))
            ^ splitmix64(entity.wrapping_add(0x631B_CDAB_4311))
            ^ splitmix64(tick),
    );
    // Top 53 bits → uniform double in [0, 1).
    (mixed >> 11) as f64 / (1u64 << 53) as f64
}

/// One kind of infrastructure fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosKind {
    /// Each sampling round, drop the VM's sample with this probability
    /// (`vm: None` = every VM rolls its own coin).
    DropSamples {
        /// Affected VM, or `None` for all VMs.
        vm: Option<VmId>,
        /// Per-round drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Each sampling round, hold the VM's sample back one round with
    /// this probability; held samples arrive late with their original
    /// collection stamp, and a backlog collapses to the freshest
    /// reading once the lag clears.
    DelaySamples {
        /// Affected VM, or `None` for all VMs.
        vm: Option<VmId>,
        /// Per-round delay probability in `[0, 1]`.
        probability: f64,
    },
    /// One attribute of one VM freezes at its first in-window reading —
    /// a wedged monitoring agent that keeps reporting the same number.
    StuckAttribute {
        /// Affected VM.
        vm: VmId,
        /// The attribute whose reading freezes.
        attribute: AttributeKind,
    },
    /// Each tick, the hypervisor control plane is busy with this
    /// probability: every scale/migrate request that tick is rejected
    /// with a `HypervisorBusy` error.
    HypervisorBusy {
        /// Per-tick busy probability in `[0, 1]`.
        probability: f64,
    },
    /// Migrations *started while this fault is active* are aborted and
    /// rolled back if the pre-copy has not converged within `timeout`.
    MigrationTimeout {
        /// Grace period before the in-flight migration is torn down.
        timeout: Duration,
    },
    /// Total monitoring blackout of one host: no sample from any VM on
    /// it gets through.
    HostBlackout {
        /// The blacked-out host.
        host: HostId,
    },
    /// Each tick, the controller process is killed with this probability
    /// and immediately resurrected from its last durable checkpoint +
    /// journal. The engine only decides *when* the crash happens — the
    /// experiment loop polls [`ChaosEngine::controller_crashed`] and
    /// performs the kill/restore through
    /// `prepare_core::RecoveryManager::{crash_image, recover}`.
    ControllerCrash {
        /// Per-tick crash probability in `[0, 1]`.
        probability: f64,
    },
}

/// One scheduled fault: a kind active over `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosFault {
    /// First tick the fault is active.
    pub from: Timestamp,
    /// First tick the fault is no longer active.
    pub until: Timestamp,
    /// What misbehaves.
    pub kind: ChaosKind,
}

impl ChaosFault {
    /// True while the fault is active at `now`.
    pub fn active(&self, now: Timestamp) -> bool {
        self.from <= now && now < self.until
    }
}

/// A complete, replayable chaos schedule: a seed plus fault windows.
///
/// Two engines built from equal plans make identical decisions at every
/// tick, independent of sample-delivery order or worker count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// The scheduled faults.
    pub faults: Vec<ChaosFault>,
}

impl ChaosPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Builder-style: adds one fault window.
    #[must_use]
    pub fn with_fault(mut self, from: Timestamp, until: Timestamp, kind: ChaosKind) -> Self {
        self.faults.push(ChaosFault { from, until, kind });
        self
    }
}

/// Counters of what the engine actually did — the denominator for the
/// robustness bench and a cheap sanity probe for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Samples dropped by `DropSamples` coins.
    pub dropped: u64,
    /// Samples held back at least one round by `DelaySamples`.
    pub delayed: u64,
    /// Queued samples discarded when a delay backlog collapsed.
    pub coalesced: u64,
    /// Attribute readings overwritten by a `StuckAttribute` freeze.
    pub stuck_readings: u64,
    /// Samples swallowed by a `HostBlackout`.
    pub blackout_drops: u64,
    /// Ticks the hypervisor control plane spent busy.
    pub busy_ticks: u64,
    /// In-flight migrations torn down by `MigrationTimeout`.
    pub aborted_migrations: u64,
    /// Controller kills decided by `ControllerCrash` coins.
    pub controller_crashes: u64,
}

/// Executes a [`ChaosPlan`] against the monitoring and actuation plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEngine {
    plan: ChaosPlan,
    /// Samples held back by `DelaySamples`, per VM, oldest first.
    queued: BTreeMap<VmId, VecDeque<StampedSample>>,
    /// First in-window reading per active `StuckAttribute` fault, keyed
    /// by its index in `plan.faults`: `(collection time, frozen value)`.
    /// Two overlapping faults on one attribute each keep their own.
    frozen: BTreeMap<usize, (Timestamp, f64)>,
    stats: ChaosStats,
}

impl ChaosEngine {
    /// An engine executing `plan` from a clean slate.
    pub fn new(plan: ChaosPlan) -> Self {
        ChaosEngine {
            plan,
            queued: BTreeMap::new(),
            frozen: BTreeMap::new(),
            stats: ChaosStats::default(),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// What the engine has done so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Per-tick actuation-plane faults: sets/clears the hypervisor-busy
    /// flag and tears down in-flight migrations that have outlived an
    /// active `MigrationTimeout` window. Call once per simulated second,
    /// right after [`Cluster::advance`].
    pub fn tick(&mut self, cluster: &mut Cluster, now: Timestamp) {
        let tick = now.as_secs();
        let mut busy = false;
        for (idx, fault) in self.plan.faults.iter().enumerate() {
            if let ChaosKind::HypervisorBusy { probability } = fault.kind {
                if fault.active(now) && coin(self.plan.seed, idx as u64, 0, tick) < probability {
                    busy = true;
                }
            }
        }
        cluster.set_hypervisor_busy(busy);
        if busy {
            self.stats.busy_ticks += 1;
        }

        // Migration timeouts: a migration started inside an active
        // window is torn down once `timeout` elapses without switch-over.
        let mut doomed: Vec<VmId> = Vec::new();
        for vm in cluster.vm_ids() {
            let Some(m) = cluster.vm(vm).migration else {
                continue;
            };
            let timed_out = self.plan.faults.iter().any(|fault| match fault.kind {
                ChaosKind::MigrationTimeout { timeout } => {
                    fault.active(m.started_at) && now >= m.started_at + timeout
                }
                _ => false,
            });
            if timed_out {
                doomed.push(vm);
            }
        }
        for vm in doomed {
            if cluster.cancel_migration(vm, now).is_ok() {
                self.stats.aborted_migrations += 1;
            }
        }
    }

    /// Per-tick controller-crash poll: true when an active
    /// [`ChaosKind::ControllerCrash`] fault kills the controller this
    /// tick. The decision is a keyed coin — independent of delivery
    /// order and worker count — so a crash schedule replays exactly.
    /// The caller owns the actual kill/resurrect (snapshotting the
    /// crash image and running recovery); the engine just counts it.
    pub fn controller_crashed(&mut self, now: Timestamp) -> bool {
        let tick = now.as_secs();
        let crashed = self.plan.faults.iter().enumerate().any(|(idx, fault)| {
            let ChaosKind::ControllerCrash { probability } = fault.kind else {
                return false;
            };
            fault.active(now) && coin(self.plan.seed, idx as u64, 0, tick) < probability
        });
        if crashed {
            self.stats.controller_crashes += 1;
        }
        crashed
    }

    /// Routes one freshly rendered sample for `vm` (currently on `host`)
    /// through the monitoring-plane faults. Returns what the controller
    /// actually receives this round: `None` when the sample is lost
    /// (drop/blackout) or held back (delay), `Some` otherwise — possibly
    /// an older queued sample, possibly with frozen attribute readings.
    pub fn deliver(
        &mut self,
        vm: VmId,
        host: HostId,
        sample: MetricSample,
        now: Timestamp,
    ) -> Option<StampedSample> {
        let tick = now.as_secs();
        let seed = self.plan.seed;

        // 1. Host-wide blackout swallows everything.
        let blackout = self.plan.faults.iter().any(|f| {
            matches!(f.kind, ChaosKind::HostBlackout { host: h } if h == host) && f.active(now)
        });
        if blackout {
            self.stats.blackout_drops += 1;
            return None;
        }

        // 2. Per-VM drop coin.
        for (idx, fault) in self.plan.faults.iter().enumerate() {
            let ChaosKind::DropSamples {
                vm: target,
                probability,
            } = fault.kind
            else {
                continue;
            };
            let applies = fault.active(now) && target.is_none_or(|t| t == vm);
            if applies && coin(seed, idx as u64, vm.0 as u64, tick) < probability {
                self.stats.dropped += 1;
                return None;
            }
        }

        // 3. Delay: hold the fresh sample back one round; deliver the
        // oldest queued one instead (nothing on the first lagging round).
        let delaying = self.plan.faults.iter().enumerate().any(|(idx, fault)| {
            let ChaosKind::DelaySamples {
                vm: target,
                probability,
            } = fault.kind
            else {
                return false;
            };
            fault.active(now)
                && target.is_none_or(|t| t == vm)
                && coin(seed, idx as u64, vm.0 as u64, tick) < probability
        });
        let queue = self.queued.entry(vm).or_default();
        let delivered = if delaying {
            queue.push_back(StampedSample::fresh(sample));
            self.stats.delayed += 1;
            if queue.len() > 1 {
                queue.pop_front()
            } else {
                None // first lagging round: nothing arrives
            }
        } else {
            // Lag over: the backlog collapses — a real monitoring bus
            // replaces queued readings with the freshest one.
            if !queue.is_empty() {
                self.stats.coalesced += queue.len() as u64;
                queue.clear();
            }
            Some(StampedSample::fresh(sample))
        };
        let mut delivered = delivered?;

        // 4. Stuck attributes: freeze the value at the first in-window
        // reading and hold the collection stamp no later than that
        // reading's, so staleness is observable downstream.
        for (idx, fault) in self.plan.faults.iter().enumerate() {
            let ChaosKind::StuckAttribute {
                vm: target,
                attribute,
            } = fault.kind
            else {
                continue;
            };
            if target != vm {
                continue;
            }
            if !fault.active(now) {
                self.frozen.remove(&idx);
                continue;
            }
            match self.frozen.get(&idx) {
                Some(&(frozen_at, value)) => {
                    delivered.sample.values.set(attribute, value);
                    delivered.collected = delivered.collected.min(frozen_at);
                    self.stats.stuck_readings += 1;
                }
                None => {
                    // First in-window delivery: capture the freeze point.
                    self.frozen.insert(
                        idx,
                        (
                            delivered.sample.time,
                            delivered.sample.values.get(attribute),
                        ),
                    );
                }
            }
        }
        Some(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HostSpec;
    use prepare_metrics::MetricVector;

    fn sample_at(secs: u64, v: f64) -> MetricSample {
        MetricSample::new(Timestamp::from_secs(secs), MetricVector::from_fn(|_| v))
    }

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    #[test]
    fn coins_are_keyed_not_sequenced() {
        // Same key → same coin, regardless of how many other coins were
        // drawn in between: chaos cannot depend on evaluation order.
        let a = coin(42, 1, 7, 100);
        let _ = coin(42, 9, 9, 9);
        let _ = coin(1, 2, 3, 4);
        assert_eq!(a, coin(42, 1, 7, 100));
        assert!((0.0..1.0).contains(&a));
        // Distinct keys decorrelate.
        assert_ne!(coin(42, 1, 7, 100), coin(43, 1, 7, 100));
        assert_ne!(coin(42, 1, 7, 100), coin(42, 2, 7, 100));
        assert_ne!(coin(42, 1, 7, 100), coin(42, 1, 8, 100));
        assert_ne!(coin(42, 1, 7, 100), coin(42, 1, 7, 101));
    }

    #[test]
    fn coin_frequency_tracks_probability() {
        let hits = (0..10_000)
            .filter(|&tick| coin(7, 0, 0, tick) < 0.3)
            .count();
        assert!(
            (2600..3400).contains(&hits),
            "p=0.3 over 10k ticks hit {hits} times"
        );
    }

    #[test]
    fn identical_plans_replay_identically() {
        let plan = ChaosPlan::new(0xC0FFEE)
            .with_fault(
                t(0),
                t(100),
                ChaosKind::DropSamples {
                    vm: None,
                    probability: 0.4,
                },
            )
            .with_fault(
                t(20),
                t(60),
                ChaosKind::DelaySamples {
                    vm: Some(VmId(1)),
                    probability: 0.5,
                },
            );
        let run = |mut e: ChaosEngine| {
            let mut log = Vec::new();
            for round in 0..20 {
                let now = t(round * 5);
                for vm in [VmId(0), VmId(1)] {
                    let out = e.deliver(vm, HostId(0), sample_at(now.as_secs(), 1.0), now);
                    log.push(out.is_some());
                }
            }
            (log, e.stats())
        };
        let (log_a, stats_a) = run(ChaosEngine::new(plan.clone()));
        let (log_b, stats_b) = run(ChaosEngine::new(plan.clone()));
        assert_eq!(log_a, log_b);
        assert_eq!(stats_a, stats_b);
        let (log_c, _) = run(ChaosEngine::new(ChaosPlan {
            seed: 0xBAD,
            ..plan
        }));
        assert_ne!(log_a, log_c, "a different seed must change decisions");
    }

    #[test]
    fn blackout_swallows_a_hosts_samples() {
        let plan =
            ChaosPlan::new(1).with_fault(t(10), t(20), ChaosKind::HostBlackout { host: HostId(0) });
        let mut e = ChaosEngine::new(plan);
        assert!(e
            .deliver(VmId(0), HostId(0), sample_at(5, 1.0), t(5))
            .is_some());
        assert!(e
            .deliver(VmId(0), HostId(0), sample_at(10, 1.0), t(10))
            .is_none());
        assert!(e
            .deliver(VmId(0), HostId(0), sample_at(15, 1.0), t(15))
            .is_none());
        // A VM on another host is unaffected.
        assert!(e
            .deliver(VmId(1), HostId(1), sample_at(15, 1.0), t(15))
            .is_some());
        // The window is half-open: `until` is already clean.
        assert!(e
            .deliver(VmId(0), HostId(0), sample_at(20, 1.0), t(20))
            .is_some());
        assert_eq!(e.stats().blackout_drops, 2);
    }

    #[test]
    fn delay_holds_then_replays_in_order() {
        let plan = ChaosPlan::new(1).with_fault(
            t(10),
            t(21),
            ChaosKind::DelaySamples {
                vm: None,
                probability: 1.0,
            },
        );
        let mut e = ChaosEngine::new(plan);
        let vm = VmId(0);
        // First lagging round: the sample is held, nothing arrives.
        assert!(e
            .deliver(vm, HostId(0), sample_at(10, 10.0), t(10))
            .is_none());
        // Second lagging round: last round's sample arrives, one round late.
        let late = e
            .deliver(vm, HostId(0), sample_at(15, 15.0), t(15))
            .expect("previous round replays");
        assert_eq!(late.sample.values.get(AttributeKind::CpuTotal), 10.0);
        assert_eq!(late.collected, t(10), "the stamp keeps collection time");
        let late2 = e
            .deliver(vm, HostId(0), sample_at(20, 20.0), t(20))
            .expect("still replaying the backlog");
        assert_eq!(late2.sample.values.get(AttributeKind::CpuTotal), 15.0);
        // Lag clears: the backlog (the t=20 sample) coalesces away and
        // the fresh reading gets through.
        let fresh = e
            .deliver(vm, HostId(0), sample_at(25, 25.0), t(25))
            .expect("fresh after recovery");
        assert_eq!(fresh.sample.values.get(AttributeKind::CpuTotal), 25.0);
        assert_eq!(fresh.collected, t(25));
        let s = e.stats();
        assert_eq!(s.delayed, 3);
        assert_eq!(s.coalesced, 1);
    }

    /// A sample of 1 × `v` with FreeMem at 100 × `v`.
    fn mk(secs: u64, v: f64) -> MetricSample {
        let mut values = MetricVector::from_fn(|_| v);
        values.set(AttributeKind::FreeMem, v * 100.0);
        MetricSample::new(t(secs), values)
    }

    fn stuck(attribute: AttributeKind) -> ChaosKind {
        ChaosKind::StuckAttribute {
            vm: VmId(0),
            attribute,
        }
    }

    #[test]
    fn stuck_attribute_freezes_value_and_stamp() {
        let plan = ChaosPlan::new(1).with_fault(t(10), t(30), stuck(AttributeKind::FreeMem));
        let mut e = ChaosEngine::new(plan);
        // First in-window reading becomes the freeze point.
        let first = e
            .deliver(VmId(0), HostId(0), mk(10, 1.0), t(10))
            .expect("delivered");
        assert_eq!(first.sample.values.get(AttributeKind::FreeMem), 100.0);
        assert_eq!(first.collected, t(10));
        // Later readings keep reporting the frozen value with the old stamp.
        let wedged = e
            .deliver(VmId(0), HostId(0), mk(20, 2.0), t(20))
            .expect("delivered");
        assert_eq!(wedged.sample.values.get(AttributeKind::FreeMem), 100.0);
        assert_eq!(wedged.collected, t(10));
        // Other attributes stay live.
        assert_eq!(wedged.sample.values.get(AttributeKind::CpuTotal), 2.0);
        assert_eq!(wedged.sample.time, t(20));
        // Window over: the agent recovers.
        let healed = e
            .deliver(VmId(0), HostId(0), mk(30, 3.0), t(30))
            .expect("delivered");
        assert_eq!(healed.sample.values.get(AttributeKind::FreeMem), 300.0);
        assert_eq!(healed.collected, t(30));
        assert_eq!(e.stats().stuck_readings, 1);
    }

    #[test]
    fn staggered_stuck_attributes_keep_the_earlier_freeze_point() {
        let plan = ChaosPlan::new(1)
            .with_fault(t(10), t(30), stuck(AttributeKind::FreeMem))
            .with_fault(t(20), t(50), stuck(AttributeKind::CpuTotal));
        let mut e = ChaosEngine::new(plan);
        let mut at = |secs: u64| {
            e.deliver(VmId(0), HostId(0), mk(secs, secs as f64), t(secs))
                .expect("delivered")
        };
        assert_eq!(at(10).collected, t(10));
        // Both faults active: the earlier freeze point wins.
        let both = at(20);
        assert_eq!(both.collected, t(10));
        assert_eq!(both.sample.values.get(AttributeKind::FreeMem), 1000.0);
        assert_eq!(both.sample.values.get(AttributeKind::CpuTotal), 20.0);
        let both = at(25);
        assert_eq!(both.collected, t(10));
        assert_eq!(both.sample.values.get(AttributeKind::CpuTotal), 20.0);
        // The first window is over: the later freeze point is the oldest.
        let second = at(30);
        assert_eq!(second.collected, t(20));
        assert_eq!(second.sample.values.get(AttributeKind::FreeMem), 3000.0);
        assert_eq!(second.sample.values.get(AttributeKind::CpuTotal), 20.0);
        // Both windows over.
        assert_eq!(at(50).collected, t(50));
    }

    #[test]
    fn overlapping_stuck_faults_on_one_attribute_both_hold() {
        let plan = ChaosPlan::new(1)
            .with_fault(t(10), t(30), stuck(AttributeKind::FreeMem))
            .with_fault(t(20), t(60), stuck(AttributeKind::FreeMem));
        let mut e = ChaosEngine::new(plan);
        for secs in [10, 15, 20, 25, 30, 35, 45, 55, 59] {
            let got = e
                .deliver(VmId(0), HostId(0), mk(secs, secs as f64), t(secs))
                .expect("delivered");
            assert_eq!(
                got.sample.values.get(AttributeKind::FreeMem),
                1000.0,
                "FreeMem reads live at t = {secs}"
            );
            assert!(
                secs == 10 || got.collected < t(secs),
                "fresh stamp at t = {secs}"
            );
        }
        // Both windows over: the agent recovers.
        let healed = e
            .deliver(VmId(0), HostId(0), mk(60, 60.0), t(60))
            .expect("delivered");
        assert_eq!(healed.sample.values.get(AttributeKind::FreeMem), 6000.0);
        assert_eq!(healed.collected, t(60));
    }

    #[test]
    fn busy_window_gates_cluster_actuations() {
        let plan = ChaosPlan::new(1).with_fault(
            t(5),
            t(10),
            ChaosKind::HypervisorBusy { probability: 1.0 },
        );
        let mut e = ChaosEngine::new(plan);
        let mut c = Cluster::new();
        let h0 = c.add_host(HostSpec::vcl_default());
        let vm = c.create_vm(h0, 100.0, 512.0).expect("fits");
        e.tick(&mut c, t(4));
        assert!(c.scale_cpu(vm, 120.0, t(4)).is_ok());
        e.tick(&mut c, t(5));
        assert!(c.scale_cpu(vm, 130.0, t(5)).is_err());
        e.tick(&mut c, t(10));
        assert!(c.scale_cpu(vm, 130.0, t(10)).is_ok());
        assert_eq!(e.stats().busy_ticks, 1);
    }

    #[test]
    fn migration_timeout_aborts_and_rolls_back() {
        let plan = ChaosPlan::new(1).with_fault(
            t(0),
            t(100),
            ChaosKind::MigrationTimeout {
                timeout: Duration::from_secs(4),
            },
        );
        let mut e = ChaosEngine::new(plan);
        let mut c = Cluster::new();
        let h0 = c.add_host(HostSpec::vcl_default());
        let h1 = c.add_host(HostSpec::vcl_default());
        let vm = c.create_vm(h0, 100.0, 512.0).expect("fits");
        let d = c.begin_migration(vm, h1, t(10)).expect("starts");
        assert!(
            d.as_secs() > 4,
            "test needs a migration longer than the timeout"
        );
        for s in 10..=13 {
            e.tick(&mut c, t(s));
            assert!(c.vm(vm).is_migrating(), "still copying at t={s}");
        }
        e.tick(&mut c, t(14)); // started_at + timeout
        assert!(!c.vm(vm).is_migrating());
        assert_eq!(c.vm(vm).host, h0, "rolled back to the source");
        assert_eq!(e.stats().aborted_migrations, 1);
        // A migration started after the window completes normally.
        let d2 = c.begin_migration(vm, h1, t(200)).expect("starts clean");
        for s in 200..=(200 + d2.as_secs()) {
            c.advance(t(s));
            e.tick(&mut c, t(s));
        }
        assert_eq!(c.vm(vm).host, h1);
        assert_eq!(e.stats().aborted_migrations, 1);
    }

    #[test]
    fn controller_crash_fires_only_in_window_and_replays() {
        let plan = ChaosPlan::new(0xDEAD).with_fault(
            t(10),
            t(20),
            ChaosKind::ControllerCrash { probability: 1.0 },
        );
        let mut e = ChaosEngine::new(plan.clone());
        assert!(!e.controller_crashed(t(9)));
        for s in 10..20 {
            assert!(e.controller_crashed(t(s)), "in-window kill at t={s}");
        }
        assert!(!e.controller_crashed(t(20)), "window is half-open");
        assert_eq!(e.stats().controller_crashes, 10);

        // A probabilistic schedule is a pure function of (seed, tick):
        // two engines agree tick by tick, and the decision at a tick
        // does not depend on how many polls happened before it.
        let plan = ChaosPlan::new(7).with_fault(
            t(0),
            t(1000),
            ChaosKind::ControllerCrash { probability: 0.3 },
        );
        let mut a = ChaosEngine::new(plan.clone());
        let mut b = ChaosEngine::new(plan);
        let schedule_a: Vec<bool> = (0..1000).map(|s| a.controller_crashed(t(s))).collect();
        let schedule_b: Vec<bool> = (0..1000)
            .rev()
            .map(|s| b.controller_crashed(t(s)))
            .collect();
        let schedule_b: Vec<bool> = schedule_b.into_iter().rev().collect();
        assert_eq!(schedule_a, schedule_b);
        let crashes = schedule_a.iter().filter(|&&c| c).count();
        assert!(
            (200..400).contains(&crashes),
            "p=0.3 over 1k ticks crashed {crashes} times"
        );
        assert_eq!(a.stats().controller_crashes, crashes as u64);
    }

    #[test]
    fn controller_crash_leaves_the_data_plane_untouched() {
        // A crash coin must not perturb drop/delay decisions: the same
        // monitoring schedule plays out with and without the crash fault.
        let base = ChaosPlan::new(0xFEED).with_fault(
            t(0),
            t(100),
            ChaosKind::DropSamples {
                vm: None,
                probability: 0.4,
            },
        );
        let with_crash = base.clone().with_fault(
            t(0),
            t(100),
            ChaosKind::ControllerCrash { probability: 0.5 },
        );
        let run = |mut e: ChaosEngine, poll: bool| {
            let mut log = Vec::new();
            for s in 0..100 {
                if poll {
                    e.controller_crashed(t(s));
                }
                log.push(
                    e.deliver(VmId(0), HostId(0), sample_at(s, 1.0), t(s))
                        .is_some(),
                );
            }
            log
        };
        assert_eq!(
            run(ChaosEngine::new(base), false),
            run(ChaosEngine::new(with_crash), true)
        );
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut e = ChaosEngine::new(ChaosPlan::new(9));
        let mut c = Cluster::new();
        let h0 = c.add_host(HostSpec::vcl_default());
        let _vm = c.create_vm(h0, 100.0, 512.0).expect("fits");
        for s in 0..50 {
            e.tick(&mut c, t(s));
            assert!(!c.is_hypervisor_busy());
            let out = e
                .deliver(VmId(0), h0, sample_at(s, s as f64), t(s))
                .expect("everything gets through");
            assert_eq!(out, StampedSample::fresh(sample_at(s, s as f64)));
        }
        assert_eq!(e.stats(), ChaosStats::default());
    }
}
