//! The simulated IBM System S tax-calculation application (paper §III-A,
//! Fig. 4).
//!
//! Seven processing elements (PEs), one per VM, wired as:
//!
//! ```text
//!           ┌─> PE2 ─> PE4 ─┐
//! src ─> PE1                 ├─> PE6 ─> PE7 ─> out
//!           └─> PE3 ─> PE5 ─┘
//! ```
//!
//! PE6 is the sink PE that "intensively sends processed data tuples to the
//! network" — it has the steepest CPU-per-tuple cost and is therefore the
//! first to saturate under workload growth (the designated bottleneck).
//!
//! SLO (§III-A): a violation is marked when the end-to-end
//! output/input rate ratio drops below 0.95, or the average per-tuple
//! processing time exceeds 20 ms. (The paper prints the ratio as
//! `InputRate/OutputRate < 0.95`, which is inverted — output can only be
//! ≤ input, so the meaningful reading is output/input.)

use crate::component::{add_demand, ComponentSpec};
use crate::{AppTick, Application, FaultPlan};
use prepare_cloudsim::{Cluster, HostSpec, PlacementError};
use prepare_metrics::{Timestamp, VmId};

/// Number of processing elements.
pub const N_PES: usize = 7;

/// Index of the bottleneck PE (PE6) in component order.
const BOTTLENECK: usize = 5;

/// Fan-in edges: `UPSTREAM[i]` lists (upstream index, share of its output)
/// feeding PE `i+1`. PE1 (index 0) is fed by the client source.
const UPSTREAM: [&[(usize, f64)]; N_PES] = [
    &[],                   // PE1 <- source
    &[(0, 0.5)],           // PE2 <- half of PE1
    &[(0, 0.5)],           // PE3 <- half of PE1
    &[(1, 1.0)],           // PE4 <- PE2
    &[(2, 1.0)],           // PE5 <- PE3
    &[(3, 1.0), (4, 1.0)], // PE6 <- PE4 + PE5
    &[(5, 1.0)],           // PE7 <- PE6
];

fn pe_specs() -> [ComponentSpec; N_PES] {
    let base = |name, cpu_per_unit: f64, net_out: f64| ComponentSpec {
        name,
        base_cpu: 8.0,
        cpu_per_unit,
        base_mem_mb: 256.0,
        mem_per_unit: 2.0,
        net_in_per_unit: 40.0,
        net_out_per_unit: net_out,
        disk_per_unit: 2.0,
        service_ms: 1.5,
    };
    [
        base("PE1", 1.8, 40.0),
        base("PE2", 2.4, 40.0),
        base("PE3", 2.4, 40.0),
        base("PE4", 2.8, 40.0),
        base("PE5", 2.8, 40.0),
        // The sink PE: heavy per-tuple CPU and network output.
        ComponentSpec {
            name: "PE6",
            base_cpu: 10.0,
            cpu_per_unit: 4.0,
            base_mem_mb: 256.0,
            mem_per_unit: 2.0,
            net_in_per_unit: 40.0,
            net_out_per_unit: 120.0,
            disk_per_unit: 2.0,
            service_ms: 1.5,
        },
        base("PE7", 1.5, 40.0),
    ]
}

/// The deployed System S application.
#[derive(Debug, Clone)]
pub struct SystemS {
    vms: Vec<VmId>,
    specs: [ComponentSpec; N_PES],
}

impl SystemS {
    /// Client rate the deployment is sized for (Ktuples/s).
    pub const NOMINAL_RATE: f64 = 20.0;

    /// Per-VM allocations at deployment (percent-of-core, MB) — one PE
    /// per guest VM as in the paper.
    pub const VM_CPU: f64 = 100.0;
    /// Memory allocation per PE VM (MB).
    pub const VM_MEM: f64 = 512.0;

    /// Deploys the application: adds one VCL host per PE plus one spare
    /// (migration target), creates one VM per PE.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if a VM cannot be placed (cannot happen
    /// on freshly added hosts, but propagated for robustness).
    pub fn deploy(cluster: &mut Cluster) -> Result<Self, PlacementError> {
        let mut vms = Vec::with_capacity(N_PES);
        for _ in 0..N_PES {
            let host = cluster.add_host(HostSpec::vcl_default());
            vms.push(cluster.create_vm(host, Self::VM_CPU, Self::VM_MEM)?);
        }
        // Spare host kept idle as the migration target pool.
        cluster.add_host(HostSpec::vcl_default());
        Ok(SystemS {
            vms,
            specs: pe_specs(),
        })
    }

    /// The PE component specs (exposed for capacity-planning examples).
    pub fn specs(&self) -> &[ComponentSpec] {
        &self.specs
    }
}

impl Application for SystemS {
    fn name(&self) -> &'static str {
        "systems"
    }

    fn vms(&self) -> &[VmId] {
        &self.vms
    }

    #[expect(
        clippy::panic,
        reason = "documented contract of Application::vm_role: a foreign VM is a caller bug"
    )]
    fn vm_role(&self, vm: VmId) -> &'static str {
        let idx = self
            .vms
            .iter()
            .position(|&v| v == vm)
            .unwrap_or_else(|| panic!("{vm} does not belong to System S"));
        self.specs[idx].name
    }

    fn bottleneck_vm(&self) -> VmId {
        self.vms[BOTTLENECK]
    }

    fn nominal_rate(&self) -> f64 {
        Self::NOMINAL_RATE
    }

    fn slo_metric_name(&self) -> &'static str {
        "throughput (Ktuples/s)"
    }

    fn step(
        &mut self,
        now: Timestamp,
        rate: f64,
        cluster: &mut Cluster,
        faults: &FaultPlan,
    ) -> AppTick {
        // Propagate tuple rates through the dataflow in topological order.
        let mut out_rate = [0.0f64; N_PES];
        // Per-tuple time through each PE: slowed service plus queueing.
        let mut pe_ms = [0.0f64; N_PES];
        let pes = self.specs.iter().zip(&self.vms).zip(UPSTREAM);
        for (i, (((spec, &vm), upstream), ms)) in pes.zip(&mut pe_ms).enumerate() {
            let in_rate: f64 = if upstream.is_empty() {
                rate
            } else {
                // xtask-allow: index-in-loop -- UPSTREAM names only earlier PEs, so u < i < N_PES
                upstream.iter().map(|&(u, share)| out_rate[u] * share).sum()
            };
            let demand = add_demand(spec.demand(in_rate), faults.overlay(vm, now));
            let quality = cluster.apply_demand(vm, demand, now);
            // xtask-allow: index-in-loop -- i < N_PES; later PEs read this rate by index
            out_rate[i] = in_rate * quality.throughput_factor();
            // A tuple entering a backlogged PE waits behind the queued work.
            *ms = spec.service_ms * quality.slowdown() + quality.queue_delay_secs * 1000.0;
        }

        // Average per-tuple time across the two source→sink paths.
        let path_a = [0usize, 1, 3, 5, 6];
        let path_b = [0usize, 2, 4, 5, 6];
        let path_ms = |path: &[usize]| -> f64 { path.iter().map(|&i| pe_ms[i]).sum() };
        let latency_ms = 0.5 * (path_ms(&path_a) + path_ms(&path_b));

        let output_rate = out_rate[N_PES - 1];
        let ratio = if rate > 1e-9 { output_rate / rate } else { 1.0 };
        let slo_violated = ratio < 0.95 || latency_ms > 20.0;
        AppTick {
            time: now,
            input_rate: rate,
            output_rate,
            latency_ms,
            slo_metric: output_rate,
            slo_violated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultInjection, FaultKind};
    use prepare_metrics::Duration;

    fn deploy() -> (Cluster, SystemS) {
        let mut cluster = Cluster::new();
        let app = SystemS::deploy(&mut cluster).unwrap();
        (cluster, app)
    }

    #[test]
    fn deploys_seven_pes_plus_spare_host() {
        let (cluster, app) = deploy();
        assert_eq!(app.vms().len(), 7);
        assert_eq!(cluster.n_hosts(), 8);
        assert_eq!(app.vm_role(app.vms()[5]), "PE6");
        assert_eq!(app.bottleneck_vm(), app.vms()[5]);
    }

    #[test]
    fn healthy_at_nominal_rate() {
        let (mut cluster, mut app) = deploy();
        let tick = app.step(
            Timestamp::ZERO,
            SystemS::NOMINAL_RATE,
            &mut cluster,
            &FaultPlan::new(),
        );
        assert!(
            !tick.slo_violated,
            "nominal load must satisfy the SLO: {tick:?}"
        );
        assert!((tick.output_rate - SystemS::NOMINAL_RATE).abs() < 0.2);
        assert!(tick.latency_ms < 20.0);
    }

    #[test]
    fn pe6_is_the_first_to_saturate() {
        let (cluster, app) = deploy();
        let mut sat: Vec<(f64, &str)> = app
            .specs()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                // Local rate relative to client rate: PE2..PE5 see half.
                let share = match i {
                    1..=4 => 0.5,
                    _ => 1.0,
                };
                (
                    s.saturation_rate(cluster.vm(app.vms()[i]).cpu_alloc) / share,
                    s.name,
                )
            })
            .collect();
        sat.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert_eq!(sat[0].1, "PE6");
        // ... and its saturation point is above nominal load.
        assert!(sat[0].0 > SystemS::NOMINAL_RATE);
    }

    #[test]
    fn overload_violates_ratio_slo() {
        let (mut cluster, mut app) = deploy();
        let tick = app.step(Timestamp::ZERO, 35.0, &mut cluster, &FaultPlan::new());
        assert!(tick.slo_violated);
        assert!(tick.output_rate < 35.0 * 0.95);
    }

    #[test]
    fn cpu_hog_on_pe_breaks_slo() {
        let (mut cluster, mut app) = deploy();
        let mut faults = FaultPlan::new();
        faults.add(FaultInjection {
            target: Some(app.vms()[3]), // PE4
            kind: FaultKind::CpuHog { cpu: 80.0 },
            start: Timestamp::ZERO,
            duration: Duration::from_secs(300),
        });
        let tick = app.step(
            Timestamp::from_secs(10),
            SystemS::NOMINAL_RATE,
            &mut cluster,
            &faults,
        );
        assert!(tick.slo_violated, "hog must break SLO: {tick:?}");
    }

    #[test]
    fn memory_leak_breaks_slo_gradually() {
        let (mut cluster, mut app) = deploy();
        let mut faults = FaultPlan::new();
        faults.add(FaultInjection {
            target: Some(app.vms()[2]), // PE3
            kind: FaultKind::MemLeak {
                rate_mb_per_sec: 2.0,
            },
            start: Timestamp::ZERO,
            duration: Duration::from_secs(400),
        });
        // Early in the leak: plenty of headroom, SLO holds.
        let early = app.step(
            Timestamp::from_secs(30),
            SystemS::NOMINAL_RATE,
            &mut cluster,
            &faults,
        );
        assert!(
            !early.slo_violated,
            "early leak phase should be fine: {early:?}"
        );
        // Deep into the leak: working set far beyond the allocation.
        let late = app.step(
            Timestamp::from_secs(350),
            SystemS::NOMINAL_RATE,
            &mut cluster,
            &faults,
        );
        assert!(late.slo_violated, "late leak phase must violate: {late:?}");
        assert!(late.output_rate < early.output_rate);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn role_of_foreign_vm_panics() {
        let (_, app) = deploy();
        app.vm_role(VmId(999));
    }
}
