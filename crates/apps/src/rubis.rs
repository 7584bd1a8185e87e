//! The simulated RUBiS three-tier online auction benchmark (paper §III-A,
//! Fig. 5): one web server, two application servers, one database server,
//! each in its own VM.
//!
//! Request flow: clients → web → {app1, app2} (load-balanced) → DB. Each
//! tier is modeled as an M/M/1-style queue: its contribution to the
//! response time is `service_ms / (1 − ρ)`, inflated by memory paging and
//! migration brown-outs. SLO (§III-A): violation when the average request
//! response time exceeds 200 ms.

use crate::component::{add_demand, ComponentSpec};
use crate::{AppTick, Application, FaultPlan};
use prepare_cloudsim::{Cluster, HostSpec, PlacementError};
use prepare_metrics::{Timestamp, VmId};

/// Tier order: web, app1, app2, db.
pub const N_TIERS: usize = 4;

const WEB: usize = 0;
const APP1: usize = 1;
const APP2: usize = 2;
const DB: usize = 3;

/// Utilization is capped here: a saturated queue in steady state has
/// unbounded latency, which the 1 s tick model folds into a large but
/// finite spike (the paper's response-time plots clip similarly).
const MAX_RHO: f64 = 0.98;

/// Response times are reported up to this ceiling (ms).
const MAX_RESPONSE_MS: f64 = 1000.0;

fn tier_specs() -> [ComponentSpec; N_TIERS] {
    [
        ComponentSpec {
            name: "web-server",
            base_cpu: 5.0,
            cpu_per_unit: 0.7,
            base_mem_mb: 200.0,
            mem_per_unit: 0.2,
            net_in_per_unit: 8.0,
            net_out_per_unit: 24.0,
            disk_per_unit: 0.5,
            service_ms: 4.0,
        },
        ComponentSpec {
            name: "app-server1",
            base_cpu: 5.0,
            cpu_per_unit: 1.1,
            base_mem_mb: 300.0,
            mem_per_unit: 0.3,
            net_in_per_unit: 6.0,
            net_out_per_unit: 6.0,
            disk_per_unit: 1.0,
            service_ms: 12.0,
        },
        ComponentSpec {
            name: "app-server2",
            base_cpu: 5.0,
            cpu_per_unit: 1.1,
            base_mem_mb: 300.0,
            mem_per_unit: 0.3,
            net_in_per_unit: 6.0,
            net_out_per_unit: 6.0,
            disk_per_unit: 1.0,
            service_ms: 12.0,
        },
        ComponentSpec {
            name: "db-server",
            base_cpu: 8.0,
            cpu_per_unit: 1.05,
            base_mem_mb: 384.0,
            mem_per_unit: 0.5,
            net_in_per_unit: 4.0,
            net_out_per_unit: 12.0,
            disk_per_unit: 8.0,
            service_ms: 10.0,
        },
    ]
}

/// The deployed RUBiS application.
#[derive(Debug, Clone)]
pub struct Rubis {
    vms: Vec<VmId>,
    specs: [ComponentSpec; N_TIERS],
}

impl Rubis {
    /// Client rate the deployment is sized for (requests/s).
    pub const NOMINAL_RATE: f64 = 50.0;

    /// CPU allocation per tier VM (percent-of-core).
    pub const VM_CPU: f64 = 100.0;
    /// Memory allocation per tier VM (MB).
    pub const VM_MEM: f64 = 512.0;

    /// Deploys the application: one VCL host per tier plus one spare
    /// (migration target), one VM per tier.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if a VM cannot be placed.
    pub fn deploy(cluster: &mut Cluster) -> Result<Self, PlacementError> {
        let mut vms = Vec::with_capacity(N_TIERS);
        for _ in 0..N_TIERS {
            let host = cluster.add_host(HostSpec::vcl_default());
            vms.push(cluster.create_vm(host, Self::VM_CPU, Self::VM_MEM)?);
        }
        cluster.add_host(HostSpec::vcl_default());
        Ok(Rubis {
            vms,
            specs: tier_specs(),
        })
    }

    /// The tier component specs.
    pub fn specs(&self) -> &[ComponentSpec] {
        &self.specs
    }
}

impl Application for Rubis {
    fn name(&self) -> &'static str {
        "rubis"
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
            .unwrap_or_else(|| panic!("{vm} does not belong to RUBiS"));
        self.specs[idx].name
    }

    fn bottleneck_vm(&self) -> VmId {
        self.vms[DB]
    }

    fn nominal_rate(&self) -> f64 {
        Self::NOMINAL_RATE
    }

    fn slo_metric_name(&self) -> &'static str {
        "avg response time (ms)"
    }

    fn step(
        &mut self,
        now: Timestamp,
        rate: f64,
        cluster: &mut Cluster,
        faults: &FaultPlan,
    ) -> AppTick {
        // Tier-local input rates: app servers split the request stream,
        // every request touches web and DB once.
        let tier_rate = [rate, rate * 0.5, rate * 0.5, rate];
        let mut latency = [0.0f64; N_TIERS];
        let mut tf = [1.0f64; N_TIERS];
        let tiers = self.specs.iter().zip(&self.vms).zip(tier_rate);
        for (((spec, &vm), input), (lat, t)) in tiers.zip(latency.iter_mut().zip(&mut tf)) {
            let demand = add_demand(spec.demand(input), faults.overlay(vm, now));
            let alloc = cluster.vm(vm).cpu_alloc;
            let rho = if alloc > 0.0 {
                (demand.cpu / alloc).min(MAX_RHO)
            } else {
                MAX_RHO
            };
            let quality = cluster.apply_demand(vm, demand, now);
            // Queueing delay from CPU utilization; paging and migration
            // multiply the effective service time.
            let service_inflation =
                (1.0 / quality.mem_fraction.max(1e-3)) * (1.0 / quality.migration_penalty);
            *lat = spec.service_ms * service_inflation / (1.0 - rho)
                + quality.queue_delay_secs * 1000.0;
            *t = quality.throughput_factor();
        }

        let response_ms = (latency[WEB] + 0.5 * (latency[APP1] + latency[APP2]) + latency[DB])
            .min(MAX_RESPONSE_MS);
        let output_rate = rate * tf[WEB] * (0.5 * (tf[APP1] + tf[APP2])) * tf[DB];
        let slo_violated = response_ms > 200.0;
        AppTick {
            time: now,
            input_rate: rate,
            output_rate,
            latency_ms: response_ms,
            slo_metric: response_ms,
            slo_violated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultInjection, FaultKind, Workload};
    use prepare_metrics::Duration;

    fn deploy() -> (Cluster, Rubis) {
        let mut cluster = Cluster::new();
        let app = Rubis::deploy(&mut cluster).unwrap();
        (cluster, app)
    }

    #[test]
    fn deploys_four_tiers_plus_spare() {
        let (cluster, app) = deploy();
        assert_eq!(app.vms().len(), 4);
        assert_eq!(cluster.n_hosts(), 5);
        assert_eq!(app.vm_role(app.bottleneck_vm()), "db-server");
    }

    #[test]
    fn healthy_at_nominal_rate() {
        let (mut cluster, mut app) = deploy();
        let tick = app.step(
            Timestamp::ZERO,
            Rubis::NOMINAL_RATE,
            &mut cluster,
            &FaultPlan::new(),
        );
        assert!(
            !tick.slo_violated,
            "nominal load must satisfy SLO: {tick:?}"
        );
        assert!(
            tick.latency_ms < 100.0,
            "nominal response {:.1}ms",
            tick.latency_ms
        );
    }

    #[test]
    fn healthy_across_the_nasa_diurnal_peak() {
        let (mut cluster, mut app) = deploy();
        let w = Workload::nasa_trace(Rubis::NOMINAL_RATE);
        for s in (0..1800).step_by(60) {
            let t = Timestamp::from_secs(s);
            let tick = app.step(t, w.base_rate(t), &mut cluster, &FaultPlan::new());
            assert!(
                !tick.slo_violated,
                "diurnal peak alone must not violate SLO at t={s}: {tick:?}"
            );
        }
    }

    #[test]
    fn cpu_hog_on_db_spikes_response_time() {
        let (mut cluster, mut app) = deploy();
        let mut faults = FaultPlan::new();
        faults.add(FaultInjection {
            target: Some(app.bottleneck_vm()),
            kind: FaultKind::CpuHog { cpu: 70.0 },
            start: Timestamp::ZERO,
            duration: Duration::from_secs(300),
        });
        let tick = app.step(
            Timestamp::from_secs(5),
            Rubis::NOMINAL_RATE,
            &mut cluster,
            &faults,
        );
        assert!(tick.slo_violated, "hog must violate: {tick:?}");
        assert!(tick.latency_ms > 200.0);
    }

    #[test]
    fn memory_leak_on_db_manifests_gradually() {
        let (mut cluster, mut app) = deploy();
        let mut faults = FaultPlan::new();
        faults.add(FaultInjection {
            target: Some(app.bottleneck_vm()),
            kind: FaultKind::MemLeak {
                rate_mb_per_sec: 2.0,
            },
            start: Timestamp::ZERO,
            duration: Duration::from_secs(300),
        });
        let early = app.step(
            Timestamp::from_secs(20),
            Rubis::NOMINAL_RATE,
            &mut cluster,
            &faults,
        );
        assert!(!early.slo_violated, "early leak fine: {early:?}");
        let late = app.step(
            Timestamp::from_secs(280),
            Rubis::NOMINAL_RATE,
            &mut cluster,
            &faults,
        );
        assert!(late.slo_violated, "late leak violates: {late:?}");
        assert!(late.latency_ms > early.latency_ms);
    }

    #[test]
    fn bottleneck_ramp_saturates_db_first() {
        let (mut cluster, mut app) = deploy();
        let tick = app.step(Timestamp::ZERO, 125.0, &mut cluster, &FaultPlan::new());
        assert!(
            tick.slo_violated,
            "125 req/s must exceed DB capacity: {tick:?}"
        );
        // web and app tiers still have CPU headroom
        let web = cluster.vm(app.vms()[0]);
        assert!(web.cpu_used < web.cpu_alloc * 0.95);
        let db = cluster.vm(app.bottleneck_vm());
        assert!(db.cpu_used > db.cpu_alloc * 0.95);
    }

    #[test]
    fn response_time_is_capped() {
        let (mut cluster, mut app) = deploy();
        let tick = app.step(Timestamp::ZERO, 10_000.0, &mut cluster, &FaultPlan::new());
        assert!(tick.latency_ms <= 1000.0);
        assert!(tick.latency_ms.is_finite());
    }
}
