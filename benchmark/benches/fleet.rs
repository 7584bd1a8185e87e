//! `ShardFleet`: the benchmark's own fleet generator.
//!
//! `FleetSim` exposes only `run()`, so it cannot sit inside a driver
//! loop that times each control round. `ShardFleet` is the smallest
//! `Application` that puts N managed VMs on a `Cluster`: N independent
//! shards, each the System S PE2 component on its own host, a fraction
//! of them hit by recurrent faults on the paper's 150/800 schedule
//! continued every 650 s.

use prepare_apps::{
    AppTick, Application, ComponentSpec, FaultInjection, FaultKind, FaultPlan, SystemS,
};
use prepare_cloudsim::{Cluster, Demand, HostSpec, PlacementError};
use prepare_metrics::{Duration, Timestamp, VmId};

/// Client rate every shard runs at (Ktuples/s).
pub const SHARD_RATE: f64 = 20.0;

/// Start of the first injection; later ones follow every
/// [`INJECTION_PERIOD_SECS`].
pub const FIRST_INJECTION_SECS: u64 = 150;

/// Spacing of injection starts.
pub const INJECTION_PERIOD_SECS: u64 = 650;

/// Length of each injection.
pub const INJECTION_SECS: u64 = 300;

/// N independent single-VM shards.
#[derive(Debug, Clone)]
pub struct ShardFleet {
    vms: Vec<VmId>,
    spec: ComponentSpec,
    /// Positions in `vms` of the shards that receive faults.
    faulty: Vec<usize>,
    /// Seconds of SLO violation summed over shards.
    violated_shard_secs: u64,
}

impl ShardFleet {
    /// Deploys `shards` VMs (100 CPU / 512 MB), one per VCL host, plus
    /// ⌈shards/16⌉ spare hosts as migration targets. Shards whose index
    /// is `seed` modulo `stride` are the faulty ones.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if a VM cannot be placed (cannot happen
    /// on freshly added hosts).
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `stride` is zero.
    pub fn deploy(
        cluster: &mut Cluster,
        shards: usize,
        stride: usize,
        seed: u64,
    ) -> Result<Self, PlacementError> {
        assert!(shards > 0 && stride > 0, "fleet needs shards and a stride");
        let mut vms = Vec::with_capacity(shards);
        for _ in 0..shards {
            let host = cluster.add_host(HostSpec::vcl_default());
            vms.push(cluster.create_vm(host, SystemS::VM_CPU, SystemS::VM_MEM)?);
        }
        for _ in 0..shards.div_ceil(16) {
            cluster.add_host(HostSpec::vcl_default());
        }
        // PE2's cost model, read from a throw-away deployment: the spec
        // table itself is private to `prepare_apps`.
        let spec = SystemS::deploy(&mut Cluster::new())?.specs()[1].clone();
        let first = (seed % stride as u64) as usize;
        let faulty = (first..shards).step_by(stride).collect();
        Ok(ShardFleet {
            vms,
            spec,
            faulty,
            violated_shard_secs: 0,
        })
    }

    /// Seconds of SLO violation so far, summed over shards. The fleet's
    /// one SLO flag (any shard violated) saturates as soon as one shard
    /// is left unremedied; this sum still tells the other shards apart.
    pub fn violated_shard_secs(&self) -> u64 {
        self.violated_shard_secs
    }

    /// The fault schedule for a run of `duration_secs`: faulty shards
    /// alternate between a 2 MB/s memory leak and an 85 % CPU hog; each
    /// keeps its kind for every injection, so the anomaly recurs.
    pub fn fault_plan(&self, duration_secs: u64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for (k, &shard) in self.faulty.iter().enumerate() {
            let kind = if k % 2 == 0 {
                FaultKind::MemLeak {
                    rate_mb_per_sec: 2.0,
                }
            } else {
                FaultKind::CpuHog { cpu: 85.0 }
            };
            for start in
                (FIRST_INJECTION_SECS..duration_secs).step_by(INJECTION_PERIOD_SECS as usize)
            {
                plan.add(FaultInjection {
                    target: Some(self.vms[shard]),
                    kind,
                    start: Timestamp::from_secs(start),
                    duration: Duration::from_secs(INJECTION_SECS),
                });
            }
        }
        plan
    }
}

fn add_demand(a: Demand, b: Demand) -> Demand {
    Demand {
        cpu: a.cpu + b.cpu,
        mem_mb: a.mem_mb + b.mem_mb,
        net_in_kbps: a.net_in_kbps + b.net_in_kbps,
        net_out_kbps: a.net_out_kbps + b.net_out_kbps,
        disk_read_kbps: a.disk_read_kbps + b.disk_read_kbps,
        disk_write_kbps: a.disk_write_kbps + b.disk_write_kbps,
    }
}

impl Application for ShardFleet {
    fn name(&self) -> &'static str {
        "shardfleet"
    }

    fn vms(&self) -> &[VmId] {
        &self.vms
    }

    fn vm_role(&self, vm: VmId) -> &'static str {
        assert!(self.vms.contains(&vm), "{vm} does not belong to the fleet");
        self.spec.name
    }

    fn bottleneck_vm(&self) -> VmId {
        self.vms[0]
    }

    fn nominal_rate(&self) -> f64 {
        SHARD_RATE
    }

    fn slo_metric_name(&self) -> &'static str {
        "throughput (Ktuples/s, all shards)"
    }

    /// Every shard runs at `rate`. The SLO is the System S one applied
    /// per shard: violated when any shard delivers under 95 % of its
    /// input or takes over 20 ms per tuple.
    fn step(
        &mut self,
        now: Timestamp,
        rate: f64,
        cluster: &mut Cluster,
        faults: &FaultPlan,
    ) -> AppTick {
        let base = self.spec.demand(rate);
        let mut next_faulty = self.faulty.iter().copied().peekable();
        let mut output_rate = 0.0;
        let mut latency_ms: f64 = 0.0;
        let mut slo_violated = false;
        for (i, &vm) in self.vms.iter().enumerate() {
            // Only faulty shards can carry an overlay; asking the plan
            // for every VM would cost O(N × injections) per tick.
            let demand = if next_faulty.next_if_eq(&i).is_some() {
                add_demand(base, faults.overlay(vm, now))
            } else {
                base
            };
            let quality = cluster.apply_demand(vm, demand, now);
            let factor = quality.throughput_factor();
            let shard_ms =
                self.spec.service_ms * quality.slowdown() + quality.queue_delay_secs * 1000.0;
            output_rate += rate * factor;
            latency_ms = latency_ms.max(shard_ms);
            if factor < 0.95 || shard_ms > 20.0 {
                slo_violated = true;
                self.violated_shard_secs += 1;
            }
        }
        AppTick {
            time: now,
            input_rate: rate * self.vms.len() as f64,
            output_rate,
            latency_ms,
            slo_metric: output_rate,
            slo_violated,
        }
    }
}
