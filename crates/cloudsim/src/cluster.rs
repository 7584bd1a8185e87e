//! The simulated cluster: hosts, VMs, elastic scaling, live migration, and
//! per-tick demand resolution.

use crate::{
    ActionKind, ActionRecord, Demand, HostSpec, MigrateError, PlacementError, PlacementStore,
    ScaleError, ServiceQuality, TABLE1_COSTS,
};
use prepare_metrics::{Duration, Timestamp, VmId};
use std::fmt;

/// Identifier of a physical host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct HostId(pub usize);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

impl prepare_metrics::persist::Persist for HostId {
    fn store(&self, w: &mut prepare_metrics::persist::Writer) {
        w.put_usize(self.0);
    }
    fn load(
        r: &mut prepare_metrics::persist::Reader<'_>,
    ) -> Result<Self, prepare_metrics::persist::PersistError> {
        Ok(HostId(r.get_usize()?))
    }
}

/// An in-flight live migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationState {
    /// Destination host (capacity already reserved there).
    pub target: HostId,
    /// When the migration started.
    pub started_at: Timestamp,
    /// When the VM switches over to the target.
    pub completes_at: Timestamp,
}

/// Full state of one VM.
#[derive(Debug, Clone, PartialEq)]
pub struct VmState {
    /// The VM's identifier (index into the cluster).
    pub id: VmId,
    /// Current host.
    pub host: HostId,
    /// CPU cap in percent-of-core units.
    pub cpu_alloc: f64,
    /// Memory allocation in MB.
    pub mem_alloc_mb: f64,
    /// In-flight migration, if any.
    pub migration: Option<MigrationState>,
    /// Demand presented this tick (set by [`Cluster::apply_demand`]).
    pub last_demand: Demand,
    /// Quality granted this tick.
    pub last_quality: ServiceQuality,
    /// CPU actually consumed this tick (percent-of-core units).
    pub cpu_used: f64,
    /// Resident memory actually held this tick (MB).
    pub mem_used_mb: f64,
    /// Effective CPU cap this tick after migration brown-out and host
    /// contention squeeze (percent-of-core units).
    pub effective_cpu_cap: f64,
    /// Seconds of CPU work queued behind the cap (bounded by
    /// [`CPU_BACKLOG_CAP_SECS`]); drains when capacity frees up.
    pub cpu_backlog_secs: f64,
    /// Working-set MB swapped out during past thrashing that still needs
    /// to page back in (drains at [`PAGE_IN_RATE_MB_PER_SEC`]).
    pub paging_debt_mb: f64,
}

/// Maximum queued CPU work per VM (queue limits / load shedding bound it
/// in real middleware).
pub const CPU_BACKLOG_CAP_SECS: f64 = 3.0;

/// How fast a previously swapped working set pages back in once memory
/// pressure is relieved.
pub const PAGE_IN_RATE_MB_PER_SEC: f64 = 12.0;

impl VmState {
    /// Utilization pressure in `[0, 1]`: how close the VM runs to its
    /// allocation on its most-stressed resource. Drives the dirty-page
    /// inflation of migration time.
    pub fn stress(&self) -> f64 {
        let cpu = if self.cpu_alloc > 0.0 {
            self.cpu_used / self.cpu_alloc
        } else {
            0.0
        };
        let mem = if self.mem_alloc_mb > 0.0 {
            self.mem_used_mb / self.mem_alloc_mb
        } else {
            0.0
        };
        cpu.max(mem).clamp(0.0, 1.0)
    }

    /// True while a live migration is in flight.
    pub fn is_migrating(&self) -> bool {
        self.migration.is_some()
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Host {
    spec: HostSpec,
    /// CPU consumed by co-tenant workloads outside this simulation's
    /// control (percent-of-core units) — the "noisy neighbor". Guest VM
    /// caps are squeezed proportionally when the background load leaves
    /// less capacity than the sum of allocations.
    background_cpu: f64,
}

/// The simulated virtualized cluster.
///
/// The per-tick protocol is:
///
/// 1. the application model calls [`Cluster::apply_demand`] for every VM;
/// 2. the controller issues scaling / migration actions;
/// 3. [`Cluster::advance`] moves the clock (completing migrations).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cluster {
    hosts: Vec<Host>,
    vms: Vec<VmState>,
    actions: Vec<ActionRecord>,
    /// Incremental per-host committed/free capacity, kept in sync by
    /// every mutation below; see [`PlacementStore`] for the bit-exactness
    /// contract against the legacy occupant scan.
    placement: PlacementStore,
    /// When set, the hypervisor control plane transiently rejects
    /// scaling/migration requests with `HypervisorBusy`. Driven per tick
    /// by the chaos engine; always `false` in a benign cluster.
    hypervisor_busy: bool,
}

impl Cluster {
    /// Empty cluster with the paper's Table I cost model.
    pub fn new() -> Self {
        Cluster {
            hosts: Vec::new(),
            vms: Vec::new(),
            actions: Vec::new(),
            placement: PlacementStore::default(),
            hypervisor_busy: false,
        }
    }

    /// Marks the hypervisor control plane busy (or idle again). While
    /// busy, [`Cluster::scale_cpu`], [`Cluster::scale_mem`] and
    /// [`Cluster::begin_migration`] reject with `HypervisorBusy` — the
    /// transient actuation fault injected by the chaos engine.
    pub fn set_hypervisor_busy(&mut self, busy: bool) {
        self.hypervisor_busy = busy;
    }

    /// True while the control plane transiently rejects actuations.
    pub fn is_hypervisor_busy(&self) -> bool {
        self.hypervisor_busy
    }

    /// Adds a physical host.
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        self.hosts.push(Host {
            spec,
            background_cpu: 0.0,
        });
        self.placement.add_host(spec);
        HostId(self.hosts.len() - 1)
    }

    /// The incremental placement store: O(1) per-host free capacity,
    /// resident sets, and fit checks.
    pub fn placement(&self) -> &PlacementStore {
        &self.placement
    }

    /// Sets the host's background (co-tenant) CPU load. The simulation's
    /// own VMs keep their allocations, but when `capacity − background`
    /// falls below the sum of allocations their effective caps are
    /// squeezed proportionally — the resource-contention anomaly cause
    /// from the paper's introduction. Resource scaling cannot fix this
    /// (the squeeze renormalizes); migrating off the host can.
    ///
    /// # Panics
    ///
    /// Panics if the host is unknown or the load is negative/non-finite.
    pub fn set_background_load(&mut self, host: HostId, cpu: f64) {
        assert!(host.0 < self.hosts.len(), "unknown host {host}");
        assert!(
            cpu.is_finite() && cpu >= 0.0,
            "invalid background load {cpu}"
        );
        self.hosts[host.0].background_cpu = cpu;
    }

    /// Clears background load on every host (the experiment loop re-applies
    /// active interference each tick).
    pub fn clear_background_loads(&mut self) {
        for h in &mut self.hosts {
            h.background_cpu = 0.0;
        }
    }

    /// The host's current background CPU load.
    pub fn background_load(&self, host: HostId) -> f64 {
        self.hosts[host.0].background_cpu
    }

    /// The fraction (≤ 1) by which CPU caps of VMs on `host` are squeezed
    /// by background load. The allocation sum comes from the placement
    /// store (O(1)), bit-identical to the legacy resident scan.
    fn contention_squeeze(&self, host: HostId) -> f64 {
        let spec = self.hosts[host.0].spec;
        let available = (spec.cpu_capacity - self.hosts[host.0].background_cpu).max(0.0);
        let total_alloc = self.placement.resident_cpu(host);
        if total_alloc <= 0.0 {
            1.0
        } else {
            (available / total_alloc).min(1.0)
        }
    }

    /// Number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of VMs.
    pub fn n_vms(&self) -> usize {
        self.vms.len()
    }

    /// All VM ids.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        (0..self.vms.len()).map(VmId)
    }

    /// Creates a VM on `host` with the given allocations.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] when the host is unknown or lacks
    /// capacity.
    pub fn create_vm(
        &mut self,
        host: HostId,
        cpu_alloc: f64,
        mem_alloc_mb: f64,
    ) -> Result<VmId, PlacementError> {
        if host.0 >= self.hosts.len() {
            return Err(PlacementError::UnknownHost(host));
        }
        let (free_cpu, free_mem) = self.host_free(host);
        if cpu_alloc > free_cpu + 1e-9 || mem_alloc_mb > free_mem + 1e-9 {
            return Err(PlacementError::InsufficientCapacity {
                host,
                cpu_shortfall: (cpu_alloc - free_cpu).max(0.0),
                mem_shortfall: (mem_alloc_mb - free_mem).max(0.0),
            });
        }
        let id = VmId(self.vms.len());
        self.vms.push(VmState {
            id,
            host,
            cpu_alloc,
            mem_alloc_mb,
            migration: None,
            last_demand: Demand::default(),
            last_quality: ServiceQuality::perfect(),
            cpu_used: 0.0,
            mem_used_mb: 0.0,
            effective_cpu_cap: cpu_alloc,
            cpu_backlog_secs: 0.0,
            paging_debt_mb: 0.0,
        });
        self.placement.attach_resident(id.0, host, &self.vms);
        crate::invariants::debug_validate(self);
        Ok(id)
    }

    /// State of one VM.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is unknown (use [`Cluster::get_vm`] for a fallible
    /// lookup).
    pub fn vm(&self, vm: VmId) -> &VmState {
        self.get_vm(vm).unwrap_or_else(|| panic!("unknown VM {vm}"))
    }

    /// Fallible VM lookup.
    pub fn get_vm(&self, vm: VmId) -> Option<&VmState> {
        self.vms.get(vm.0)
    }

    /// Free capacity `(cpu, mem_mb)` on a host. Migrating VMs count
    /// against *both* source and destination (the destination reserves
    /// room for the incoming copy). Served from the placement store in
    /// O(1); bit-identical to [`Cluster::host_free_scan`].
    ///
    /// # Panics
    ///
    /// Panics if the host is unknown.
    pub fn host_free(&self, host: HostId) -> (f64, f64) {
        assert!(host.0 < self.hosts.len(), "unknown host {host}");
        self.placement.free(host).unwrap_or((0.0, 0.0))
    }

    /// The legacy O(VMs) free-capacity scan, kept as the referee for the
    /// placement store: `debug_validate` bit-compares the two after every
    /// mutation, and the placement tests do so explicitly.
    pub fn host_free_scan(&self, host: HostId) -> (f64, f64) {
        let spec = self.hosts[host.0].spec;
        let mut cpu = spec.cpu_capacity;
        let mut mem = spec.mem_capacity_mb;
        for vm in &self.vms {
            let occupies = vm.host == host || vm.migration.is_some_and(|m| m.target == host);
            if occupies {
                cpu -= vm.cpu_alloc;
                mem -= vm.mem_alloc_mb;
            }
        }
        (cpu, mem)
    }

    fn validate_scale_target(&self, vm: VmId, new_alloc: f64) -> Result<&VmState, ScaleError> {
        if self.hypervisor_busy {
            return Err(ScaleError::HypervisorBusy);
        }
        let state = self.get_vm(vm).ok_or(ScaleError::UnknownVm(vm))?;
        if !new_alloc.is_finite() || new_alloc <= 0.0 {
            return Err(ScaleError::InvalidAllocation(new_alloc));
        }
        if state.is_migrating() {
            return Err(ScaleError::MigrationInProgress(vm));
        }
        Ok(state)
    }

    /// Sets a VM's CPU cap. Effective from the next tick (the ~100 ms
    /// actuation latency of Table I is below the 1 s tick resolution).
    ///
    /// # Errors
    ///
    /// [`ScaleError::InsufficientHeadroom`] when increasing past the local
    /// host's free capacity — PREPARE's cue to fall back to migration.
    pub fn scale_cpu(
        &mut self,
        vm: VmId,
        new_alloc: f64,
        now: Timestamp,
    ) -> Result<(), ScaleError> {
        let state = self.validate_scale_target(vm, new_alloc)?;
        let old = state.cpu_alloc;
        let host = state.host;
        let increase = new_alloc - old;
        if increase > 0.0 {
            let (free_cpu, _) = self.host_free(host);
            if increase > free_cpu + 1e-9 {
                return Err(ScaleError::InsufficientHeadroom {
                    host,
                    available: free_cpu,
                    requested: increase,
                });
            }
        }
        let state = &mut self.vms[vm.0];
        state.cpu_alloc = new_alloc;
        // A downward scale immediately re-caps whatever the VM was using.
        state.cpu_used = state.cpu_used.min(new_alloc);
        self.placement.refresh_host(host, &self.vms);
        self.actions.push(ActionRecord {
            time: now,
            vm,
            kind: ActionKind::ScaleCpu {
                from: old,
                to: new_alloc,
            },
            cost_ms: TABLE1_COSTS.cpu_scaling_ms,
        });
        crate::invariants::debug_validate(self);
        Ok(())
    }

    /// Sets a VM's memory allocation (ballooning). Same semantics as
    /// [`Cluster::scale_cpu`].
    ///
    /// # Errors
    ///
    /// See [`Cluster::scale_cpu`].
    pub fn scale_mem(
        &mut self,
        vm: VmId,
        new_alloc_mb: f64,
        now: Timestamp,
    ) -> Result<(), ScaleError> {
        let state = self.validate_scale_target(vm, new_alloc_mb)?;
        let old = state.mem_alloc_mb;
        let host = state.host;
        let increase = new_alloc_mb - old;
        if increase > 0.0 {
            let (_, free_mem) = self.host_free(host);
            if increase > free_mem + 1e-9 {
                return Err(ScaleError::InsufficientHeadroom {
                    host,
                    available: free_mem,
                    requested: increase,
                });
            }
        }
        let state = &mut self.vms[vm.0];
        state.mem_alloc_mb = new_alloc_mb;
        // Ballooning below the resident set evicts immediately.
        state.mem_used_mb = state.mem_used_mb.min(new_alloc_mb);
        self.placement.refresh_host(host, &self.vms);
        self.actions.push(ActionRecord {
            time: now,
            vm,
            kind: ActionKind::ScaleMem {
                from: old,
                to: new_alloc_mb,
            },
            cost_ms: TABLE1_COSTS.mem_scaling_ms,
        });
        crate::invariants::debug_validate(self);
        Ok(())
    }

    /// Finds a host (other than the VM's current one) with enough free
    /// capacity to receive the VM — "a host with matching resources"
    /// (§II-D). Uses the worst-fit policy: the chosen host keeps the most
    /// headroom, so follow-up scaling of the relocated VM can succeed.
    pub fn find_migration_target(&self, vm: VmId) -> Option<HostId> {
        let state = self.get_vm(vm)?;
        self.find_host(
            &crate::WorstFit,
            state.cpu_alloc,
            state.mem_alloc_mb,
            Some(state.host),
        )
    }

    /// Starts a live migration. Duration follows the Table I model,
    /// inflated by the VM's current stress (dirty-page rate): a migration
    /// triggered *before* the anomaly manifests is markedly cheaper than a
    /// late, reactive one.
    ///
    /// # Errors
    ///
    /// Returns [`MigrateError`] if either endpoint is invalid, the target
    /// is full, or the VM is already migrating.
    pub fn begin_migration(
        &mut self,
        vm: VmId,
        target: HostId,
        now: Timestamp,
    ) -> Result<Duration, MigrateError> {
        if self.hypervisor_busy {
            return Err(MigrateError::HypervisorBusy);
        }
        let state = self.get_vm(vm).ok_or(MigrateError::UnknownVm(vm))?.clone();
        if target.0 >= self.hosts.len() {
            return Err(MigrateError::UnknownHost(target));
        }
        if state.is_migrating() {
            return Err(MigrateError::AlreadyMigrating(vm));
        }
        if state.host == target {
            return Err(MigrateError::SameHost(target));
        }
        let (free_cpu, free_mem) = self.host_free(target);
        if state.cpu_alloc > free_cpu + 1e-9 || state.mem_alloc_mb > free_mem + 1e-9 {
            return Err(MigrateError::TargetFull(target));
        }
        let duration =
            TABLE1_COSTS.migration_duration_under_load(state.mem_alloc_mb, state.stress());
        self.vms[vm.0].migration = Some(MigrationState {
            target,
            started_at: now,
            completes_at: now + duration,
        });
        self.placement.attach_incoming(vm.0, target, &self.vms);
        self.actions.push(ActionRecord {
            time: now,
            vm,
            kind: ActionKind::Migrate {
                from: state.host,
                to: target,
                duration,
            },
            cost_ms: duration.as_secs() as f64 * 1000.0,
        });
        crate::invariants::debug_validate(self);
        Ok(duration)
    }

    /// Abandons an in-flight live migration mid-copy: the VM stays on its
    /// source host, the destination reservation is released, and a
    /// [`ActionKind::MigrationAborted`] record is logged. This models a
    /// migration that timed out before switch-over (pre-copy never
    /// converged) — the chaos engine's migration-timeout fault.
    ///
    /// Returns the destination host the copy was headed to.
    ///
    /// # Errors
    ///
    /// [`MigrateError::UnknownVm`] / [`MigrateError::NotMigrating`] when
    /// there is nothing to cancel.
    pub fn cancel_migration(&mut self, vm: VmId, now: Timestamp) -> Result<HostId, MigrateError> {
        let state = self.vms.get_mut(vm.0).ok_or(MigrateError::UnknownVm(vm))?;
        let m = state
            .migration
            .take()
            .ok_or(MigrateError::NotMigrating(vm))?;
        let from = state.host;
        self.placement.detach_incoming(vm.0, m.target, &self.vms);
        self.actions.push(ActionRecord {
            time: now,
            vm,
            kind: ActionKind::MigrationAborted { from, to: m.target },
            cost_ms: now.since(m.started_at).as_secs() as f64 * 1000.0,
        });
        crate::invariants::debug_validate(self);
        Ok(m.target)
    }

    /// Advances the cluster clock to `now`, completing any migration whose
    /// switch-over time has arrived.
    pub fn advance(&mut self, now: Timestamp) {
        let mut completed: Vec<(usize, HostId, HostId)> = Vec::new();
        for (idx, vm) in self.vms.iter_mut().enumerate() {
            if let Some(m) = vm.migration {
                if now >= m.completes_at {
                    let from = vm.host;
                    vm.host = m.target;
                    vm.migration = None;
                    completed.push((idx, from, m.target));
                }
            }
        }
        for (idx, from, to) in completed {
            self.placement.complete_migration(idx, from, to, &self.vms);
        }
        crate::invariants::debug_validate(self);
    }

    /// Presents one tick of demand for a VM and resolves what the
    /// virtualization layer can deliver:
    ///
    /// - CPU: granted up to the (brown-out-adjusted) cap;
    ///   `cpu_fraction = min(1, cap/demand)`. Work the cap could not
    ///   absorb queues up (bounded) and drains only when spare capacity
    ///   exists — so recovery from saturation is not instantaneous, and a
    ///   migration started *late* (during saturation) grows the backlog
    ///   through its brown-out.
    /// - Memory: working sets beyond the allocation page heavily;
    ///   `mem_fraction` collapses smoothly as the overflow grows. Pages
    ///   swapped out while thrashing must fault back in after the
    ///   pressure is relieved, so memory scaling applied *after* the
    ///   thrash pays a page-in recovery lag.
    /// - Migration: an in-flight live migration imposes a brown-out
    ///   penalty on the VM.
    ///
    /// Call exactly once per VM per 1-second tick — the backlog and
    /// paging-debt integrators assume `dt = 1 s`.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is unknown or `demand` is not valid.
    pub fn apply_demand(&mut self, vm: VmId, demand: Demand, _now: Timestamp) -> ServiceQuality {
        assert!(demand.is_valid(), "invalid demand: {demand:?}");
        assert!(vm.0 < self.vms.len(), "unknown VM {vm}");

        let squeeze = self.contention_squeeze(self.vms[vm.0].host);
        let state = &mut self.vms[vm.0];
        let migration_penalty = if state.is_migrating() { 0.75 } else { 1.0 };
        let effective_cap = state.cpu_alloc * migration_penalty * squeeze;
        state.effective_cpu_cap = effective_cap;

        let cpu_fraction = if demand.cpu <= effective_cap || demand.cpu <= 0.0 {
            1.0
        } else {
            effective_cap / demand.cpu
        };
        // Backlog integrator (dt = 1 s): deficit accumulates in "seconds
        // of work", surplus drains it.
        let net = if effective_cap > 0.0 {
            (demand.cpu - effective_cap) / effective_cap
        } else if demand.cpu > 0.0 {
            1.0
        } else {
            0.0
        };
        state.cpu_backlog_secs = (state.cpu_backlog_secs + net).clamp(0.0, CPU_BACKLOG_CAP_SECS);

        // Paging-debt integrator: overflow swaps pages out; relief pages
        // them back in at a bounded rate.
        let overflow_mb = (demand.mem_mb - state.mem_alloc_mb).max(0.0);
        if overflow_mb > 0.0 {
            state.paging_debt_mb = state.paging_debt_mb.max(overflow_mb);
        } else {
            state.paging_debt_mb = (state.paging_debt_mb - PAGE_IN_RATE_MB_PER_SEC).max(0.0);
        }
        let effective_overflow = overflow_mb.max(state.paging_debt_mb);
        let mem_fraction = if effective_overflow <= 0.0 || state.mem_alloc_mb <= 0.0 {
            1.0
        } else {
            // Calibrated so a working set ~25% past the allocation
            // already inflates service times ~7x — thrashing onset is
            // sharp once the hot set no longer fits.
            1.0 / (1.0 + 25.0 * effective_overflow / state.mem_alloc_mb)
        };

        let quality = ServiceQuality {
            cpu_fraction,
            mem_fraction,
            migration_penalty,
            queue_delay_secs: state.cpu_backlog_secs,
        };
        state.last_demand = demand;
        state.last_quality = quality;
        state.cpu_used = demand.cpu.min(effective_cap);
        state.mem_used_mb = demand.mem_mb.min(state.mem_alloc_mb);
        crate::invariants::debug_validate(self);
        quality
    }

    /// All actuation records so far.
    pub fn actions(&self) -> &[ActionRecord] {
        &self.actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_host_cluster() -> (Cluster, HostId, HostId, VmId) {
        let mut c = Cluster::new();
        let h0 = c.add_host(HostSpec::vcl_default());
        let h1 = c.add_host(HostSpec::vcl_default());
        let vm = c.create_vm(h0, 100.0, 512.0).unwrap();
        (c, h0, h1, vm)
    }

    #[test]
    fn placement_respects_capacity() {
        let mut c = Cluster::new();
        let h = c.add_host(HostSpec::vcl_default());
        assert!(c.create_vm(h, 150.0, 2048.0).is_ok());
        // Remaining: 50 cpu, 2048 mem.
        let err = c.create_vm(h, 100.0, 512.0).unwrap_err();
        assert!(matches!(err, PlacementError::InsufficientCapacity { .. }));
        assert!(c.create_vm(h, 50.0, 1024.0).is_ok());
    }

    #[test]
    fn scaling_within_headroom_succeeds() {
        let (mut c, _, _, vm) = two_host_cluster();
        c.scale_cpu(vm, 150.0, Timestamp::ZERO).unwrap();
        assert_eq!(c.vm(vm).cpu_alloc, 150.0);
        c.scale_mem(vm, 1024.0, Timestamp::ZERO).unwrap();
        assert_eq!(c.vm(vm).mem_alloc_mb, 1024.0);
        assert_eq!(c.actions().len(), 2);
    }

    #[test]
    fn scaling_past_host_capacity_fails() {
        let (mut c, h0, _, vm) = two_host_cluster();
        // Fill the host with a second VM.
        let _vm2 = c.create_vm(h0, 100.0, 3584.0).unwrap();
        let err = c.scale_cpu(vm, 150.0, Timestamp::ZERO).unwrap_err();
        assert!(matches!(err, ScaleError::InsufficientHeadroom { .. }));
    }

    #[test]
    fn scaling_down_always_allowed() {
        let (mut c, _, _, vm) = two_host_cluster();
        c.scale_cpu(vm, 10.0, Timestamp::ZERO).unwrap();
        assert_eq!(c.vm(vm).cpu_alloc, 10.0);
    }

    #[test]
    fn invalid_allocation_rejected() {
        let (mut c, _, _, vm) = two_host_cluster();
        assert!(matches!(
            c.scale_cpu(vm, 0.0, Timestamp::ZERO),
            Err(ScaleError::InvalidAllocation(_))
        ));
        assert!(matches!(
            c.scale_mem(vm, f64::NAN, Timestamp::ZERO),
            Err(ScaleError::InvalidAllocation(_))
        ));
    }

    #[test]
    fn migration_moves_vm_after_duration() {
        let (mut c, h0, h1, vm) = two_host_cluster();
        let d = c.begin_migration(vm, h1, Timestamp::ZERO).unwrap();
        assert!(d.as_secs() >= 8, "migration should take ~Table I time");
        assert!(c.vm(vm).is_migrating());
        assert_eq!(c.vm(vm).host, h0);
        c.advance(Timestamp::from_secs(d.as_secs() - 1));
        assert!(c.vm(vm).is_migrating());
        c.advance(Timestamp::from_secs(d.as_secs()));
        assert!(!c.vm(vm).is_migrating());
        assert_eq!(c.vm(vm).host, h1);
    }

    #[test]
    fn migration_reserves_target_capacity() {
        let (mut c, _, h1, vm) = two_host_cluster();
        c.begin_migration(vm, h1, Timestamp::ZERO).unwrap();
        let (free_cpu, free_mem) = c.host_free(h1);
        assert_eq!(free_cpu, 100.0);
        assert_eq!(free_mem, 4096.0 - 512.0);
    }

    #[test]
    fn stressed_vm_migrates_slower() {
        let (mut c, _, h1, vm) = two_host_cluster();
        // Saturate the VM first.
        c.apply_demand(
            vm,
            Demand {
                cpu: 200.0,
                mem_mb: 512.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        let stressed = c.begin_migration(vm, h1, Timestamp::ZERO).unwrap();

        let (mut c2, _, h1b, vm2) = two_host_cluster();
        let idle = c2.begin_migration(vm2, h1b, Timestamp::ZERO).unwrap();
        assert!(
            stressed > idle,
            "late migration must take longer ({stressed} vs {idle})"
        );
    }

    #[test]
    fn migration_target_search_skips_full_hosts() {
        let (mut c, _, h1, vm) = two_host_cluster();
        assert_eq!(c.find_migration_target(vm), Some(h1));
        // Fill h1 completely.
        c.create_vm(h1, 200.0, 4096.0).unwrap();
        assert_eq!(c.find_migration_target(vm), None);
    }

    #[test]
    fn double_migration_rejected() {
        let (mut c, _, h1, vm) = two_host_cluster();
        c.begin_migration(vm, h1, Timestamp::ZERO).unwrap();
        assert!(matches!(
            c.begin_migration(vm, h1, Timestamp::ZERO),
            Err(MigrateError::AlreadyMigrating(_))
        ));
    }

    #[test]
    fn scaling_during_migration_rejected() {
        let (mut c, _, h1, vm) = two_host_cluster();
        c.begin_migration(vm, h1, Timestamp::ZERO).unwrap();
        assert!(matches!(
            c.scale_cpu(vm, 150.0, Timestamp::ZERO),
            Err(ScaleError::MigrationInProgress(_))
        ));
    }

    #[test]
    fn demand_resolution_cpu_contention() {
        let (mut c, _, _, vm) = two_host_cluster();
        let q = c.apply_demand(
            vm,
            Demand {
                cpu: 200.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        assert!((q.cpu_fraction - 0.5).abs() < 1e-9);
        assert_eq!(c.vm(vm).cpu_used, 100.0);
    }

    #[test]
    fn demand_resolution_memory_pressure() {
        let (mut c, _, _, vm) = two_host_cluster();
        let fits = c.apply_demand(
            vm,
            Demand {
                mem_mb: 256.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        assert_eq!(fits.mem_fraction, 1.0);
        let over = c.apply_demand(
            vm,
            Demand {
                mem_mb: 768.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        assert!(over.mem_fraction < 0.3, "50% overflow should page hard");
        assert_eq!(c.vm(vm).mem_used_mb, 512.0);
    }

    #[test]
    fn migrating_vm_pays_brownout() {
        let (mut c, _, h1, vm) = two_host_cluster();
        c.begin_migration(vm, h1, Timestamp::ZERO).unwrap();
        let q = c.apply_demand(
            vm,
            Demand {
                cpu: 10.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        assert!(q.migration_penalty < 1.0);
    }

    #[test]
    fn background_load_squeezes_effective_cap() {
        let (mut c, h0, _, vm) = two_host_cluster();
        // 175 of 200 CPU consumed by a co-tenant: the 100-alloc VM keeps
        // only 25 effective.
        c.set_background_load(h0, 175.0);
        let q = c.apply_demand(
            vm,
            Demand {
                cpu: 60.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        assert!((c.vm(vm).effective_cpu_cap - 25.0).abs() < 1e-9);
        assert!((q.cpu_fraction - 25.0 / 60.0).abs() < 1e-9);
        // Scaling the allocation does NOT restore capacity — the squeeze
        // renormalizes over the bigger allocation.
        c.scale_cpu(vm, 200.0, Timestamp::ZERO).unwrap();
        c.apply_demand(
            vm,
            Demand {
                cpu: 60.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        assert!(
            (c.vm(vm).effective_cpu_cap - 25.0).abs() < 1e-9,
            "scaling must not defeat contention"
        );
        // Clearing the load restores the full cap.
        c.clear_background_loads();
        c.apply_demand(
            vm,
            Demand {
                cpu: 60.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        assert!((c.vm(vm).effective_cpu_cap - 200.0).abs() < 1e-9);
    }

    #[test]
    fn migration_escapes_contention() {
        let (mut c, h0, h1, vm) = two_host_cluster();
        c.set_background_load(h0, 180.0);
        c.apply_demand(
            vm,
            Demand {
                cpu: 50.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        assert!(c.vm(vm).effective_cpu_cap < 25.0);
        let d = c.begin_migration(vm, h1, Timestamp::ZERO).unwrap();
        c.advance(Timestamp::from_secs(d.as_secs()));
        c.apply_demand(
            vm,
            Demand {
                cpu: 50.0,
                ..Demand::default()
            },
            Timestamp::from_secs(d.as_secs()),
        );
        assert!(
            (c.vm(vm).effective_cpu_cap - 100.0).abs() < 1e-9,
            "clean host restores the cap"
        );
    }

    #[test]
    fn busy_hypervisor_rejects_all_actuations() {
        let (mut c, _, h1, vm) = two_host_cluster();
        c.set_hypervisor_busy(true);
        assert!(c.is_hypervisor_busy());
        assert_eq!(
            c.scale_cpu(vm, 150.0, Timestamp::ZERO),
            Err(ScaleError::HypervisorBusy)
        );
        assert_eq!(
            c.scale_mem(vm, 1024.0, Timestamp::ZERO),
            Err(ScaleError::HypervisorBusy)
        );
        assert_eq!(
            c.begin_migration(vm, h1, Timestamp::ZERO),
            Err(MigrateError::HypervisorBusy)
        );
        assert!(
            c.actions().is_empty(),
            "rejected actuations leave no record"
        );
        // The fault is transient: once the plane clears, the same calls work.
        c.set_hypervisor_busy(false);
        c.scale_cpu(vm, 150.0, Timestamp::ZERO).unwrap();
        c.begin_migration(vm, h1, Timestamp::from_secs(1)).unwrap();
    }

    #[test]
    fn cancel_migration_rolls_back_to_source() {
        let (mut c, h0, h1, vm) = two_host_cluster();
        let d = c.begin_migration(vm, h1, Timestamp::ZERO).unwrap();
        c.cancel_migration(vm, Timestamp::from_secs(3)).unwrap();
        assert!(!c.vm(vm).is_migrating());
        assert_eq!(c.vm(vm).host, h0);
        // The destination reservation is released.
        let (free_cpu, free_mem) = c.host_free(h1);
        assert_eq!(free_cpu, 200.0);
        assert_eq!(free_mem, 4096.0);
        // Completing the clock past the original ETA must not teleport the VM.
        c.advance(Timestamp::from_secs(d.as_secs() + 1));
        assert_eq!(c.vm(vm).host, h0);
        let aborted: Vec<_> = c
            .actions()
            .iter()
            .filter(|a| matches!(a.kind, ActionKind::MigrationAborted { .. }))
            .collect();
        assert_eq!(aborted.len(), 1);
        assert!((aborted[0].cost_ms - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn cancel_without_migration_errors() {
        let (mut c, _, _, vm) = two_host_cluster();
        assert_eq!(
            c.cancel_migration(vm, Timestamp::ZERO),
            Err(MigrateError::NotMigrating(vm))
        );
        assert_eq!(
            c.cancel_migration(VmId(99), Timestamp::ZERO),
            Err(MigrateError::UnknownVm(VmId(99)))
        );
    }

    #[test]
    fn stress_reflects_utilization() {
        let (mut c, _, _, vm) = two_host_cluster();
        c.apply_demand(
            vm,
            Demand {
                cpu: 50.0,
                mem_mb: 100.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        assert!((c.vm(vm).stress() - 0.5).abs() < 1e-9);
    }
}
