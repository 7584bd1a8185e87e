//! Prevention action planning and actuation (paper §II-D).
//!
//! Given a faulty VM and its ranked blamed attributes, the planner picks
//! the prevention action: elastic scaling of the blamed resource, or live
//! migration when the local host lacks headroom (or when the policy
//! prefers migration). Allocation targets are sized from the VM's
//! currently observed demand.

use crate::PreventionPolicy;
use prepare_cloudsim::{Cluster, HostId, MigrateError, PlacementError, ScaleError};
use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
use prepare_metrics::{AttributeKind, ScalableResource, Timestamp, VmId};
use std::fmt;

/// A typed actuation failure: the hypervisor error behind a prevention
/// action that could not be applied.
///
/// `Display` delegates to the wrapped error, so event text and golden
/// traces read exactly as the previous stringly-typed plumbing did.
#[derive(Debug, Clone, PartialEq)]
pub enum ActuationError {
    /// An elastic scaling action failed.
    Scale(ScaleError),
    /// A live migration failed to start.
    Migrate(MigrateError),
    /// A placement query failed.
    Placement(PlacementError),
}

impl ActuationError {
    /// True for failures that a bounded retry is expected to clear
    /// (the hypervisor control plane was transiently busy). Everything
    /// else — capacity shortfalls, invalid targets, in-flight migrations
    /// — is treated as permanent for the current round, exactly as
    /// before the retry machinery existed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ActuationError::Scale(ScaleError::HypervisorBusy)
                | ActuationError::Migrate(MigrateError::HypervisorBusy)
        )
    }
}

impl fmt::Display for ActuationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActuationError::Scale(e) => e.fmt(f),
            ActuationError::Migrate(e) => e.fmt(f),
            ActuationError::Placement(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ActuationError {}

impl From<ScaleError> for ActuationError {
    fn from(e: ScaleError) -> Self {
        ActuationError::Scale(e)
    }
}

impl From<MigrateError> for ActuationError {
    fn from(e: MigrateError) -> Self {
        ActuationError::Migrate(e)
    }
}

impl From<PlacementError> for ActuationError {
    fn from(e: PlacementError) -> Self {
        ActuationError::Placement(e)
    }
}

/// A concrete prevention action ready to execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlannedAction {
    /// Raise the VM's CPU cap to `to` (percent-of-core).
    ScaleCpu {
        /// Target VM.
        vm: VmId,
        /// New allocation.
        to: f64,
    },
    /// Raise the VM's memory allocation to `to` MB.
    ScaleMem {
        /// Target VM.
        vm: VmId,
        /// New allocation.
        to: f64,
    },
    /// Live-migrate the VM to `target`.
    Migrate {
        /// Target VM.
        vm: VmId,
        /// Destination host.
        target: HostId,
    },
}

impl PlannedAction {
    /// The attribute-independent resource this action addresses, if it is
    /// a scaling action.
    pub fn resource(&self) -> Option<ScalableResource> {
        match self {
            PlannedAction::ScaleCpu { .. } => Some(ScalableResource::Cpu),
            PlannedAction::ScaleMem { .. } => Some(ScalableResource::Memory),
            PlannedAction::Migrate { .. } => None,
        }
    }
}

impl fmt::Display for PlannedAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlannedAction::ScaleCpu { vm, to } => write!(f, "scale {vm} cpu to {to:.0}"),
            PlannedAction::ScaleMem { vm, to } => write!(f, "scale {vm} mem to {to:.0}MB"),
            PlannedAction::Migrate { vm, target } => write!(f, "migrate {vm} to {target}"),
        }
    }
}

impl Persist for PlannedAction {
    fn store(&self, w: &mut Writer) {
        match self {
            PlannedAction::ScaleCpu { vm, to } => {
                w.put_u8(0);
                vm.store(w);
                to.store(w);
            }
            PlannedAction::ScaleMem { vm, to } => {
                w.put_u8(1);
                vm.store(w);
                to.store(w);
            }
            PlannedAction::Migrate { vm, target } => {
                w.put_u8(2);
                vm.store(w);
                target.store(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.get_u8()? {
            0 => PlannedAction::ScaleCpu {
                vm: VmId::load(r)?,
                to: f64::load(r)?,
            },
            1 => PlannedAction::ScaleMem {
                vm: VmId::load(r)?,
                to: f64::load(r)?,
            },
            2 => PlannedAction::Migrate {
                vm: VmId::load(r)?,
                target: HostId::load(r)?,
            },
            tag => {
                return Err(PersistError::BadTag {
                    what: "PlannedAction",
                    tag,
                })
            }
        })
    }
}

/// Plans and executes prevention actions.
#[derive(Debug, Clone, PartialEq)]
pub struct PreventionPlanner {
    policy: PreventionPolicy,
    scale_factor: f64,
}

impl PreventionPlanner {
    /// Creates a planner. Migration targets are chosen worst-fit
    /// ([`Cluster::find_migration_target`]).
    ///
    /// # Panics
    ///
    /// Panics if `scale_factor <= 1.0`.
    pub fn new(policy: PreventionPolicy, scale_factor: f64) -> Self {
        assert!(scale_factor > 1.0, "scale factor must exceed 1.0");
        PreventionPlanner {
            policy,
            scale_factor,
        }
    }

    /// The policy in effect.
    pub fn policy(&self) -> PreventionPolicy {
        self.policy
    }

    /// Target allocation for scaling `resource` on `vm`: observed demand
    /// times the head-room factor, at least 25% above the current
    /// allocation, capped by what the local host can actually grant.
    fn scaling_target(
        &self,
        cluster: &Cluster,
        vm: VmId,
        resource: ScalableResource,
    ) -> Option<f64> {
        let state = cluster.get_vm(vm)?;
        let (demand, alloc, free) = match resource {
            ScalableResource::Cpu => {
                let (free_cpu, _) = cluster.host_free(state.host);
                (state.last_demand.cpu, state.cpu_alloc, free_cpu)
            }
            ScalableResource::Memory => {
                let (_, free_mem) = cluster.host_free(state.host);
                (state.last_demand.mem_mb, state.mem_alloc_mb, free_mem)
            }
        };
        let want = (demand * self.scale_factor).max(alloc * 1.25);
        let cap = alloc + free;
        if cap < alloc * 1.1 {
            // Not even a 10% bump fits: scaling is pointless here.
            return None;
        }
        Some(want.min(cap))
    }

    fn scale_action(
        &self,
        cluster: &Cluster,
        vm: VmId,
        resource: ScalableResource,
    ) -> Option<PlannedAction> {
        let to = self.scaling_target(cluster, vm, resource)?;
        Some(match resource {
            ScalableResource::Cpu => PlannedAction::ScaleCpu { vm, to },
            ScalableResource::Memory => PlannedAction::ScaleMem { vm, to },
        })
    }

    /// Plans the next prevention action for `vm` given its ranked blamed
    /// attributes.
    ///
    /// The blame ranking must contain at least one scalable attribute to
    /// anchor any action — an alert that blames only derived metrics
    /// (network rates, disk traffic) offers no actionable resource, and
    /// blindly migrating such a VM is exactly the "simplistic approach"
    /// §II-C warns may "introduce excessive overhead".
    ///
    /// `allow_migration` is cleared by the caller once the VM has already
    /// been migrated in the current anomaly episode (migrating it again
    /// would ping-pong); scaling remains available either way.
    ///
    /// Returns `None` when nothing applicable remains — the caller
    /// reports a prevention failure.
    pub fn plan(
        &self,
        cluster: &Cluster,
        vm: VmId,
        ranked_attributes: &[AttributeKind],
        allow_migration: bool,
        ineffective: &[ScalableResource],
    ) -> Option<PlannedAction> {
        let mut any_scalable = false;
        let resource = ranked_attributes
            .iter()
            .filter_map(|a| a.scalable_resource())
            .inspect(|_| any_scalable = true)
            .find(|r| !ineffective.contains(r));

        let migration = || -> Option<PlannedAction> {
            if !allow_migration || cluster.get_vm(vm)?.is_migrating() {
                return None;
            }
            cluster
                .find_migration_target(vm)
                .map(|target| PlannedAction::Migrate { vm, target })
        };

        match resource {
            Some(resource) => match self.policy {
                PreventionPolicy::MigrationFirst => {
                    migration().or_else(|| self.scale_action(cluster, vm, resource))
                }
                PreventionPolicy::ScalingFirst => {
                    self.scale_action(cluster, vm, resource).or_else(migration)
                }
            },
            // Scalable blame exists but every such resource has already
            // proven ineffective: scaling cannot fix this anomaly —
            // escalate straight to migration (§II-D).
            None if any_scalable => migration(),
            None => None,
        }
    }

    /// Plans a scaling action for a specific attribute (validation
    /// fall-through: "scaling the next metric in the list of related
    /// metrics provided by the TAN model").
    pub fn plan_for_attribute(
        &self,
        cluster: &Cluster,
        vm: VmId,
        attribute: AttributeKind,
    ) -> Option<PlannedAction> {
        attribute
            .scalable_resource()
            .and_then(|r| self.scale_action(cluster, vm, r))
    }

    /// Executes an action against the cluster.
    ///
    /// # Errors
    ///
    /// Returns the underlying hypervisor error when the action cannot be
    /// applied (capacity raced away, VM migrating, control plane busy).
    pub fn execute(
        &self,
        cluster: &mut Cluster,
        action: PlannedAction,
        now: Timestamp,
    ) -> Result<(), ActuationError> {
        match action {
            PlannedAction::ScaleCpu { vm, to } => {
                cluster.scale_cpu(vm, to, now).map_err(ActuationError::from)
            }
            PlannedAction::ScaleMem { vm, to } => {
                cluster.scale_mem(vm, to, now).map_err(ActuationError::from)
            }
            PlannedAction::Migrate { vm, target } => cluster
                .begin_migration(vm, target, now)
                .map(|_| ())
                .map_err(ActuationError::from),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prepare_cloudsim::{Demand, HostSpec};

    fn setup() -> (Cluster, VmId) {
        let mut c = Cluster::new();
        let h = c.add_host(HostSpec::vcl_default());
        let vm = c.create_vm(h, 100.0, 512.0).unwrap();
        c.add_host(HostSpec::vcl_default()); // spare
        (c, vm)
    }

    fn planner(policy: PreventionPolicy) -> PreventionPlanner {
        PreventionPlanner::new(policy, 1.3)
    }

    #[test]
    fn memory_blame_plans_memory_scaling() {
        let (mut c, vm) = setup();
        c.apply_demand(
            vm,
            Demand {
                cpu: 40.0,
                mem_mb: 600.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        let p = planner(PreventionPolicy::ScalingFirst);
        let action = p
            .plan(
                &c,
                vm,
                &[AttributeKind::FreeMem, AttributeKind::CpuTotal],
                true,
                &[],
            )
            .unwrap();
        match action {
            PlannedAction::ScaleMem { to, .. } => {
                assert!((to - 780.0).abs() < 1e-6, "600 * 1.3 = 780, got {to}");
            }
            other => panic!("expected memory scaling, got {other}"),
        }
    }

    #[test]
    fn cpu_blame_plans_cpu_scaling() {
        let (mut c, vm) = setup();
        c.apply_demand(
            vm,
            Demand {
                cpu: 130.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        let p = planner(PreventionPolicy::ScalingFirst);
        let action = p
            .plan(&c, vm, &[AttributeKind::CpuTotal], true, &[])
            .unwrap();
        match action {
            PlannedAction::ScaleCpu { to, .. } => assert!((to - 169.0).abs() < 1e-6),
            other => panic!("expected cpu scaling, got {other}"),
        }
    }

    #[test]
    fn scaling_capped_by_host_capacity() {
        let (mut c, vm) = setup();
        c.apply_demand(
            vm,
            Demand {
                cpu: 500.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        let p = planner(PreventionPolicy::ScalingFirst);
        let action = p
            .plan(&c, vm, &[AttributeKind::CpuTotal], true, &[])
            .unwrap();
        match action {
            PlannedAction::ScaleCpu { to, .. } => assert!(to <= 200.0 + 1e-9),
            other => panic!("expected capped cpu scaling, got {other}"),
        }
    }

    #[test]
    fn no_headroom_falls_back_to_migration() {
        let (mut c, vm) = setup();
        // Fill the local host so scaling cannot even bump 10%.
        let h0 = c.vm(vm).host;
        c.create_vm(h0, 95.0, 3500.0).unwrap();
        c.apply_demand(
            vm,
            Demand {
                cpu: 150.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        let p = planner(PreventionPolicy::ScalingFirst);
        let action = p
            .plan(&c, vm, &[AttributeKind::CpuTotal], true, &[])
            .unwrap();
        assert!(
            matches!(action, PlannedAction::Migrate { .. }),
            "got {action}"
        );
    }

    #[test]
    fn migration_first_prefers_migration() {
        let (mut c, vm) = setup();
        c.apply_demand(
            vm,
            Demand {
                cpu: 150.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        let p = planner(PreventionPolicy::MigrationFirst);
        let action = p
            .plan(&c, vm, &[AttributeKind::CpuTotal], true, &[])
            .unwrap();
        assert!(matches!(action, PlannedAction::Migrate { .. }));
        // ...but falls back to scaling when migration is disallowed.
        let fallback = p
            .plan(&c, vm, &[AttributeKind::CpuTotal], false, &[])
            .unwrap();
        assert!(matches!(fallback, PlannedAction::ScaleCpu { .. }));
    }

    #[test]
    fn unscalable_attributes_skip_to_next_in_ranking() {
        let (mut c, vm) = setup();
        c.apply_demand(
            vm,
            Demand {
                cpu: 120.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        let p = planner(PreventionPolicy::ScalingFirst);
        // NetOut is not directly scalable; CpuTotal is next.
        let action = p
            .plan(
                &c,
                vm,
                &[AttributeKind::NetOut, AttributeKind::CpuTotal],
                true,
                &[],
            )
            .unwrap();
        assert!(matches!(action, PlannedAction::ScaleCpu { .. }));
    }

    #[test]
    fn nothing_applicable_returns_none() {
        let (c, vm) = setup();
        let p = planner(PreventionPolicy::ScalingFirst);
        // Only unscalable attributes: no anchor for any action, even with
        // migration nominally available.
        assert!(p
            .plan(&c, vm, &[AttributeKind::NetOut], false, &[])
            .is_none());
        assert!(p
            .plan(&c, vm, &[AttributeKind::NetOut], true, &[])
            .is_none());
        assert!(p.plan(&c, vm, &[], true, &[]).is_none());
    }

    #[test]
    fn execute_applies_to_cluster() {
        let (mut c, vm) = setup();
        let p = planner(PreventionPolicy::ScalingFirst);
        p.execute(
            &mut c,
            PlannedAction::ScaleMem { vm, to: 1024.0 },
            Timestamp::ZERO,
        )
        .unwrap();
        assert_eq!(c.vm(vm).mem_alloc_mb, 1024.0);
        let target = c.find_migration_target(vm).unwrap();
        p.execute(
            &mut c,
            PlannedAction::Migrate { vm, target },
            Timestamp::ZERO,
        )
        .unwrap();
        assert!(c.vm(vm).is_migrating());
        // Scaling a migrating VM errors through cleanly.
        let err = p
            .execute(
                &mut c,
                PlannedAction::ScaleCpu { vm, to: 150.0 },
                Timestamp::ZERO,
            )
            .unwrap_err();
        assert_eq!(
            err,
            ActuationError::Scale(ScaleError::MigrationInProgress(vm))
        );
        // Display still reads exactly like the old stringly errors.
        assert!(
            err.to_string().contains("migrated"),
            "unexpected error: {err}"
        );
        assert!(!err.is_transient());
    }

    #[test]
    fn busy_hypervisor_errors_are_transient() {
        let (mut c, vm) = setup();
        c.set_hypervisor_busy(true);
        let p = planner(PreventionPolicy::ScalingFirst);
        let err = p
            .execute(
                &mut c,
                PlannedAction::ScaleCpu { vm, to: 150.0 },
                Timestamp::ZERO,
            )
            .unwrap_err();
        assert!(err.is_transient(), "busy scale must be transient: {err}");
        let target = c.find_migration_target(vm).unwrap();
        let err = p
            .execute(
                &mut c,
                PlannedAction::Migrate { vm, target },
                Timestamp::ZERO,
            )
            .unwrap_err();
        assert!(err.is_transient(), "busy migrate must be transient: {err}");
    }

    #[test]
    fn exhausted_resources_escalate_to_migration() {
        let (mut c, vm) = setup();
        c.apply_demand(
            vm,
            Demand {
                cpu: 80.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        let p = planner(PreventionPolicy::ScalingFirst);
        // CPU scaling has been judged ineffective: the plan must jump to
        // migration even though scaling headroom exists.
        let action = p
            .plan(
                &c,
                vm,
                &[AttributeKind::CpuTotal],
                true,
                &[ScalableResource::Cpu],
            )
            .unwrap();
        assert!(
            matches!(action, PlannedAction::Migrate { .. }),
            "got {action}"
        );
        // ...and to nothing when migration is not allowed either.
        assert!(p
            .plan(
                &c,
                vm,
                &[AttributeKind::CpuTotal],
                false,
                &[ScalableResource::Cpu]
            )
            .is_none());
        // A memory-blamed candidate further down the ranking is still
        // preferred over migration.
        let action = p
            .plan(
                &c,
                vm,
                &[AttributeKind::CpuTotal, AttributeKind::FreeMem],
                true,
                &[ScalableResource::Cpu],
            )
            .unwrap();
        assert!(
            matches!(action, PlannedAction::ScaleMem { .. }),
            "got {action}"
        );
    }

    #[test]
    fn planned_actions_round_trip_through_persist() {
        let actions = [
            PlannedAction::ScaleCpu {
                vm: VmId(3),
                to: 162.5,
            },
            PlannedAction::ScaleMem {
                vm: VmId(9),
                to: 1024.0,
            },
            PlannedAction::Migrate {
                vm: VmId(0),
                target: HostId(4),
            },
        ];
        for a in actions {
            let back: PlannedAction =
                prepare_metrics::persist::from_bytes(&prepare_metrics::persist::to_bytes(&a))
                    .unwrap();
            assert_eq!(back, a);
        }
        let err = prepare_metrics::persist::from_bytes::<PlannedAction>(&[7u8]).unwrap_err();
        assert!(matches!(
            err,
            PersistError::BadTag {
                what: "PlannedAction",
                tag: 7
            }
        ));
    }

    #[test]
    fn plan_for_attribute_respects_attribute() {
        let (mut c, vm) = setup();
        c.apply_demand(
            vm,
            Demand {
                cpu: 50.0,
                mem_mb: 700.0,
                ..Demand::default()
            },
            Timestamp::ZERO,
        );
        let p = planner(PreventionPolicy::ScalingFirst);
        let a = p
            .plan_for_attribute(&c, vm, AttributeKind::MemUtil)
            .unwrap();
        assert!(matches!(a, PlannedAction::ScaleMem { .. }));
        assert!(p
            .plan_for_attribute(&c, vm, AttributeKind::DiskRead)
            .is_none());
    }
}
