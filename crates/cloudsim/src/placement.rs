//! The placement layer: incremental per-host capacity accounting and
//! pluggable placement policies.
//!
//! The paper's prevention actuation needs "a host with matching
//! resources" (§II-D, citing the PAC consolidation work \[15\]). At a
//! handful of VMs an O(hosts × VMs) rescan per query is fine; at fleet
//! scale (thousands of VMs) it dominates the control plane.
//! [`PlacementStore`] keeps per-host committed/free capacity up to date
//! *incrementally*: every cluster mutation (create, scale, migration
//! begin/cancel/complete) touches only the affected host's account, and
//! capacity queries are O(1) per host.
//!
//! # Bit-exactness contract
//!
//! The store's free-capacity numbers are **bit-identical** to the legacy
//! full scan (`capacity − Σ occupant allocations`, folded in ascending VM
//! order). This is structural, not numeric luck: an account refresh
//! replays exactly that left-fold over the host's occupant set (kept in
//! ascending VM order), rather than patching totals with `+=`/`-=` deltas
//! that would drift associativity. `invariants::debug_validate` holds the
//! store against the scan after every mutation in debug builds.

use crate::{Cluster, HostId, HostSpec, PlacementError, VmState};
use prepare_metrics::VmId;
use std::collections::BTreeSet;

/// Per-host capacity account: free capacity plus the occupant sets the
/// numbers were folded from.
#[derive(Debug, Clone, PartialEq)]
struct HostAccount {
    cpu_capacity: f64,
    mem_capacity_mb: f64,
    /// Free capacity after subtracting every occupant's allocation, in
    /// ascending VM order (the legacy scan's fold order).
    free_cpu: f64,
    free_mem_mb: f64,
    /// Sum of *resident* VMs' CPU allocations (ascending VM order) — the
    /// contention-squeeze denominator.
    resident_cpu: f64,
    /// VMs whose `host` field points here.
    residents: BTreeSet<usize>,
    /// VMs migrating *into* this host (capacity reserved for the copy).
    incoming: BTreeSet<usize>,
}

impl HostAccount {
    fn new(spec: HostSpec) -> Self {
        HostAccount {
            cpu_capacity: spec.cpu_capacity,
            mem_capacity_mb: spec.mem_capacity_mb,
            free_cpu: spec.cpu_capacity,
            free_mem_mb: spec.mem_capacity_mb,
            resident_cpu: 0.0,
            residents: BTreeSet::new(),
            incoming: BTreeSet::new(),
        }
    }
}

/// Incrementally maintained per-host committed/free capacity.
///
/// Owned by [`Cluster`], which keeps it in sync on every mutation; read
/// it through [`Cluster::placement`] for O(1) capacity queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlacementStore {
    accounts: Vec<HostAccount>,
}

impl PlacementStore {
    /// Number of hosts tracked.
    pub fn n_hosts(&self) -> usize {
        self.accounts.len()
    }

    /// Free capacity `(cpu, mem_mb)` on `host` — O(1).
    ///
    /// Bit-identical to the legacy occupant scan; see the module docs.
    pub fn free(&self, host: HostId) -> Option<(f64, f64)> {
        self.accounts
            .get(host.0)
            .map(|a| (a.free_cpu, a.free_mem_mb))
    }

    /// Sum of resident VMs' CPU allocations on `host` — the
    /// contention-squeeze denominator, O(1).
    pub fn resident_cpu(&self, host: HostId) -> f64 {
        self.accounts.get(host.0).map_or(0.0, |a| a.resident_cpu)
    }

    /// Resident VMs of `host` in ascending id order.
    pub fn residents(&self, host: HostId) -> impl Iterator<Item = VmId> + '_ {
        self.accounts
            .get(host.0)
            .into_iter()
            .flat_map(|a| a.residents.iter().map(|&i| VmId(i)))
    }

    /// Whether `(cpu, mem_mb)` fits into `host`'s free capacity, with the
    /// same tolerance the legacy search used.
    pub fn fits(&self, host: HostId, cpu: f64, mem_mb: f64) -> bool {
        self.free(host)
            .is_some_and(|(fc, fm)| !(fc + 1e-9 < cpu || fm + 1e-9 < mem_mb))
    }

    pub(crate) fn add_host(&mut self, spec: HostSpec) {
        self.accounts.push(HostAccount::new(spec));
    }

    pub(crate) fn attach_resident(&mut self, vm_idx: usize, host: HostId, vms: &[VmState]) {
        if let Some(a) = self.accounts.get_mut(host.0) {
            a.residents.insert(vm_idx);
        }
        self.refresh_host(host, vms);
    }

    pub(crate) fn attach_incoming(&mut self, vm_idx: usize, host: HostId, vms: &[VmState]) {
        if let Some(a) = self.accounts.get_mut(host.0) {
            a.incoming.insert(vm_idx);
        }
        self.refresh_host(host, vms);
    }

    pub(crate) fn detach_incoming(&mut self, vm_idx: usize, host: HostId, vms: &[VmState]) {
        if let Some(a) = self.accounts.get_mut(host.0) {
            a.incoming.remove(&vm_idx);
        }
        self.refresh_host(host, vms);
    }

    /// Switch-over of a completed migration: the VM stops being resident
    /// on `source` and turns from an incoming reservation into a resident
    /// on `target`.
    pub(crate) fn complete_migration(
        &mut self,
        vm_idx: usize,
        source: HostId,
        target: HostId,
        vms: &[VmState],
    ) {
        if let Some(a) = self.accounts.get_mut(source.0) {
            a.residents.remove(&vm_idx);
        }
        if let Some(a) = self.accounts.get_mut(target.0) {
            a.incoming.remove(&vm_idx);
            a.residents.insert(vm_idx);
        }
        self.refresh_host(source, vms);
        self.refresh_host(target, vms);
    }

    /// Recomputes one host's account from its occupant sets by replaying
    /// the legacy scan's left-fold in ascending VM order — the source of
    /// the bit-exactness contract. O(occupants of this host).
    pub(crate) fn refresh_host(&mut self, host: HostId, vms: &[VmState]) {
        let Some(a) = self.accounts.get_mut(host.0) else {
            return;
        };
        let mut cpu = a.cpu_capacity;
        let mut mem = a.mem_capacity_mb;
        // Merge-walk residents ∪ incoming in ascending order (the sets are
        // disjoint: a VM occupies its source as resident and its migration
        // target as incoming, and those are distinct hosts).
        let mut res = a.residents.iter().peekable();
        let mut inc = a.incoming.iter().peekable();
        loop {
            let idx = match (res.peek(), inc.peek()) {
                (Some(&&r), Some(&&i)) => {
                    if r < i {
                        res.next();
                        r
                    } else {
                        inc.next();
                        i
                    }
                }
                (Some(&&r), None) => {
                    res.next();
                    r
                }
                (None, Some(&&i)) => {
                    inc.next();
                    i
                }
                (None, None) => break,
            };
            if let Some(vm) = vms.get(idx) {
                cpu -= vm.cpu_alloc;
                mem -= vm.mem_alloc_mb;
            }
        }
        a.free_cpu = cpu;
        a.free_mem_mb = mem;
        let mut resident_cpu = 0.0;
        for i in &a.residents {
            if let Some(vm) = vms.get(*i) {
                resident_cpu += vm.cpu_alloc;
            }
        }
        a.resident_cpu = resident_cpu;
    }

    /// The occupant sets of `host` as `(residents, incoming)`, for the
    /// debug invariant that cross-checks them against VM state.
    pub(crate) fn occupant_sets(&self, host: HostId) -> (&BTreeSet<usize>, &BTreeSet<usize>) {
        static EMPTY: BTreeSet<usize> = BTreeSet::new();
        self.accounts
            .get(host.0)
            .map_or((&EMPTY, &EMPTY), |a| (&a.residents, &a.incoming))
    }
}

/// A placement request: the capacity a VM needs and an optional host to
/// avoid (the migration source).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementRequest {
    /// CPU the VM needs (percent-of-core units).
    pub cpu: f64,
    /// Memory the VM needs (MB).
    pub mem_mb: f64,
    /// Host to skip — the migration source, if any.
    pub exclude: Option<HostId>,
}

impl PlacementRequest {
    /// Hosts able to fit the request, in ascending id order, with their
    /// free CPU — the candidate stream every bundled policy folds over.
    pub fn candidates<'a>(
        &'a self,
        cluster: &'a Cluster,
    ) -> impl Iterator<Item = (HostId, f64)> + 'a {
        let store = cluster.placement();
        (0..store.n_hosts()).filter_map(move |h| {
            let host = HostId(h);
            if Some(host) == self.exclude || !store.fits(host, self.cpu, self.mem_mb) {
                return None;
            }
            store.free(host).map(|(fc, _)| (host, fc))
        })
    }
}

/// How to choose among hosts that can fit a VM.
///
/// Implementations read the cluster through its [`PlacementStore`]
/// (O(1) per-host capacity) rather than rescanning VMs. Policies must be
/// deterministic: the same cluster state and request always yield the
/// same host.
pub trait PlacementPolicy {
    /// Short policy name for logs and reports.
    fn name(&self) -> &'static str;

    /// Chooses a host for the request, or `None` when nothing fits.
    fn choose(&self, cluster: &Cluster, req: &PlacementRequest) -> Option<HostId>;
}

/// Lowest-numbered host that fits — fast, packs the early hosts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn choose(&self, cluster: &Cluster, req: &PlacementRequest) -> Option<HostId> {
        req.candidates(cluster).next().map(|(h, _)| h)
    }
}

/// The fitting host with the *least* spare CPU afterwards — consolidates
/// load onto few hosts (PAC-style packing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BestFit;

impl PlacementPolicy for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn choose(&self, cluster: &Cluster, req: &PlacementRequest) -> Option<HostId> {
        let mut best: Option<(HostId, f64)> = None;
        for (host, free_cpu) in req.candidates(cluster) {
            if best.is_none_or(|(_, c)| free_cpu < c) {
                best = Some((host, free_cpu));
            }
        }
        best.map(|(h, _)| h)
    }
}

/// The fitting host with the *most* spare CPU — spreads load, leaving
/// headroom for elastic scaling. [`Cluster::find_migration_target`]
/// always uses it: a migrated-away faulty VM wants room to grow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorstFit;

impl PlacementPolicy for WorstFit {
    fn name(&self) -> &'static str {
        "worst-fit"
    }

    fn choose(&self, cluster: &Cluster, req: &PlacementRequest) -> Option<HostId> {
        let mut best: Option<(HostId, f64)> = None;
        for (host, free_cpu) in req.candidates(cluster) {
            if best.is_none_or(|(_, c)| free_cpu > c) {
                best = Some((host, free_cpu));
            }
        }
        best.map(|(h, _)| h)
    }
}

impl Cluster {
    /// Finds a host able to fit `(cpu, mem)` under `policy`, optionally
    /// excluding one host (the migration source). Capacity checks go
    /// through the [`PlacementStore`] — O(hosts), not O(hosts × VMs).
    pub fn find_host(
        &self,
        policy: &dyn PlacementPolicy,
        cpu: f64,
        mem_mb: f64,
        exclude: Option<HostId>,
    ) -> Option<HostId> {
        policy.choose(
            self,
            &PlacementRequest {
                cpu,
                mem_mb,
                exclude,
            },
        )
    }

    /// Creates a VM on a host chosen by `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::InsufficientCapacity`] against host 0
    /// (or [`PlacementError::UnknownHost`] for an empty cluster) when no
    /// host fits.
    pub fn place_vm(
        &mut self,
        policy: &dyn PlacementPolicy,
        cpu: f64,
        mem_mb: f64,
    ) -> Result<VmId, PlacementError> {
        match self.find_host(policy, cpu, mem_mb, None) {
            Some(host) => self.create_vm(host, cpu, mem_mb),
            None => {
                if self.n_hosts() == 0 {
                    Err(PlacementError::UnknownHost(HostId(0)))
                } else {
                    let (free_cpu, free_mem) = self.host_free(HostId(0));
                    Err(PlacementError::InsufficientCapacity {
                        host: HostId(0),
                        cpu_shortfall: (cpu - free_cpu).max(0.0),
                        mem_shortfall: (mem_mb - free_mem).max(0.0),
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HostSpec;
    use prepare_metrics::Timestamp;

    /// Three hosts with free CPU 150 / 50 / 100 after pre-loading.
    fn cluster() -> Cluster {
        let mut c = Cluster::new();
        let h0 = c.add_host(HostSpec::vcl_default());
        let h1 = c.add_host(HostSpec::vcl_default());
        let h2 = c.add_host(HostSpec::vcl_default());
        c.create_vm(h0, 50.0, 512.0).unwrap();
        c.create_vm(h1, 150.0, 512.0).unwrap();
        c.create_vm(h2, 100.0, 512.0).unwrap();
        c
    }

    #[test]
    fn first_fit_takes_the_first_that_fits() {
        let c = cluster();
        assert_eq!(c.find_host(&FirstFit, 40.0, 256.0, None), Some(HostId(0)));
        // Needs more than host 0 and host 2 have? 120 only fits host 0.
        assert_eq!(c.find_host(&FirstFit, 120.0, 256.0, None), Some(HostId(0)));
    }

    #[test]
    fn best_fit_minimizes_leftover() {
        let c = cluster();
        // 40 CPU fits everywhere; host 1 (free 50) leaves the least.
        assert_eq!(c.find_host(&BestFit, 40.0, 256.0, None), Some(HostId(1)));
    }

    #[test]
    fn worst_fit_maximizes_headroom() {
        let c = cluster();
        assert_eq!(c.find_host(&WorstFit, 40.0, 256.0, None), Some(HostId(0)));
    }

    #[test]
    fn exclusion_skips_the_source_host() {
        let c = cluster();
        assert_eq!(
            c.find_host(&WorstFit, 40.0, 256.0, Some(HostId(0))),
            Some(HostId(2))
        );
    }

    #[test]
    fn place_vm_creates_on_chosen_host() {
        let mut c = cluster();
        let vm = c.place_vm(&BestFit, 40.0, 256.0).unwrap();
        assert_eq!(c.vm(vm).host, HostId(1));
    }

    #[test]
    fn place_vm_errors_when_nothing_fits() {
        let mut c = cluster();
        let err = c.place_vm(&WorstFit, 500.0, 256.0).unwrap_err();
        assert!(matches!(err, PlacementError::InsufficientCapacity { .. }));
        let mut empty = Cluster::new();
        assert!(matches!(
            empty.place_vm(&FirstFit, 1.0, 1.0),
            Err(PlacementError::UnknownHost(_))
        ));
    }

    #[test]
    fn store_tracks_free_capacity_incrementally() {
        let mut c = Cluster::new();
        let h0 = c.add_host(HostSpec::vcl_default());
        let h1 = c.add_host(HostSpec::vcl_default());
        let vm = c.create_vm(h0, 80.0, 1024.0).unwrap();
        assert_eq!(c.placement().free(h0), Some((120.0, 3072.0)));
        assert_eq!(c.placement().resident_cpu(h0), 80.0);

        c.scale_cpu(vm, 120.0, Timestamp::ZERO).unwrap();
        assert_eq!(c.placement().free(h0), Some((80.0, 3072.0)));
        assert_eq!(c.placement().resident_cpu(h0), 120.0);

        // Migration reserves the target and keeps the source committed.
        c.begin_migration(vm, h1, Timestamp::ZERO).unwrap();
        assert_eq!(c.placement().free(h0), Some((80.0, 3072.0)));
        assert_eq!(c.placement().free(h1), Some((80.0, 3072.0)));
        assert_eq!(
            c.placement().resident_cpu(h1),
            0.0,
            "reserved, not resident"
        );

        // Completion releases the source and makes the VM resident.
        c.advance(Timestamp::from_secs(60));
        assert_eq!(c.placement().free(h0), Some((200.0, 4096.0)));
        assert_eq!(c.placement().free(h1), Some((80.0, 3072.0)));
        assert_eq!(c.placement().resident_cpu(h1), 120.0);
        assert_eq!(c.placement().residents(h1).collect::<Vec<_>>(), vec![vm]);
    }

    #[test]
    fn store_cancel_releases_reservation() {
        let mut c = Cluster::new();
        let h0 = c.add_host(HostSpec::vcl_default());
        let h1 = c.add_host(HostSpec::vcl_default());
        let vm = c.create_vm(h0, 80.0, 1024.0).unwrap();
        c.begin_migration(vm, h1, Timestamp::ZERO).unwrap();
        c.cancel_migration(vm, Timestamp::from_secs(1)).unwrap();
        assert_eq!(c.placement().free(h1), Some((200.0, 4096.0)));
        assert_eq!(c.placement().free(h0), Some((120.0, 3072.0)));
    }

    #[test]
    fn store_free_matches_legacy_scan_bitwise() {
        // Randomized-ish mutation mix, then bit-compare the store against
        // a from-scratch occupant scan on every host.
        let mut c = Cluster::new();
        for _ in 0..4 {
            c.add_host(HostSpec::vcl_default());
        }
        let mut vms = Vec::new();
        for i in 0..10u64 {
            let host = HostId((i as usize * 7 + 3) % 4);
            let cpu = 10.0 + (i as f64) * 3.7;
            if let Ok(vm) = c.create_vm(host, cpu, 128.0 + i as f64 * 11.3) {
                vms.push(vm);
            }
        }
        for (k, &vm) in vms.iter().enumerate() {
            let t = Timestamp::from_secs(k as u64);
            match k % 3 {
                0 => {
                    let _ = c.scale_cpu(vm, 12.0 + k as f64 * 2.9, t);
                }
                1 => {
                    if let Some(target) = c.find_migration_target(vm) {
                        let _ = c.begin_migration(vm, target, t);
                    }
                }
                _ => {
                    let _ = c.scale_mem(vm, 96.0 + k as f64 * 7.1, t);
                }
            }
        }
        c.advance(Timestamp::from_secs(100));
        for h in 0..c.n_hosts() {
            let host = HostId(h);
            let (scan_cpu, scan_mem) = c.host_free_scan(host);
            let (store_cpu, store_mem) = c.placement().free(host).unwrap();
            assert_eq!(store_cpu.to_bits(), scan_cpu.to_bits(), "host {h} cpu");
            assert_eq!(store_mem.to_bits(), scan_mem.to_bits(), "host {h} mem");
        }
    }
}
