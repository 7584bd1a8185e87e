//! The actuation / overhead cost model, numbers taken from the paper's
//! Table I measurements on the Xen testbed. The simulator attaches these
//! costs to action records (and the Table I benchmark reproduces the
//! *algorithmic* costs natively).

use prepare_metrics::Duration;

/// Per-operation cost constants (milliseconds unless noted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActuationCosts {
    /// One VM monitoring sweep over 13 attributes.
    pub monitoring_ms: f64,
    /// Simple Markov model training on 600 samples.
    pub simple_markov_training_ms: f64,
    /// 2-dependent Markov model training on 600 samples.
    pub two_dep_markov_training_ms: f64,
    /// TAN model training on 600 samples.
    pub tan_training_ms: f64,
    /// One anomaly prediction (state probabilities + labels + attribution).
    pub prediction_ms: f64,
    /// CPU cap scaling actuation.
    pub cpu_scaling_ms: f64,
    /// Memory ballooning actuation.
    pub mem_scaling_ms: f64,
    /// Live migration of a 512 MB VM, in seconds.
    pub migration_512mb_secs: f64,
}

/// The measurements reported in Table I of the paper.
pub const TABLE1_COSTS: ActuationCosts = ActuationCosts {
    monitoring_ms: 4.68,
    simple_markov_training_ms: 61.0,
    two_dep_markov_training_ms: 135.1,
    tan_training_ms: 4.0,
    prediction_ms: 1.3,
    cpu_scaling_ms: 107.0,
    mem_scaling_ms: 116.0,
    migration_512mb_secs: 8.56,
};

impl ActuationCosts {
    /// Baseline duration of a live migration for a VM with `mem_mb` of
    /// memory: the paper measures 8.56 s at 512 MB and reports 8–15 s in
    /// the experiments; transfer time scales with the memory footprint.
    pub fn migration_duration(&self, mem_mb: f64) -> Duration {
        let secs = self.migration_512mb_secs * (mem_mb / 512.0).max(0.25);
        Duration::from_secs(secs.round().max(1.0) as u64)
    }

    /// Migration duration inflated by load: a VM dirtying memory fast
    /// (under an active anomaly) needs more pre-copy rounds. `stress` is
    /// the VM's current utilization pressure in `[0, 1]`; the paper
    /// observes late (reactive) migrations taking "much longer" and
    /// costing more performance, which this factor reproduces.
    pub fn migration_duration_under_load(&self, mem_mb: f64, stress: f64) -> Duration {
        let base = self.migration_512mb_secs * (mem_mb / 512.0).max(0.25);
        let stress = stress.clamp(0.0, 1.0);
        Duration::from_secs((base * (1.0 + 0.8 * stress)).round().max(1.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_matches_table1_at_512mb() {
        let d = TABLE1_COSTS.migration_duration(512.0);
        assert_eq!(d.as_secs(), 9); // 8.56 rounded
    }

    #[test]
    fn migration_scales_with_memory() {
        let small = TABLE1_COSTS.migration_duration(256.0);
        let big = TABLE1_COSTS.migration_duration(1024.0);
        assert!(big > small);
        assert_eq!(big.as_secs(), 17);
    }

    #[test]
    fn stress_prolongs_migration_within_paper_range() {
        let idle = TABLE1_COSTS.migration_duration_under_load(512.0, 0.0);
        let busy = TABLE1_COSTS.migration_duration_under_load(512.0, 1.0);
        assert_eq!(idle.as_secs(), 9);
        assert_eq!(busy.as_secs(), 15); // the paper's 8–15 s envelope
    }

    #[test]
    fn tiny_vm_migration_floor() {
        assert!(TABLE1_COSTS.migration_duration(16.0).as_secs() >= 1);
    }
}
