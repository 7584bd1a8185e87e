//! Ablation sweeps over PREPARE's design choices (DESIGN.md §5) — not a
//! paper figure, but the knobs a practitioner would want justified:
//!
//! - discretization bin count (the paper never fixes it),
//! - look-ahead window driving prevention,
//! - resource-sizing factor of the scaling actions,
//! - Markov model order in the full closed loop.
//!
//! Each sweep reports the evaluated SLO violation time (mean over three
//! seeds) on the System S memory-leak scenario.

use prepare_anomaly::MarkovKind;
use prepare_core::{AppKind, ExperimentSpec, FaultChoice, PrepareConfig, Scheme, TrialSummary};
use prepare_metrics::Duration;

const SEEDS: [u64; 3] = [1, 2, 3];

fn run_with(config: PrepareConfig) -> TrialSummary {
    let mut spec =
        ExperimentSpec::paper_default(AppKind::SystemS, FaultChoice::MemLeak, Scheme::Prepare);
    spec.config = config;
    TrialSummary::collect(&spec, &SEEDS)
}

fn main() {
    println!("== Ablations (System S / memleak / PREPARE, mean±std of 3 runs) ==\n");

    println!("discretization bins:");
    for bins in [5usize, 10, 20] {
        let mut config = PrepareConfig::default();
        config.predictor.bins = bins;
        let s = run_with(config);
        println!(
            "  bins={bins:<3} violation {:6.1} ± {:5.1} s",
            s.mean_secs, s.std_secs
        );
    }

    println!("\nlook-ahead window:");
    for la in [15u64, 30, 60, 120] {
        let config = PrepareConfig {
            look_ahead: Duration::from_secs(la),
            ..PrepareConfig::default()
        };
        let s = run_with(config);
        println!(
            "  look_ahead={la:<4}s violation {:6.1} ± {:5.1} s",
            s.mean_secs, s.std_secs
        );
    }

    println!("\nscaling headroom factor:");
    for factor in [1.1f64, 1.3, 1.6, 2.0] {
        let config = PrepareConfig {
            scale_factor: factor,
            ..PrepareConfig::default()
        };
        let s = run_with(config);
        println!(
            "  factor={factor:<4} violation {:6.1} ± {:5.1} s",
            s.mean_secs, s.std_secs
        );
    }

    println!("\nMarkov model order in the closed loop:");
    for (name, kind) in [
        ("simple", MarkovKind::Simple),
        ("2-dep", MarkovKind::TwoDependent),
    ] {
        let mut config = PrepareConfig::default();
        config.predictor.markov = kind;
        let s = run_with(config);
        println!(
            "  {name:<7} violation {:6.1} ± {:5.1} s",
            s.mean_secs, s.std_secs
        );
    }

    println!("\nk-of-W filter in the closed loop:");
    for (k, w) in [(1usize, 4usize), (2, 4), (3, 4)] {
        let config = PrepareConfig {
            filter_k: k,
            filter_w: w,
            ..PrepareConfig::default()
        };
        let s = run_with(config);
        println!(
            "  k={k},W={w} violation {:6.1} ± {:5.1} s",
            s.mean_secs, s.std_secs
        );
    }
}
