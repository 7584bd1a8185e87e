//! Figure 8: SLO violation time comparison using **live VM migration** as
//! the prevention action (same grid as Fig. 6).

use prepare_bench::harness::print_violation_summary;
use prepare_core::PreventionPolicy;

fn main() {
    println!("== Figure 8: SLO violation time, prevention = live VM migration ==");
    print_violation_summary(PreventionPolicy::MigrationFirst);
}
