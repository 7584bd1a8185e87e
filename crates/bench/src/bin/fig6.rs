//! Figure 6: SLO violation time comparison using **elastic VM resource
//! scaling** as the prevention action — {System S, RUBiS} × {memleak,
//! cpuhog, bottleneck} × {PREPARE, reactive, none}, mean ± std over five
//! runs (violation time measured from the second, evaluated injection).

use prepare_bench::harness::print_violation_summary;
use prepare_core::PreventionPolicy;

fn main() {
    println!("== Figure 6: SLO violation time, prevention = elastic resource scaling ==");
    print_violation_summary(PreventionPolicy::ScalingFirst);
}
