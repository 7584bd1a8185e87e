//! Experiment harness for regenerating every table and figure of the
//! PREPARE paper (§III).
//!
//! Each `fig*` binary in `src/bin/` prints the rows/series behind one
//! figure; `table1` times each algorithmic module of Table I natively.
//! `chaos` and `recovery` are the two kernel benches no `benchmark/`
//! workload replaces (see README).
//!
//! ```text
//! cargo run --release -p prepare-bench --bin fig6     # SLO violation, scaling
//! cargo run --release -p prepare-bench --bin fig7     # metric traces, scaling
//! cargo run --release -p prepare-bench --bin fig8     # SLO violation, migration
//! cargo run --release -p prepare-bench --bin fig9     # metric traces, migration
//! cargo run --release -p prepare-bench --bin fig10    # per-VM vs monolithic accuracy
//! cargo run --release -p prepare-bench --bin fig11    # 2-dep vs simple Markov accuracy
//! cargo run --release -p prepare-bench --bin fig12    # k-of-W filter settings
//! cargo run --release -p prepare-bench --bin fig13    # sampling interval sweep
//! cargo run --release -p prepare-bench --bin table1   # module overhead (Table I)
//! ```

pub mod harness;
