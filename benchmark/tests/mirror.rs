//! The `paper_matrix` driver loop is a spelled-out copy of
//! `Experiment::run`, so that rounds can be timed from the outside. The
//! copy must stay a copy: for every cell of the matrix, at the base
//! seed, both produce the same event log, the same hypervisor actions
//! and the same violation time.

use prepare_benchmark::clock::Clock;
use prepare_benchmark::driver::{drive, paper_spec, Scenario};
use prepare_benchmark::trace::Tracer;
use prepare_benchmark::workloads::matrix_cells;
use prepare_core::Experiment;

const BASE_SEED: u64 = 1;

#[test]
fn mirror_equals_experiment_run_on_every_cell() {
    let cells = matrix_cells();
    assert_eq!(cells.len(), 18, "2 apps x 3 faults x 3 schemes");
    for cell in cells {
        let spec = paper_spec(cell, 1);
        let mut scenario = Scenario::paper(&spec, BASE_SEED);
        let stats = drive(
            &mut scenario,
            &mut Tracer::new(false),
            None,
            &mut Clock::new(),
        );
        let expected = Experiment::new(spec, BASE_SEED).run();

        assert_eq!(
            scenario.control.controller().events(),
            expected.events.as_slice(),
            "event log diverged on {cell:?}"
        );
        assert_eq!(
            scenario.cluster.actions(),
            expected.actions.as_slice(),
            "actions diverged on {cell:?}"
        );
        assert_eq!(
            stats.eval_violated_secs,
            expected.eval_violation_time.as_secs(),
            "evaluated violation time diverged on {cell:?}"
        );
        assert_eq!(
            stats.violated_secs,
            expected.total_violation_time.as_secs(),
            "total violation time diverged on {cell:?}"
        );
        assert_eq!(stats.rounds.len(), 300, "one round per 5 s of 1500 s");
    }
}

#[test]
fn tracing_and_shadows_do_not_change_the_run() {
    use prepare_benchmark::shadow::Shadow;
    let cell = matrix_cells()[0];
    let spec = paper_spec(cell, 1);
    let mut plain = Scenario::paper(&spec, BASE_SEED);
    drive(&mut plain, &mut Tracer::new(false), None, &mut Clock::new());

    let mut traced = Scenario::paper(&spec, BASE_SEED);
    let mut tracer = Tracer::new(true);
    let mut shadow = Shadow::new(traced.app.vms(), &traced.config, false);
    drive(
        &mut traced,
        &mut tracer,
        Some(&mut shadow),
        &mut Clock::new(),
    );

    assert_eq!(
        plain.control.controller().events(),
        traced.control.controller().events()
    );
    assert_eq!(
        plain.control.controller().model_fingerprint(),
        traced.control.controller().model_fingerprint()
    );
    // The shadows saw what the live rounds saw: same training rounds.
    let live_trainings = tracer.per_call_us("core.controller.round.train").len();
    assert!(live_trainings > 0, "the run never trained");
    assert_eq!(
        tracer.per_call_us("anomaly.trainer.refresh").len(),
        live_trainings
    );
}
