//! The stopwatch counts only what runs between `resume` and `pause`,
//! and never its own calibration kernel.

use prepare_benchmark::clock::Clock;
use std::hint::black_box;

fn work() {
    black_box((0..200_000u64).fold(0u64, |a, i| a.wrapping_add(i * i)));
}

#[test]
fn paused_time_is_not_counted() {
    let mut clock = Clock::new();
    work();
    assert_eq!(clock.scaled_s(), 0.0, "a new clock is paused");
    clock.resume();
    work();
    clock.pause();
    let measured = clock.scaled_s();
    assert!(measured > 0.0);
    work();
    clock.pause();
    assert_eq!(clock.scaled_s(), measured, "a second pause adds nothing");
}

#[test]
fn calibration_keeps_the_clock_in_its_state() {
    let mut clock = Clock::new();
    clock.calibrate();
    work();
    assert_eq!(
        clock.scaled_s(),
        0.0,
        "calibrating a paused clock leaves it paused"
    );

    clock.resume();
    work();
    clock.calibrate();
    let before_second_segment = clock.scaled_s();
    assert!(
        before_second_segment > 0.0,
        "calibrating closes the open segment"
    );
    work();
    clock.pause();
    assert!(
        clock.scaled_s() > before_second_segment,
        "calibrating a running clock leaves it running"
    );
}

#[test]
fn scaled_times_follow_the_speed_factor() {
    let clock = Clock::new();
    let factor = clock.factor();
    assert!(factor.is_finite() && factor > 0.0);
    let wall = std::time::Duration::from_millis(8);
    assert!((clock.scaled_ms(wall) - 8.0 * factor).abs() < 1e-9);
}
