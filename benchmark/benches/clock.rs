//! The benchmark's stopwatch: wall time, minus the benchmark's own work,
//! rescaled by how fast the machine is running at that moment.
//!
//! This box runs the same code up to 40 % slower from one tenth of a
//! second to the next, and drifts by 20 % over minutes (README, noise
//! notes): a raw wall time says more about the neighbours than about
//! the program. So every few milliseconds the clock times a fixed
//! kernel of the program's own kind, and counts measured time in units
//! of that kernel: a *scaled* second is a wall second multiplied by the
//! kernel's nominal length over its length measured just before.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nominal length of the kernel on the reference box when nothing else
/// contends for it: with it, scaled and wall times agree on a quiet box.
const KERNEL_REFERENCE_NS: f64 = 60_000.0;

/// The machine's speed is re-measured at most this often.
const CALIBRATE_EVERY: Duration = Duration::from_millis(4);

/// Kernel lengths the speed estimate averages: one length alone swings
/// by a third with sub-millisecond noise that no estimate can follow;
/// sixteen of them follow what lasts a tenth of a second and more.
const WINDOW: usize = 16;

/// A fixed piece of work of the program's own kind — ordered-map inserts
/// and look-ups, small heap allocations, multiply-adds over the stored
/// vectors.
fn kernel() {
    let mut map: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..1024u64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.entry((state >> 33) % 256)
            .or_default()
            .push(1.0 + i as f64 * 1e-3);
    }
    let mut acc = 0.0f64;
    for key in 0..512u64 {
        if let Some(values) = map.get(&(key % 256)) {
            acc = values.iter().fold(acc * 0.999, |a, v| a + v * 1.000_001);
        }
    }
    std::hint::black_box((acc, map));
}

/// Length of the kernel in nanoseconds, on its second run in a row: the
/// first only brings its code and heap blocks back into the caches, so
/// that the length tells the machine's speed and not what the measured
/// program happened to evict.
fn kernel_ns() -> f64 {
    kernel();
    let started = Instant::now();
    kernel();
    started.elapsed().as_nanos() as f64
}

/// A pausable stopwatch in scaled seconds. Starts paused.
#[derive(Debug)]
pub struct Clock {
    /// Reference length over the mean of the last kernel lengths.
    factor: f64,
    recent_ns: [f64; WINDOW],
    next: usize,
    calibrated_at: Instant,
    /// Start of the running segment; `None` while paused.
    segment: Option<Instant>,
    scaled_s: f64,
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

impl Clock {
    /// A paused clock at zero, freshly calibrated (about a millisecond).
    pub fn new() -> Self {
        let recent_ns: [f64; WINDOW] = std::array::from_fn(|_| kernel_ns());
        Clock {
            factor: KERNEL_REFERENCE_NS * WINDOW as f64 / recent_ns.iter().sum::<f64>(),
            recent_ns,
            next: 0,
            calibrated_at: Instant::now(),
            segment: None,
            scaled_s: 0.0,
        }
    }

    /// Starts a measured segment.
    pub fn resume(&mut self) {
        self.segment = Some(Instant::now());
    }

    /// Ends the measured segment: the benchmark's own work follows.
    pub fn pause(&mut self) {
        if let Some(started) = self.segment.take() {
            self.scaled_s += started.elapsed().as_secs_f64() * self.factor;
        }
    }

    /// Whether the last speed measurement is old enough to repeat.
    pub fn is_due(&self) -> bool {
        self.calibrated_at.elapsed() >= CALIBRATE_EVERY
    }

    /// Re-measures the machine's speed. The kernel's own time is never
    /// counted.
    pub fn calibrate(&mut self) {
        let running = self.segment.is_some();
        self.pause();
        self.recent_ns[self.next] = kernel_ns();
        self.next = (self.next + 1) % WINDOW;
        self.factor = KERNEL_REFERENCE_NS * WINDOW as f64 / self.recent_ns.iter().sum::<f64>();
        self.calibrated_at = Instant::now();
        if running {
            self.resume();
        }
    }

    /// Scaled seconds measured so far (closed segments only).
    pub fn scaled_s(&self) -> f64 {
        self.scaled_s
    }

    /// Scaled seconds per wall second at the moment.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// A wall time as scaled milliseconds at the current speed.
    pub fn scaled_ms(&self, wall: Duration) -> f64 {
        wall.as_secs_f64() * 1e3 * self.factor
    }
}
