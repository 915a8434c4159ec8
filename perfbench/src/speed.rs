//! Machine-speed normalisation of every time the benchmark reports.
//!
//! The shared virtual machines this benchmark runs on change speed by up
//! to 2x in phases of seconds to tens of seconds, without any steal time
//! the guest could see (a neighbour on the same physical core slows
//! every instruction). A run's wall-clock median then says more about
//! the phases it met than about the program.
//!
//! [`Speed`] measures the machine between operations with a fixed
//! reference kernel of the benchmark's own (independent of the program
//! under test), at most every `CALIBRATE_EVERY`, and scales every wall
//! time by `REFERENCE_NS / kernel time`: the time the operation would
//! have taken on a machine that runs the kernel in `REFERENCE_NS`. A
//! program change that makes an operation slower or faster moves the
//! scaled time by the same factor; a machine that slows everything down
//! leaves it where it was. The wall-clock figures stay in the `window`
//! and `samples wall` lines of the output.

use std::time::{Duration, Instant};

/// Calibrate at most this often (and after any operation this long).
pub const CALIBRATE_EVERY: Duration = Duration::from_millis(20);
/// Kernel time, in ns, of the nominal machine the scaled times refer to
/// (about the kernel's time on a quiet 2-vCPU Intel Xeon virtual
/// machine, so that scaled and wall times read alike there).
pub const REFERENCE_NS: f64 = 80_000.0;
/// Runs of the kernel per calibration; the fastest one counts, so that
/// an interrupt in one run does not read as a slow machine.
const REPEATS: usize = 3;
/// The kernel is `PASSES` dense `DIM`x`DIM` f32 layers with a `tanh`,
/// a small forward pass that stays in L1 (about 0.1 ms). Of the kernels
/// tried it tracked the workloads' slowdown best: over the same runs the
/// quartile spread of the `olap` p50s was 0.02 to 0.05 scaled by it,
/// 0.09 to 0.15 scaled by a random walk over 16 MiB, and 0.39 to 0.45
/// in wall time; of the `ai` p50s 0.01 to 0.09, 0.05 to 0.18, and 0.24
/// to 0.42.
const DIM: usize = 64;
const PASSES: usize = 24;

pub struct Speed {
    /// The kernel's weights (`DIM`x`DIM`) and its activation vector.
    weights: Vec<f32>,
    x: Vec<f32>,
    /// `REFERENCE_NS / kernel ns` at the last calibration.
    factor: f64,
    /// When the last calibration ended.
    last: Instant,
}

impl Default for Speed {
    fn default() -> Self {
        Speed::new()
    }
}

impl Speed {
    pub fn new() -> Speed {
        let mut s = Speed {
            weights: (0..DIM * DIM).map(|i| (i % 7) as f32 * 0.01).collect(),
            x: vec![0.5; DIM],
            factor: 1.0,
            last: Instant::now(),
        };
        // Run the kernel once so the first calibration is warm.
        s.kernel();
        s.calibrate();
        s
    }

    /// One run of the reference kernel: `PASSES` times `x = tanh(W x)`.
    /// The weights are positive and small, so `x` settles on a fixed
    /// point away from zero (no subnormals, no overflow).
    fn kernel(&mut self) {
        let mut y = [0f32; DIM];
        for _ in 0..PASSES {
            for (out, row) in y.iter_mut().zip(self.weights.chunks_exact(DIM)) {
                let dot: f32 = row.iter().zip(&self.x).map(|(w, x)| w * x).sum();
                *out = dot.tanh();
            }
            self.x.copy_from_slice(&y);
        }
        std::hint::black_box(&self.x);
    }

    /// Fastest of `REPEATS` kernel runs, in ns.
    fn measure(&mut self) -> f64 {
        (0..REPEATS)
            .map(|_| {
                let t = Instant::now();
                self.kernel();
                t.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Calibrate now.
    fn calibrate(&mut self) {
        self.factor = REFERENCE_NS / self.measure();
        self.last = Instant::now();
    }

    /// Start timing an operation, calibrating first if the last
    /// calibration is `CALIBRATE_EVERY` old.
    pub fn start(&mut self) -> Stopwatch {
        if self.last.elapsed() >= CALIBRATE_EVERY {
            self.calibrate();
        }
        Stopwatch {
            factor: self.factor,
            start: Instant::now(),
        }
    }

    /// Stop timing: the operation's wall and scaled ns. An operation
    /// longer than `CALIBRATE_EVERY` counts at the mean of the factors
    /// before and after it.
    pub fn stop(&mut self, watch: Stopwatch) -> (u64, u64) {
        let wall = watch.start.elapsed();
        let factor = if wall >= CALIBRATE_EVERY {
            self.calibrate();
            (watch.factor + self.factor) / 2.0
        } else {
            watch.factor
        };
        let wall = wall.as_nanos() as u64;
        (wall, (wall as f64 * factor) as u64)
    }

    /// Run `op` and return its result with its wall and scaled ns.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, u64, u64) {
        let watch = self.start();
        let v = op();
        let (wall, scaled) = self.stop(watch);
        (v, wall, scaled)
    }
}

/// A running operation's start and the factor it started at.
pub struct Stopwatch {
    factor: f64,
    start: Instant,
}
