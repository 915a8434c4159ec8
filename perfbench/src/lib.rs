//! End-to-end and per-layer benchmark for NeurDB-RS.
//!
//! Three workloads, each on a fresh durable database (`Database::open`
//! in a temporary directory inside the working directory, WAL policy
//! `FsyncPolicy::Group(1 ms)`, the shipped default):
//!
//! * [`oltp`]: two wire clients against `Server::start`;
//! * [`olap`]: one embedded read-only session over a working set larger
//!   than its buffer pool;
//! * [`ai`]: one embedded session running drifting-CTR ingest,
//!   fine-tuning and PREDICT.
//!
//! Every client's operation sequence is a pure function of the seed and
//! the work budget, so two builds always execute the same operations on
//! the same data. Latencies are measured with tracing off; a traced run
//! (same seed) folds span self times into per-layer numbers.
//! See `README.md` for the layer map and the metric definitions.

pub mod ai;
pub mod layers;
pub mod metrics;
pub mod olap;
pub mod oltp;
pub mod speed;

use neurdb_core::Database;
use neurdb_storage::Value;
use neurdb_wal::{DurableStoreOptions, FsyncPolicy};
use speed::Speed;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The group-commit interval of the WAL policy every workload runs
/// under, `FsyncPolicy::Group(1 ms)`: the shipped default, asserted at
/// open so that a changed default shows up here instead of silently
/// changing what the benchmark measures.
pub const GROUP_COMMIT: Duration = Duration::from_millis(1);

/// A measured pass sets its workload up in two bursts, one before and
/// one after the measured window. Each burst builds the environment at
/// least `SETUP_MIN_REPEATS` times and until `SETUP_MIN_TIME` has passed,
/// at most `SETUP_MAX_REPEATS` times; `setup_s` is the median of both.
pub const SETUP_MIN_REPEATS: usize = 3;
pub const SETUP_MAX_REPEATS: usize = 8;
pub const SETUP_MIN_TIME: Duration = Duration::from_millis(1500);

/// Rows per INSERT statement when loading a table at set-up.
pub const LOAD_CHUNK: usize = 2000;

/// How big one run is.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Work budget: the run executes `seconds × <workload rate>`
    /// operations (about `seconds` of wall time on a 2-vCPU machine).
    pub seconds: u64,
    /// Shrinks every table and the work budget (the self-test size).
    pub small: bool,
}

/// Everything one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wall-clock seconds of the measured window (warm-up excluded).
    pub window_wall_s: f64,
    /// Operations completed in the measured window.
    pub window_ops: u64,
    /// Per statement class: latencies (ns) of measured operations, as
    /// reported (scaled to the reference speed, see [`speed`]).
    pub latencies: BTreeMap<&'static str, Vec<u64>>,
    /// Per statement class: wall-clock latencies (ns), for the output.
    pub wall: BTreeMap<&'static str, Vec<u64>>,
    /// Per-layer metrics (reported by the traced run).
    pub layers: BTreeMap<String, f64>,
    /// FNV-1a digest of the operation sequence of every client.
    pub digest: u64,
    /// Counts that must repeat exactly for a fixed seed.
    pub exact: BTreeMap<String, String>,
    /// Output-check and integrity failures, named.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Record an operation's wall time and its time scaled to the
    /// reference speed (see [`speed`]).
    pub fn record(&mut self, class: &'static str, wall: u64, scaled: u64) {
        self.latencies.entry(class).or_default().push(scaled);
        self.wall.entry(class).or_default().push(wall);
    }

    /// Count one operation and whether it succeeded and passed its
    /// check; the first 20 failures are named.
    pub fn check(&mut self, class: &'static str, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(format!("{class}: {}", why()));
            }
        }
    }

    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.window_ops += other.window_ops;
        for (k, v) in other.latencies {
            self.latencies.entry(k).or_default().extend(v);
        }
        for (k, v) in other.wall {
            self.wall.entry(k).or_default().extend(v);
        }
        self.problems.extend(other.problems);
    }

    /// Seconds of the measured window at the reference speed: its wall
    /// seconds times the mean factor (reported over wall time) of the
    /// operations that fill it.
    pub fn window_s(&self) -> f64 {
        let total = |m: &BTreeMap<&str, Vec<u64>>| m.values().flatten().sum::<u64>() as f64;
        let wall = total(&self.wall);
        if wall == 0.0 {
            return self.window_wall_s;
        }
        self.window_wall_s * total(&self.latencies) / wall
    }

    pub fn ops_s(&self) -> f64 {
        self.window_ops as f64 / self.window_s().max(1e-9)
    }

    pub fn p(&self, class: &str, q: f64) -> f64 {
        self.latencies
            .get(class)
            .map(|v| quantile_ms(v, q))
            .unwrap_or(f64::NAN)
    }
}

/// The `q` quantile (nearest rank) of nanosecond samples, in ms.
pub fn quantile_ms(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / 1e6
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

pub fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// SplitMix64: the benchmark's own generator, so input generation does
/// not depend on any crate of the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from the run seed and a label, so each client
    /// and each table gets its own independent sequence.
    pub fn new(seed: u64, label: &str) -> Rng {
        let mut h = Fnv::new();
        h.u64(seed);
        h.str(label);
        Rng(h.0)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a, for the operation-sequence digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// A scratch database directory under `.bench_tmp/` in the working
/// directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(".bench_tmp").join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark scratch directory");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty `.bench_tmp` behind after the last database.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Open a fresh durable database with `frames` buffer frames under the
/// shipped WAL policy.
pub fn open_db(dir: &TempDir, frames: usize) -> Database {
    let opts = DurableStoreOptions {
        frames,
        ..Default::default()
    };
    assert!(
        matches!(opts.wal.fsync, FsyncPolicy::Group(d) if d == GROUP_COMMIT),
        "the shipped WAL policy is no longer Group({GROUP_COMMIT:?})"
    );
    Database::open_with(dir.path(), opts).expect("open durable database")
}

/// One pass of a workload: its outcome, its set-up time, and (traced
/// pass) the span folds.
pub struct Pass {
    pub out: Outcome,
    pub setup_s: f64,
    pub bd: layers::Breakdown,
}

/// Set-up times of a measured pass (`None` on the traced pass).
///
/// The machine's speed drifts over tens of seconds, so set-ups timed in
/// one burst at the start of a run all see the same speed. Timing half
/// of them after the measured window makes `setup_s` sample both ends of
/// the run, as the latency medians do. Every set-up time is scaled to
/// the reference speed (see [`speed`]).
pub struct Setups(Option<Vec<f64>>);

/// Build a workload's environment. A measured pass times a first burst
/// of set-ups and keeps the last environment; the traced pass builds it
/// once and times nothing.
pub fn setup_for<E>(
    tracing: layers::Tracing,
    speed: &mut Speed,
    build: impl Fn() -> E,
) -> (E, Setups) {
    if tracing.is_on() {
        return (build(), Setups(None));
    }
    let mut times = Vec::new();
    let env = setup_burst(&mut times, speed, build);
    (env, Setups(Some(times)))
}

impl Setups {
    /// Time the second burst (drop the measured environment first) and
    /// return the median of all set-up times; NaN on the traced pass.
    pub fn finish<E>(self, speed: &mut Speed, build: impl Fn() -> E) -> f64 {
        let Some(mut times) = self.0 else {
            return f64::NAN;
        };
        setup_burst(&mut times, speed, build);
        median(&mut times)
    }
}

/// One burst of timed set-ups (see `SETUP_MIN_REPEATS`); returns the
/// last environment.
fn setup_burst<E>(times: &mut Vec<f64>, speed: &mut Speed, build: impl Fn() -> E) -> E {
    let first = Instant::now();
    let mut env = None;
    let mut n = 0;
    while n < SETUP_MIN_REPEATS || (n < SETUP_MAX_REPEATS && first.elapsed() < SETUP_MIN_TIME) {
        // Drop the previous environment before timing the next build.
        drop(env.take());
        let (e, _, scaled) = speed.time(&build);
        env = Some(e);
        times.push(scaled as f64 / 1e9);
        n += 1;
    }
    env.expect("at least one set-up")
}

/// `INSERT INTO table VALUES (...), (...)` statements of at most `chunk`
/// rows each.
pub fn insert_statements(table: &str, rows: &[String], chunk: usize) -> Vec<String> {
    rows.chunks(chunk)
        .map(|c| format!("INSERT INTO {table} VALUES {}", c.join(", ")))
        .collect()
}

/// An integer result column (aggregates may come back as whole floats).
pub fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
        _ => None,
    }
}
