//! `ai`: one embedded session over `ctr`, a sliding window of
//! `AvazuGen` rows (22 categorical fields plus `click`) whose cluster
//! drifts every few cycles.
//!
//! Set-up trains the first model through
//! `PREDICT CLASS OF click FROM ctr ... TRAIN ON *` at the shipped
//! `train_sample_budget`. Each cycle runs `ingest` (INSERT the next rows,
//! DELETE the oldest as many), `finetune` (`Database::finetune`),
//! `predict_batch` (PREDICT over the rows just ingested) and
//! `predict_row` (PREDICT over one `VALUES` row, several per cycle).

use crate::layers::{self, Breakdown, Tracing};
use crate::speed::{Speed, Stopwatch};
use crate::{elapsed_ns, insert_statements, open_db, setup_for, Config, Fnv, Outcome, Pass};
use crate::{Rng, TempDir, LOAD_CHUNK};
use neurdb_core::analytics::encode_inference;
use neurdb_core::{value_to_field, Database, Output, SessionContext};
use neurdb_nn::ArmNetConfig;
use neurdb_storage::Value;
use neurdb_workloads::{AvazuGen, AvazuRow, AVAZU_CLUSTERS, AVAZU_FIELDS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

pub struct Sizes {
    /// Rows in the sliding window.
    pub window: usize,
    /// Rows ingested (and deleted) per cycle; `predict_batch` size.
    pub batch: usize,
    /// `predict_row` calls per cycle.
    pub rows_per_cycle: usize,
    /// Cycles per drift cluster.
    pub cycles_per_cluster: u64,
    /// Cycles per second of work budget.
    pub cycles_per_s: u64,
    pub warmup_cycles: u64,
}

pub const FULL: Sizes = Sizes {
    window: 3_000,
    batch: 100,
    rows_per_cycle: 40,
    cycles_per_cluster: 20,
    cycles_per_s: 10,
    warmup_cycles: 4,
};

pub const SMALL: Sizes = Sizes {
    window: 600,
    batch: 20,
    rows_per_cycle: 5,
    cycles_per_cluster: 3,
    cycles_per_s: 8,
    warmup_cycles: 1,
};

/// The embedded session, and the id finetune traces are filed under.
const SESSION: u64 = 1;
const FINETUNE_TRACES: u64 = 2;

/// The model the PREDICT path builds for `ctr` (its hyper-parameters
/// are fixed in `Database::predict`); used to time `Model::forward` on
/// the same encoded rows.
const MODEL: ArmNetConfig = ArmNetConfig {
    nfields: AVAZU_FIELDS,
    vocab: 2048,
    embed_dim: 8,
    hidden: 64,
    outputs: 1,
};

fn columns() -> String {
    (0..AVAZU_FIELDS)
        .map(|f| format!("f{f}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn tuple(id: u64, r: &AvazuRow) -> String {
    let fields: Vec<String> = r.fields.iter().map(|v| v.to_string()).collect();
    format!("({id}, {}, {})", fields.join(", "), r.click as u8)
}

struct Data {
    initial: Vec<AvazuRow>,
    /// Rows ingested by each cycle.
    ingest: Vec<Vec<AvazuRow>>,
    /// `predict_row` inputs of each cycle.
    probes: Vec<Vec<AvazuRow>>,
}

fn cluster(s: &Sizes, cycle: u64) -> usize {
    ((cycle / s.cycles_per_cluster) as usize) % AVAZU_CLUSTERS
}

fn generate(seed: u64, s: &Sizes, cycles: u64) -> Data {
    let gen = AvazuGen::new(Rng::new(seed, "ai.gen").next_u64());
    let mut rng = StdRng::seed_from_u64(Rng::new(seed, "ai.rows").next_u64());
    let initial = gen.batch(0, s.window, &mut rng);
    let ingest = (0..cycles)
        .map(|c| gen.batch(cluster(s, c), s.batch, &mut rng))
        .collect();
    let probes = (0..cycles)
        .map(|c| gen.batch(cluster(s, c), s.rows_per_cycle, &mut rng))
        .collect();
    Data {
        initial,
        ingest,
        probes,
    }
}

struct Env {
    db: Database,
    session: SessionContext,
    mid: u64,
    /// Heap pages of `ctr` right after the load (a dense heap).
    loaded_pages: usize,
    _dir: TempDir,
}

fn setup(d: &Data) -> Env {
    let dir = TempDir::new("ai");
    let db = open_db(&dir, 4096);
    let mut session = SessionContext::new();
    session.set_session_id(SESSION);
    let mut run = |sql: &str| {
        db.execute_in_session(&mut session, sql)
            .unwrap_or_else(|e| panic!("ai set-up `{}`: {e}", &sql[..sql.len().min(80)]))
    };
    let cols: Vec<String> = (0..AVAZU_FIELDS).map(|f| format!("f{f} INT")).collect();
    run(&format!(
        "CREATE TABLE ctr (id INT PRIMARY KEY, {}, click INT)",
        cols.join(", ")
    ));
    let rows: Vec<String> = d
        .initial
        .iter()
        .enumerate()
        .map(|(i, r)| tuple(i as u64, r))
        .collect();
    for sql in insert_statements("ctr", &rows, LOAD_CHUNK) {
        run(&sql);
    }
    let loaded_pages = db.table("ctr").expect("ctr").num_pages();
    // First training; the WHERE selects no rows, so the statement only
    // trains and binds the model.
    let mid = match run("PREDICT CLASS OF click FROM ctr WHERE id < 0 TRAIN ON *") {
        Output::Prediction(p) => p.mid,
        other => panic!("training PREDICT returned {other:?}"),
    };
    Env {
        db,
        session,
        mid,
        loaded_pages,
        _dir: dir,
    }
}

/// Check a PREDICT result against the rows asked about; returns the
/// number predicted correctly, or what was wrong.
fn check_predict(res: &Output, asked: &[AvazuRow]) -> Result<usize, String> {
    let rows = &res.rows().ok_or("PREDICT returned no rows")?.rows;
    if rows.len() != asked.len() {
        return Err(format!("{} rows for {} asked", rows.len(), asked.len()));
    }
    let mut want: HashMap<Vec<u64>, Vec<bool>> = HashMap::new();
    for r in asked {
        want.entry(r.fields.clone()).or_default().push(r.click);
    }
    let mut correct = 0;
    for t in rows {
        let v = &t.values;
        if v.len() != AVAZU_FIELDS + 2 {
            return Err(format!("row has {} columns", v.len()));
        }
        let fields: Option<Vec<u64>> = v[..AVAZU_FIELDS]
            .iter()
            .map(|x| match x {
                Value::Int(i) => u64::try_from(*i).ok(),
                _ => None,
            })
            .collect();
        let label = fields
            .and_then(|f| want.get_mut(&f).and_then(|l| l.pop()))
            .ok_or_else(|| format!("row {v:?} was not asked for"))?;
        let (Value::Bool(class), Value::Float(p)) = (&v[AVAZU_FIELDS], &v[AVAZU_FIELDS + 1]) else {
            return Err(format!("bad prediction columns {:?}", &v[AVAZU_FIELDS..]));
        };
        if !(0.0..=1.0).contains(p) || *class != (*p > 0.5) {
            return Err(format!("class {class} with probability {p}"));
        }
        correct += usize::from(*class == label);
    }
    Ok(correct)
}

fn features(rows: &[AvazuRow]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|r| {
            r.fields
                .iter()
                .map(|&v| value_to_field(&Value::Int(v as i64)))
                .collect()
        })
        .collect()
}

#[derive(Default)]
struct Tally {
    /// (ops, pages touched, misses, WAL records, WAL bytes)
    per_class: BTreeMap<&'static str, [u64; 5]>,
    finetune: Vec<neurdb_engine::TrainOutcome>,
    predicted: u64,
    correct: u64,
}

/// The state of one pass: the environment and everything measured.
struct Run {
    env: Env,
    speed: Speed,
    trace_on: bool,
    /// Whether the current cycle is past the warm-up.
    measured: bool,
    out: Outcome,
    bd: Breakdown,
    tally: Tally,
}

/// One timed operation: counters before, the clock, and the traces it
/// should leave behind.
struct Step {
    watch: Stopwatch,
    buffer: neurdb_storage::BufferStats,
    wal: neurdb_wal::WalStats,
    parse_ns: u64,
    /// (session id, statements) whose traces the operation files.
    traces: (u64, usize),
}

impl Run {
    fn begin(&mut self, stmts: &[String]) -> Step {
        let parse_ns = if self.trace_on {
            stmts.iter().map(|s| layers::time_parse(s)).sum()
        } else {
            0
        };
        Step {
            buffer: self.env.db.buffer_stats(),
            wal: self.env.db.wal_stats().unwrap_or_default(),
            parse_ns,
            traces: (SESSION, stmts.len()),
            watch: self.speed.start(),
        }
    }

    fn sql(&mut self, sql: &str) -> neurdb_core::CoreResult<Output> {
        self.env.db.execute_in_session(&mut self.env.session, sql)
    }

    /// Stop the clock, check, count, and (traced) fold the operation's
    /// traces.
    fn end(&mut self, step: Step, class: &'static str, problem: Option<String>) {
        let (ns, scaled) = self.speed.stop(step.watch);
        let db = &self.env.db;
        let (b1, w1) = (db.buffer_stats(), db.wal_stats().unwrap_or_default());
        self.out
            .check(class, problem.is_none(), || problem.unwrap_or_default());
        let wall = if self.trace_on {
            let (sid, n) = step.traces;
            self.bd.drain(class, db, sid, n, self.measured)
        } else {
            0
        };
        if self.measured {
            self.out.record(class, ns, scaled);
            self.out.window_ops += 1;
            let t = self.tally.per_class.entry(class).or_default();
            t[0] += 1;
            t[1] += (b1.hits + b1.misses) - (step.buffer.hits + step.buffer.misses);
            t[2] += b1.misses - step.buffer.misses;
            t[3] += w1.appended_records - step.wal.appended_records;
            t[4] += w1.appended_bytes - step.wal.appended_bytes;
            if self.trace_on {
                self.bd.op(class, ns, step.parse_ns, wall);
            }
        }
    }

    /// The benchmark's own spans around `materialize_latest` and
    /// `Model::forward` on the encoded rows of one PREDICT, timed in
    /// calls of their own right after the statement.
    fn own_predict_spans(&mut self, class: &'static str, rows: &[AvazuRow]) {
        let t = Instant::now();
        let mut model = self
            .env
            .db
            .ai
            .models
            .materialize_latest(self.env.mid)
            .expect("model");
        let mat = elapsed_ns(t);
        let x = encode_inference(&features(rows), &MODEL);
        let t = Instant::now();
        std::hint::black_box(model.forward(&x));
        let fwd = elapsed_ns(t);
        self.bd.own(class, "materialize", mat);
        self.bd.own(class, "forward", fwd);
    }
}

pub fn run(cfg: &Config, tracing: Tracing) -> Pass {
    let s = if cfg.small { &SMALL } else { &FULL };
    let cycles = s.warmup_cycles + (cfg.seconds * s.cycles_per_s).max(1);
    let d = generate(cfg.seed, s, cycles);
    let mut speed = Speed::new();
    let (mut env, setups) = setup_for(tracing, &mut speed, || setup(&d));
    env.session.set_trace_force(tracing.is_on());
    let mut r = Run {
        env,
        speed,
        trace_on: tracing.is_on(),
        measured: false,
        out: Outcome::default(),
        bd: Breakdown::default(),
        tally: Tally::default(),
    };
    let mut digest = Fnv::new();
    let bytes0 = r.env.db.ai.models.storage_report().stored_bytes;
    let cols = columns();
    let mut window = None;
    let mut finetunes = 0u64;
    for c in 0..cycles {
        if c == s.warmup_cycles {
            window = Some(Instant::now());
        }
        r.measured = c >= s.warmup_cycles;
        let first_new = (s.window as u64) + c * s.batch as u64;
        let oldest = c * s.batch as u64;

        // ingest: the next rows in, the oldest as many out.
        let rows: Vec<String> = d.ingest[c as usize]
            .iter()
            .enumerate()
            .map(|(i, row)| tuple(first_new + i as u64, row))
            .collect();
        let insert = insert_statements("ctr", &rows, s.batch).remove(0);
        let delete = format!("DELETE FROM ctr WHERE id < {}", oldest + s.batch as u64);
        let stmts = [insert, delete];
        stmts.iter().for_each(|sql| digest.str(sql));
        let step = r.begin(&stmts);
        let mut problem = None;
        for sql in &stmts {
            let res = r.sql(sql);
            if !matches!(res, Ok(Output::Affected(n)) if n == s.batch) {
                problem.get_or_insert(format!("`{}...`: {res:?}", &sql[..30.min(sql.len())]));
            }
        }
        r.end(step, "ingest", problem);

        // finetune, inside a trace the benchmark arms (it is no statement).
        digest.str("finetune");
        finetunes += 1;
        let mut step = r.begin(&[]);
        step.traces = (FINETUNE_TRACES, 1);
        let tracer = r.env.db.tracer();
        let armed = r
            .trace_on
            .then(|| tracer.maybe_start(true).expect("forced trace"));
        let res = {
            let _scope = armed.as_ref().map(|a| a.enter());
            r.env.db.finetune("ctr", "click")
        };
        if let Some(a) = armed {
            let id = format!("{FINETUNE_TRACES}-{finetunes}");
            tracer.finish(a, id, "finetune".into());
        }
        let problem = match &res {
            Ok(o) if o.samples > 0 => None,
            other => Some(format!("finetune: {other:?}")),
        };
        if let (Ok(o), true) = (&res, r.measured) {
            if r.trace_on {
                r.bd.own("finetune", "compute", (o.compute_seconds * 1e9) as u64);
                r.bd.own("finetune", "wait", (o.wait_seconds * 1e9) as u64);
            }
            r.tally.finetune.push(o.clone());
        }
        r.end(step, "finetune", problem);

        // predict_batch over the rows just ingested.
        let sql = format!("PREDICT CLASS OF click FROM ctr WHERE id >= {first_new} TRAIN ON *");
        digest.str(&sql);
        let step = r.begin(std::slice::from_ref(&sql));
        let asked = &d.ingest[c as usize];
        let checked = r
            .sql(&sql)
            .map_err(|e| e.to_string())
            .and_then(|o| check_predict(&o, asked));
        if let (Ok(n), true) = (&checked, r.measured) {
            r.tally.predicted += asked.len() as u64;
            r.tally.correct += *n as u64;
        }
        let problem = checked.err().map(|e| format!("`{sql}`: {e}"));
        r.end(step, "predict_batch", problem);
        if r.trace_on && r.measured {
            r.own_predict_spans("predict_batch", asked);
        }

        // predict_row, one VALUES row at a time.
        for probe in &d.probes[c as usize] {
            let vals: Vec<String> = probe.fields.iter().map(|v| v.to_string()).collect();
            let sql = format!(
                "PREDICT CLASS OF click FROM ctr TRAIN ON {cols} VALUES ({})",
                vals.join(", ")
            );
            digest.str(&sql);
            let step = r.begin(std::slice::from_ref(&sql));
            let problem = r
                .sql(&sql)
                .map_err(|e| e.to_string())
                .and_then(|o| check_predict(&o, std::slice::from_ref(probe)))
                .err()
                .map(|e| format!("`{}...`: {e}", &sql[..40]));
            r.end(step, "predict_row", problem);
            if r.trace_on && r.measured {
                r.own_predict_spans("predict_row", std::slice::from_ref(probe));
            }
        }
    }
    r.out.window_wall_s = window.map_or(0.0, |w| w.elapsed().as_secs_f64());
    let Run {
        env,
        mut speed,
        trace_on,
        mut out,
        bd,
        tally,
        ..
    } = r;
    out.digest = digest.0;

    // The model's version chain: the first training plus one version per
    // fine-tune.
    let versions = env.db.ai.models.versions(env.mid).map(|v| v.len());
    out.check("state", versions == Ok(finetunes as usize + 1), || {
        format!("model has {versions:?} versions after {finetunes} fine-tunes")
    });

    let accuracy = tally.correct as f64 / tally.predicted.max(1) as f64;
    out.exact
        .insert("engine.predict_accuracy".into(), format!("{accuracy:.4}"));
    let table = env.db.table("ctr").expect("ctr");
    let live = table.len().unwrap_or(0) as f64;
    let need = live * env.loaded_pages as f64 / s.window as f64;
    let amp = table.num_pages() as f64 / need.max(1e-9);
    out.exact
        .insert("storage.space_amp.ctr".into(), format!("{amp:.3}"));
    let l = &mut out.layers;
    l.insert("engine.predict_accuracy".into(), accuracy);
    l.insert("storage.space_amp.ctr".into(), amp);
    for (class, [n, touched, misses, records, bytes]) in &tally.per_class {
        let n = *n as f64;
        let pages = *touched as f64 / n;
        let records = *records as f64 / n;
        out.exact.insert(
            format!("buffer.pages_per_op.{class}"),
            format!("{pages:.3}"),
        );
        out.exact.insert(
            format!("wal.records_per_op.{class}"),
            format!("{records:.3}"),
        );
        l.insert(format!("buffer.pages_per_op.{class}"), pages);
        l.insert(format!("buffer.misses_per_op.{class}"), *misses as f64 / n);
        l.insert(format!("wal.records_per_op.{class}"), records);
        l.insert(format!("wal.bytes_per_op.{class}"), *bytes as f64 / n);
    }
    let ft = &tally.finetune;
    if !ft.is_empty() {
        let mean = |f: fn(&neurdb_engine::TrainOutcome) -> f64| {
            ft.iter().map(f).sum::<f64>() / ft.len() as f64
        };
        l.insert(
            "engine.finetune_compute_s".into(),
            mean(|o| o.compute_seconds),
        );
        l.insert("engine.finetune_wait_s".into(), mean(|o| o.wait_seconds));
        l.insert("engine.finetune_samples_s".into(), mean(|o| o.throughput()));
        let bytes1 = env.db.ai.models.storage_report().stored_bytes;
        l.insert(
            "engine.version_bytes".into(),
            bytes1.saturating_sub(bytes0) as f64 / finetunes as f64,
        );
    }
    if trace_on {
        l.insert(
            "engine.materialize_us".into(),
            bd.own_mean_us("materialize"),
        );
        l.insert(
            "nn.forward_us.row".into(),
            bd.own_per_op_us("predict_row", "forward"),
        );
        l.insert(
            "nn.forward_us.batch".into(),
            bd.own_per_op_us("predict_batch", "forward"),
        );
        // PREDICT opens no span of its own: its heap scan, encoding,
        // materialization and forward pass are the statement root's
        // uncovered time.
        l.insert(
            "core.predict_scan_us.predict_batch".into(),
            bd.root_per_op_us("predict_batch"),
        );
    }
    drop(env);
    let setup_s = setups.finish(&mut speed, || setup(&d));
    Pass { out, setup_s, bd }
}
