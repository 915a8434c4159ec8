//! `olap`: one embedded read-only session over a fact table about twice
//! the size of its buffer pool, run serially (`SET parallelism = 1`).
//!
//! Classes, in a fixed rotation whose predicate constants come from the
//! seed: `point_lookup` (one-row index lookup on a dimension table,
//! several per rotation), `scan_agg` (filtered GROUP BY over `sales`),
//! `join_agg` (`sales ⋈ cust`) and `multi_join` (`sales ⋈ cust ⋈ item`,
//! ordered by the DP optimizer). Every result is compared with a
//! reference the benchmark computes from its own generated rows.
//!
//! The traced run also repeats a few rotations at `SET parallelism = 2`
//! on a session of its own, so that the worker pool and the partitioned
//! joins have per-layer numbers; those operations feed no latency.

use crate::layers::{self, Breakdown, Tracing};
use crate::speed::Speed;
use crate::{insert_statements, open_db, setup_for, Config, Fnv, Outcome, Pass};
use crate::{Rng, TempDir, LOAD_CHUNK};
use neurdb_core::{Database, Output, SessionContext};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Sizes {
    pub sales: usize,
    pub cust: usize,
    pub item: usize,
    pub frames: usize,
    /// Rotations per second of work budget.
    pub rotations_per_s: u64,
    pub warmup_rotations: u64,
}

pub const FULL: Sizes = Sizes {
    sales: 80_000,
    cust: 5_000,
    item: 2_000,
    frames: 224,
    rotations_per_s: 14,
    warmup_rotations: 3,
};

pub const SMALL: Sizes = Sizes {
    sales: 4_000,
    cust: 500,
    item: 200,
    frames: 16,
    rotations_per_s: 10,
    warmup_rotations: 1,
};

/// Point lookups per rotation.
pub const LOOKUPS: usize = 12;
const STORES: i64 = 50;
const DAYS: i64 = 365;
const REGIONS: i64 = 10;
const SEGMENTS: i64 = 8;
const CATS: i64 = 20;
const BRANDS: i64 = 100;

/// Session id of the embedded session (trace ids are `<id>-<seq>`).
const SESSION: u64 = 1;
/// Session id of the traced run's parallel session.
const PAR_SESSION: u64 = 3;
/// Rotations the traced run repeats at `SET parallelism = 2`.
const PAR_ROTATIONS: usize = 5;

struct Data {
    /// (cid, iid, store, day, qty)
    sales: Vec<[i64; 5]>,
    /// (region, segment) by cid
    cust: Vec<[i64; 2]>,
    /// (cat, brand) by iid
    item: Vec<[i64; 2]>,
}

fn generate(seed: u64, s: &Sizes) -> Data {
    let mut r = Rng::new(seed, "olap.data");
    let cust = (0..s.cust)
        .map(|_| {
            [
                r.below(REGIONS as u64) as i64,
                r.below(SEGMENTS as u64) as i64,
            ]
        })
        .collect();
    let item = (0..s.item)
        .map(|_| [r.below(CATS as u64) as i64, r.below(BRANDS as u64) as i64])
        .collect();
    let sales = (0..s.sales)
        .map(|_| {
            [
                r.below(s.cust as u64) as i64,
                r.below(s.item as u64) as i64,
                r.below(STORES as u64) as i64,
                r.below(DAYS as u64) as i64,
                1 + r.below(20) as i64,
            ]
        })
        .collect();
    Data { sales, cust, item }
}

/// One operation and the rows it must return (sorted).
struct Op {
    class: &'static str,
    sql: String,
    expect: Vec<Vec<i64>>,
}

/// `(group key, COUNT(*), SUM(qty))` rows, sorted by key.
fn grouped(it: impl Iterator<Item = (i64, i64)>) -> Vec<Vec<i64>> {
    let mut g: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for (k, qty) in it {
        let e = g.entry(k).or_default();
        e.0 += 1;
        e.1 += qty;
    }
    g.into_iter().map(|(k, (n, s))| vec![k, n, s]).collect()
}

fn operations(seed: u64, s: &Sizes, d: &Data, rotations: u64) -> Vec<Op> {
    let mut r = Rng::new(seed, "olap.ops");
    let mut ops = Vec::new();
    for _ in 0..rotations {
        for _ in 0..LOOKUPS {
            let k = r.below(s.cust as u64) as i64;
            let [region, segment] = d.cust[k as usize];
            ops.push(Op {
                class: "point_lookup",
                sql: format!("SELECT cid, region, segment FROM cust WHERE cid = {k}"),
                expect: vec![vec![k, region, segment]],
            });
        }
        let lo = r.below((DAYS - 60) as u64) as i64;
        ops.push(Op {
            class: "scan_agg",
            sql: format!(
                "SELECT store, COUNT(*), SUM(qty) FROM sales \
                 WHERE day >= {lo} AND day < {} GROUP BY store",
                lo + 60
            ),
            expect: grouped(
                d.sales
                    .iter()
                    .filter(|x| x[3] >= lo && x[3] < lo + 60)
                    .map(|x| (x[2], x[4])),
            ),
        });
        let seg = r.below(SEGMENTS as u64) as i64;
        ops.push(Op {
            class: "join_agg",
            sql: format!(
                "SELECT c.region, COUNT(*), SUM(s.qty) FROM sales s, cust c \
                 WHERE s.cid = c.cid AND c.segment = {seg} GROUP BY c.region"
            ),
            expect: grouped(d.sales.iter().filter_map(|x| {
                let [region, segment] = d.cust[x[0] as usize];
                (segment == seg).then_some((region, x[4]))
            })),
        });
        let region = r.below(REGIONS as u64) as i64;
        let brand = 20 + r.below(60) as i64;
        ops.push(Op {
            class: "multi_join",
            sql: format!(
                "SELECT i.cat, COUNT(*), SUM(s.qty) FROM sales s, cust c, item i \
                 WHERE s.cid = c.cid AND s.iid = i.iid AND c.region = {region} \
                 AND i.brand < {brand} GROUP BY i.cat"
            ),
            expect: grouped(d.sales.iter().filter_map(|x| {
                let [cat, b] = d.item[x[1] as usize];
                (d.cust[x[0] as usize][0] == region && b < brand).then_some((cat, x[4]))
            })),
        });
    }
    ops
}

fn rows_of(out: &Output) -> Option<Vec<Vec<i64>>> {
    let mut rows: Vec<Vec<i64>> = out
        .rows()?
        .rows
        .iter()
        .map(|t| t.values.iter().map(crate::int).collect::<Option<Vec<_>>>())
        .collect::<Option<_>>()?;
    rows.sort();
    Some(rows)
}

struct Env {
    _dir: TempDir,
    db: Database,
    session: SessionContext,
}

fn setup(d: &Data, s: &Sizes) -> Env {
    let dir = TempDir::new("olap");
    let db = open_db(&dir, s.frames);
    let mut session = SessionContext::new();
    session.set_session_id(SESSION);
    let mut run = |sql: &str| {
        db.execute_in_session(&mut session, sql)
            .unwrap_or_else(|e| panic!("olap set-up `{sql}`: {e}"))
    };
    run("CREATE TABLE cust (cid INT PRIMARY KEY, region INT, segment INT)");
    run("CREATE TABLE item (iid INT PRIMARY KEY, cat INT, brand INT)");
    run("CREATE TABLE sales (sid INT PRIMARY KEY, cid INT, iid INT, store INT, day INT, qty INT)");
    let rows: Vec<String> = d
        .cust
        .iter()
        .enumerate()
        .map(|(i, c)| format!("({i}, {}, {})", c[0], c[1]))
        .collect();
    for sql in insert_statements("cust", &rows, LOAD_CHUNK) {
        run(&sql);
    }
    let rows: Vec<String> = d
        .item
        .iter()
        .enumerate()
        .map(|(i, c)| format!("({i}, {}, {})", c[0], c[1]))
        .collect();
    for sql in insert_statements("item", &rows, LOAD_CHUNK) {
        run(&sql);
    }
    let rows: Vec<String> = d
        .sales
        .iter()
        .enumerate()
        .map(|(i, x)| format!("({i}, {}, {}, {}, {}, {})", x[0], x[1], x[2], x[3], x[4]))
        .collect();
    for sql in insert_statements("sales", &rows, LOAD_CHUNK) {
        run(&sql);
    }
    run("CREATE INDEX ON cust (cid)");
    // Serial on purpose: on a 2-vCPU virtual machine a dop-2 query waits
    // for the slower of both vCPUs, so hypervisor steal made identical
    // runs differ by up to 2x; serial runs differ by a few percent.
    run("SET parallelism = 1");
    // Statistics warm-up: plan every class once so lazily built table
    // statistics exist before the first measured statement.
    run("SELECT COUNT(*) FROM sales");
    run("SELECT COUNT(*) FROM cust c, item i WHERE c.cid = i.iid");
    Env {
        _dir: dir,
        db,
        session,
    }
}

pub fn run(cfg: &Config, tracing: Tracing) -> Pass {
    let s = if cfg.small { &SMALL } else { &FULL };
    let d = generate(cfg.seed, s);
    let rotations = s.warmup_rotations + (cfg.seconds * s.rotations_per_s).max(1);
    let ops = operations(cfg.seed, s, &d, rotations);
    let warmup_ops = s.warmup_rotations as usize * (LOOKUPS + 3);
    let trace_on = tracing.is_on();
    let mut speed = Speed::new();
    let (mut env, setups) = setup_for(tracing, &mut speed, || setup(&d, s));
    let mut out = Outcome::default();
    let mut bd = Breakdown::default();
    let mut digest = Fnv::new();
    // (ops, pages touched, misses)
    let mut per_class = BTreeMap::<&str, [u64; 3]>::new();
    env.session.set_trace_force(trace_on);
    let mut window = None;
    for (i, op) in ops.iter().enumerate() {
        if i == warmup_ops {
            window = Some(Instant::now());
        }
        digest.str(&op.sql);
        let parse_ns = if trace_on {
            layers::time_parse(&op.sql)
        } else {
            0
        };
        let b0 = env.db.buffer_stats();
        let (res, ns, scaled) = speed.time(|| env.db.execute_in_session(&mut env.session, &op.sql));
        let b1 = env.db.buffer_stats();
        let got = res.as_ref().ok().and_then(rows_of);
        let ok = got.as_ref() == Some(&op.expect);
        out.check(op.class, ok, || match &res {
            Err(e) => format!("`{}` failed: {e}", op.sql),
            Ok(_) => format!("`{}` returned {:?}, expected {:?}", op.sql, got, op.expect),
        });
        let wall = if trace_on {
            bd.drain(op.class, &env.db, SESSION, 1, i >= warmup_ops)
        } else {
            0
        };
        if i < warmup_ops {
            continue;
        }
        out.record(op.class, ns, scaled);
        out.window_ops += 1;
        let c = per_class.entry(op.class).or_default();
        c[0] += 1;
        c[1] += (b1.hits + b1.misses) - (b0.hits + b0.misses);
        c[2] += b1.misses - b0.misses;
        if trace_on {
            bd.op(op.class, ns, parse_ns, wall);
        }
    }
    out.window_wall_s = window.map_or(0.0, |w| w.elapsed().as_secs_f64());
    out.digest = digest.0;
    if trace_on {
        bd.lost += parallel_pass(&env.db, &ops[warmup_ops..], &mut out);
    }
    for (class, [n, touched, misses]) in per_class {
        let n = n as f64;
        let pages = touched as f64 / n;
        out.exact.insert(
            format!("buffer.pages_per_op.{class}"),
            format!("{pages:.3}"),
        );
        let l = &mut out.layers;
        l.insert(format!("buffer.pages_per_op.{class}"), pages);
        l.insert(format!("buffer.misses_per_op.{class}"), misses as f64 / n);
    }
    drop(env);
    let setup_s = setups.finish(&mut speed, || setup(&d, s));
    Pass { out, setup_s, bd }
}

/// Traced run only: repeat the `scan_agg`, `join_agg` and `multi_join`
/// of the first `PAR_ROTATIONS` measured rotations on a traced session
/// at `SET parallelism = 2`, check their results like the serial ones,
/// and report per operation the worker pool's busy and wait time
/// (`exec.worker.*_ns` deltas) and the join operators' self time over
/// every thread. Returns the number of traces lost.
fn parallel_pass(db: &Database, ops: &[Op], out: &mut Outcome) -> u64 {
    let mut session = SessionContext::new();
    session.set_session_id(PAR_SESSION);
    db.execute_in_session(&mut session, "SET parallelism = 2")
        .expect("SET parallelism");
    session.set_trace_force(true);
    let busy = db.metrics().counter("exec.worker.busy_ns");
    let wait = db.metrics().counter("exec.worker.wait_ns");
    let mut bd = Breakdown::default();
    // (worker busy ns, worker wait ns)
    let mut per_class = BTreeMap::<&str, [u64; 2]>::new();
    let heavy = ops.iter().filter(|op| op.class != "point_lookup");
    for op in heavy.take(3 * PAR_ROTATIONS) {
        let (busy0, wait0) = (busy.get(), wait.get());
        let res = db.execute_in_session(&mut session, &op.sql);
        let got = res.as_ref().ok().and_then(rows_of);
        out.check(op.class, got.as_ref() == Some(&op.expect), || {
            format!("`{}` at parallelism 2 returned {got:?}", op.sql)
        });
        bd.drain(op.class, db, PAR_SESSION, 1, true);
        let c = per_class.entry(op.class).or_default();
        c[0] += busy.get() - busy0;
        c[1] += wait.get() - wait0;
    }
    let n = PAR_ROTATIONS as f64;
    for (class, [busy_ns, wait_ns]) in per_class {
        let l = &mut out.layers;
        l.insert(
            format!("exec.worker_busy_ms.{class}"),
            busy_ns as f64 / n / 1e6,
        );
        l.insert(
            format!("exec.worker_wait_ms.{class}"),
            wait_ns as f64 / n / 1e6,
        );
        l.insert(
            format!("exec.join_us.{class}"),
            bd.self_us(class, &layers::JOIN_SPANS) / n,
        );
    }
    bd.lost
}
