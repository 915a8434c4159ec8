//! `oltp`: two wire clients (`neurdb_server::client::Client`) against
//! `Server::start`, closed loop, uniform keys over `acct`.
//!
//! Each client's mix by count: 60% `point_read`, 20% autocommit
//! `point_update`, 10% autocommit `insert` into the append-only `hist`,
//! 10% `transfer` (`BEGIN`, two `UPDATE`s, `COMMIT`; an abort counts as
//! failed and is not retried).

use crate::layers::{self, Breakdown, Tracing};
use crate::speed::Speed;
use crate::{elapsed_ns, insert_statements, open_db, setup_for, Config, Fnv, Outcome, Pass};
use crate::{Rng, TempDir, LOAD_CHUNK};
use neurdb_core::Database;
use neurdb_server::client::{Client, ClientError};
use neurdb_server::{Response, Server, ServerConfig, ServerHandle};
use neurdb_storage::Value;
use std::sync::{Arc, Barrier};
use std::time::Instant;

pub struct Sizes {
    pub accounts: u64,
    /// Operations per client per second of work budget.
    pub ops_per_s: u64,
    pub warmup_ops: u64,
}

pub const FULL: Sizes = Sizes {
    accounts: 20_000,
    ops_per_s: 250,
    warmup_ops: 400,
};

pub const SMALL: Sizes = Sizes {
    accounts: 500,
    ops_per_s: 100,
    warmup_ops: 20,
};

pub const CLIENTS: usize = 2;
const FRAMES: usize = 4096;
const INITIAL_BAL: i64 = 1000;
const GROUPS: u64 = 16;

/// Statement kinds whose wire time is reported, with the class named in
/// the metric (`server.wire_us.<class>`) and the server's per-kind
/// statement-time histogram.
const WIRE_KINDS: [&str; 2] = ["SELECT", "UPDATE"];
const WIRE_METRICS: [(&str, &str); 2] = [
    ("server.wire_us.point_read", "srv.stmt_ns.select"),
    ("server.wire_us.point_update", "srv.stmt_ns.update"),
];

#[derive(Debug, Clone)]
enum Op {
    Read(u64),
    Update(u64),
    Insert { hid: u64, aid: u64, amt: u64 },
    Transfer { from: u64, to: u64, amt: u64 },
}

impl Op {
    fn class(&self) -> &'static str {
        match self {
            Op::Read(_) => "point_read",
            Op::Update(_) => "point_update",
            Op::Insert { .. } => "insert",
            Op::Transfer { .. } => "transfer",
        }
    }

    fn statements(&self) -> Vec<String> {
        match *self {
            Op::Read(k) => vec![format!("SELECT id, grp, bal FROM acct WHERE id = {k}")],
            Op::Update(k) => vec![format!("UPDATE acct SET bal = bal + 1 WHERE id = {k}")],
            Op::Insert { hid, aid, amt } => {
                vec![format!("INSERT INTO hist VALUES ({hid}, {aid}, {amt})")]
            }
            Op::Transfer { from, to, amt } => vec![
                "BEGIN".to_string(),
                format!("UPDATE acct SET bal = bal - {amt} WHERE id = {from}"),
                format!("UPDATE acct SET bal = bal + {amt} WHERE id = {to}"),
                "COMMIT".to_string(),
            ],
        }
    }
}

/// Client `c`'s operation sequence: a pure function of the seed. Each
/// client owns the accounts `k` with `k % CLIENTS == c` and draws them
/// uniformly, so the clients never write the same row and no
/// transaction has a real conflict to abort on.
fn operations(seed: u64, s: &Sizes, c: usize, n: u64) -> Vec<Op> {
    let mut r = Rng::new(seed, &format!("oltp.client{c}"));
    let owned = s.accounts / CLIENTS as u64;
    let account = |i: u64| i * CLIENTS as u64 + c as u64;
    (0..n)
        .map(|i| {
            let k = account(r.below(owned));
            match r.below(100) {
                0..=59 => Op::Read(k),
                60..=79 => Op::Update(k),
                80..=89 => Op::Insert {
                    hid: c as u64 * 1_000_000_000 + i,
                    aid: k,
                    amt: 1 + r.below(100),
                },
                _ => {
                    let to = account((k / CLIENTS as u64 + 1 + r.below(owned - 1)) % owned);
                    Op::Transfer {
                        from: k,
                        to,
                        amt: 1 + r.below(10),
                    }
                }
            }
        })
        .collect()
}

struct Env {
    server: ServerHandle,
    db: Arc<Database>,
    /// Heap pages of `acct` right after the load (a dense heap).
    loaded_pages: usize,
    _dir: TempDir,
}

fn setup(s: &Sizes) -> Env {
    let dir = TempDir::new("oltp");
    let db = Arc::new(open_db(&dir, FRAMES));
    let run = |sql: &str| {
        db.execute(sql)
            .unwrap_or_else(|e| panic!("oltp set-up `{sql}`: {e}"))
    };
    run("CREATE TABLE acct (id INT PRIMARY KEY, grp INT, bal INT)");
    run("CREATE TABLE hist (hid INT PRIMARY KEY, aid INT, amt INT)");
    let rows: Vec<String> = (0..s.accounts)
        .map(|k| format!("({k}, {}, {INITIAL_BAL})", k % GROUPS))
        .collect();
    for sql in insert_statements("acct", &rows, LOAD_CHUNK) {
        run(&sql);
    }
    run("CREATE INDEX ON acct (id)");
    // Statistics warm-up for the planner.
    run("SELECT id, grp, bal FROM acct WHERE id = 0");
    let loaded_pages = db.table("acct").expect("acct").num_pages();
    let server =
        Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default()).expect("start server");
    Env {
        server,
        db,
        loaded_pages,
        _dir: dir,
    }
}

/// What one client observed.
#[derive(Default)]
struct ClientResult {
    out: Outcome,
    bd: Breakdown,
    acked_updates: i64,
    acked_inserts: i64,
    probes: Vec<u64>,
    /// Client round trips of SELECT and UPDATE statements: (ns, count).
    rtt: [(u64, u64); 2],
}

fn expect_affected(r: &Result<Response, ClientError>, n: u64) -> Result<(), String> {
    match r {
        Ok(Response::Affected(m)) if *m == n => Ok(()),
        Ok(other) => Err(format!("expected {n} affected, got {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

fn check_read(r: &Result<Response, ClientError>, k: u64) -> Result<(), String> {
    let want = [Value::Int(k as i64), Value::Int((k % GROUPS) as i64)];
    match r {
        Ok(Response::Rows(rs)) if rs.rows.len() == 1 && rs.rows[0].len() == 3 => {
            if rs.rows[0][..2] == want && matches!(rs.rows[0][2], Value::Int(_)) {
                Ok(())
            } else {
                Err(format!("row {:?} for id {k}", rs.rows[0]))
            }
        }
        Ok(other) => Err(format!("expected one row for id {k}, got {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

fn client(
    ops: &[Op],
    warmup: usize,
    env: &Env,
    tracing: Tracing,
    barrier: &Barrier,
    window: &std::sync::Mutex<Option<Instant>>,
) -> ClientResult {
    let mut res = ClientResult::default();
    let mut cl = Client::connect(env.server.local_addr()).expect("connect");
    let sid = cl.session_id();
    let trace_on = tracing.is_on();
    if trace_on {
        cl.execute("SET trace = on").expect("SET trace = on");
    }
    let acct = env.db.table("acct").expect("acct");
    // Each client calibrates on its own thread, between its operations.
    let mut speed = Speed::new();
    for (i, op) in ops.iter().enumerate() {
        if i == warmup {
            barrier.wait();
            window
                .lock()
                .expect("window lock")
                .get_or_insert_with(Instant::now);
        }
        let class = op.class();
        let stmts = op.statements();
        let mut parse_ns = 0;
        let watch = speed.start();
        let mut result: Result<(), String> = Ok(());
        for sql in &stmts {
            if trace_on {
                parse_ns += layers::time_parse(sql);
            }
            let t = Instant::now();
            let r = cl.execute(sql);
            let rtt = elapsed_ns(t);
            if let Some(kind) = WIRE_KINDS.iter().position(|k| sql.starts_with(k)) {
                res.rtt[kind].0 += rtt;
                res.rtt[kind].1 += 1;
            }
            let checked = match op {
                Op::Read(k) => check_read(&r, *k),
                Op::Transfer { .. } if sql == "BEGIN" || sql == "COMMIT" => {
                    r.as_ref().map(|_| ()).map_err(|e| e.to_string())
                }
                _ => expect_affected(&r, 1),
            };
            if let Err(e) = checked {
                result = Err(format!("`{sql}`: {e}"));
                if matches!(op, Op::Transfer { .. }) && sql != "COMMIT" {
                    // End the failed transaction; the session refuses
                    // statements until ROLLBACK.
                    let _ = cl.execute("ROLLBACK");
                }
                break;
            }
        }
        let (ns, scaled) = speed.stop(watch);
        let ok = result.is_ok();
        res.out.check(class, ok, || result.unwrap_err());
        if ok {
            match op {
                Op::Update(_) => res.acked_updates += 1,
                Op::Insert { .. } => res.acked_inserts += 1,
                _ => {}
            }
        }
        if trace_on {
            let wall = res.bd.drain(class, &env.db, sid, stmts.len(), i >= warmup);
            if i >= warmup {
                res.bd.op(class, ns, parse_ns, wall);
                if let Op::Read(k) = op {
                    let key = Value::Int(*k as i64);
                    let t = Instant::now();
                    let mut scan = acct.index_scan(0, Some(&key), Some(&key)).expect("index");
                    let rows = acct.index_scan_next(&mut scan, 8).expect("index probe");
                    res.probes.push(elapsed_ns(t));
                    std::hint::black_box(rows);
                }
            }
        }
        if i >= warmup {
            res.out.record(class, ns, scaled);
            res.out.window_ops += 1;
        }
    }
    let _ = cl.close();
    res
}

pub fn run(cfg: &Config, tracing: Tracing) -> Pass {
    let s = if cfg.small { &SMALL } else { &FULL };
    let n = s.warmup_ops + (cfg.seconds * s.ops_per_s).max(1);
    let plans: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| operations(cfg.seed, s, c, n))
        .collect();
    let mut digest = Fnv::new();
    for op in plans.iter().flatten() {
        for sql in op.statements() {
            digest.str(&sql);
        }
    }
    let mut speed = Speed::new();
    let (env, setups) = setup_for(tracing, &mut speed, || setup(s));
    let wal0 = env.db.wal_stats().unwrap_or_default();
    let m = env.db.metrics();
    let counters = ["txn.commits", "txn.aborts", "cc.decisions"];
    let c0: Vec<u64> = counters.iter().map(|c| m.counter(c).get()).collect();
    let h0: Vec<_> = WIRE_METRICS
        .iter()
        .map(|(_, h)| m.histogram(h).snapshot())
        .collect();
    let barrier = Barrier::new(CLIENTS);
    let window = std::sync::Mutex::new(None);
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|ops| {
                let (env, barrier, window) = (&env, &barrier, &window);
                scope.spawn(move || {
                    client(ops, s.warmup_ops as usize, env, tracing, barrier, window)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oltp client panicked"))
            .collect()
    });
    let window_wall_s = window
        .lock()
        .expect("window lock")
        .map_or(0.0, |w| w.elapsed().as_secs_f64());
    let mut out = Outcome {
        window_wall_s,
        digest: digest.0,
        ..Outcome::default()
    };
    let mut bd = Breakdown::default();
    let (mut updates, mut inserts) = (0, 0);
    let mut probes = Vec::new();
    let mut rtt = [(0, 0); 2];
    for r in results {
        out.merge(r.out);
        bd.merge(r.bd);
        updates += r.acked_updates;
        inserts += r.acked_inserts;
        probes.extend(r.probes);
        for (sum, one) in rtt.iter_mut().zip(r.rtt) {
            sum.0 += one.0;
            sum.1 += one.1;
        }
    }

    // End-of-run state checks: transfers conserve money, so the total
    // moved only by the acknowledged point updates; `hist` holds exactly
    // the acknowledged inserts.
    let scalar = |sql: &str| {
        env.db
            .execute(sql)
            .ok()
            .and_then(|o| {
                o.rows()
                    .and_then(|r| r.rows.first().map(|t| t.values[0].clone()))
            })
            .and_then(|v| crate::int(&v))
    };
    let want_sum = s.accounts as i64 * INITIAL_BAL + updates;
    let sum = scalar("SELECT SUM(bal) FROM acct");
    out.check("state", sum == Some(want_sum), || {
        format!("SUM(bal) = {sum:?}, expected {want_sum}")
    });
    let count = scalar("SELECT COUNT(*) FROM hist");
    out.check("state", count == Some(inserts), || {
        format!("COUNT(*) of hist = {count:?}, expected {inserts}")
    });

    let wal1 = env.db.wal_stats().unwrap_or_default();
    let c1: Vec<u64> = counters.iter().map(|c| m.counter(c).get()).collect();
    let acked_writes = updates + inserts + (c1[0] - c0[0]) as i64;
    let records =
        (wal1.appended_records - wal0.appended_records) as f64 / acked_writes.max(1) as f64;
    out.exact
        .insert("wal.records_per_write".into(), format!("{records:.3}"));
    let acct = env.db.table("acct").expect("acct");
    let amp = acct.num_pages() as f64 / env.loaded_pages.max(1) as f64;
    out.exact
        .insert("storage.space_amp.acct".into(), format!("{amp:.3}"));
    let l = &mut out.layers;
    l.insert("storage.space_amp.acct".into(), amp);
    let txns = ((c1[0] - c0[0]) + (c1[1] - c0[1])).max(1) as f64;
    l.insert("txn.abort_ratio".into(), (c1[1] - c0[1]) as f64 / txns);
    l.insert("cc.decisions_per_txn".into(), (c1[2] - c0[2]) as f64 / txns);
    l.insert(
        "wal.fsyncs_per_commit".into(),
        (wal1.fsyncs - wal0.fsyncs) as f64 / acked_writes.max(1) as f64,
    );
    // Wire time: the client round trip minus the server's statement
    // time of the same statements (`srv.stmt_ns.<kind>`).
    for (((name, h), before), (rtt_ns, n)) in WIRE_METRICS.iter().zip(&h0).zip(rtt) {
        let server = m.histogram(h).snapshot().delta(before);
        if n > 0 && server.count > 0 {
            let wire = rtt_ns as f64 / n as f64 - server.sum as f64 / server.count as f64;
            l.insert(name.to_string(), wire / 1e3);
        }
    }
    if !probes.is_empty() {
        let mean = probes.iter().sum::<u64>() as f64 / probes.len() as f64;
        l.insert("storage.index_probe_us".into(), mean / 1e3);
    }
    drop(env);
    let setup_s = setups.finish(&mut speed, || setup(s));
    Pass { out, setup_s, bd }
}
