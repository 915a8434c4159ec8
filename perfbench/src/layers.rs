//! The traced pass: drain the database's trace ring after every
//! operation, fold span times into per-class, per-layer sums, and turn
//! them into the `per_layer` metrics.
//!
//! Two folds per class:
//! * `main`: exclusive time on the statement thread (track 0). At each
//!   instant the deepest open span owns the time, children are clipped
//!   to their parent, so the parts of one statement add up to its wall
//!   time exactly. Work on worker tracks shows up as the waiting
//!   parent's time. The root's share is what no layer claims.
//! * `self_all`: span self time summed over every track (worker busy
//!   time, join operators, buffer reads on scan workers).

use crate::{quantile_ms, Outcome};
use neurdb_core::Database;
use neurdb_obs::trace::{FinishedTrace, Span};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    Off,
    On,
}

impl Tracing {
    pub fn is_on(self) -> bool {
        self == Tracing::On
    }
}

/// Span names owned by the executor.
const EXEC_SPANS: [&str; 6] = [
    "execute",
    "worker",
    "partition_join",
    "partition_build",
    "build",
    "probe",
];
/// Span names of the join operators (they run only in parallel plans).
pub const JOIN_SPANS: [&str; 4] = ["partition_join", "partition_build", "build", "probe"];

/// Time one parse of `sql` (the benchmark's own span around
/// `neurdb_sql::parse`; statements are parsed before their trace starts).
pub fn time_parse(sql: &str) -> u64 {
    let start = Instant::now();
    let parsed = neurdb_sql::parse(std::hint::black_box(sql));
    let ns = start.elapsed().as_nanos() as u64;
    std::hint::black_box(parsed.is_ok());
    ns
}

#[derive(Debug, Default, Clone)]
struct ClassAcc {
    ops: u64,
    latency_ns: u64,
    traced: Vec<u64>,
    parse_ns: u64,
    /// Latency outside the traced statements and the parse: wire
    /// round trip and tracer bookkeeping.
    outside_ns: u64,
    root_ns: u64,
    main: BTreeMap<&'static str, u64>,
    self_all: BTreeMap<&'static str, u64>,
    total: BTreeMap<&'static str, u64>,
    count: BTreeMap<&'static str, u64>,
    wal_bytes: u64,
    rides: u64,
    /// The benchmark's own spans around public calls.
    own: BTreeMap<&'static str, u64>,
    own_n: BTreeMap<&'static str, u64>,
}

/// Per-class span folds of one traced pass.
#[derive(Debug, Default)]
pub struct Breakdown {
    classes: BTreeMap<&'static str, ClassAcc>,
    seen: HashSet<String>,
    pub lost: u64,
}

impl Breakdown {
    /// Take the `expected` newest traces of session `sid` not seen yet,
    /// fold them into `class` (warm-up operations pass `fold = false`),
    /// and return their summed wall time. The ring holds 64 traces and
    /// is drained after every operation, so a missing trace is counted
    /// as lost, not silently skipped.
    pub fn drain(
        &mut self,
        class: &'static str,
        db: &Database,
        sid: u64,
        expected: usize,
        fold: bool,
    ) -> u64 {
        let prefix = format!("{sid}-");
        let fresh: Vec<Arc<FinishedTrace>> = db
            .tracer()
            .recent()
            .into_iter()
            .filter(|t| t.id.starts_with(&prefix) && !self.seen.contains(&t.id))
            .collect();
        self.lost += expected.saturating_sub(fresh.len()) as u64;
        let mut wall = 0;
        for t in fresh {
            wall += t.wall_ns;
            if fold {
                self.fold(class, &t.root);
            }
            self.seen.insert(t.id.clone());
        }
        wall
    }

    /// Fold one finished span tree into `class`.
    pub fn fold(&mut self, class: &'static str, root: &Span) {
        let acc = self.classes.entry(class).or_default();
        acc.root_ns += exclusive(root, 0, root.start_ns + root.dur_ns, &mut acc.main);
        let mut first = true;
        root.walk(&mut |s: &Span, _| {
            if std::mem::take(&mut first) {
                return;
            }
            *acc.self_all.entry(s.name).or_default() += s.self_ns();
            *acc.total.entry(s.name).or_default() += s.dur_ns;
            *acc.count.entry(s.name).or_default() += 1;
            for (k, v) in &s.attrs {
                match (s.name, *k) {
                    ("wal.append", "bytes") => acc.wal_bytes += v.parse::<u64>().unwrap_or(0),
                    ("wal.commit_wait", "ride") if v == "true" => acc.rides += 1,
                    _ => {}
                }
            }
        });
    }

    /// Close one operation: its latency as the client saw it, the
    /// benchmark's own parse timing, and the summed wall time of its
    /// traced statements.
    pub fn op(&mut self, class: &'static str, latency_ns: u64, parse_ns: u64, wall_ns: u64) {
        let acc = self.classes.entry(class).or_default();
        acc.ops += 1;
        acc.latency_ns += latency_ns;
        acc.traced.push(latency_ns);
        acc.parse_ns += parse_ns;
        acc.outside_ns += latency_ns.saturating_sub(parse_ns + wall_ns);
    }

    /// Record one of the benchmark's own spans around a public call.
    pub fn own(&mut self, class: &'static str, name: &'static str, ns: u64) {
        let acc = self.classes.entry(class).or_default();
        *acc.own.entry(name).or_default() += ns;
        *acc.own_n.entry(name).or_default() += 1;
    }

    pub fn merge(&mut self, other: Breakdown) {
        self.lost += other.lost;
        for (class, o) in other.classes {
            let a = self.classes.entry(class).or_default();
            a.ops += o.ops;
            a.latency_ns += o.latency_ns;
            a.traced.extend(o.traced);
            a.parse_ns += o.parse_ns;
            a.outside_ns += o.outside_ns;
            a.root_ns += o.root_ns;
            for (dst, src) in [
                (&mut a.main, o.main),
                (&mut a.self_all, o.self_all),
                (&mut a.total, o.total),
                (&mut a.count, o.count),
                (&mut a.own, o.own),
                (&mut a.own_n, o.own_n),
            ] {
                for (k, v) in src {
                    *dst.entry(k).or_default() += v;
                }
            }
            a.wal_bytes += o.wal_bytes;
            a.rides += o.rides;
        }
    }

    /// Mean of the benchmark's own span `name` over its calls, in µs.
    pub fn own_mean_us(&self, name: &str) -> f64 {
        let (mut ns, mut n) = (0, 0);
        for acc in self.classes.values() {
            ns += acc.own.get(name).copied().unwrap_or(0);
            n += acc.own_n.get(name).copied().unwrap_or(0);
        }
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    }

    /// Self time of the spans `names` over every thread in `class`, µs.
    pub fn self_us(&self, class: &str, names: &[&str]) -> f64 {
        self.classes.get(class).map_or(0.0, |a| {
            let ns: u64 = names
                .iter()
                .map(|k| a.self_all.get(k).copied().unwrap_or(0))
                .sum();
            ns as f64 / 1e3
        })
    }

    /// Per-op time of `class`'s statement roots that no span covers, µs.
    pub fn root_per_op_us(&self, class: &str) -> f64 {
        self.classes
            .get(class)
            .map_or(0.0, |a| a.root_ns as f64 / a.ops.max(1) as f64 / 1e3)
    }

    /// Per-op mean of the benchmark's own span `name` in `class`, µs.
    pub fn own_per_op_us(&self, class: &str, name: &str) -> f64 {
        self.classes.get(class).map_or(0.0, |a| {
            a.own.get(name).copied().unwrap_or(0) as f64 / a.ops.max(1) as f64 / 1e3
        })
    }

    /// Write every metric the folds support into `out.layers`, checking
    /// the attribution of each class against its traced latency.
    /// `untraced` holds the latencies of the untraced pass (same seed).
    pub fn finish(&self, untraced: &Outcome, out: &mut Outcome) {
        let l = &mut out.layers;
        let mut span_totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        let (mut rides, mut waits) = (0u64, 0u64);
        for (&class, a) in &self.classes {
            let n = a.ops.max(1) as f64;
            let per_op_us = |ns: u64| ns as f64 / n / 1e3;
            let main = |names: &[&str]| -> u64 {
                names
                    .iter()
                    .map(|k| a.main.get(k).copied().unwrap_or(0))
                    .sum()
            };
            l.insert(format!("sql.parse_us.{class}"), per_op_us(a.parse_ns));
            l.insert(
                format!("planner.plan_us.{class}"),
                per_op_us(main(&["plan"])),
            );
            l.insert(
                format!("exec.execute_us.{class}"),
                per_op_us(main(&EXEC_SPANS)),
            );
            l.insert(
                format!("core.apply_us.{class}"),
                per_op_us(main(&["txn.apply"])),
            );
            l.insert(
                format!("txn.commit_lock_wait_us.{class}"),
                per_op_us(main(&["txn.commit_lock_wait"])),
            );
            l.insert(
                format!("txn.wait_durable_us.{class}"),
                per_op_us(a.total.get("txn.wait_durable").copied().unwrap_or(0)),
            );
            let appends = a.count.get("wal.append").copied().unwrap_or(0);
            l.insert(format!("wal.records_per_op.{class}"), appends as f64 / n);
            l.insert(format!("wal.bytes_per_op.{class}"), a.wal_bytes as f64 / n);
            l.entry(format!("buffer.misses_per_op.{class}"))
                .or_insert(a.count.get("buffer.read").copied().unwrap_or(0) as f64 / n);
            out.exact.insert(
                format!("wal.records_per_op.{class}"),
                format!("{:.3}", appends as f64 / n),
            );

            // Attribution check. Parse (timed by the benchmark), the
            // time outside the traced statement (wire and tracer
            // bookkeeping), every named span and the benchmark's own
            // spans around public calls are attributed; the statement
            // root's time that no span covers is not.
            let own = a.own.values().sum::<u64>().min(a.root_ns);
            let gap = a.root_ns - own;
            let share = gap as f64 / a.latency_ns.max(1) as f64;
            l.insert(format!("obs.unattributed_share.{class}"), share);
            if share > 0.10 {
                out.problems.push(format!(
                    "integrity: {class}: {:.1}% of the traced latency is in no layer \
                     (per op: latency {:.1} us = parse {:.1} + outside the statement {:.1} \
                     + spans {:.1} + own spans {:.1} + statement root {:.1} not covered \
                     by any span)",
                    100.0 * share,
                    per_op_us(a.latency_ns),
                    per_op_us(a.parse_ns),
                    per_op_us(a.outside_ns),
                    per_op_us(a.main.values().sum()),
                    per_op_us(own),
                    per_op_us(gap),
                ));
            }
            if let Some(&wire) = untraced.layers.get(&format!("server.wire_us.{class}")) {
                l.insert(format!("server.wire_us.{class}"), wire);
            }
            // Wall time on both sides: the traced latencies are not scaled.
            let base = untraced
                .wall
                .get(class)
                .map_or(f64::NAN, |v| quantile_ms(v, 0.5));
            let traced = quantile_ms(&a.traced, 0.5);
            l.insert(format!("obs.trace_ratio.{class}"), traced / base);

            for (name, &c) in &a.count {
                let t = span_totals.entry(name).or_default();
                t.0 += c;
                t.1 += a.self_all.get(name).copied().unwrap_or(0);
                t.2 += a.total.get(name).copied().unwrap_or(0);
            }
            rides += a.rides;
            waits += a.count.get("wal.commit_wait").copied().unwrap_or(0);
        }
        let per_span_us = |name: &str, self_time: bool| {
            span_totals.get(name).map_or(0.0, |&(c, s, t)| {
                (if self_time { s } else { t }) as f64 / c.max(1) as f64 / 1e3
            })
        };
        l.insert("wal.append_us".into(), per_span_us("wal.append", true));
        l.insert(
            "wal.commit_wait_us".into(),
            per_span_us("wal.commit_wait", false),
        );
        l.insert("wal.fsync_us".into(), per_span_us("wal.fsync", false));
        l.insert("buffer.read_us".into(), per_span_us("buffer.read", true));
        l.insert(
            "txn.fcw_validate_us".into(),
            per_span_us("txn.fcw_validate", false),
        );
        l.insert(
            "txn.cc_validate_us".into(),
            per_span_us("txn.cc_validate", false),
        );
        l.insert(
            "txn.overlay_apply_us".into(),
            per_span_us("txn.overlay_apply", false),
        );
        l.insert("cc.adapt_ms".into(), per_span_us("cc.adapt", false) / 1e3);
        l.insert(
            "wal.group_ride_ratio".into(),
            if waits == 0 {
                0.0
            } else {
                rides as f64 / waits as f64
            },
        );
        l.insert("obs.traces_lost".into(), self.lost as f64);
        if self.lost > 0 {
            out.problems.push(format!(
                "integrity: {} traces lost from the ring",
                self.lost
            ));
        }
    }
}

/// Exclusive time on the statement thread: the deepest open span owns
/// each instant; children are clipped to their parent and to each
/// other, so the parts sum to the root's duration. Adds the time of
/// every descendant to `out` by name and returns `span`'s own.
fn exclusive(span: &Span, lo: u64, hi: u64, out: &mut BTreeMap<&'static str, u64>) -> u64 {
    let s = span.start_ns.max(lo);
    let e = (span.start_ns + span.dur_ns).min(hi);
    if e <= s {
        return 0;
    }
    let mut cursor = s;
    let mut covered = 0;
    for c in span.children.iter().filter(|c| c.tid == span.tid) {
        let cs = c.start_ns.max(cursor);
        let ce = (c.start_ns + c.dur_ns).min(e);
        if ce <= cs {
            continue;
        }
        let own = exclusive(c, cs, ce, out);
        *out.entry(c.name).or_default() += own;
        covered += ce - cs;
        cursor = ce;
    }
    (e - s) - covered
}
