//! The reported metric names, their units, and how a pass maps onto
//! them. `BENCHMARK.json` lists the same names (checked by a test).
//!
//! Every workload reports every metric. A class latency metric is named
//! after the class it measures in each workload, in the order
//! `oltp.olap.ai`: `point_update.scan_agg.predict_batch_p50_ms` is the
//! p50 of `point_update` on `oltp`, of `scan_agg` on `olap` and of
//! `predict_batch` on `ai`. One slot names its quantile per class:
//! `oltp`'s `insert` reports its p25, because about 35 % of inserts wait
//! behind a `point_update` that holds the commit lock across a table
//! scan, which puts the p50 on the steep upper edge of the uncontended
//! inserts (see `README.md`).

use crate::{Outcome, Pass};
use std::collections::BTreeMap;

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("ops_s", "1/s"),
    ("point_read.point_lookup.predict_row_p50_ms", "ms"),
    ("point_update.scan_agg.predict_batch_p50_ms", "ms"),
    ("insert_p25.join_agg_p50.ingest_p50_ms", "ms"),
    ("transfer.multi_join.finetune_p50_ms", "ms"),
];

/// Class slots of the latency metrics: `[oltp, olap, ai]`.
const SLOTS: [[&str; 3]; 4] = [
    ["point_read", "point_lookup", "predict_row"],
    ["point_update", "scan_agg", "predict_batch"],
    ["insert", "join_agg", "ingest"],
    ["transfer", "multi_join", "finetune"],
];

pub fn end_to_end(pass: &Pass) -> BTreeMap<&'static str, f64> {
    let out = &pass.out;
    let mut m = BTreeMap::new();
    m.insert("setup_s", pass.setup_s);
    m.insert(
        "ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    m.insert("ops_s", out.ops_s());
    let class = |slot: usize| {
        SLOTS[slot]
            .iter()
            .copied()
            .find(|c| out.latencies.contains_key(c))
            .unwrap_or("none")
    };
    m.insert(
        "point_read.point_lookup.predict_row_p50_ms",
        out.p(class(0), 0.5),
    );
    m.insert(
        "point_update.scan_agg.predict_batch_p50_ms",
        out.p(class(1), 0.5),
    );
    let q = if class(2) == "insert" { 0.25 } else { 0.5 };
    m.insert("insert_p25.join_agg_p50.ingest_p50_ms", out.p(class(2), q));
    m.insert("transfer.multi_join.finetune_p50_ms", out.p(class(3), 0.5));
    m
}

pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.wire_us.point_read", "us"),
    ("server.wire_us.point_update", "us"),
    ("sql.parse_us.point_read", "us"),
    ("sql.parse_us.transfer", "us"),
    ("sql.parse_us.multi_join", "us"),
    ("sql.parse_us.predict_row", "us"),
    ("planner.plan_us.point_read", "us"),
    ("planner.plan_us.scan_agg", "us"),
    ("planner.plan_us.join_agg", "us"),
    ("planner.plan_us.multi_join", "us"),
    ("exec.execute_us.point_read", "us"),
    ("exec.execute_us.scan_agg", "us"),
    ("exec.execute_us.join_agg", "us"),
    ("exec.execute_us.multi_join", "us"),
    ("exec.join_us.join_agg", "us"),
    ("exec.join_us.multi_join", "us"),
    ("exec.worker_busy_ms.scan_agg", "ms"),
    ("exec.worker_busy_ms.join_agg", "ms"),
    ("exec.worker_busy_ms.multi_join", "ms"),
    ("exec.worker_wait_ms.scan_agg", "ms"),
    ("exec.worker_wait_ms.join_agg", "ms"),
    ("exec.worker_wait_ms.multi_join", "ms"),
    ("core.apply_us.point_update", "us"),
    ("core.apply_us.insert", "us"),
    ("core.predict_scan_us.predict_batch", "us"),
    ("buffer.pages_per_op.point_lookup", "count"),
    ("buffer.pages_per_op.scan_agg", "count"),
    ("buffer.pages_per_op.join_agg", "count"),
    ("buffer.pages_per_op.multi_join", "count"),
    ("buffer.pages_per_op.predict_row", "count"),
    ("buffer.pages_per_op.predict_batch", "count"),
    ("buffer.pages_per_op.ingest", "count"),
    ("buffer.pages_per_op.finetune", "count"),
    ("buffer.misses_per_op.point_read", "count"),
    ("buffer.misses_per_op.point_update", "count"),
    ("buffer.misses_per_op.insert", "count"),
    ("buffer.misses_per_op.transfer", "count"),
    ("buffer.misses_per_op.point_lookup", "count"),
    ("buffer.misses_per_op.scan_agg", "count"),
    ("buffer.misses_per_op.join_agg", "count"),
    ("buffer.misses_per_op.multi_join", "count"),
    ("buffer.misses_per_op.predict_row", "count"),
    ("buffer.misses_per_op.predict_batch", "count"),
    ("buffer.misses_per_op.ingest", "count"),
    ("buffer.misses_per_op.finetune", "count"),
    ("buffer.read_us", "us"),
    ("storage.index_probe_us", "us"),
    ("storage.space_amp.acct", "ratio"),
    ("storage.space_amp.ctr", "ratio"),
    ("wal.records_per_op.point_update", "count"),
    ("wal.records_per_op.insert", "count"),
    ("wal.records_per_op.transfer", "count"),
    ("wal.records_per_op.ingest", "count"),
    ("wal.records_per_op.finetune", "count"),
    ("wal.bytes_per_op.point_update", "bytes"),
    ("wal.bytes_per_op.insert", "bytes"),
    ("wal.bytes_per_op.transfer", "bytes"),
    ("wal.bytes_per_op.ingest", "bytes"),
    ("wal.bytes_per_op.finetune", "bytes"),
    ("wal.fsyncs_per_commit", "ratio"),
    ("wal.group_ride_ratio", "ratio"),
    ("wal.append_us", "us"),
    ("wal.commit_wait_us", "us"),
    ("wal.fsync_us", "us"),
    ("txn.commit_lock_wait_us.point_update", "us"),
    ("txn.commit_lock_wait_us.insert", "us"),
    ("txn.commit_lock_wait_us.transfer", "us"),
    ("txn.fcw_validate_us", "us"),
    ("txn.cc_validate_us", "us"),
    ("txn.overlay_apply_us", "us"),
    ("txn.wait_durable_us.point_update", "us"),
    ("txn.wait_durable_us.insert", "us"),
    ("txn.wait_durable_us.transfer", "us"),
    ("txn.wait_durable_us.ingest", "us"),
    ("txn.abort_ratio", "ratio"),
    ("cc.decisions_per_txn", "count"),
    ("cc.adapt_ms", "ms"),
    ("engine.materialize_us", "us"),
    ("engine.finetune_compute_s", "s"),
    ("engine.finetune_wait_s", "s"),
    ("engine.finetune_samples_s", "1/s"),
    ("engine.version_bytes", "bytes"),
    ("engine.predict_accuracy", "ratio"),
    ("nn.forward_us.row", "us"),
    ("nn.forward_us.batch", "us"),
    ("obs.traces_lost", "count"),
    ("obs.trace_ratio.point_read", "ratio"),
    ("obs.trace_ratio.point_update", "ratio"),
    ("obs.trace_ratio.insert", "ratio"),
    ("obs.trace_ratio.transfer", "ratio"),
    ("obs.trace_ratio.point_lookup", "ratio"),
    ("obs.trace_ratio.scan_agg", "ratio"),
    ("obs.trace_ratio.join_agg", "ratio"),
    ("obs.trace_ratio.multi_join", "ratio"),
    ("obs.trace_ratio.predict_row", "ratio"),
    ("obs.trace_ratio.predict_batch", "ratio"),
    ("obs.trace_ratio.ingest", "ratio"),
    ("obs.trace_ratio.finetune", "ratio"),
    ("obs.unattributed_share.point_read", "ratio"),
    ("obs.unattributed_share.point_update", "ratio"),
    ("obs.unattributed_share.insert", "ratio"),
    ("obs.unattributed_share.transfer", "ratio"),
    ("obs.unattributed_share.point_lookup", "ratio"),
    ("obs.unattributed_share.scan_agg", "ratio"),
    ("obs.unattributed_share.join_agg", "ratio"),
    ("obs.unattributed_share.multi_join", "ratio"),
    ("obs.unattributed_share.predict_row", "ratio"),
    ("obs.unattributed_share.predict_batch", "ratio"),
    ("obs.unattributed_share.ingest", "ratio"),
    ("obs.unattributed_share.finetune", "ratio"),
];

/// Per-layer values of a traced outcome; a metric of a layer or class
/// the workload does not exercise reads 0.
pub fn per_layer(out: &Outcome) -> BTreeMap<&'static str, f64> {
    PER_LAYER
        .iter()
        .map(|&(name, _)| (name, out.layers.get(name).copied().unwrap_or(0.0)))
        .collect()
}
