//! `perfbench --workload <oltp|olap|ai> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Lines before it name every metric with its unit, the operation
//! digest, the counts that must repeat exactly for a seed, and any
//! failed check or tracing gap.

use perfbench::layers::Tracing;
use perfbench::{ai, metrics, olap, oltp, Config, Pass};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <oltp|olap|ai> --seed <n> --seconds <n> --trace <0|1>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10,
        small: false,
    };
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => match value().parse() {
                Ok(v) => cfg.seed = v,
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value().parse() {
                Ok(v) if v > 0 => cfg.seconds = v,
                _ => return usage("--seconds takes a positive whole number"),
            },
            "--trace" => match value().as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let run: fn(&Config, Tracing) -> Pass = match workload.as_deref() {
        Some("oltp") => oltp::run,
        Some("olap") => olap::run,
        Some("ai") => ai::run,
        _ => return usage("--workload must be oltp, olap or ai"),
    };

    let base = run(&cfg, Tracing::Off);
    let (out, values, names) = if trace {
        let mut traced = run(&cfg, Tracing::On);
        traced.bd.finish(&base.out, &mut traced.out);
        let values = metrics::per_layer(&traced.out);
        let mut out = traced.out;
        let problems = std::mem::take(&mut out.problems);
        out.merge(base.out);
        out.problems.extend(problems);
        (out, values, metrics::PER_LAYER)
    } else {
        let values = metrics::end_to_end(&base);
        (base.out, values, metrics::END_TO_END)
    };

    println!(
        "workload {} seed {} budget {}s",
        workload.unwrap_or_default(),
        cfg.seed,
        cfg.seconds
    );
    println!("digest {:016x}", out.digest);
    for (k, v) in &out.exact {
        println!("exact {k} = {v}");
    }
    println!(
        "window {:.3}s wall, {:.3}s reported",
        out.window_wall_s,
        out.window_s()
    );
    for (kind, map) in [("wall", &out.wall), ("reported", &out.latencies)] {
        for (class, v) in map {
            let q = |p: f64| perfbench::quantile_ms(v, p);
            println!(
                "samples {kind} {class} = {} (ms: p10 {:.4} p25 {:.4} p50 {:.4} p90 {:.4} p99 {:.4})",
                v.len(),
                q(0.1),
                q(0.25),
                q(0.5),
                q(0.9),
                q(0.99)
            );
        }
    }
    for p in &out.problems {
        println!("problem {p}");
    }
    let mut json = BTreeMap::new();
    for &(name, unit) in names {
        let v = values.get(name).copied().unwrap_or(f64::NAN);
        println!("metric {name} = {v} {unit}");
        json.insert(
            name,
            format!("{{\"value\": {}, \"unit\": \"{unit}\"}}", finite(v)),
        );
    }
    let body: Vec<String> = json.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// JSON has no NaN: a metric with no samples prints as 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
