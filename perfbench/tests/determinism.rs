//! Determinism self-check: each workload, at a small size, run twice
//! with one seed must execute the same operation sequence and repeat its
//! exact counts (buffer pages per operation, WAL records per operation,
//! space amplification, prediction accuracy); another seed must give
//! another sequence. Also checks that `BENCHMARK.json` names exactly
//! the metrics the benchmark prints.

use perfbench::layers::Tracing;
use perfbench::{ai, metrics, olap, oltp, Config, Pass};

fn small(seed: u64) -> Config {
    Config {
        seed,
        seconds: 1,
        small: true,
    }
}

fn check(name: &str, run: fn(&Config, Tracing) -> Pass) {
    let a = run(&small(3), Tracing::On);
    let b = run(&small(3), Tracing::On);
    let c = run(&small(4), Tracing::On);
    for p in [&a, &b, &c] {
        assert_eq!(p.out.failed, 0, "{name}: {:?}", p.out.problems);
        assert!(p.out.attempted > 0, "{name}: nothing ran");
        assert_eq!(p.bd.lost, 0, "{name}: traces lost");
    }
    assert!(!a.out.exact.is_empty(), "{name}: no exact counts");
    assert_eq!(
        a.out.digest, b.out.digest,
        "{name}: same seed, other operations"
    );
    assert_eq!(a.out.exact, b.out.exact, "{name}: same seed, other counts");
    assert_ne!(
        a.out.digest, c.out.digest,
        "{name}: another seed, same operations"
    );
}

#[test]
fn workloads_repeat_exactly_for_a_seed() {
    check("oltp", oltp::run);
    check("olap", olap::run);
    check("ai", ai::run);
}

/// `(name, unit)` pairs of one top-level list of `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("list present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |item: &str, f: &str| -> String {
        let at = item.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
        item[at..at + item[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|item| (field(item, "name"), field(item, "unit")))
        .collect()
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    for (key, printed) in [
        ("end_to_end", metrics::END_TO_END),
        ("per_layer", metrics::PER_LAYER),
    ] {
        let want: Vec<(String, String)> = printed
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(
            listed(&json, key),
            want,
            "{key} differs from the printed metrics"
        );
    }
}
