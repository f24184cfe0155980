//! Short runs of the benchmark binary: every declared metric is printed
//! with its unit, exact counts repeat for one seed, and a corrupted
//! expected payload is caught.

use std::collections::BTreeMap;
use std::process::{Command, Output};

use nsr_obs::Json;

const WORKLOADS: [&str; 4] = ["serve-mixed", "degraded-rebuild", "plan-grid", "fleet-sim"];

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench")
}

/// The last stdout line, parsed.
fn result(out: &Output) -> Json {
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().expect("some output");
    Json::parse(last).expect("last line is JSON")
}

/// `name → unit` of one metric list of BENCHMARK.json.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// `name → unit` of the metrics a result line reports.
fn reported(doc: &Json) -> BTreeMap<String, String> {
    match doc.get("metrics") {
        Some(Json::Obj(m)) => m
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect(),
        _ => panic!("no metrics object"),
    }
}

fn assert_clean(out: &Output, doc: &Json) {
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(doc
        .get("attempted")
        .and_then(Json::as_f64)
        .is_some_and(|n| n >= 1.0));
}

#[test]
fn short_runs_print_every_end_to_end_metric_with_its_unit() {
    let want = declared("end_to_end");
    let named: [(&str, &[&str]); 4] = [
        (
            "serve-mixed",
            &[
                "ops_per_s",
                "get_p50_us",
                "get_p99_us",
                "put_p50_us",
                "put_p99_us",
            ],
        ),
        (
            "degraded-rebuild",
            &["ops_per_s", "get_p50_us", "get_p99_us", "rebuild_mib_per_s"],
        ),
        ("plan-grid", &["configs_per_s"]),
        ("fleet-sim", &["brick_years_per_s"]),
    ];
    for (w, figures) in named {
        let out = run(&[
            "--workload",
            w,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ]);
        let doc = result(&out);
        assert_clean(&out, &doc);
        assert_eq!(reported(&doc), want, "{w}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.lines().any(|l| l.starts_with("fingerprint {")),
            "{w}: no fingerprint"
        );
        for f in figures.iter().chain(&["failed_ops_ratio"]) {
            assert!(
                text.lines()
                    .any(|l| l.starts_with(&format!("figure {f} ")) && l.split(' ').count() == 4),
                "{w}: no `{f}` line with a unit"
            );
        }
    }
}

#[test]
fn traced_runs_report_every_layer_and_repeat_exact_counts() {
    let want = declared("per_layer");
    let exact = [
        "net.brick.requests_per_op",
        "net.rebuild.shards_moved",
        "core.plan.solves",
        "sim.fleet.events_per_mission",
    ];
    let mut seen: Vec<Vec<f64>> = Vec::new();
    for _ in 0..2 {
        let out = run(&[
            "--workload",
            WORKLOADS[0],
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "1",
        ]);
        let doc = result(&out);
        assert_clean(&out, &doc);
        assert_eq!(reported(&doc), want);
        let metrics = doc.get("metrics").expect("metrics");
        seen.push(
            exact
                .iter()
                .map(|n| {
                    metrics
                        .get(n)
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .expect("count")
                })
                .collect(),
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let trace = text
            .lines()
            .find_map(|l| l.strip_prefix("trace "))
            .expect("trace path line");
        let jsonl = std::fs::read_to_string(trace).expect("trace file");
        nsr_obs::validate_jsonl(&jsonl).expect("nsr-obs JSON-lines");
        nsr_obs::validate_span_links(&jsonl).expect("every parent span present");
    }
    assert_eq!(
        seen[0], seen[1],
        "exact counts differ between two runs of one seed"
    );
}

#[test]
fn a_corrupted_expected_payload_fails_the_run() {
    let out = run(&[
        "--workload",
        "serve-mixed",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--inject-corruption",
    ]);
    let doc = result(&out);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    assert!(doc
        .get("failed")
        .and_then(Json::as_f64)
        .is_some_and(|n| n >= 1.0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("wrong bytes returned as Ok"), "{text}");
}
