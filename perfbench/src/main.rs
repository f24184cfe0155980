//! The repository benchmark: four workloads against the public APIs of
//! `nsr-net`, `nsr-erasure`, `nsr-core`, `nsr-markov` and `nsr-sim`.
//!
//! ```text
//! perfbench --workload <serve-mixed|degraded-rebuild|plan-grid|fleet-sim>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --regen-digests
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` is the
//! separate traced run: it records spans around the benchmark's own calls
//! into each layer, writes them as `nsr-obs` JSON-lines under `out/`, and
//! reports the per-layer metrics. Every run prints a fingerprint line,
//! one line per named figure, and last a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A run that sees a failed
//! operation or a wrong output exits with code 1.

mod cluster;
mod common;
mod degraded;
mod fleet;
mod plan;
mod serve;

use std::path::Path;
use std::process::ExitCode;

use common::{Report, Tracer};

/// A second seed, kept for later changes' held-out re-check.
pub const HELDOUT_SEED: u64 = 7919;

/// The percentile of operation time behind the bounded `fast_us` metric,
/// the bounded rates and `setup_s` of the two network workloads. On a
/// shared 2-vCPU host speed switches for seconds at a time between two
/// regimes about 45% apart, so a run's mean and median move with the
/// share of time spent in each (10–27% between runs) while the p10, the
/// cost of the work in the fast regime, moved by less than 9%.
pub const FAST_END: f64 = 0.1;

/// [`FAST_END`] of the single-threaded compute workloads (`plan-grid`,
/// `fleet-sim`), which time at least [`COMPUTE_MIN_OPS`] operations so
/// that ten or more lie below it. Over six sets of ten runs their p1
/// spread 3–25% where their p10 spread 6–30%: a whole 10-s run seldom
/// lacks a short fast stretch, but often spends most of its time slow.
pub const COMPUTE_FAST_END: f64 = 0.02;
pub const COMPUTE_MIN_OPS: usize = 500;

const WORKLOADS: [&str; 4] = ["serve-mixed", "degraded-rebuild", "plan-grid", "fleet-sim"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    corrupt: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        corrupt: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--inject-corruption" => args.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if args.corrupt && (args.trace || args.workload != "serve-mixed") {
        return Err("--inject-corruption applies to an untraced serve-mixed run".into());
    }
    Ok(args)
}

fn untraced(a: &Args) -> Result<Report, String> {
    let s = a.seconds as f64;
    let mut rep = match a.workload.as_str() {
        "serve-mixed" => serve::run(a.seed, s, a.corrupt),
        "degraded-rebuild" => degraded::run(a.seed, s),
        "plan-grid" => plan::run(a.seed, s),
        _ => fleet::run(a.seed, s),
    }?;
    rep.set("peak_rss_mib", common::peak_rss_mib(), "MiB");
    let ratio = rep.failed as f64 / rep.attempted.max(1) as f64;
    rep.note("failed_ops_ratio", ratio, "ratio");
    Ok(rep)
}

/// The traced run. Every per-layer metric has a home workload; the
/// `--workload` one gets 70% of the time and the other three 10% each,
/// so every layer is measured in every traced run.
fn traced(a: &Args, tr: &mut Tracer) -> Result<Report, String> {
    let mut rep = Report::default();
    for w in WORKLOADS {
        let share = if w == a.workload { 0.7 } else { 0.1 };
        let s = a.seconds as f64 * share;
        let part = match w {
            "serve-mixed" => serve::traced(a.seed, s, tr),
            "degraded-rebuild" => degraded::traced(a.seed, s, tr),
            "plan-grid" => plan::traced(a.seed, s, tr),
            _ => fleet::traced(a.seed, s, tr),
        }?;
        rep.merge(part);
    }
    Ok(rep)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--regen-digests") {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fleet_digests.txt");
        return match fleet::regen_digests(&path) {
            Ok(()) => {
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "fingerprint {}",
        common::fingerprint(&a.workload, a.seed, a.seconds, a.trace)
    );
    let mut tr = Tracer::new(a.trace);
    let result = if a.trace {
        traced(&a, &mut tr)
    } else {
        untraced(&a)
    };
    let rep = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} aborted: {e}", a.workload);
            return ExitCode::from(2);
        }
    };
    if a.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.jsonl", a.workload, a.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tr.jsonl("perfbench")));
        match written {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    for (name, m) in &rep.metrics {
        println!("metric {name} {} {}", m.value, m.unit);
    }
    for (name, value, unit) in &rep.notes {
        println!("figure {name} {value} {unit}");
    }
    for e in &rep.errors {
        println!("error {e}");
    }
    println!("{}", rep.json_line());
    if rep.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
