//! `plan-grid`: the §9 goal planner. `plan_search` over the 11,520-point
//! grid of the repository's planner suite, one worker, repeated. Only
//! `core.plan` and `markov.batch` do work here.

use std::hint::black_box;
use std::time::Instant;

use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::plan::{plan_search, ConfigSpace, PlanOptions, PlanReport};
use nsr_core::raid::InternalRaid;
use nsr_core::units::Hours;
use nsr_markov::{AbsorbingAnalysis, BatchSolver};

use crate::common::{median, percentile, secs, InputRng, Report, Stopwatch, Tracer};
use crate::{COMPUTE_FAST_END, COMPUTE_MIN_OPS};

/// Batched solves per `markov.batch.solve` probe span.
const SOLVES_PER_PROBE: usize = 1_000;
/// Searches between two rounds of solver probes in the traced run.
const PROBE_EVERY: usize = 4;
/// Searches between two oracle set-ups in the untraced run.
const ORACLE_EVERY: usize = 8;

/// 5 node counts × 12 data-shard counts × 4 fault tolerances × 3 RAID
/// levels × 4 spare fractions × 4 rebuild bandwidths = 11,520 points.
fn grid() -> ConfigSpace {
    ConfigSpace {
        nodes: vec![16, 32, 64, 128, 256],
        data_shards: (2..=13).collect(),
        node_ft: vec![1, 2, 3, 4],
        internal: InternalRaid::all().to_vec(),
        spare_frac: vec![0.0, 0.1, 0.25, 0.4],
        rebuild_bw: vec![0.05, 0.1, 0.2, 0.4],
    }
}

/// The planner's inputs for `seed`: the baseline with node and drive
/// MTTFs each scaled by a seeded factor in `[0.98, 1.02]`.
fn params(seed: u64) -> Params {
    let mut rng = InputRng::new(seed, 0x504C_414E);
    let mut p = Params::baseline();
    p.node.mttf = Hours(p.node.mttf.0 * (0.98 + 0.04 * rng.unit()));
    p.drive.mttf = Hours(p.drive.mttf.0 * (0.98 + 0.04 * rng.unit()));
    p
}

const OPTS: PlanOptions = PlanOptions {
    workers: 1,
    mission_years: 5.0,
    exhaustive: false,
};

struct State {
    params: Params,
    space: ConfigSpace,
    oracle: PlanReport,
}

/// The exhaustive-mode oracle the pruned searches must agree with.
const EXHAUSTIVE: PlanOptions = PlanOptions {
    exhaustive: true,
    ..OPTS
};

/// Set-up: the exhaustive-mode oracle (the only call on `sw`), then one
/// pruned search, checked like every timed one.
fn setup(seed: u64, sw: &mut Stopwatch) -> Result<State, String> {
    let params = params(seed);
    let space = grid();
    let oracle = sw
        .time(|| plan_search(&params, &space, &EXHAUSTIVE))
        .map_err(|e| e.to_string())?;
    if oracle.guard_violations != 0 || oracle.frontier.is_empty() {
        return Err(format!(
            "exhaustive oracle: {} guard violations, {} frontier points",
            oracle.guard_violations,
            oracle.frontier.len()
        ));
    }
    let st = State {
        params,
        space,
        oracle,
    };
    st.check(&plan_search(&st.params, &st.space, &OPTS).map_err(|e| e.to_string())?)
        .map_or(Ok(()), Err)?;
    Ok(st)
}

impl State {
    /// `None` when a pruned search agrees with the exhaustive oracle.
    fn check(&self, r: &PlanReport) -> Option<String> {
        if r.grid_points != self.space.len() {
            Some(format!(
                "searched {} of {} grid points",
                r.grid_points,
                self.space.len()
            ))
        } else if r.guard_violations != 0 {
            Some(format!("{} guard violations", r.guard_violations))
        } else if r.frontier != self.oracle.frontier {
            Some(format!(
                "pruned frontier ({} points) differs from the exhaustive oracle ({} points)",
                r.frontier.len(),
                self.oracle.frontier.len()
            ))
        } else {
            None
        }
    }

    fn search(&self, tr: &mut Tracer, rep: &mut Report) -> (f64, Option<PlanReport>) {
        let t0 = Instant::now();
        let res = tr.span("core.plan.search", |_| {
            plan_search(&self.params, &self.space, &OPTS)
        });
        let dt = secs(t0);
        match res {
            Ok(r) => {
                rep.check(self.check(&r));
                (dt, Some(r))
            }
            Err(e) => {
                rep.check(Some(format!("plan_search: {e}")));
                (dt, None)
            }
        }
    }
}

/// The untraced run: repeated searches. The oracle is computed again
/// every [`ORACLE_EVERY`] searches, so the set-ups are spread over the
/// run as the searches are, and `setup_s` is their fast end (see
/// [`COMPUTE_FAST_END`]).
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut sw = Stopwatch::default();
    let st = setup(seed, &mut sw)?;
    let mut setups = vec![sw.secs()];
    let mut tr = Tracer::new(false);
    let mut rep = Report::default();
    let mut times = Vec::new();
    let start = Instant::now();
    while secs(start) < seconds || times.len() < COMPUTE_MIN_OPS {
        times.push(st.search(&mut tr, &mut rep).0);
        if times.len() % ORACLE_EVERY == 0 {
            let mut sw = Stopwatch::default();
            let again = sw.time(|| plan_search(&st.params, &st.space, &EXHAUSTIVE));
            setups.push(sw.secs());
            rep.check(match again {
                Ok(r) if r.frontier == st.oracle.frontier => None,
                Ok(_) => Some("the exhaustive oracle changed between set-ups".into()),
                Err(e) => Some(format!("exhaustive plan_search: {e}")),
            });
        }
    }
    // The rate at the fast-end search time: see [`COMPUTE_FAST_END`].
    let configs_per_s = st.space.len() as f64 / percentile(&times, COMPUTE_FAST_END);
    let mean_configs_per_s = (st.space.len() * times.len()) as f64 / times.iter().sum::<f64>();
    rep.set("setup_s", percentile(&setups, COMPUTE_FAST_END), "s");
    rep.set("throughput_per_s", configs_per_s, "1/s");
    rep.latency("search", &times, COMPUTE_FAST_END);
    rep.note("configs_per_s", configs_per_s, "1/s");
    rep.note("configs_per_s_mean", mean_configs_per_s, "1/s");
    rep.note("grid_points", st.space.len() as f64, "count");
    Ok(rep)
}

/// The traced run: searches, with solver-layer probes every few
/// searches on the FT 3 no-RAID chain.
pub fn traced(seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Report, String> {
    let st = tr.span("setup.plan", |_| setup(seed, &mut Stopwatch::default()))?;
    let mut rep = Report::default();
    let config = Configuration::new(InternalRaid::None, 3).map_err(|e| e.to_string())?;
    let (ctmc, root) = config.exact_chain(&st.params).map_err(|e| e.to_string())?;
    let rates: Vec<f64> = ctmc.transitions().iter().map(|t| t.rate).collect();
    let reference = BatchSolver::new(&ctmc, root)
        .and_then(|mut s| s.solve_mtta(&rates))
        .map_err(|e| e.to_string())?;
    let mut first: Option<PlanReport> = None;
    let mut searches = 0usize;
    let start = Instant::now();
    while secs(start) < seconds || searches < PROBE_EVERY {
        let (_, r) = st.search(tr, &mut rep);
        searches += 1;
        if first.is_none() {
            first = r;
        }
        if !searches.is_multiple_of(PROBE_EVERY) {
            continue;
        }
        let built = tr.span("markov.batch.build", |_| BatchSolver::new(&ctmc, root));
        let mut solver = match built {
            Ok(s) => s,
            Err(e) => {
                rep.check(Some(format!("BatchSolver::new: {e}")));
                continue;
            }
        };
        let mtta = tr.span("markov.batch.solve", |_| {
            let mut last = Ok(0.0);
            for _ in 0..SOLVES_PER_PROBE {
                last = solver.solve_mtta(black_box(&rates));
            }
            last
        });
        rep.check(match mtta {
            Ok(v) if v == reference => None,
            other => Some(format!("batched solve {other:?} != {reference}")),
        });
        let absorbing = tr.span("markov.absorbing.solve", |_| {
            AbsorbingAnalysis::new(&ctmc).and_then(|a| a.mean_time_to_absorption(root))
        });
        rep.check(match absorbing {
            Ok(v) if ((v - reference) / reference).abs() < 1e-9 => None,
            other => Some(format!("absorbing solve {other:?} vs batched {reference}")),
        });
        let eval = tr.span("core.config.evaluate", |_| config.evaluate(&st.params));
        rep.check(match eval {
            Ok(e) if e.exact.mttdl_hours.is_finite() && e.exact.mttdl_hours > 0.0 => None,
            other => Some(format!(
                "evaluate: {:?}",
                other.map(|e| e.exact.mttdl_hours)
            )),
        });
    }
    let first = first.ok_or("no search succeeded")?;
    let solve_ns: Vec<f64> = tr
        .samples("markov.batch.solve")
        .iter()
        .map(|ns| ns / SOLVES_PER_PROBE as f64)
        .collect();
    rep.set(
        "core.plan.search_ms",
        tr.median_self("core.plan.search", 1e6),
        "ms",
    );
    rep.set(
        "core.plan.pruned_ratio",
        first.pruned as f64 / first.feasible.max(1) as f64,
        "ratio",
    );
    rep.set("core.plan.solves", first.solved as f64, "count");
    rep.set("markov.batch.solve_ns", median(&solve_ns), "ns");
    rep.set(
        "markov.batch.reuse_ratio",
        first.skeleton_reuses as f64
            / (first.skeleton_builds + first.skeleton_reuses).max(1) as f64,
        "ratio",
    );
    rep.set(
        "markov.batch.build_us",
        tr.median_self("markov.batch.build", 1e3),
        "us",
    );
    rep.set(
        "markov.absorbing.solve_us",
        tr.median_self("markov.absorbing.solve", 1e3),
        "us",
    );
    rep.set(
        "core.config.evaluate_us",
        tr.median_self("core.config.evaluate", 1e3),
        "us",
    );
    rep.note("plan.trace_searches", searches as f64, "count");
    Ok(rep)
}
