//! `fleet-sim`: `FleetSim::run` of a 10,000-brick FT 3 no-RAID fleet
//! over a decade, one worker, a fresh mission seed per mission. Only the
//! `sim.fleet` event engine and the `rng` counter generator do work.
//!
//! Mission seeds come from a fixed table of [`TABLE_LEN`] seeds whose
//! reference digests (events, failures, rebuilds, losses) are kept in
//! `fleet_digests.txt`; `--seed` picks where in the table a run starts.

use std::hint::black_box;
use std::time::Instant;

use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::raid::InternalRaid;
use nsr_rng::CounterRng;
use nsr_sim::fleet::{EventQueue, FleetOutcome, FleetSim};

use crate::common::{median, percentile, secs, InputRng, Report, Stopwatch, Tracer};
use crate::{COMPUTE_FAST_END, COMPUTE_MIN_OPS};

const BRICKS: u64 = 10_000;
const YEARS: f64 = 10.0;
pub const TABLE_LEN: u64 = 2_048;
const DIGESTS: &str = include_str!("../fleet_digests.txt");
/// Queue depth of the `sim.fleet.queue` probe: about the in-horizon
/// failures of one 64-cell shard of this fleet.
const QUEUE_DEPTH: usize = 16_384;
const QUEUE_OPS: usize = 10_000;
const DRAWS: u64 = 100_000;

/// The mission seed at table position `i`.
fn mission_seed(i: u64) -> u64 {
    InputRng::new(0xF1EE_7000, i).next_u64()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    events: u64,
    failures: u64,
    rebuilds: u64,
    losses: u64,
}

impl Digest {
    fn of(o: &FleetOutcome) -> Digest {
        Digest {
            events: o.events,
            failures: o.node_failures + o.drive_failures,
            rebuilds: o.rebuilds,
            losses: o.loss_count(),
        }
    }
}

fn fleet() -> Result<FleetSim, String> {
    let config = Configuration::new(InternalRaid::None, 3).map_err(|e| e.to_string())?;
    FleetSim::new(Params::baseline(), config, BRICKS, YEARS).map_err(|e| e.to_string())
}

/// Parses the reference table: one `seed events failures rebuilds
/// losses` line per table position, in order.
fn parse_digests(text: &str) -> Result<Vec<(u64, Digest)>, String> {
    let rows: Vec<(u64, Digest)> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<u64> = l
                .split_whitespace()
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("{l:?}: {e}"))?;
            match f[..] {
                [seed, events, failures, rebuilds, losses] => Ok((
                    seed,
                    Digest {
                        events,
                        failures,
                        rebuilds,
                        losses,
                    },
                )),
                _ => Err(format!("digest line {l:?} needs 5 fields")),
            }
        })
        .collect::<Result<_, _>>()?;
    if rows.len() as u64 != TABLE_LEN
        || rows
            .iter()
            .enumerate()
            .any(|(i, r)| r.0 != mission_seed(i as u64))
    {
        return Err(
            "fleet_digests.txt does not match the mission-seed table; regenerate it".into(),
        );
    }
    Ok(rows)
}

/// Writes the reference table (`--regen-digests`).
pub fn regen_digests(path: &std::path::Path) -> Result<(), String> {
    let sim = fleet()?;
    let mut out = String::from("# seed events failures rebuilds losses: FleetSim::run(seed, 1), FT3 no-IR, 10,000 bricks, 10 years\n");
    for i in 0..TABLE_LEN {
        let seed = mission_seed(i);
        let d = Digest::of(&sim.run(seed, 1).map_err(|e| e.to_string())?);
        out.push_str(&format!(
            "{seed} {} {} {} {}\n",
            d.events, d.failures, d.rebuilds, d.losses
        ));
    }
    std::fs::write(path, out).map_err(|e| e.to_string())
}

struct State {
    sim: FleetSim,
    table: Vec<(u64, Digest)>,
    next: u64,
}

/// Set-up: the reference table, then the fleet model (the only program
/// call before the first mission, and the only one on `sw`), then one
/// checked mission.
fn setup(seed: u64, sw: &mut Stopwatch) -> Result<State, String> {
    let table = parse_digests(DIGESTS)?;
    let sim = sw.time(fleet)?;
    let mut st = State {
        sim,
        table,
        next: InputRng::new(seed, 0xF1EE).below(TABLE_LEN),
    };
    // The checked mission also warms the allocator.
    let mut rep = Report::default();
    let mut off = Tracer::new(false);
    st.mission(&mut off, &mut rep);
    st.next = (st.next + TABLE_LEN - 1) % TABLE_LEN;
    match rep.errors.pop() {
        Some(e) => Err(e),
        None => Ok(st),
    }
}

impl State {
    /// Runs the next mission of the table; returns its time and outcome.
    fn mission(&mut self, tr: &mut Tracer, rep: &mut Report) -> (f64, Option<FleetOutcome>) {
        let (seed, want) = self.table[self.next as usize];
        self.next = (self.next + 1) % TABLE_LEN;
        let t0 = Instant::now();
        let res = tr.span("sim.fleet.run", |_| self.sim.run(seed, 1));
        let dt = secs(t0);
        match res {
            Ok(o) => {
                let got = Digest::of(&o);
                rep.check(
                    (got != want)
                        .then(|| format!("mission seed {seed}: {got:?}, reference {want:?}")),
                );
                (dt, Some(o))
            }
            Err(e) => {
                rep.check(Some(format!("mission seed {seed}: {e}")));
                (dt, None)
            }
        }
    }
}

/// The untraced run: missions until the time is spent. The fleet model
/// is built afresh before each mission, so its set-ups are spread over
/// the run as the missions are, and `setup_s` is their fast end (see
/// [`COMPUTE_FAST_END`]).
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut sw = Stopwatch::default();
    let mut st = setup(seed, &mut sw)?;
    let mut setups = vec![sw.secs()];
    let mut tr = Tracer::new(false);
    let mut rep = Report::default();
    let mut times = Vec::new();
    let start = Instant::now();
    while secs(start) < seconds || times.len() < COMPUTE_MIN_OPS {
        let mut sw = Stopwatch::default();
        st.sim = sw.time(fleet)?;
        setups.push(sw.secs());
        times.push(st.mission(&mut tr, &mut rep).0);
    }
    // The rate at the fast-end mission time: see [`COMPUTE_FAST_END`].
    let brick_years = st.sim.bricks() as f64 * YEARS;
    let brick_years_per_s = brick_years / percentile(&times, COMPUTE_FAST_END);
    let mean_rate = brick_years * times.len() as f64 / times.iter().sum::<f64>();
    rep.set("setup_s", percentile(&setups, COMPUTE_FAST_END), "s");
    rep.set("throughput_per_s", brick_years_per_s, "1/s");
    rep.latency("mission", &times, COMPUTE_FAST_END);
    rep.note("brick_years_per_s", brick_years_per_s, "1/s");
    rep.note("brick_years_per_s_mean", mean_rate, "1/s");
    Ok(rep)
}

/// The traced run: missions, with queue and generator probes after
/// each one.
pub fn traced(seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Report, String> {
    let mut st = tr.span("setup.fleet", |_| setup(seed, &mut Stopwatch::default()))?;
    let mut rep = Report::default();
    let mut rng = InputRng::new(seed, 0x0051_4555);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..QUEUE_DEPTH as u64 {
        queue.push(rng.unit() * 1e5, i).map_err(|e| e.to_string())?;
    }
    let crng = CounterRng::new(seed);
    let mut first: Option<FleetOutcome> = None;
    let mut missions = 0u64;
    let start = Instant::now();
    while secs(start) < seconds || missions < 2 {
        let (_, o) = st.mission(tr, &mut rep);
        missions += 1;
        if first.is_none() {
            first = o;
        }
        // Pop the earliest event and push its successor, as the engine
        // does for each processed failure.
        let times: Vec<f64> = (0..QUEUE_OPS).map(|_| rng.unit() * 1e3).collect();
        let ok = tr.span("sim.fleet.queue", |_| {
            times.iter().all(|&dt| match queue.pop() {
                Some((t, item)) => queue.push(t + dt, item).is_ok(),
                None => false,
            })
        });
        rep.check(
            (!ok || queue.len() != QUEUE_DEPTH).then(|| "event queue lost an event".to_string()),
        );
        let counter0 = missions * DRAWS;
        let sum = tr.span("rng.counter_draw", |_| {
            (counter0..counter0 + DRAWS)
                .map(|c| crng.f64_at(black_box(c & 0xFF), c))
                .sum::<f64>()
        });
        let mean = sum / DRAWS as f64;
        rep.check(
            ((mean - 0.5).abs() > 0.01).then(|| format!("counter draws average {mean}, want 0.5")),
        );
    }
    let first = first.ok_or("no mission succeeded")?;
    let queue_ns: Vec<f64> = tr
        .samples("sim.fleet.queue")
        .iter()
        .map(|ns| ns / QUEUE_OPS as f64)
        .collect();
    let draw_ns: Vec<f64> = tr
        .samples("rng.counter_draw")
        .iter()
        .map(|ns| ns / DRAWS as f64)
        .collect();
    rep.set(
        "sim.fleet.mission_ms",
        tr.median_self("sim.fleet.run", 1e6),
        "ms",
    );
    rep.set("sim.fleet.events_per_mission", first.events as f64, "count");
    rep.set(
        "sim.fleet.stale_ratio",
        first.stale_events as f64 / first.events.max(1) as f64,
        "ratio",
    );
    rep.set("sim.fleet.queue_ns", median(&queue_ns), "ns");
    rep.set("rng.counter_draw_ns", median(&draw_ns), "ns");
    rep.note("fleet.trace_missions", missions as f64, "count");
    Ok(rep)
}
