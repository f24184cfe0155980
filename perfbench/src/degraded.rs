//! `degraded-rebuild`: the paper's MTTR lever. Eight bricks, a 4+2 code
//! (fault tolerance 2), 256 KiB objects. Each cycle builds a fresh
//! cluster, stops one brick and advances the `MockClock` until the
//! detector declares it dead, then times degraded gets of every object
//! that had a data shard on the dead brick and one `repair_all`.

use std::time::{Duration, Instant};

use nsr_erasure::rs::ReedSolomon;
use nsr_net::client::BrickClient;
use nsr_net::gateway::ReadMode;

use crate::cluster::Cluster;
use crate::common::{
    median, percentile, secs, Expected, InputRng, PayloadPool, Report, Stopwatch, Tracer,
};
use crate::FAST_END;

const BRICKS: usize = 8;
const K: usize = 4;
const T: usize = 2;
const OBJ_BYTES: usize = 256 * 1024;
const SHARD_BYTES: usize = OBJ_BYTES / K;
const OBJECTS: u64 = 128;
const BODIES: usize = 16;
/// Timed passes over the degraded objects per cycle.
const PASSES: usize = 2;
const MIN_CYCLES: usize = 20;

struct Cycle {
    cluster: Cluster,
    pool: PayloadPool,
    expected: Vec<Expected>,
    victim: u32,
    /// Objects with a data shard on the victim, in a seeded order.
    degraded: Vec<u64>,
    rng: InputRng,
}

/// Set-up of one cycle: bricks, populate, warm, kill. Everything before
/// the first timed degraded get; only the calls into the program run on
/// `sw`.
fn setup(seed: u64, cycle: u64, tr: &mut Tracer, sw: &mut Stopwatch) -> Result<Cycle, String> {
    let pool = PayloadPool::new(seed, BODIES, OBJ_BYTES);
    let mut rng = InputRng::new(seed, 0xDE6A_0000 + cycle);
    let mut cluster = sw
        .time(|| Cluster::start(BRICKS, K, T, tr))
        .map_err(|e| e.to_string())?;
    let mut buf = Vec::with_capacity(OBJ_BYTES);
    let mut expected = Vec::with_capacity(OBJECTS as usize);
    for key in 0..OBJECTS {
        let exp = Expected {
            key,
            version: cycle,
            body: rng.below(BODIES as u64) as usize,
        };
        pool.build_into(&mut buf, exp);
        sw.time(|| cluster.gw.put(key, &buf))
            .map_err(|e| format!("populate obj{key}: {e}"))?;
        expected.push(exp);
    }
    for key in 0..OBJECTS {
        let (data, _) = sw
            .time(|| cluster.gw.get(key))
            .map_err(|e| format!("warm obj{key}: {e}"))?;
        if !pool.matches(&data, expected[key as usize]) {
            return Err(format!("warm read of obj{key} returned wrong bytes"));
        }
    }
    let victim = rng.below(BRICKS as u64) as u32;
    let mut degraded: Vec<u64> = (0..OBJECTS)
        .filter(|&o| {
            cluster
                .gw
                .object_layout(o)
                .is_some_and(|l| l[..K].contains(&victim))
        })
        .collect();
    rng.shuffle(&mut degraded);
    sw.time(|| tr.span("setup.kill", |tr| cluster.kill(victim, tr)))?;
    // One untimed degraded pass: the first decode of each object pays
    // first-touch costs that a steady degraded period does not.
    for &key in &degraded {
        sw.time(|| cluster.gw.get(key))
            .map_err(|e| format!("warm degraded obj{key}: {e}"))?;
    }
    Ok(Cycle {
        cluster,
        pool,
        expected,
        victim,
        degraded,
        rng,
    })
}

/// What one cycle measured.
#[derive(Default)]
struct CycleStats {
    setup_s: f64,
    get_s: Vec<f64>,
    repair_s: f64,
    shards_moved: u64,
    bytes_moved: u64,
    repair_requests: u64,
    shards_per_object: f64,
}

/// One full cycle. `probe` adds the traced run's single-layer calls
/// after each degraded get.
fn cycle(
    seed: u64,
    n: u64,
    tr: &mut Tracer,
    rep: &mut Report,
    mut probe: Option<&mut Probes>,
) -> Result<CycleStats, String> {
    let mut sw = Stopwatch::default();
    let mut c = tr.span("setup.degraded", |tr| setup(seed, n, tr, &mut sw))?;
    let mut stats = CycleStats {
        setup_s: sw.secs(),
        ..CycleStats::default()
    };
    if let Some(p) = probe.as_deref_mut() {
        p.connect(&c)?;
    }
    for _ in 0..PASSES {
        let mut order = c.degraded.clone();
        c.rng.shuffle(&mut order);
        for key in order {
            let t0 = Instant::now();
            let res = tr.span("op.degraded_get", |tr| {
                tr.span("net.gateway.degraded_get", |_| c.cluster.gw.get(key))
            });
            stats.get_s.push(secs(t0));
            rep.check(match res {
                Ok((data, ReadMode::Degraded))
                    if c.pool.matches(&data, c.expected[key as usize]) =>
                {
                    None
                }
                Ok((_, ReadMode::Degraded)) => {
                    Some(format!("degraded get obj{key}: wrong bytes returned as Ok"))
                }
                Ok((_, ReadMode::Healthy)) => {
                    Some(format!("get obj{key}: healthy read with a data brick dead"))
                }
                Err(e) => Some(format!("degraded get obj{key}: {e}")),
            });
            if let Some(p) = probe.as_deref_mut() {
                p.run(&c, key, tr, rep);
            }
        }
    }
    let requests_before = nsr_net::obs::BRICK_REQUESTS.get();
    let t0 = Instant::now();
    let repaired = tr.span("net.gateway.repair_all", |_| c.cluster.gw.repair_all());
    stats.repair_s = secs(t0);
    stats.repair_requests = nsr_net::obs::BRICK_REQUESTS.get() - requests_before;
    match repaired {
        Ok(r)
            if r.lost_objects.is_empty() && r.deferred_objects.is_empty() && r.shards_moved > 0 =>
        {
            stats.shards_moved = r.shards_moved;
            stats.bytes_moved = r.bytes_moved;
            rep.check(None);
        }
        Ok(r) => rep.check(Some(format!(
            "repair left lost {:?} deferred {:?}",
            r.lost_objects, r.deferred_objects
        ))),
        Err(e) => rep.check(Some(format!("repair_all: {e}"))),
    }
    // After repair: every object reads back whole, without decoding, and
    // the live bricks hold exactly k + t shards per object.
    for key in 0..OBJECTS {
        rep.check(match c.cluster.gw.get(key) {
            Ok((data, ReadMode::Healthy)) if c.pool.matches(&data, c.expected[key as usize]) => {
                None
            }
            Ok((_, ReadMode::Healthy)) => {
                Some(format!("read-back obj{key}: wrong bytes returned as Ok"))
            }
            Ok((_, ReadMode::Degraded)) => {
                Some(format!("read-back obj{key}: still degraded after repair"))
            }
            Err(e) => Some(format!("read-back obj{key}: {e}")),
        });
    }
    let stored = c.cluster.stored_shards();
    let total: usize = stored.iter().flatten().sum();
    stats.shards_per_object = total as f64 / OBJECTS as f64;
    rep.check(
        if stored.iter().filter(|s| s.is_none()).count() == 1 && total == OBJECTS as usize * (K + T)
        {
            None
        } else {
            Some(format!(
                "after repair bricks hold {stored:?} shards, want {} in total",
                OBJECTS as usize * (K + T)
            ))
        },
    );
    if let Some(p) = probe {
        p.clients.clear();
    }
    c.cluster.shutdown()?;
    Ok(stats)
}

/// The untraced run: cycles until the time is spent, and at least
/// [`MIN_CYCLES`].
///
/// The bounded metrics come from the repairs. Degraded gets are printed
/// as figures only: on a shared 2-vCPU host up to half of the 30-s runs
/// had every get slowed up to 2× (the client and four brick threads
/// wait on each other for the CPU), while the repairs' p10 moved under
/// 10%.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut tr = Tracer::new(false);
    let mut rep = Report::default();
    let mut all = Vec::new();
    let start = Instant::now();
    while secs(start) < seconds || all.len() < MIN_CYCLES {
        all.push(cycle(seed, all.len() as u64, &mut tr, &mut rep, None)?);
    }
    let gets: Vec<f64> = all.iter().flat_map(|c| c.get_s.iter().copied()).collect();
    let setups: Vec<f64> = all.iter().map(|c| c.setup_s).collect();
    let repairs: Vec<f64> = all.iter().map(|c| c.repair_s).collect();
    // Every cycle moves the same shards, so the rate at the fast end
    // (see `crate::FAST_END`) is taken at the p10 repair time.
    let fast = percentile(&repairs, FAST_END);
    let first = &all[0];
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let repair_s: f64 = repairs.iter().sum();
    let bytes: u64 = all.iter().map(|c| c.bytes_moved).sum();
    rep.set("setup_s", percentile(&setups, FAST_END), "s");
    rep.set("throughput_per_s", first.shards_moved as f64 / fast, "1/s");
    rep.latency("repair", &repairs, FAST_END);
    rep.figures("get", &gets);
    rep.note("rebuild_mib_per_s", mib(first.bytes_moved) / fast, "MiB/s");
    rep.note("rebuild_mib_per_s_mean", mib(bytes) / repair_s, "MiB/s");
    rep.note(
        "ops_per_s",
        gets.len() as f64 / gets.iter().sum::<f64>(),
        "1/s",
    );
    rep.note("cycles", all.len() as f64, "count");
    Ok(rep)
}

/// Single-layer calls made after each degraded get of the traced run:
/// the decode the gateway performs (plan, then apply) on shards fetched
/// by the benchmark, and one `rebuild_fetch` round trip.
struct Probes {
    codec: ReedSolomon,
    clients: Vec<Option<BrickClient>>,
}

impl Probes {
    fn new() -> Result<Probes, String> {
        Ok(Probes {
            codec: ReedSolomon::new(K, T).map_err(|e| e.to_string())?,
            clients: Vec::new(),
        })
    }

    /// One client per live brick of the cycle's cluster.
    fn connect(&mut self, c: &Cycle) -> Result<(), String> {
        self.clients = (0..BRICKS as u32)
            .map(|id| match id == c.victim {
                true => Ok(None),
                false => {
                    BrickClient::connect(c.cluster.addrs[id as usize], Duration::from_millis(500))
                        .map(Some)
                }
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("probe client: {e}"))?;
        Ok(())
    }

    fn run(&mut self, c: &Cycle, key: u64, tr: &mut Tracer, rep: &mut Report) {
        let Some(layout) = c.cluster.gw.object_layout(key) else {
            rep.check(Some(format!("probe obj{key}: no layout")));
            return;
        };
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; K + T];
        let mut have = 0;
        for (pos, &brick) in layout.iter().enumerate() {
            let Some(client) = self.clients[brick as usize].as_mut() else {
                continue;
            };
            if have == K {
                break;
            }
            let fetched = if have == 0 {
                tr.span("net.client.rebuild_fetch", |_| {
                    client.rebuild_fetch(key, pos as u32)
                })
            } else {
                client.rebuild_fetch(key, pos as u32)
            };
            match fetched {
                Ok(d) if d.len() == SHARD_BYTES => {
                    shards[pos] = Some(d);
                    have += 1;
                }
                other => {
                    rep.check(Some(format!(
                        "rebuild_fetch obj{key} pos{pos}: {:?}",
                        other.map(|d| d.len())
                    )));
                    return;
                }
            }
        }
        let missing: Vec<usize> = (0..K + T).filter(|&p| shards[p].is_none()).collect();
        let codec = &self.codec;
        let res = tr.span("erasure.rs.reconstruct", |tr| {
            let plan = tr.span("erasure.rs.plan", |_| codec.plan_reconstruction(&missing))?;
            codec.reconstruct_with_plan(&plan, &mut shards)
        });
        let mut object = Vec::with_capacity(OBJ_BYTES);
        for s in shards.iter().take(K).flatten() {
            object.extend_from_slice(s);
        }
        rep.check(match res {
            Ok(()) if c.pool.matches(&object, c.expected[key as usize]) => None,
            Ok(()) => Some(format!("reconstruct obj{key}: wrong bytes")),
            Err(e) => Some(format!("reconstruct obj{key}: {e}")),
        });
    }
}

/// The traced run: per-layer self times and the exact repair counts of
/// the first cycle.
pub fn traced(seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Report, String> {
    nsr_net::obs::register();
    nsr_obs::set_metrics_enabled(true);
    let mut rep = Report::default();
    let mut probes = Probes::new()?;
    let mut all = Vec::new();
    let start = Instant::now();
    while secs(start) < seconds || all.is_empty() {
        all.push(cycle(
            seed,
            all.len() as u64,
            tr,
            &mut rep,
            Some(&mut probes),
        )?);
    }
    let first: &CycleStats = &all[0];
    let per_shard: Vec<f64> = all
        .iter()
        .map(|c| c.repair_s * 1e6 / c.shards_moved.max(1) as f64)
        .collect();
    rep.set(
        "net.gateway.degraded_get_us",
        tr.median_self("net.gateway.degraded_get", 1e3),
        "us",
    );
    rep.set(
        "erasure.rs.plan_us",
        tr.median_self("erasure.rs.plan", 1e3),
        "us",
    );
    rep.set(
        "erasure.rs.reconstruct_us",
        tr.median_self("erasure.rs.reconstruct", 1e3),
        "us",
    );
    rep.set(
        "net.client.rebuild_fetch_us",
        tr.median_self("net.client.rebuild_fetch", 1e3),
        "us",
    );
    rep.set("net.gateway.repair_shard_us", median(&per_shard), "us");
    rep.set(
        "net.rebuild.shards_moved",
        first.shards_moved as f64,
        "count",
    );
    rep.set("net.rebuild.bytes_moved", first.bytes_moved as f64, "bytes");
    rep.set(
        "net.brick.requests_per_shard_moved",
        first.repair_requests as f64 / first.shards_moved.max(1) as f64,
        "count",
    );
    rep.set(
        "net.brick.shards_per_object",
        first.shards_per_object,
        "count",
    );
    rep.set(
        "net.detector.pump_us",
        tr.median_self("net.detector.pump", 1e3),
        "us",
    );
    rep.note("degraded.trace_cycles", all.len() as f64, "count");
    Ok(rep)
}
