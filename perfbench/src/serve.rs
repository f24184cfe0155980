//! `serve-mixed`: the client-facing path. Four bricks, a 2+1 code,
//! 64 KiB objects over a 1,024-key space, zipfian (θ = 0.99) keys, 90%
//! gets and 10% puts, one closed-loop client. No brick is down, so
//! nothing is decoded or repaired.

use std::time::{Duration, Instant};

use nsr_erasure::rs::ReedSolomon;
use nsr_net::client::BrickClient;
use nsr_net::gateway::ReadMode;
use nsr_net::obs::{BRICK_REQUESTS, POOL_RECONNECTS, POOL_REUSES, RETRIES};
use nsr_net::pool::ConnectionPool;
use nsr_net::wire::Frame;

use crate::cluster::Cluster;
use crate::common::{
    median, percentile, repeated_setup, secs, Expected, InputRng, PayloadPool, Report, Stopwatch,
    Tracer, Zipf,
};
use crate::FAST_END;

const BRICKS: usize = 4;
const K: usize = 2;
const T: usize = 1;
const OBJ_BYTES: usize = 64 * 1024;
const SHARD_BYTES: usize = OBJ_BYTES / K;
const KEYS: u64 = 1024;
const THETA: f64 = 0.99;
const READ_PCT: u64 = 90;
const BODIES: usize = 64;
/// Pre-generated ops; a run that uses them all starts over at op 0.
const STREAM_OPS: usize = 400_000;
/// Traced run: ops per untraced / traced block, and the leading gateway
/// ops whose brick requests give the exact `requests_per_op` count.
const TRACE_BLOCK: usize = 200;
const COUNT_PREFIX: usize = 1_000;
/// Object id for the probe `put_shard` calls; never a gateway object.
const PROBE_OBJECT: u64 = u64::MAX - 1;
/// Consecutive ops per block of the bounded throughput.
const RATE_BLOCK: usize = 200;

#[derive(Clone, Copy)]
struct Op {
    key: u32,
    body: u16,
    get: bool,
}

struct State {
    cluster: Cluster,
    pool: PayloadPool,
    expected: Vec<Expected>,
    ops: Vec<Op>,
    next_op: usize,
    version: u64,
    buf: Vec<u8>,
}

/// Set-up: inputs, then bricks, populate and a warm read of every key.
/// Only the calls into the program run on `sw`.
fn setup(seed: u64, corrupt: bool, tr: &mut Tracer, sw: &mut Stopwatch) -> Result<State, String> {
    let mut pool = PayloadPool::new(seed, BODIES, OBJ_BYTES);
    let mut rng = InputRng::new(seed, 0x5345_5256);
    let zipf = Zipf::new(KEYS, THETA);
    // Hot ranks land on scattered keys, not on keys 0, 1, 2, ...
    let mut key_of_rank: Vec<u32> = (0..KEYS as u32).collect();
    rng.shuffle(&mut key_of_rank);
    let ops = (0..STREAM_OPS)
        .map(|_| Op {
            key: key_of_rank[zipf.rank(&mut rng) as usize],
            get: rng.below(100) < READ_PCT,
            body: rng.below(BODIES as u64) as u16,
        })
        .collect();
    let cluster = sw
        .time(|| Cluster::start(BRICKS, K, T, tr))
        .map_err(|e| e.to_string())?;
    let mut expected = Vec::with_capacity(KEYS as usize);
    let mut buf = Vec::with_capacity(OBJ_BYTES);
    for key in 0..KEYS {
        let exp = Expected {
            key,
            version: 0,
            body: rng.below(BODIES as u64) as usize,
        };
        pool.build_into(&mut buf, exp);
        sw.time(|| cluster.gw.put(key, &buf))
            .map_err(|e| format!("populate obj{key}: {e}"))?;
        expected.push(exp);
    }
    // Warm every key: the first read of an object is slower than later
    // ones and belongs to set-up, not to the measured stream.
    for key in 0..KEYS {
        let (data, _) = sw
            .time(|| cluster.gw.get(key))
            .map_err(|e| format!("warm obj{key}: {e}"))?;
        if !pool.matches(&data, expected[key as usize]) {
            return Err(format!("warm read of obj{key} returned wrong bytes"));
        }
    }
    if corrupt {
        // The verifier must now reject reads of every key on body 0.
        pool.corrupt(0);
    }
    Ok(State {
        cluster,
        pool,
        expected,
        ops,
        next_op: 0,
        version: 0,
        buf,
    })
}

fn setup_many(seed: u64, corrupt: bool, tr: &mut Tracer) -> Result<(State, f64), String> {
    repeated_setup(
        |sw| tr.span("setup.serve", |tr| setup(seed, corrupt, tr, sw)),
        |s| s.cluster.shutdown(),
    )
}

/// Outcome of one gateway op: its kind, latency and failure (if any).
struct Done {
    get: bool,
    secs: f64,
    err: Option<String>,
}

impl State {
    fn next(&mut self) -> Op {
        let op = self.ops[self.next_op];
        self.next_op = (self.next_op + 1) % self.ops.len();
        op
    }

    /// Issues one op through the gateway. Payload building happens
    /// before the timer starts and byte verification after it stops.
    fn run_op(&mut self, op: Op, tr: &mut Tracer) -> Done {
        let key = u64::from(op.key);
        if op.get {
            let t0 = Instant::now();
            let res = tr.span("op.get", |tr| {
                tr.span("net.gateway.get", |_| self.cluster.gw.get(key))
            });
            let secs = secs(t0);
            let err = match res {
                Ok((data, ReadMode::Healthy))
                    if self.pool.matches(&data, self.expected[op.key as usize]) =>
                {
                    None
                }
                Ok((_, ReadMode::Healthy)) => {
                    Some(format!("get obj{key}: wrong bytes returned as Ok"))
                }
                Ok((_, ReadMode::Degraded)) => {
                    Some(format!("get obj{key}: degraded read with every brick up"))
                }
                Err(e) => Some(format!("get obj{key}: {e}")),
            };
            Done {
                get: true,
                secs,
                err,
            }
        } else {
            self.version += 1;
            let exp = Expected {
                key,
                version: self.version,
                body: usize::from(op.body),
            };
            self.pool.build_into(&mut self.buf, exp);
            let t0 = Instant::now();
            let res = tr.span("op.put", |tr| {
                tr.span("net.gateway.put", |_| self.cluster.gw.put(key, &self.buf))
            });
            let secs = secs(t0);
            let err = match res {
                Ok(()) => {
                    self.expected[op.key as usize] = exp;
                    None
                }
                Err(e) => Some(format!("put obj{key}: {e}")),
            };
            Done {
                get: false,
                secs,
                err,
            }
        }
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64, corrupt: bool) -> Result<Report, String> {
    let mut tr = Tracer::new(false);
    let (mut st, setup_s) = setup_many(seed, corrupt, &mut tr)?;
    let mut rep = Report::default();
    let (mut gets, mut puts, mut all) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while secs(start) < seconds || all.len() < 10 * RATE_BLOCK || puts.is_empty() {
        let op = st.next();
        let done = st.run_op(op, &mut tr);
        rep.check(done.err);
        all.push(done.secs);
        if done.get {
            gets.push(done.secs);
        } else {
            puts.push(done.secs);
        }
    }
    st.cluster.shutdown()?;
    let ops_per_s = all.len() as f64 / all.iter().sum::<f64>();
    // The rate at the p10 time of a block of consecutive ops: see
    // `crate::FAST_END`.
    let blocks: Vec<f64> = all
        .chunks_exact(RATE_BLOCK)
        .map(|b| b.iter().sum())
        .collect();
    rep.set("setup_s", setup_s, "s");
    rep.set(
        "throughput_per_s",
        RATE_BLOCK as f64 / percentile(&blocks, FAST_END),
        "1/s",
    );
    rep.note("ops_per_s", ops_per_s, "1/s");
    rep.latency("get", &gets, FAST_END);
    rep.figures("put", &puts);
    Ok(rep)
}

/// The traced run: per-layer self times around the benchmark's own
/// calls, plus the cost of leaving `nsr-obs` tracing on.
///
/// Rounds of three blocks over the op stream: `U` runs ops untraced,
/// `T` runs the next ops with `nsr-obs` tracing on and a span around
/// each gateway call, and `P` replays `T`'s ops as single-layer probe
/// calls (a benchmark-owned pool fan-out, one-brick round trips, the
/// wire codec and the erasure encoder). `obs.trace_overhead_pct`
/// compares the get latencies of `T` with those of `U`.
pub fn traced(seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Report, String> {
    nsr_net::obs::register();
    nsr_obs::set_metrics_enabled(true);
    let (mut st, _) = setup_many(seed, false, tr)?;
    let mut rep = Report::default();
    let mut probes = Probes::connect(&st.cluster)?;
    let (mut untraced_gets, mut traced_gets) = (Vec::new(), Vec::new());
    let (mut prefix_ops, mut prefix_requests) = (0usize, 0u64);
    let (mut reuses, mut reconnects) = (0u64, 0u64);
    let retries_before = RETRIES.get();
    let mut trace_records = 0usize;
    let mut rounds = 0usize;
    let start = Instant::now();
    while secs(start) < seconds || prefix_ops < COUNT_PREFIX {
        rounds += 1;
        let mut segment = Vec::with_capacity(TRACE_BLOCK);
        for traced_block in [false, true] {
            nsr_obs::set_trace_enabled(traced_block);
            for _ in 0..TRACE_BLOCK {
                let op = st.next();
                let (q0, r0, c0) = (
                    BRICK_REQUESTS.get(),
                    POOL_REUSES.get(),
                    POOL_RECONNECTS.get(),
                );
                let done = if traced_block {
                    segment.push(op);
                    st.run_op(op, tr)
                } else {
                    st.run_op(op, &mut Tracer::new(false))
                };
                let requests = BRICK_REQUESTS.get() - q0;
                reuses += POOL_REUSES.get() - r0;
                reconnects += POOL_RECONNECTS.get() - c0;
                if prefix_ops < COUNT_PREFIX {
                    prefix_ops += 1;
                    prefix_requests += requests;
                }
                if done.get {
                    let into = if traced_block {
                        &mut traced_gets
                    } else {
                        &mut untraced_gets
                    };
                    into.push(done.secs);
                }
                rep.check(done.err);
            }
            nsr_obs::set_trace_enabled(false);
            trace_records += nsr_obs::trace::drain().0.len();
        }
        for op in segment {
            probes.run(&mut st, op, tr, &mut rep);
        }
    }
    drop(probes);
    st.cluster.shutdown()?;
    let event_ns = event_cost_ns();
    let retries = RETRIES.get() - retries_before;
    for (metric, span) in [
        ("net.gateway.get_us", "net.gateway.get"),
        ("net.gateway.put_us", "net.gateway.put"),
        ("net.pool.fanout_get_us", "net.pool.fanout_get"),
        ("net.client.get_shard_us", "net.client.get_shard"),
        ("net.client.put_shard_us", "net.client.put_shard"),
        ("net.wire.encode_us", "net.wire.encode"),
        ("net.wire.decode_us", "net.wire.decode"),
        ("erasure.rs.encode_us", "erasure.rs.encode"),
    ] {
        rep.set(metric, tr.median_self(span, 1e3), "us");
    }
    rep.set(
        "net.brick.requests_per_op",
        prefix_requests as f64 / prefix_ops as f64,
        "count",
    );
    rep.set(
        "net.pool.reuse_ratio",
        reuses as f64 / (reuses + reconnects).max(1) as f64,
        "ratio",
    );
    rep.set("net.gateway.retries", retries as f64, "count");
    rep.set("obs.event_ns", event_ns, "ns");
    rep.set(
        "obs.trace_overhead_pct",
        (median(&traced_gets) / median(&untraced_gets) - 1.0) * 100.0,
        "%",
    );
    rep.note("serve.trace_rounds", rounds as f64, "count");
    rep.note("serve.program_trace_records", trace_records as f64, "count");
    Ok(rep)
}

/// Benchmark-owned connections for the single-layer probe calls: a
/// pool for the fan-out, one client per brick for one-brick round
/// trips, and an encoder with its parity buffer.
struct Probes {
    pool: ConnectionPool,
    clients: Vec<BrickClient>,
    codec: ReedSolomon,
    parity: Vec<Vec<u8>>,
}

impl Probes {
    fn connect(cluster: &Cluster) -> Result<Probes, String> {
        let timeout = Duration::from_millis(500);
        let clients = cluster
            .addrs
            .iter()
            .map(|&a| BrickClient::connect(a, timeout))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("probe client: {e}"))?;
        Ok(Probes {
            pool: ConnectionPool::new(cluster.addrs.clone(), timeout, 1),
            clients,
            codec: ReedSolomon::new(K, T).map_err(|e| e.to_string())?,
            parity: vec![vec![0u8; SHARD_BYTES]; T],
        })
    }

    /// Single-layer probe calls for one op of the stream, each in its
    /// own root span and each checked after its span closes.
    fn run(&mut self, st: &mut State, op: Op, tr: &mut Tracer, rep: &mut Report) {
        let Probes {
            pool,
            clients,
            codec,
            parity,
        } = self;
        let key = u64::from(op.key);
        if op.get {
            let exp = st.expected[op.key as usize];
            st.pool.build_into(&mut st.buf, exp);
            let Some(layout) = st.cluster.gw.object_layout(key) else {
                rep.check(Some(format!("probe obj{key}: no layout")));
                return;
            };
            let bricks = &layout[..K];
            let shards = tr.span("net.pool.fanout_get", |_| {
                pool.fanout(
                    bricks,
                    "get_shard",
                    |i, c| {
                        c.send_request(&Frame::GetShard {
                            object: key,
                            pos: i as u32,
                        })
                    },
                    |i, c| c.recv_shard("get_shard", key, i as u32),
                )
            });
            for (i, s) in shards.into_iter().enumerate() {
                let want = &st.buf[i * SHARD_BYTES..(i + 1) * SHARD_BYTES];
                rep.check(match s {
                    Ok(d) if d == want => None,
                    Ok(_) => Some(format!("fanout obj{key} pos{i}: wrong bytes")),
                    Err(e) => Some(format!("fanout obj{key} pos{i}: {e}")),
                });
            }
            let client = &mut clients[layout[0] as usize];
            let shard = tr.span("net.client.get_shard", |_| client.get_shard(key, 0));
            let want = &st.buf[..SHARD_BYTES];
            rep.check(match &shard {
                Ok(d) if d.as_slice() == want => None,
                Ok(_) => Some(format!("get_shard obj{key}: wrong bytes")),
                Err(e) => Some(format!("get_shard obj{key}: {e}")),
            });
            let frame = Frame::ShardData {
                data: want.to_vec(),
            }
            .encode();
            let decoded = tr.span("net.wire.decode", |_| Frame::decode(&frame[4..]));
            rep.check(match decoded {
                Ok(Frame::ShardData { data }) if data == want => None,
                other => Some(
                    format!("wire decode: {other:?}")
                        .chars()
                        .take(120)
                        .collect(),
                ),
            });
        } else {
            let exp = Expected {
                key,
                version: 0,
                body: usize::from(op.body),
            };
            st.pool.build_into(&mut st.buf, exp);
            let data: [&[u8]; K] = [&st.buf[..SHARD_BYTES], &st.buf[SHARD_BYTES..]];
            let encoded = tr.span("erasure.rs.encode", |_| {
                codec.encode_parity_into(&data, parity.as_mut_slice())
            });
            rep.check(match encoded {
                Ok(()) => match codec.verify(&[data[0], data[1], parity[0].as_slice()]) {
                    Ok(true) => None,
                    _ => Some("erasure encode: stripe does not verify".into()),
                },
                Err(e) => Some(format!("erasure encode: {e}")),
            });
            let frame = Frame::PutShard {
                object: PROBE_OBJECT,
                pos: 0,
                data: data[0].to_vec(),
            };
            let bytes = tr.span("net.wire.encode", |_| frame.encode());
            rep.check(match Frame::decode(&bytes[4..]) {
                Ok(back) if back == frame => None,
                _ => Some("wire encode: frame does not decode to itself".into()),
            });
            let res = tr.span("net.client.put_shard", |_| {
                clients[0].put_shard(PROBE_OBJECT, 0, data[0])
            });
            rep.check(res.err().map(|e| format!("put_shard probe: {e}")));
        }
    }
}

/// Cost of one enabled `nsr-obs` event, ns: the median of 20 blocks of
/// 1,000 events, with the sink drained between blocks.
fn event_cost_ns() -> f64 {
    const N: usize = 1_000;
    nsr_obs::set_trace_enabled(true);
    let mut per_event = Vec::new();
    for _ in 0..20 {
        let t0 = Instant::now();
        for i in 0..N {
            nsr_obs::trace::event("perfbench.event", || [("i", nsr_obs::Json::Num(i as f64))]);
        }
        per_event.push(t0.elapsed().as_nanos() as f64 / N as f64);
        nsr_obs::trace::drain();
    }
    nsr_obs::set_trace_enabled(false);
    median(&per_event)
}
