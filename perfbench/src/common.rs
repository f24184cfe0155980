//! Pieces every workload shares: input generation, statistics, the
//! report a run prints, the host fingerprint, and the span recorder of
//! the traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use nsr_obs::Json;

/// SplitMix64: the benchmark's own input generator. It is independent of
/// the program's RNGs, so a change to those never changes the inputs.
#[derive(Debug, Clone)]
pub struct InputRng(u64);

impl InputRng {
    pub fn new(seed: u64, stream: u64) -> InputRng {
        let mut rng = InputRng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Bytes at the head of every object that name its key and version, so
/// a read of the wrong object or the wrong version never matches.
pub const STAMP_LEN: usize = 16;

/// A pool of random payload bodies, generated once in set-up. Object
/// contents are a pool body with a `(key, version)` stamp over the first
/// [`STAMP_LEN`] bytes, so the expected bytes of every object are known
/// without keeping a copy per object.
pub struct PayloadPool {
    bodies: Vec<Vec<u8>>,
}

impl PayloadPool {
    pub fn new(seed: u64, count: usize, len: usize) -> PayloadPool {
        assert!(len > STAMP_LEN, "payloads must be longer than the stamp");
        let mut rng = InputRng::new(seed, 0x5041_594C);
        let bodies = (0..count)
            .map(|_| {
                let mut body = vec![0u8; len];
                rng.fill(&mut body);
                body
            })
            .collect();
        PayloadPool { bodies }
    }

    /// Writes the contents of `(key, version)` built on body `body` into
    /// `out` (outside any timed window).
    pub fn build_into(&self, out: &mut Vec<u8>, expect: Expected) {
        out.clear();
        out.extend_from_slice(&self.bodies[expect.body]);
        out[..STAMP_LEN].copy_from_slice(&stamp(expect.key, expect.version));
    }

    /// Whether `got` is exactly the contents of `expect`.
    pub fn matches(&self, got: &[u8], expect: Expected) -> bool {
        let body = &self.bodies[expect.body];
        got.len() == body.len()
            && got[..STAMP_LEN] == stamp(expect.key, expect.version)
            && got[STAMP_LEN..] == body[STAMP_LEN..]
    }

    /// Corrupts one byte of a body: the deliberate fault the verifier
    /// must catch (test hook `--inject-corruption`).
    pub fn corrupt(&mut self, body: usize) {
        let b = &mut self.bodies[body];
        let at = b.len() / 2;
        b[at] ^= 0x5A;
    }
}

/// What one object is expected to hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub key: u64,
    pub version: u64,
    pub body: usize,
}

fn stamp(key: u64, version: u64) -> [u8; STAMP_LEN] {
    let mut s = [0u8; STAMP_LEN];
    s[..8].copy_from_slice(&key.to_le_bytes());
    s[8..].copy_from_slice(&version.to_le_bytes());
    s
}

/// YCSB's zipfian sampler over ranks `0..n` (Gray et al.), drawn from
/// the benchmark's own generator.
pub struct Zipf {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0, "zipf domain");
        let zeta = |items: u64| {
            (1..=items)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum::<f64>()
        };
        let zetan = zeta(n);
        Zipf {
            n,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
            half_pow_theta: 0.5_f64.powf(theta),
        }
    }

    pub fn rank(&self, rng: &mut InputRng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Samples strictly beyond the `q` percentile: a tail is only reported
/// when at least ten samples lie past it.
pub fn beyond(n: usize, q: f64) -> usize {
    n - 1 - ((n - 1) as f64 * q).round() as usize
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Sums the time spent inside [`Stopwatch::time`]: a set-up times only
/// its calls into the program, not input generation or verification.
#[derive(Debug, Default)]
pub struct Stopwatch(f64);

impl Stopwatch {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.0 += secs(t0);
        out
    }

    pub fn secs(&self) -> f64 {
        self.0
    }
}

/// Set-ups per run of `serve-mixed`, which sets up once.
const SETUPS: usize = 11;

/// Runs `setup` [`SETUPS`] times, handing each state but the last to
/// `retire` before the next set-up starts. Returns the last state and
/// the [`FAST_END`](crate::FAST_END) percentile of the set-up times, for
/// the same reason as the other timings, counting only what `setup` put
/// on its [`Stopwatch`].
pub fn repeated_setup<S>(
    mut setup: impl FnMut(&mut Stopwatch) -> Result<S, String>,
    mut retire: impl FnMut(S) -> Result<(), String>,
) -> Result<(S, f64), String> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(s) = last.take() {
            retire(s)?;
        }
        let mut sw = Stopwatch::default();
        last = Some(setup(&mut sw)?);
        secs.push(sw.secs());
    }
    Ok((
        last.expect("at least one set-up"),
        percentile(&secs, crate::FAST_END),
    ))
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One metric of a run's report.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload returns.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics that go into the final JSON line, by name.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Further named values printed for people (the workload-specific
    /// end-to-end figures and their sample counts).
    pub notes: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of the first few failures.
    pub errors: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, Metric { value, unit });
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }

    /// Counts one checked operation; `err` is `Some` when it failed or
    /// returned wrong output.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// The shared latency metric of a workload's timed operation: the
    /// `fast_end` percentile of `samples` (seconds), plus their
    /// [`figures`](Self::figures).
    pub fn latency(&mut self, what: &str, samples: &[f64], fast_end: f64) {
        self.set("fast_us", percentile(samples, fast_end) * 1e6, "us");
        self.figures(what, samples);
    }

    /// `<what>_*` figures of latency samples (seconds) for people.
    pub fn figures(&mut self, what: &str, samples: &[f64]) {
        let us = |q: f64| percentile(samples, q) * 1e6;
        let mean = samples.iter().sum::<f64>() / samples.len() as f64 * 1e6;
        self.note(format!("{what}_mean_us"), mean, "us");
        for (name, q) in [
            ("p1", 0.01),
            ("p5", 0.05),
            ("p10", 0.1),
            ("p25", 0.25),
            ("p50", 0.5),
            ("p75", 0.75),
            ("p90", 0.9),
            ("p99", 0.99),
        ] {
            self.note(format!("{what}_{name}_us"), us(q), "us");
        }
        self.note(format!("{what}_samples"), samples.len() as f64, "count");
        self.note(
            format!("{what}_samples_beyond_p99"),
            beyond(samples.len(), 0.99) as f64,
            "count",
        );
    }

    pub fn merge(&mut self, other: Report) {
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    /// The final line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(&name, m)| {
            (
                name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render_compact()
    }
}

/// Host and input identity printed with every run.
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent().unwrap_or(manifest);
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::obj([
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        ("heldout_seed", Json::Num(crate::HELDOUT_SEED as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("trace", Json::Bool(trace)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "kernel_tier",
            Json::Str(nsr_erasure::gf256::kernel_tier().into()),
        ),
        ("git_rev", Json::Str(git_rev)),
        (
            "source_fnv",
            Json::Str(format!("{:016x}", source_digest(&root.join("crates")))),
        ),
        ("profile", Json::Str(profile.into())),
    ])
    .render_compact()
}

/// FNV-1a over the relative paths and contents of every file under
/// `dir`, in path order: names the code under test where no git
/// metadata exists.
fn source_digest(dir: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        eat(f
            .strip_prefix(dir)
            .unwrap_or(&f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(&f).unwrap_or_default());
    }
    h
}

// ---------------------------------------------------------------------
// Span recorder of the traced run.

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    child_ns: u64,
    keep: bool,
}

struct Closed {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory spans (name, start, end, parent) recorded around the
/// benchmark's own calls into each layer. Every span feeds the per-name
/// self-time samples; whole span trees are kept for the JSONL file
/// until [`Tracer::SPAN_CAP`] spans are held.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    kept: Vec<Closed>,
    dropped: u64,
    self_ns: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub const SPAN_CAP: usize = 100_000;

    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
            self_ns: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name` (a plain call when off).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let parent = self.stack.last().map(|o| o.id);
        let keep = match self.stack.last() {
            Some(o) => o.keep,
            None => self.kept.len() < Self::SPAN_CAP,
        };
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            parent,
            name,
            start: Instant::now(),
            child_ns: 0,
            keep,
        });
        let out = f(self);
        let open = self.stack.pop().expect("span stack balanced");
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur_ns;
        }
        self.self_ns
            .entry(name)
            .or_default()
            .push(dur_ns.saturating_sub(open.child_ns) as f64);
        if open.keep {
            self.kept.push(Closed {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
        out
    }

    /// Self-time samples of every span named `name`, ns.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.self_ns.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median self time of `name`, scaled from ns by `per` (1e3 → µs).
    pub fn median_self(&self, name: &str, per: f64) -> f64 {
        let s = self.samples(name);
        if s.is_empty() {
            f64::NAN
        } else {
            median(s) / per
        }
    }

    /// The kept spans as `nsr-obs` JSON-lines: a v1 `meta` record, then
    /// one v2 `span` record per span in start order.
    pub fn jsonl(&self, source: &str) -> String {
        let mut out = Json::obj([
            ("schema", Json::Str(nsr_obs::SCHEMA.into())),
            ("kind", Json::Str("meta".into())),
            ("source", Json::Str(source.into())),
            ("dropped", Json::Num(self.dropped as f64)),
        ])
        .render_compact();
        out.push('\n');
        let mut order: Vec<&Closed> = self.kept.iter().collect();
        order.sort_by_key(|c| (c.start_ns, c.id));
        for (seq, c) in order.into_iter().enumerate() {
            let mut pairs = vec![
                ("schema", Json::Str(nsr_obs::SCHEMA_V2.into())),
                ("kind", Json::Str("span".into())),
                ("name", Json::Str(c.name.into())),
                ("at_s", Json::Num(c.start_ns as f64 / 1e9)),
                ("thread", Json::Num(0.0)),
                ("seq", Json::Num(seq as f64)),
                ("dur_s", Json::Num(c.dur_ns as f64 / 1e9)),
                ("span_id", Json::Num(c.id as f64)),
                ("fields", Json::obj([])),
            ];
            if let Some(p) = c.parent {
                pairs.push(("parent_id", Json::Num(p as f64)));
            }
            let _ = writeln!(out, "{}", Json::obj(pairs).render_compact());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifier_rejects_a_flipped_byte_and_a_wrong_stamp() {
        let mut pool = PayloadPool::new(9, 2, 4096);
        let exp = Expected {
            key: 7,
            version: 3,
            body: 1,
        };
        let mut buf = Vec::new();
        pool.build_into(&mut buf, exp);
        assert!(pool.matches(&buf, exp));
        assert!(!pool.matches(&buf, Expected { version: 4, ..exp }));
        assert!(!pool.matches(&buf, Expected { key: 8, ..exp }));
        assert!(!pool.matches(&buf[..4095], exp));
        let mut flipped = buf.clone();
        flipped[4000] ^= 1;
        assert!(!pool.matches(&flipped, exp));
        // Corrupting the expected body makes the stored bytes mismatch.
        pool.corrupt(1);
        assert!(!pool.matches(&buf, exp));
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut r = InputRng::new(seed, 1);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let z = Zipf::new(1024, 0.99);
        let mut r = InputRng::new(4, 2);
        let head = (0..10_000).filter(|_| z.rank(&mut r) < 102).count();
        assert!(head > 5_000, "top tenth of ranks drew {head} of 10000");
    }

    #[test]
    fn percentiles_and_tail_sample_counts() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(median(&v), 501.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn self_time_excludes_child_spans() {
        let mut tr = Tracer::new(true);
        tr.span("parent", |tr| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tr.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let parent = tr.samples("parent")[0];
        let child = tr.samples("child")[0];
        assert!(
            child >= 20e6 && parent >= 2e6 && parent < child,
            "parent {parent} child {child}"
        );
        let text = tr.jsonl("test");
        nsr_obs::validate_jsonl(&text).expect("valid records");
        nsr_obs::validate_span_links(&text).expect("parent present");
        let off = Tracer::new(false);
        assert!(off.samples("parent").is_empty());
    }
}
