//! Shared plumbing: arguments, the workload spec, server processes and
//! their `/proc` counters, HTTP helpers, latency statistics and the
//! result line.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mobipriv_eval::Json;
use mobipriv_model::{Dataset, DatasetStream, WireFormat};
use mobipriv_obs::scrape::{self, Scrape};
use mobipriv_service::client::{Connection, Headers};
use mobipriv_service::registry::Params;
use mobipriv_service::resolve_mechanism;

use crate::tracer::Tracer;

/// Per-read timeout for every benchmark connection.
pub const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub serve: PathBuf,
    pub root: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `serve_hot` only: measure the mix's closed-loop capacity instead
    /// of running the open loop (used to pick the recorded rate).
    pub capacity: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut serve = None;
        let mut root = None;
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut capacity = false;
        while let Some(flag) = it.next() {
            if flag == "--capacity" {
                capacity = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
            match flag.as_str() {
                "--serve" => serve = Some(PathBuf::from(value)),
                "--root" => root = Some(PathBuf::from(value)),
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0)
                            .ok_or("--seconds expects a positive number")?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace expects 0 or 1".into()),
                    })
                }
                other => return Err(format!("unexpected argument: {other}")),
            }
        }
        Ok(Args {
            serve: serve.ok_or("--serve is required")?,
            root: root.unwrap_or_else(|| PathBuf::from(".")),
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            capacity,
        })
    }
}

/// `perfbench/workloads.json`: every load-shaping number.
#[derive(Debug)]
pub struct Spec {
    doc: Json,
    workload: String,
}

impl Spec {
    pub fn load(root: &Path, workload: &str) -> Result<Spec, String> {
        let path = root.join("perfbench").join("workloads.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        if doc.get("workloads").and_then(|w| w.get(workload)).is_none() {
            return Err(format!("unknown workload `{workload}`"));
        }
        Ok(Spec {
            doc,
            workload: workload.to_owned(),
        })
    }

    /// This workload's section.
    pub fn section(&self) -> &Json {
        self.doc
            .get("workloads")
            .and_then(|w| w.get(&self.workload))
            .expect("checked at load")
    }

    pub fn num(&self, key: &str) -> f64 {
        self.section()
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("workloads.json: {}.{key} must be a number", self.workload))
    }

    pub fn count(&self, key: &str) -> usize {
        self.num(key) as usize
    }

    pub fn text(&self, key: &str) -> &str {
        self.section()
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("workloads.json: {}.{key} must be a string", self.workload))
    }

    /// Set-ups per run: the workload's own `setup_repeats`, else the
    /// file-wide one.
    pub fn setup_repeats(&self) -> usize {
        self.section()
            .get("setup_repeats")
            .or_else(|| self.doc.get("setup_repeats"))
            .and_then(Json::as_u64)
            .unwrap_or(1)
            .max(1) as usize
    }
}

/// Everything a workload needs.
pub struct Ctx {
    pub args: Args,
    pub spec: Spec,
}

// ---------------------------------------------------------------------------
// Server processes
// ---------------------------------------------------------------------------

/// A running `mobipriv-serve` process; killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    drain: Option<std::thread::JoinHandle<()>>,
    pub addr: String,
}

impl ServerProc {
    /// Starts the release binary on an ephemeral port with its default
    /// flags plus `extra`, and waits for its listening line.
    pub fn spawn(bin: &Path, extra: &[&str]) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("mobipriv-serve exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("http://").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_owned();
            }
        };
        // Keep draining stdout so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        let server = ServerProc {
            child,
            drain: Some(drain),
            addr,
        };
        // Ready means answering: one liveness probe.
        expect(&mut connect(&server.addr)?, "GET", "/healthz", b"", &[200])?;
        Ok(server)
    }

    /// User + system CPU time consumed so far, milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        let path = format!("/proc/{}/stat", self.child.id());
        let Ok(stat) = std::fs::read_to_string(path) else {
            return 0.0;
        };
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks: f64 = [11, 12]
            .iter()
            .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<f64>().ok()))
            .sum();
        ticks * 1000.0 / clock_ticks()
    }

    /// Peak resident set size (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let path = format!("/proc/{}/status", self.child.id());
        std::fs::read_to_string(path)
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The pipe closed with the process, so the drain thread ends.
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Kernel clock ticks per second (`getconf CLK_TCK`, 100 if unknown).
fn clock_ticks() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(100.0)
    })
}

/// CPU milliseconds summed over `procs`.
pub fn cpu_ms(procs: &[&ServerProc]) -> f64 {
    procs.iter().map(|p| p.cpu_ms()).sum()
}

/// Peak RSS summed over `procs`, MiB.
pub fn peak_rss_mb(procs: &[&ServerProc]) -> f64 {
    procs.iter().map(|p| p.peak_rss_mb()).sum()
}

/// Peak resident memory after a fixed amount of work: `VmHWM` read
/// when operation `after` completes. Every cold request adds its
/// result to the server's cache, so a peak read at the end of a timed
/// window moves with throughput; read after a fixed operation count it
/// moves only with memory per operation. Once the cache reaches its
/// byte budget, evictions grow the allocator's heap by a different
/// amount on every run of the same code, so workloads place the mark
/// before that point.
pub struct RssMark {
    after: u64,
    at: std::sync::OnceLock<f64>,
}

impl RssMark {
    pub fn new(after: u64) -> RssMark {
        RssMark {
            after,
            at: std::sync::OnceLock::new(),
        }
    }

    /// Call when operation `index` has completed.
    pub fn observe(&self, index: u64, server: &ServerProc) {
        if index == self.after {
            let _ = self.at.set(server.peak_rss_mb());
        }
    }

    /// The mark, or `end` (the peak at the end of the window) when the
    /// run never completed operation `after`.
    pub fn value_or(&self, end: f64) -> f64 {
        self.at.get().copied().unwrap_or(end)
    }

    pub fn note(&self) -> String {
        match self.at.get() {
            Some(_) => format!("VmHWM after operation {}", self.after),
            None => format!("VmHWM at window end (operation {} not reached)", self.after),
        }
    }
}

// ---------------------------------------------------------------------------
// HTTP helpers
// ---------------------------------------------------------------------------

pub type Response = (u16, Headers, Vec<u8>);

pub fn connect(addr: &str) -> Result<Connection, String> {
    Connection::connect(addr, READ_TIMEOUT).map_err(|e| format!("connecting to {addr}: {e}"))
}

pub fn call(
    conn: &mut Connection,
    method: &str,
    target: &str,
    body: &[u8],
) -> Result<Response, String> {
    conn.request(method, target, body)
        .map_err(|e| format!("{method} {target}: {e}"))
}

/// A request that must answer `want`; returns the body.
pub fn expect(
    conn: &mut Connection,
    method: &str,
    target: &str,
    body: &[u8],
    want: &[u16],
) -> Result<Vec<u8>, String> {
    let (status, _, body) = call(conn, method, target, body)?;
    if !want.contains(&status) {
        return Err(format!(
            "{method} {target}: HTTP {status}: {}",
            String::from_utf8_lossy(&body[..body.len().min(200)])
        ));
    }
    Ok(body)
}

pub fn json_of(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 JSON body".to_owned())?;
    Json::parse(text).map_err(|e| format!("bad JSON body: {e}"))
}

/// One `/metrics` scrape.
pub fn scrape_metrics(addr: &str) -> Result<Scrape, String> {
    let mut conn = connect(addr)?;
    let body = expect(&mut conn, "GET", "/metrics", b"", &[200])?;
    scrape::parse(&String::from_utf8_lossy(&body))
}

/// `a=1&b=2` plus `seed`, as the service's parameter pairs.
pub fn query_pairs(query: &str, seed: u64) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    pairs.push(("seed".into(), seed.to_string()));
    pairs
}

/// The result-cache key string the service files a one-shot or job
/// anonymization under (CSV output, no report).
pub fn anonymize_key(query: &str, digest: &str, seed: u64) -> Result<String, String> {
    let mechanism = resolve_mechanism(Params(&query_pairs(query, seed)))
        .map_err(|e| e.to_string())?
        .canonical;
    Ok(format!(
        "v1|anonymize|{digest}|{mechanism}|seed={seed}|report=0"
    ))
}

/// Parses a CSV body the way the service's upload path does.
pub fn parse_csv(body: &[u8]) -> Result<Dataset, String> {
    let mut stream = DatasetStream::new(WireFormat::Csv);
    stream.push_chunk(body).map_err(|e| e.to_string())?;
    stream.finish().map_err(|e| e.to_string())
}

/// The request seed of operation `index`: distinct for every operation
/// of a run.
pub fn op_seed(run_seed: u64, index: u64) -> u64 {
    run_seed.wrapping_mul(1_000_003).wrapping_add(index)
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Harrell–Davis estimate of quantile `q` of unsorted samples (0 when
/// empty): a Beta-weighted mean of all order statistics. It averages the
/// samples around the quantile instead of reading one or two of them, so
/// it stays steady where the samples are a mix of operation kinds with
/// a gap between their latencies (a cycle of scenarios, a mix of
/// uploads and reads).
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let mut previous = 0.0;
    let mut estimate = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n as f64, a, b);
        estimate += (cdf - previous) * x;
        previous = cdf;
    }
    estimate
}

/// The regularized incomplete beta function `I_x(a, b)`, by its
/// continued fraction (modified Lentz).
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - beta_cdf(1.0 - x, b, a);
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    const TINY: f64 = 1e-300;
    let (mut c, mut d) = (1.0, 1.0 - (a + b) * x / (a + 1.0));
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut f = d;
    for m in 1..10_000 {
        let m = m as f64;
        for numerator in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + numerator * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + numerator / c;
            c = if c.abs() < TINY { TINY } else { c };
            f *= c * d;
        }
        if (c * d - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (ln_front.exp() * f / a).clamp(0.0, 1.0)
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series: f64 = C[0] + (1..9).map(|i| C[i] / (x + i as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One measured operation.
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Latency in ms (closed loop: from send; open loop: from due time).
    pub latency_ms: f64,
    pub ok: bool,
    /// Completion time, seconds since the window opened.
    pub end_s: f64,
    /// Work units the operation stands for (eval cells; 1 elsewhere).
    pub units: f64,
}

/// What a measurement window produced, ready to become end-to-end
/// metrics.
pub struct Window {
    pub ops: Vec<OpSample>,
    /// Window length in seconds.
    pub seconds: f64,
    pub cpu_ms: f64,
    pub rss_mb: f64,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }

    /// The end-to-end metrics every workload reports.
    pub fn metrics(&self, setup_s: &[f64], slo_ms: f64) -> Vec<Metric> {
        let attempted = self.ops.len().max(1) as f64;
        let ok: Vec<&OpSample> = self.ops.iter().filter(|o| o.ok).collect();
        let units: f64 = ok.iter().map(|o| o.units).sum();
        let latencies: Vec<f64> = self.ops.iter().map(|o| o.latency_ms).collect();
        let within = ok.iter().filter(|o| o.latency_ms <= slo_ms).count() as f64;
        vec![
            Metric::new("setup_s", median(setup_s), "s"),
            Metric::new("ops_per_s", units / self.seconds.max(1e-9), "1/s"),
            Metric::new("latency_p50_ms", hd_quantile(&latencies, 0.5), "ms"),
            Metric::new("latency_p90_ms", hd_quantile(&latencies, 0.9), "ms"),
            Metric::new("ok_ratio", ok.len() as f64 / attempted, "ratio"),
            Metric::new("slo_ok_ratio", within / attempted, "ratio"),
            Metric::new("server_cpu_ms_per_op", self.cpu_ms / units.max(1.0), "ms"),
            Metric::new("server_rss_mb", self.rss_mb, "MiB"),
        ]
    }
}

// ---------------------------------------------------------------------------
// The result
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// Operation counts of one phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    pub fn new(name: &'static str, attempted: u64, failed: u64) -> Phase {
        Phase {
            name,
            attempted,
            failed,
        }
    }
}

/// A run-validity guard: a run that breaks one reports no numbers.
#[derive(Debug, Clone)]
pub struct Guard {
    pub name: &'static str,
    pub observed: f64,
    pub limit: String,
    pub ok: bool,
}

impl Guard {
    pub fn at_most(name: &'static str, observed: f64, max: f64) -> Guard {
        Guard {
            name,
            observed,
            limit: format!("<= {max}"),
            ok: observed <= max,
        }
    }

    pub fn at_least(name: &'static str, observed: f64, min: f64) -> Guard {
        Guard {
            name,
            observed,
            limit: format!(">= {min}"),
            ok: observed >= min,
        }
    }
}

/// Everything a run reports.
pub struct Outcome {
    /// Operations of the run's main phase (the measured window, or the
    /// traced service phase).
    pub attempted: u64,
    pub failed: u64,
    pub phases: Vec<Phase>,
    pub guards: Vec<Guard>,
    pub metrics: Vec<Metric>,
    /// Human-readable failure reasons (first few).
    pub errors: Vec<String>,
    pub notes: Vec<(String, String)>,
    pub tracer: Option<(Tracer, u64)>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            phases: Vec::new(),
            guards: Vec::new(),
            metrics: Vec::new(),
            errors: Vec::new(),
            notes: Vec::new(),
            tracer: None,
        }
    }

    /// Makes `window`'s end-to-end metrics this run's result.
    pub fn report(&mut self, window: &Window, setup_s: &[f64], slo_ms: f64) {
        self.attempted = window.attempted();
        self.failed = window.failed();
        self.metrics = window.metrics(setup_s, slo_ms);
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    pub fn error(&mut self, message: String) {
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0
            && self.phases.iter().all(|p| p.failed == 0)
            && self.guards.iter().all(|g| g.ok)
            && self.errors.is_empty()
    }

    /// Writes the run record (and, when traced, the span file and the
    /// self-time table) under `perfbench/out/`, then prints the result
    /// line. Returns whether the run was correct.
    pub fn finish(self, args: &Args) -> bool {
        let correct = self.correct();
        let out_dir = args.root.join("perfbench").join("out");
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        let _ = std::fs::create_dir_all(&out_dir);
        let mut record = String::new();
        record.push_str(&format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"nproc\": {},\n  \"correct\": {correct},\n",
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ));
        record.push_str("  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            record.push_str(&format!(
                "{}\n    {{\"phase\": \"{}\", \"attempted\": {}, \"succeeded\": {}, \"failed\": {}}}",
                if i > 0 { "," } else { "" },
                p.name,
                p.attempted,
                p.attempted - p.failed,
                p.failed
            ));
        }
        record.push_str("\n  ],\n  \"guards\": [");
        for (i, g) in self.guards.iter().enumerate() {
            record.push_str(&format!(
                "{}\n    {{\"guard\": \"{}\", \"observed\": {}, \"limit\": \"{}\", \"ok\": {}}}",
                if i > 0 { "," } else { "" },
                g.name,
                json_num(g.observed),
                g.limit,
                g.ok
            ));
        }
        record.push_str("\n  ],\n  \"notes\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            record.push_str(&format!(
                "{}\n    \"{k}\": \"{}\"",
                if i > 0 { "," } else { "" },
                v.replace('\\', "\\\\").replace('"', "\\\"")
            ));
        }
        record.push_str("\n  },\n  \"errors\": [");
        for (i, e) in self.errors.iter().enumerate() {
            record.push_str(&format!(
                "{}\n    \"{}\"",
                if i > 0 { "," } else { "" },
                e.replace('\\', "\\\\").replace('"', "\\\"")
            ));
        }
        record.push_str("\n  ],\n  \"metrics\": ");
        record.push_str(&metrics_json(&self.metrics));
        record.push_str("\n}\n");
        let _ = std::fs::write(out_dir.join(format!("{stem}.json")), record);
        if let Some((tracer, ops)) = &self.tracer {
            let _ = std::fs::write(
                out_dir.join(format!("{stem}.spans.jsonl")),
                tracer.to_jsonl(),
            );
            let table = tracer.table(*ops);
            let _ = std::fs::write(out_dir.join(format!("{stem}.selftime.txt")), &table);
            eprint!("self time per layer ({ops} replayed operations):\n{table}");
        }
        for e in &self.errors {
            eprintln!("perfbench: {e}");
        }
        for g in self.guards.iter().filter(|g| !g.ok) {
            eprintln!(
                "perfbench: guard {} broken: observed {} (limit {})",
                g.name, g.observed, g.limit
            );
        }
        // A run that breaks a guard or fails a check reports no numbers.
        let metrics = if correct {
            metrics_json(&self.metrics)
        } else {
            "{}".to_owned()
        };
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The per-layer metric names every traced run reports, in order; a
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("model.parse_ms", "ms"),
    ("model.digest_ms", "ms"),
    ("model.serialize_ms", "ms"),
    ("core.protect_ms", "ms"),
    ("core.promesse_ms", "ms"),
    ("core.mixzone_detect_ms", "ms"),
    ("core.mixzone_swap_ms", "ms"),
    ("core.zones", "count"),
    ("core.suppressed_fixes", "count"),
    ("core.output_fixes", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.computations", "count"),
    ("cache.lookup_us", "us"),
    ("datasets.register_ms", "ms"),
    ("jobs.run_ms", "ms"),
    ("jobs.queue_wait_ms", "ms"),
    ("jobs.polls_per_job", "count"),
    ("jobs.retries", "count"),
    ("router.hop_ms", "ms"),
    ("router.shard_share_max", "ratio"),
    ("router.route_errors", "count"),
    ("admission.shed", "count"),
    ("admission.queue_peak", "count"),
    ("client.connects", "count"),
    ("client.reuse_ratio", "ratio"),
    ("http.healthz_rtt_ms", "ms"),
    ("metrics.distortion_ms", "ms"),
    ("metrics.coverage_ms", "ms"),
    ("metrics.trips_ms", "ms"),
    ("attacks.tracker_ms", "ms"),
    ("attacks.reident_ms", "ms"),
    ("attacks.poi_ms", "ms"),
    ("attacks.home_ms", "ms"),
    ("eval.build_ms", "ms"),
    ("synth.generate_ms", "ms"),
    ("gen.lag_p90_ms", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// Collects per-layer values by name and emits the full [`PER_LAYER`]
/// list (unset layers read 0).
#[derive(Default)]
pub struct LayerValues(std::collections::BTreeMap<&'static str, f64>);

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Sets the `<layer>_ms` (or `<layer>_us`) metrics from the replay
    /// tracer's self time per operation, for every span name that maps
    /// to a metric.
    pub fn set_from_tracer(&mut self, tracer: &Tracer, ops: u64) {
        for (name, time) in tracer.layers() {
            let per_op_ms = time.self_ms / ops.max(1) as f64;
            for (suffix, scale) in [("ms", 1.0), ("us", 1e3)] {
                let metric = format!("{name}_{suffix}");
                if let Some((n, _)) = PER_LAYER.iter().find(|(n, _)| *n == metric) {
                    self.0.insert(n, per_op_ms * scale);
                }
            }
        }
    }

    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| Metric::new(name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Overhead of tracing the replay: untraced ops/s over traced ops/s.
pub fn overhead_ratio(untraced_s: f64, traced_s: f64) -> f64 {
    if untraced_s <= 0.0 {
        1.0
    } else {
        traced_s / untraced_s
    }
}

/// Times `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// Load loops and server-side counters
// ---------------------------------------------------------------------------

/// One closed-loop operation as timed by its client thread.
pub struct Timed<T> {
    pub index: u64,
    pub start: Instant,
    pub end: Instant,
    pub sample: OpSample,
    pub extra: T,
}

/// What a closed loop leaves behind.
pub struct LoopRun<T> {
    pub ops: Vec<Timed<T>>,
    pub seconds: f64,
    pub requests: u64,
    pub connects: u64,
}

impl<T> LoopRun<T> {
    /// The loop's operations as a measurement window.
    pub fn window(&self, cpu_ms: f64, rss_mb: f64) -> Window {
        Window {
            ops: self.ops.iter().map(|o| o.sample.clone()).collect(),
            seconds: self.seconds,
            cpu_ms,
            rss_mb,
        }
    }
}

/// Runs `clients` closed-loop clients, each on its own keep-alive
/// connection to `addr`, until `seconds` have passed: a client sends
/// its next operation only after the previous one completed. `op`
/// receives a run-wide operation index and returns `(ok, units, extra)`.
/// Past the deadline a client stops at the next index that is a
/// multiple of `round`, so a single client cycling through `round`
/// kinds of operation always finishes whole cycles.
pub fn closed_loop<T: Send>(
    addr: &str,
    clients: usize,
    seconds: f64,
    round: u64,
    op: impl Fn(u64, &mut Connection) -> (bool, f64, T) + Sync,
) -> Result<LoopRun<T>, String> {
    let next = std::sync::atomic::AtomicU64::new(0);
    let mut conns = Vec::new();
    for _ in 0..clients {
        conns.push(connect(addr)?);
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Timed<T>>, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let (next, op) = (&next, &op);
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        if Instant::now() >= deadline && index % round.max(1) == 0 {
                            break;
                        }
                        let began = Instant::now();
                        let (ok, units, extra) = op(index, &mut conn);
                        let end = Instant::now();
                        done.push(Timed {
                            index,
                            start: began,
                            end,
                            sample: OpSample {
                                latency_ms: (end - began).as_secs_f64() * 1e3,
                                ok,
                                end_s: (end - start).as_secs_f64(),
                                units,
                            },
                            extra,
                        });
                    }
                    (done, conn.requests(), conn.connects())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut ops = Vec::new();
    let (mut requests, mut connects) = (0, 0);
    for (done, r, c) in per_client {
        ops.extend(done);
        requests += r;
        connects += c;
    }
    ops.sort_by_key(|t| t.index);
    let seconds = ops.iter().map(|t| t.sample.end_s).fold(seconds, f64::max);
    Ok(LoopRun {
        ops,
        seconds,
        requests,
        connects,
    })
}

/// Counters scraped from the serving nodes' `/metrics`, summed over
/// nodes (`queue_peak` is the maximum).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeCounters {
    pub hits: f64,
    pub misses: f64,
    pub computations: f64,
    pub shed: f64,
    pub queue_peak: f64,
    pub retries: f64,
}

impl NodeCounters {
    pub fn read(addrs: &[&str]) -> Result<NodeCounters, String> {
        let mut c = NodeCounters::default();
        for addr in addrs {
            let s = scrape_metrics(addr)?;
            c.hits += s.total("mobipriv_cache_hits_total");
            c.misses += s.total("mobipriv_cache_misses_total");
            c.computations += s.total("mobipriv_cache_computations_total");
            c.shed += s.total("mobipriv_http_shed_total") + s.total("mobipriv_overload_shed_total");
            c.queue_peak = c.queue_peak.max(s.total("mobipriv_http_queue_depth_peak"));
            c.retries += s.total("mobipriv_retries_total");
        }
        Ok(c)
    }

    /// `self - before` (the peak stays absolute).
    pub fn since(&self, before: &NodeCounters) -> NodeCounters {
        NodeCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            computations: self.computations - before.computations,
            shed: self.shed - before.shed,
            queue_peak: self.queue_peak,
            retries: self.retries - before.retries,
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0.0 {
            0.0
        } else {
            self.hits / lookups
        }
    }

    /// Records the cache and admission per-layer values.
    pub fn set_layers(&self, layers: &mut LayerValues) {
        layers.set("cache.hit_ratio", self.hit_ratio());
        layers.set("cache.computations", self.computations);
        layers.set("admission.shed", self.shed);
        layers.set("admission.queue_peak", self.queue_peak);
        layers.set("jobs.retries", self.retries);
    }
}

/// Sets the client connection per-layer values of a loop.
pub fn set_client_layers(layers: &mut LayerValues, requests: u64, connects: u64) {
    layers.set("client.connects", connects as f64);
    layers.set(
        "client.reuse_ratio",
        if requests == 0 {
            0.0
        } else {
            1.0 - connects as f64 / requests as f64
        },
    );
}

/// Runs `setup` `repeats` times (dropping the previous result first, so
/// servers never overlap) and returns the last result with every
/// set-up time in seconds.
pub fn repeated_setup<S>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let (state, secs) = timed(&mut setup);
        times.push(secs);
        last = Some(state?);
    }
    Ok((last.expect("at least one set-up"), times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let listed: Vec<(&str, &str)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).expect("name"),
                    m.get("unit").and_then(Json::as_str).expect("unit"),
                )
            })
            .collect();
        assert_eq!(listed, PER_LAYER.to_vec());
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn harrell_davis_matches_known_values() {
        // I_x(a, b) against closed forms: I_x(1, 1) = x, I_x(2, 1) = x^2.
        assert!((beta_cdf(0.3, 1.0, 1.0) - 0.3).abs() < 1e-12);
        assert!((beta_cdf(0.3, 2.0, 1.0) - 0.09).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        // Symmetric samples: the median estimate is the centre.
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((hd_quantile(&v, 0.5) - 51.0).abs() < 1e-9);
        let p90 = hd_quantile(&v, 0.9);
        assert!((p90 - quantile(&v, 0.9)).abs() < 1.0, "{p90}");
        assert_eq!(hd_quantile(&[7.0], 0.9), 7.0);
        assert_eq!(hd_quantile(&[], 0.5), 0.0);
    }
}
