//! `serve_hot`: an open loop of cache-served reads through a 2-shard
//! router.
//!
//! Set-up starts two shards and a `--route` router, picks `serving_day`
//! bodies so that every shard owns at least one (by
//! `rendezvous_owner`), warms their one-shot results, and runs one job
//! per body to completion. The measured mix re-uploads warmed bodies
//! (cache hits), fetches finished job results, and probes `/healthz`,
//! at a fixed rate on a schedule drawn from the seed. Latency runs from
//! each request's due time, so a stall delays every request behind it;
//! how late the generator itself woke is reported separately. The
//! replay runs the hit path in process: `DatasetStream` parse,
//! canonical `write_csv` + `digest_hex`, and `ResultCache::lookup`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mobipriv_eval::Json;
use mobipriv_model::digest::digest_hex;
use mobipriv_model::write_csv;
use mobipriv_service::cache::CachedResult;
use mobipriv_service::client::{header, Connection};
use mobipriv_service::{rendezvous_owner, result_key, DatasetRegistry, ResultCache};
use mobipriv_synth::scenarios;

use crate::common::*;
use crate::tracer::Tracer;

/// Replayed operations per traced pass.
const REPLAY_OPS: usize = 60;
/// Routed/direct request pairs per body for the router-hop probe.
const HOP_PROBES: usize = 5;
/// Candidate datasets tried when covering every shard.
const MAX_CANDIDATES: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Upload,
    Result,
    Healthz,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Planned {
    due_s: f64,
    kind: Kind,
    item: usize,
}

struct Setup {
    shards: Vec<ServerProc>,
    router: ServerProc,
    bodies: Vec<Vec<u8>>,
    digests: Vec<String>,
    owners: Vec<usize>,
    uploads: Vec<Vec<u8>>,
    /// `(job id, canonical key, result bytes)` per finished job.
    jobs: Vec<(String, String, Vec<u8>)>,
    healthz: Vec<u8>,
    synth_ms: f64,
    register_ms: f64,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn upload_target(query: &str, seed: u64) -> String {
    format!("/v1/anonymize?{query}&seed={seed}")
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let spec = &ctx.spec;
    let (query, seed) = (spec.text("query"), ctx.args.seed);
    let mut shards = Vec::new();
    for _ in 0..spec.count("shards") {
        shards.push(ServerProc::spawn(&ctx.args.serve, &[])?);
    }
    let names: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
    let router = ServerProc::spawn(&ctx.args.serve, &["--route", &names.join(",")])?;

    // Bodies in seed order, skipping a candidate only when taking it
    // would leave a shard without a body.
    let want = spec.count("bodies");
    let synth_start = Instant::now();
    let (mut bodies, mut digests, mut owners) = (Vec::new(), Vec::new(), Vec::new());
    for c in 0..MAX_CANDIDATES {
        if bodies.len() == want {
            break;
        }
        let world =
            scenarios::serving_day(spec.count("users"), seed.wrapping_mul(97).wrapping_add(c));
        let mut body = Vec::new();
        write_csv(&world.dataset, &mut body).map_err(|e| e.to_string())?;
        let digest = digest_hex(&body);
        let owner = rendezvous_owner(&names, &digest).expect("shards exist");
        let missing = (0..names.len())
            .filter(|s| *s != owner && !owners.contains(s))
            .count();
        if missing > want - bodies.len() - 1 {
            continue;
        }
        bodies.push(body);
        digests.push(digest);
        owners.push(owner);
    }
    if bodies.len() < want {
        return Err("could not place a body on every shard".into());
    }
    let synth_ms = synth_start.elapsed().as_secs_f64() * 1e3;

    let mut conn = connect(&router.addr)?;
    let mut uploads = Vec::new();
    for body in &bodies {
        uploads.push(expect(
            &mut conn,
            "POST",
            &upload_target(query, seed),
            body,
            &[200],
        )?);
    }
    let mut jobs = Vec::new();
    for j in 0..spec.count("jobs") {
        let b = j % bodies.len();
        expect(&mut conn, "POST", "/v1/datasets", &bodies[b], &[200])?;
        let job_seed = seed.wrapping_add(1 + j as u64);
        let submit = format!("/v1/jobs?dataset={}&{query}&seed={job_seed}", digests[b]);
        let doc = json_of(&expect(&mut conn, "POST", &submit, b"", &[200, 202])?)?;
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .ok_or("job without id")?
            .to_owned();
        let result = loop {
            let (status, _, body) = call(&mut conn, "GET", &format!("/v1/results/{id}"), b"")?;
            match status {
                200 => break body,
                202 => std::thread::sleep(Duration::from_millis(2)),
                other => return Err(format!("job {id}: HTTP {other}")),
            }
        };
        jobs.push((id, anonymize_key(query, &digests[b], job_seed)?, result));
    }
    let healthz = expect(&mut conn, "GET", "/healthz", b"", &[200])?;
    let register_ms = if ctx.args.trace {
        let registry = DatasetRegistry::new(512 * 1024 * 1024);
        let mut total = 0.0;
        for body in &bodies {
            let dataset = parse_csv(body)?;
            total += timed(|| registry.register(dataset)).1 * 1e3;
        }
        total / bodies.len() as f64
    } else {
        0.0
    };
    Ok(Setup {
        shards,
        router,
        bodies,
        digests,
        owners,
        uploads,
        jobs,
        healthz,
        synth_ms,
        register_ms,
    })
}

/// The seed-drawn schedule: `count` requests at `rate` per second. The
/// mix is exact per block (`serve_hot.block` gives each kind's count),
/// with the order inside every block shuffled by the seed, so the
/// kinds' shares do not vary between runs.
fn schedule(ctx: &Ctx, s: &Setup, count: usize, rate: f64) -> Vec<Planned> {
    let block = ctx.spec.section().get("block").expect("serve_hot.block");
    let of = |k: &str| block.get(k).and_then(Json::as_u64).unwrap_or(0) as usize;
    let mut kinds = vec![Kind::Upload; of("upload")];
    kinds.extend(vec![Kind::Result; of("result")]);
    kinds.extend(vec![Kind::Healthz; of("healthz")]);
    let mut state = ctx.args.seed ^ 0x5eed_f05e_7e40_7001;
    let mut plan = Vec::with_capacity(count);
    while plan.len() < count {
        // Fisher-Yates over one block.
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, splitmix(&mut state) as usize % (i + 1));
        }
        for &kind in &kinds {
            let pick = splitmix(&mut state) as usize;
            let item = match kind {
                Kind::Upload => pick % s.bodies.len(),
                Kind::Result => pick % s.jobs.len(),
                Kind::Healthz => 0,
            };
            plan.push(Planned {
                due_s: plan.len() as f64 / rate,
                kind,
                item,
            });
        }
    }
    plan.truncate(count);
    plan
}

/// Sends one planned request and checks its answer byte for byte.
fn send(conn: &mut Connection, ctx: &Ctx, s: &Setup, p: &Planned) -> Result<(), String> {
    let (target, method, body, expected): (String, &str, &[u8], &[u8]) = match p.kind {
        Kind::Upload => (
            upload_target(ctx.spec.text("query"), ctx.args.seed),
            "POST",
            &s.bodies[p.item],
            &s.uploads[p.item],
        ),
        Kind::Result => (
            format!("/v1/results/{}", s.jobs[p.item].0),
            "GET",
            b"",
            &s.jobs[p.item].2,
        ),
        Kind::Healthz => ("/healthz".to_owned(), "GET", b"", &s.healthz),
    };
    let (status, headers, got) = call(conn, method, &target, body)?;
    if status != 200 {
        return Err(format!("{method} {target}: HTTP {status}"));
    }
    if p.kind == Kind::Upload && header(&headers, "x-mobipriv-cache") != Some("hit") {
        return Err(format!("{target}: re-upload was not a cache hit"));
    }
    if got != expected {
        return Err(format!(
            "{method} {target}: bytes differ from the first answer"
        ));
    }
    Ok(())
}

struct Sent {
    index: usize,
    kind: Kind,
    latency_ms: f64,
    rtt_ms: f64,
    /// Generator lateness, for requests whose client was idle at the
    /// due time.
    lag_ms: Option<f64>,
    end_s: f64,
    ok: bool,
}

/// What the open loop leaves behind.
struct OpenRun {
    sent: Vec<Sent>,
    /// When the schedule's clock started.
    start: Instant,
    seconds: f64,
    requests: u64,
    connects: u64,
    errors: Vec<String>,
}

/// The open loop: clients take the next due request as soon as they are
/// free and send it at its due time (or at once, if already late).
fn open_loop(ctx: &Ctx, s: &Setup, plan: &[Planned]) -> Result<OpenRun, String> {
    let next = AtomicUsize::new(0);
    let errors = std::sync::Mutex::new(Vec::new());
    let mut conns = Vec::new();
    for _ in 0..ctx.spec.count("clients") {
        conns.push(connect(&s.router.addr)?);
    }
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<(Vec<Sent>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let (next, errors) = (&next, &errors);
                scope.spawn(move || {
                    let mut sent = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(p) = plan.get(index) else { break };
                        let due = start + Duration::from_secs_f64(p.due_s);
                        let now = Instant::now();
                        let lag_ms = if now < due {
                            std::thread::sleep(due - now);
                            Some(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3)
                        } else {
                            None
                        };
                        let send_start = Instant::now();
                        let verdict = send(&mut conn, ctx, s, p);
                        let end = Instant::now();
                        if let Err(e) = &verdict {
                            errors.lock().expect("errors").push(e.clone());
                        }
                        sent.push(Sent {
                            index,
                            kind: p.kind,
                            latency_ms: end.saturating_duration_since(due).as_secs_f64() * 1e3,
                            rtt_ms: (end - send_start).as_secs_f64() * 1e3,
                            lag_ms,
                            end_s: end.saturating_duration_since(start).as_secs_f64(),
                            ok: verdict.is_ok(),
                        });
                    }
                    (sent, conn.requests(), conn.connects())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let (mut sent, mut requests, mut connects) = (Vec::new(), 0, 0);
    for (s, r, c) in results {
        sent.extend(s);
        requests += r;
        connects += c;
    }
    sent.sort_by_key(|s| s.index);
    let seconds = sent.iter().map(|s| s.end_s).fold(0.0, f64::max);
    Ok(OpenRun {
        sent,
        start,
        seconds,
        requests,
        connects,
        errors: errors.into_inner().expect("errors"),
    })
}

/// Per-shard request counts and total route errors, from the router.
fn route_counts(router: &str) -> Result<(Vec<f64>, f64), String> {
    let scrape = scrape_metrics(router)?;
    let per_shard = scrape
        .by_label("mobipriv_route_requests_total", "shard")
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    Ok((per_shard, scrape.total("mobipriv_route_errors_total")))
}

/// Routed minus direct round trip for the same upload, median over
/// probes.
fn router_hop_ms(ctx: &Ctx, s: &Setup) -> Result<f64, String> {
    let mut routed = connect(&s.router.addr)?;
    let mut direct: Vec<Connection> = s
        .shards
        .iter()
        .map(|sh| connect(&sh.addr))
        .collect::<Result<_, _>>()?;
    let target = upload_target(ctx.spec.text("query"), ctx.args.seed);
    let mut hops = Vec::new();
    for _ in 0..HOP_PROBES {
        for (b, body) in s.bodies.iter().enumerate() {
            let (via_router, t_routed) =
                timed(|| expect(&mut routed, "POST", &target, body, &[200]));
            let (at_shard, t_direct) =
                timed(|| expect(&mut direct[s.owners[b]], "POST", &target, body, &[200]));
            if via_router? != s.uploads[b] || at_shard? != s.uploads[b] {
                return Err("router hop probe: bytes differ".into());
            }
            hops.push((t_routed - t_direct) * 1e3);
        }
    }
    Ok(median(&hops))
}

/// Replays the sampled requests' hit path in process.
fn replay(ctx: &Ctx, s: &Setup, plan: &[Planned], t: &mut Tracer) -> Result<u64, String> {
    let query = ctx.spec.text("query");
    let cache = ResultCache::new(256 * 1024 * 1024);
    let fill = |canonical: &str, body: &[u8]| {
        cache.get_or_compute(canonical, || {
            Ok(CachedResult {
                canonical: canonical.to_owned(),
                content_type: "text/csv",
                headers: Vec::new(),
                body: body.to_vec(),
            })
        })
    };
    for (b, digest) in s.digests.iter().enumerate() {
        fill(&anonymize_key(query, digest, ctx.args.seed)?, &s.uploads[b])
            .map_err(|e| e.to_string())?;
    }
    for (id, canonical, body) in &s.jobs {
        if result_key(canonical) != *id {
            return Err(format!("job id {id} is not the result key of {canonical}"));
        }
        fill(canonical, body).map_err(|e| e.to_string())?;
    }
    let mut ops = 0;
    for (i, p) in plan.iter().take(REPLAY_OPS).enumerate() {
        t.begin_op(i as u64);
        ops += 1;
        t.span("op", |t| -> Result<(), String> {
            let (key, expected) = match p.kind {
                Kind::Upload => {
                    let dataset = t.span("model.parse", |_| parse_csv(&s.bodies[p.item]))?;
                    let digest = t.span("model.digest", |_| {
                        let mut csv = Vec::new();
                        write_csv(&dataset, &mut csv).map(|_| digest_hex(&csv))
                    });
                    let digest = digest.map_err(|e| e.to_string())?;
                    (
                        result_key(&anonymize_key(query, &digest, ctx.args.seed)?),
                        &s.uploads[p.item],
                    )
                }
                Kind::Result => (s.jobs[p.item].0.clone(), &s.jobs[p.item].2),
                Kind::Healthz => return Ok(()),
            };
            let hit = t.span("cache.lookup", |_| cache.lookup(&key));
            match hit {
                Some(result) if result.body == *expected => Ok(()),
                _ => Err(format!(
                    "in-process lookup of {key} disagrees with the service"
                )),
            }
        })?;
    }
    Ok(ops)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let repeats = if ctx.args.trace || ctx.args.capacity {
        1
    } else {
        ctx.spec.setup_repeats()
    };
    let (s, setup_times) = repeated_setup(repeats, || setup(ctx))?;
    let mut outcome = Outcome::new();
    outcome
        .phases
        .push(Phase::new("setup", setup_times.len() as u64, 0));
    outcome.note("users", ctx.spec.count("users"));
    outcome.note(
        "body_bytes",
        s.bodies
            .iter()
            .map(|b| b.len().to_string())
            .collect::<Vec<_>>()
            .join(" "),
    );
    outcome.note("owners", format!("{:?}", s.owners));
    let shard_addrs: Vec<&str> = s.shards.iter().map(|p| p.addr.as_str()).collect();
    let mut procs: Vec<&ServerProc> = s.shards.iter().collect();
    procs.push(&s.router);
    let slo_ms = ctx.spec.num("slo_ms");

    if ctx.args.capacity {
        // Closed loop over the same mix: the rate the open loop's
        // `rate_per_s` is set to half of.
        let plan = schedule(ctx, &s, 1 << 16, 1.0);
        let cpu_before = cpu_ms(&procs);
        let run = closed_loop(
            &s.router.addr,
            ctx.spec.count("clients"),
            ctx.args.seconds,
            1,
            |i, conn| {
                let p = &plan[i as usize % plan.len()];
                (send(conn, ctx, &s, p).is_ok(), 1.0, ())
            },
        )?;
        let window = run.window(cpu_ms(&procs) - cpu_before, peak_rss_mb(&procs));
        outcome.note("mode", "capacity (closed loop)");
        outcome.report(&window, &setup_times, slo_ms);
        return Ok(outcome);
    }

    let rate = ctx.spec.num("rate_per_s");
    let seconds = if ctx.args.trace {
        ctx.args.seconds * 0.5
    } else {
        ctx.args.seconds
    };
    let plan = schedule(ctx, &s, (rate * seconds).ceil() as usize, rate);
    let origin = Instant::now();
    let before = NodeCounters::read(&shard_addrs)?;
    let (routes_before, route_errors_before) = route_counts(&s.router.addr)?;
    let cpu_before = cpu_ms(&procs);
    let OpenRun {
        sent,
        start,
        seconds: window_s,
        requests,
        connects,
        errors,
    } = open_loop(ctx, &s, &plan)?;
    let cpu = cpu_ms(&procs) - cpu_before;
    let delta = NodeCounters::read(&shard_addrs)?.since(&before);
    let (routes_after, route_errors_after) = route_counts(&s.router.addr)?;
    for e in errors {
        outcome.error(e);
    }
    let attempted = sent.len() as u64;
    let failed = sent.iter().filter(|x| !x.ok).count() as u64;
    outcome.attempted = attempted;
    outcome.failed = failed;
    outcome.phases.push(Phase::new(
        if ctx.args.trace { "service" } else { "measure" },
        attempted,
        failed,
    ));

    for (kind, name) in [
        (Kind::Upload, "upload"),
        (Kind::Result, "result"),
        (Kind::Healthz, "healthz"),
    ] {
        let latencies: Vec<f64> = sent
            .iter()
            .filter(|x| x.kind == kind)
            .map(|x| x.latency_ms)
            .collect();
        outcome.note(&format!("latency_p50_ms.{name}"), median(&latencies));
    }
    let lags: Vec<f64> = sent.iter().filter_map(|x| x.lag_ms).collect();
    let lag_p90 = quantile(&lags, 0.9);
    let uploads = sent.iter().filter(|x| x.kind == Kind::Upload).count();
    outcome.note("uploads", uploads);
    outcome.note("idle_sends", lags.len());
    // Every upload re-sends a warmed body: the shards must count one
    // cache hit per upload on top of the one per result fetch.
    let results = sent.iter().filter(|x| x.kind == Kind::Result).count();
    outcome.guards.push(Guard::at_least(
        "repeated_body_share",
        (delta.hits - results as f64) / uploads.max(1) as f64,
        1.0,
    ));
    outcome.guards.push(Guard::at_least(
        "cache_hit_ratio",
        delta.hit_ratio(),
        ctx.spec.num("min_hit_ratio"),
    ));
    outcome
        .guards
        .push(Guard::at_most("computations", delta.computations, 0.0));
    outcome.guards.push(Guard::at_most(
        "gen_lag_p90_ms",
        lag_p90,
        ctx.spec.num("max_gen_lag_p90_ms"),
    ));

    if !ctx.args.trace {
        let window = Window {
            ops: sent
                .iter()
                .map(|x| OpSample {
                    latency_ms: x.latency_ms,
                    ok: x.ok,
                    end_s: x.end_s,
                    units: 1.0,
                })
                .collect(),
            seconds: window_s,
            cpu_ms: cpu,
            rss_mb: peak_rss_mb(&procs),
        };
        outcome.report(&window, &setup_times, slo_ms);
        return Ok(outcome);
    }

    let mut layers = LayerValues::default();
    delta.set_layers(&mut layers);
    set_client_layers(&mut layers, requests, connects);
    layers.set("synth.generate_ms", s.synth_ms);
    layers.set("datasets.register_ms", s.register_ms);
    layers.set("gen.lag_p90_ms", lag_p90);
    let healthz: Vec<f64> = sent
        .iter()
        .filter(|x| x.kind == Kind::Healthz)
        .map(|x| x.rtt_ms)
        .collect();
    layers.set("http.healthz_rtt_ms", median(&healthz));
    let routed: Vec<f64> = routes_after
        .iter()
        .zip(routes_before.iter().chain(std::iter::repeat(&0.0)))
        .map(|(a, b)| a - b)
        .collect();
    let total: f64 = routed.iter().sum();
    layers.set(
        "router.shard_share_max",
        routed.iter().fold(0.0, |m: f64, v| m.max(*v)) / total.max(1.0),
    );
    layers.set(
        "router.route_errors",
        route_errors_after - route_errors_before,
    );
    let (hop, hop_s) = timed(|| router_hop_ms(ctx, &s));
    layers.set("router.hop_ms", hop?);
    outcome.phases.push(Phase::new(
        "hop_probe",
        (2 * HOP_PROBES * s.bodies.len()) as u64,
        0,
    ));
    outcome.note("hop_probe_s", hop_s);

    let mut untraced = Tracer::new(false, origin);
    let (ops, untraced_s) = timed(|| replay(ctx, &s, &plan, &mut untraced));
    let mut tracer = Tracer::new(true, origin);
    for x in &sent {
        let end = start + Duration::from_secs_f64(x.end_s);
        let start = end - Duration::from_secs_f64(x.rtt_ms / 1e3);
        let name = match x.kind {
            Kind::Upload => "client.upload",
            Kind::Result => "client.result",
            Kind::Healthz => "client.healthz",
        };
        tracer.push(name, x.index as u64, start, end);
    }
    let (ops2, traced_s) = timed(|| replay(ctx, &s, &plan, &mut tracer));
    let replay_ok = ops.is_ok() && ops2.is_ok();
    if let Err(e) = ops.as_ref().and(ops2.as_ref()) {
        outcome.error(e.clone());
    }
    let n = ops2.unwrap_or(0);
    outcome
        .phases
        .push(Phase::new("replay", 2 * n, u64::from(!replay_ok)));
    layers.set_from_tracer(&tracer, n);
    layers.set(
        "obs.trace_overhead_ratio",
        overhead_ratio(untraced_s, traced_s),
    );
    outcome.metrics = layers.metrics();
    outcome.tracer = Some((tracer, n));
    Ok(outcome)
}
