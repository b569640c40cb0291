//! `publish_cold`: closed loop, every request a cache miss.
//!
//! Each request POSTs a `serving_day` CSV body to `/v1/anonymize` with a
//! fresh seed. Bodies are a few pre-generated base datasets, each
//! request appending one extra two-fix trace under a user id of its own,
//! so no body ever repeats. The in-process replay runs the handler's
//! layers on the same bodies: `DatasetStream` parse, canonical
//! `write_csv` + `digest_hex`, `ResultCache::lookup`,
//! `build_mechanism` + `Engine::try_protect`, and `write_csv` of the
//! output, whose bytes must equal the service's answer.

use std::time::Instant;

use mobipriv_core::{CancelToken, Engine};
use mobipriv_model::digest::digest_hex;
use mobipriv_model::write_csv;
use mobipriv_service::client::header;
use mobipriv_service::registry::Params;
use mobipriv_service::{build_mechanism, result_key, ResultCache};
use mobipriv_synth::scenarios;

use crate::common::*;
use crate::tracer::Tracer;

/// Offset that keeps appended user ids clear of the generator's.
const EXTRA_USER_BASE: u64 = 10_000_000;
/// Operation index of the set-up's warm-up request (no window
/// operation reaches it).
const WARM_UP_INDEX: u64 = 1 << 40;
/// Replayed operations per traced pass.
const REPLAY_OPS: usize = 6;

struct Setup {
    server: ServerProc,
    bases: Vec<Vec<u8>>,
    /// `lat,lng` of a real fix, where the appended traces sit.
    anchor: String,
    synth_ms: f64,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let spec = &ctx.spec;
    let server = ServerProc::spawn(&ctx.args.serve, &[])?;
    let synth_start = Instant::now();
    let mut bases = Vec::new();
    for b in 0..spec.count("base_bodies") as u64 {
        let world = scenarios::serving_day(
            spec.count("users"),
            ctx.args.seed.wrapping_mul(31).wrapping_add(b),
        );
        let mut body = Vec::new();
        write_csv(&world.dataset, &mut body).map_err(|e| e.to_string())?;
        bases.push(body);
    }
    let synth_ms = synth_start.elapsed().as_secs_f64() * 1e3;
    let first_row = std::str::from_utf8(&bases[0])
        .ok()
        .and_then(|t| t.lines().nth(1))
        .ok_or("empty base body")?;
    let fields: Vec<&str> = first_row.split(',').collect();
    let anchor = format!("{},{}", fields[2], fields[3]);
    let setup = Setup {
        server,
        bases,
        anchor,
        synth_ms,
    };
    // One warm-up request, outside the window's index range, so the
    // server's lazy start-up is not timed as an operation.
    let index = WARM_UP_INDEX;
    let target = format!(
        "/v1/anonymize?{}&seed={}",
        spec.text("query"),
        op_seed(ctx.args.seed, index)
    );
    expect(
        &mut connect(&setup.server.addr)?,
        "POST",
        &target,
        &body(&setup, index),
        &[200],
    )?;
    Ok(setup)
}

/// The body of request `index`: a base dataset plus one trace of its
/// own.
fn body(s: &Setup, index: u64) -> Vec<u8> {
    let base = &s.bases[index as usize % s.bases.len()];
    let user = EXTRA_USER_BASE + index;
    let mut body = Vec::with_capacity(base.len() + 96);
    body.extend_from_slice(base);
    body.extend_from_slice(
        format!("{user},0,{a},1000000\n{user},0,{a},1000060\n", a = s.anchor).as_bytes(),
    );
    body
}

/// The handler's layers, in process, for one request. Returns the
/// response body the service must have sent.
fn replay(
    t: &mut Tracer,
    cache: &ResultCache,
    body: &[u8],
    query: &str,
    seed: u64,
) -> Result<Vec<u8>, String> {
    let pairs = query_pairs(query, seed);
    t.span("op", |t| {
        let dataset = t.span("model.parse", |_| parse_csv(body))?;
        let digest = t.span("model.digest", |_| {
            let mut canonical_csv = Vec::new();
            write_csv(&dataset, &mut canonical_csv).map(|_| digest_hex(&canonical_csv))
        });
        let digest = digest.map_err(|e| e.to_string())?;
        let key = anonymize_key(query, &digest, seed)?;
        let hit = t.span("cache.lookup", |_| {
            cache.lookup(&result_key(&key)).is_some()
        });
        if hit {
            return Err("in-process cache unexpectedly hit".into());
        }
        let output = t.span("core.protect", |_| {
            let mechanism = build_mechanism(Params(&pairs)).map_err(|e| e.to_string())?;
            Engine::sequential()
                .try_protect(mechanism.as_ref(), &dataset, seed, &CancelToken::none())
                .map_err(|_| "cancelled".to_owned())
        })?;
        t.span("model.serialize", |_| {
            let mut out = Vec::new();
            write_csv(&output, &mut out).map(|_| out)
        })
        .map_err(|e| e.to_string())
    })
}

struct Sent {
    seed: u64,
    /// The response body, kept for sampled requests only.
    kept: Option<Vec<u8>>,
}

fn drive(
    ctx: &Ctx,
    s: &Setup,
    seconds: f64,
    rss: &RssMark,
) -> Result<(LoopRun<Sent>, Vec<String>), String> {
    let query = ctx.spec.text("query");
    let check_every = ctx.spec.count("check_every").max(1) as u64;
    let errors = std::sync::Mutex::new(Vec::new());
    let run = closed_loop(
        &s.server.addr,
        ctx.spec.count("clients"),
        seconds,
        1,
        |index, conn| {
            let seed = op_seed(ctx.args.seed, index);
            let body = body(s, index);
            let target = format!("/v1/anonymize?{query}&seed={seed}");
            let verdict = match call(conn, "POST", &target, &body) {
                Ok((200, headers, out))
                    if header(&headers, "x-mobipriv-cache") == Some("miss")
                        && out.starts_with(b"user,trace,lat,lng,time\n") =>
                {
                    Ok(out)
                }
                Ok((status, headers, _)) => Err(format!(
                    "{target}: HTTP {status}, cache {:?}",
                    header(&headers, "x-mobipriv-cache")
                )),
                Err(e) => Err(e),
            };
            rss.observe(index, &s.server);
            match verdict {
                Ok(out) => {
                    let kept =
                        (index % check_every == 0 || index < REPLAY_OPS as u64).then_some(out);
                    (true, 1.0, Sent { seed, kept })
                }
                Err(e) => {
                    errors.lock().expect("errors").push(e);
                    (false, 1.0, Sent { seed, kept: None })
                }
            }
        },
    )?;
    Ok((run, errors.into_inner().expect("errors")))
}

/// Checks every kept response against the in-process replay; a
/// mismatch fails its operation. Returns (checked, mismatches).
fn verify(
    ctx: &Ctx,
    s: &Setup,
    run: &mut LoopRun<Sent>,
    tracer: &mut Tracer,
    limit: usize,
) -> (u64, u64) {
    let cache = ResultCache::new(64 * 1024 * 1024);
    let query = ctx.spec.text("query");
    let (mut checked, mut bad) = (0, 0);
    for op in run
        .ops
        .iter_mut()
        .filter(|o| o.extra.kept.is_some())
        .take(limit)
    {
        tracer.begin_op(op.index);
        let expected = replay(tracer, &cache, &body(s, op.index), query, op.extra.seed);
        checked += 1;
        if expected.as_deref().ok() != op.extra.kept.as_deref() {
            bad += 1;
            op.sample.ok = false;
        }
    }
    (checked, bad)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let repeats = if ctx.args.trace {
        1
    } else {
        ctx.spec.setup_repeats()
    };
    let (s, setup_times) = repeated_setup(repeats, || setup(ctx))?;
    let mut outcome = Outcome::new();
    outcome.note("users", ctx.spec.count("users"));
    outcome.note("base_bodies", s.bases.len());
    outcome.note("base_body_bytes", s.bases[0].len());
    let seconds = if ctx.args.trace {
        ctx.args.seconds * 0.5
    } else {
        ctx.args.seconds
    };
    let origin = Instant::now();
    let before = NodeCounters::read(&[&s.server.addr])?;
    let cpu_before = s.server.cpu_ms();
    let rss = RssMark::new(ctx.spec.count("rss_after_ops") as u64);
    let (mut run, errors) = drive(ctx, &s, seconds, &rss)?;
    let cpu_ms = s.server.cpu_ms() - cpu_before;
    let delta = NodeCounters::read(&[&s.server.addr])?.since(&before);
    for e in errors {
        outcome.error(e);
    }
    let attempted = run.ops.len() as u64;
    outcome
        .phases
        .push(Phase::new("setup", setup_times.len() as u64, 0));

    // Guards: every request a miss, no body repeated.
    outcome
        .guards
        .push(Guard::at_most("cache_hit_ratio", delta.hit_ratio(), 0.0));
    outcome.guards.push(Guard::at_least(
        "computations_per_request",
        delta.computations / attempted.max(1) as f64,
        1.0,
    ));
    // Body identity is (base, appended user id); the id is the request
    // index, so a repeat would need a repeated index.
    let mut ids: Vec<u64> = run.ops.iter().map(|o| o.index).collect();
    ids.dedup();
    let repeated = 1.0 - ids.len() as f64 / attempted.max(1) as f64;
    outcome
        .guards
        .push(Guard::at_most("repeated_body_share", repeated, 0.0));

    let mut replay_tracer = Tracer::new(false, Instant::now());
    if !ctx.args.trace {
        let (checked, bad) = verify(ctx, &s, &mut run, &mut replay_tracer, usize::MAX);
        outcome.phases.push(Phase::new(
            "measure",
            attempted,
            run.ops.iter().filter(|o| !o.sample.ok).count() as u64,
        ));
        outcome.phases.push(Phase::new("verify", checked, bad));
        outcome.note("server_rss_mb", rss.note());
        let window = run.window(cpu_ms, rss.value_or(s.server.peak_rss_mb()));
        outcome.report(&window, &setup_times, ctx.spec.num("slo_ms"));
        return Ok(outcome);
    }

    // Traced run: untraced then traced replay of the sampled requests.
    let mut layers = LayerValues::default();
    delta.set_layers(&mut layers);
    set_client_layers(&mut layers, run.requests, run.connects);
    layers.set("synth.generate_ms", s.synth_ms);
    let ((checked, bad), untraced_s) =
        timed(|| verify(ctx, &s, &mut run, &mut replay_tracer, REPLAY_OPS));
    let mut tracer = Tracer::new(true, origin);
    for op in &run.ops {
        tracer.push("client.anonymize", op.index, op.start, op.end);
    }
    let ((checked2, bad2), traced_s) = timed(|| verify(ctx, &s, &mut run, &mut tracer, REPLAY_OPS));
    outcome.phases.push(Phase::new(
        "service",
        attempted,
        run.ops.iter().filter(|o| !o.sample.ok).count() as u64,
    ));
    outcome
        .phases
        .push(Phase::new("replay", checked + checked2, bad + bad2));
    layers.set_from_tracer(&tracer, checked2);
    layers.set(
        "obs.trace_overhead_ratio",
        overhead_ratio(untraced_s, traced_s),
    );
    outcome.attempted = attempted;
    outcome.failed = run.ops.iter().filter(|o| !o.sample.ok).count() as u64;
    outcome.metrics = layers.metrics();
    outcome.tracer = Some((tracer, checked2));
    Ok(outcome)
}
