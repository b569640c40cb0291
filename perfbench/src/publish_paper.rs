//! `publish_paper`: the paper's full mechanism as async job cycles.
//!
//! Set-up registers a few `serving_day` datasets (`POST /v1/datasets`).
//! Each operation is a job cycle on the next dataset with a fresh seed: `POST /v1/jobs
//! ?mechanism=pipeline`, poll `GET /v1/jobs/:id` until done, then
//! `GET /v1/results/:id`. No request body is parsed or digested per
//! operation. The in-process replay runs `build_mechanism` +
//! `Engine::try_protect` and `write_csv` (whose bytes must equal the
//! job's result), then the same computation split into its stages:
//! Promesse, `detect_mix_zones`, and `MixZones::protect_with_report`.

use std::time::{Duration, Instant};

use mobipriv_core::{
    detect_mix_zones, CancelToken, Engine, Mechanism, MixZoneConfig, MixZones, Promesse,
};
use mobipriv_eval::Json;
use mobipriv_model::digest::digest_hex;
use mobipriv_model::{read_csv, write_csv, Dataset};
use mobipriv_service::registry::Params;
use mobipriv_service::{build_mechanism, DatasetRegistry};
use mobipriv_synth::scenarios;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::*;
use crate::tracer::Tracer;

/// Replayed operations per traced pass.
const REPLAY_OPS: usize = 3;
/// The pipeline's smoothing interval under the workload's query (the
/// service default).
const ALPHA_M: f64 = 100.0;

struct Setup {
    server: ServerProc,
    /// `(digest, dataset)`, the dataset as the service parsed it.
    datasets: Vec<(String, Dataset)>,
    synth_ms: f64,
    register_ms: f64,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let server = ServerProc::spawn(&ctx.args.serve, &[])?;
    let mut conn = connect(&server.addr)?;
    let registry = DatasetRegistry::new(512 * 1024 * 1024);
    let (mut datasets, mut synth_s, mut register_s) = (Vec::new(), 0.0, 0.0);
    for k in 0..ctx.spec.count("datasets") as u64 {
        let seed = ctx.args.seed.wrapping_mul(31).wrapping_add(k);
        let (world, s) = timed(|| scenarios::serving_day(ctx.spec.count("users"), seed));
        synth_s += s;
        let mut body = Vec::new();
        write_csv(&world.dataset, &mut body).map_err(|e| e.to_string())?;
        // The service holds the dataset as parsed from the CSV body, with
        // coordinates rounded to the wire precision: replay from the same.
        let dataset = read_csv(body.as_slice()).map_err(|e| e.to_string())?;
        let doc = json_of(&expect(&mut conn, "POST", "/v1/datasets", &body, &[200])?)?;
        let digest = doc
            .get("digest")
            .and_then(Json::as_str)
            .ok_or("register answer has no digest")?
            .to_owned();
        if digest != digest_hex(&body) {
            return Err(format!(
                "server digest {digest} != canonical digest {}",
                digest_hex(&body)
            ));
        }
        // The registry's own cost, in process (traced runs only).
        if ctx.args.trace {
            register_s += timed(|| registry.register(dataset.clone())).1;
        }
        datasets.push((digest, dataset));
    }
    let n = datasets.len().max(1) as f64;
    Ok(Setup {
        server,
        datasets,
        synth_ms: synth_s * 1e3 / n,
        register_ms: register_s * 1e3 / n,
    })
}

impl Setup {
    /// The dataset operation `index` runs on (round robin).
    fn dataset_of(&self, index: u64) -> &(String, Dataset) {
        &self.datasets[index as usize % self.datasets.len()]
    }
}

struct Cycle {
    seed: u64,
    wall_ms: f64,
    fetch_ms: f64,
    polls: u64,
    kept: Option<Vec<u8>>,
}

/// One job cycle on `conn`.
fn cycle(
    conn: &mut mobipriv_service::client::Connection,
    digest: &str,
    query: &str,
    seed: u64,
    poll: Duration,
) -> Result<(Vec<u8>, f64, f64, u64), String> {
    let submit = format!("/v1/jobs?dataset={digest}&{query}&seed={seed}");
    let doc = json_of(&expect(conn, "POST", &submit, b"", &[200, 202])?)?;
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .ok_or("job document has no id")?
        .to_owned();
    if doc.get("submitted").and_then(Json::as_str) != Some("enqueued") {
        return Err(format!(
            "job {id} was not freshly enqueued: {}",
            doc.to_json()
        ));
    }
    let status_target = format!("/v1/jobs/{id}");
    let mut polls = 0;
    let wall_ms = loop {
        std::thread::sleep(poll);
        polls += 1;
        let doc = json_of(&expect(conn, "GET", &status_target, b"", &[200])?)?;
        match doc.get("status").and_then(Json::as_str) {
            Some("done") => break doc.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
            Some("queued" | "running") => {}
            _ => return Err(format!("job {id}: {}", doc.to_json())),
        }
    };
    let fetch_start = Instant::now();
    let body = expect(conn, "GET", &format!("/v1/results/{id}"), b"", &[200])?;
    let fetch_ms = fetch_start.elapsed().as_secs_f64() * 1e3;
    if !body.starts_with(b"user,trace,lat,lng,time\n") {
        return Err(format!("result {id} is not canonical CSV"));
    }
    Ok((body, wall_ms, fetch_ms, polls))
}

/// Stage counts of one decomposed replay.
#[derive(Default)]
struct Counts {
    zones: f64,
    suppressed: f64,
    output_fixes: f64,
}

/// The job's computation in process. With `decompose`, the same
/// computation runs again stage by stage and must produce the same
/// bytes.
fn replay(
    t: &mut Tracer,
    dataset: &Dataset,
    query: &str,
    seed: u64,
    decompose: bool,
) -> Result<(Vec<u8>, Counts), String> {
    let pairs = query_pairs(query, seed);
    t.span("op", |t| {
        let output = t.span("core.protect", |_| {
            let mechanism = build_mechanism(Params(&pairs)).map_err(|e| e.to_string())?;
            Engine::sequential()
                .try_protect(mechanism.as_ref(), dataset, seed, &CancelToken::none())
                .map_err(|_| "cancelled".to_owned())
        })?;
        let bytes = t
            .span("model.serialize", |_| {
                let mut out = Vec::new();
                write_csv(&output, &mut out).map(|_| out)
            })
            .map_err(|e| e.to_string())?;
        if !decompose {
            return Ok((bytes, Counts::default()));
        }
        // Dataset-level mechanisms draw from one stream seeded by the
        // request seed (as `Engine` does for them).
        let mut rng = StdRng::seed_from_u64(seed);
        let config = MixZoneConfig::default();
        let smoothing = Promesse::new(ALPHA_M).map_err(|e| e.to_string())?;
        let smoothed = t.span("core.promesse", |_| smoothing.protect(dataset, &mut rng));
        let zones = t.span("core.mixzone_detect", |_| {
            detect_mix_zones(&smoothed, &config)
        });
        let swapping = MixZones::new(config).map_err(|e| e.to_string())?;
        let (published, report) = t.span("core.mixzone", |_| {
            swapping.protect_with_report(&smoothed, &mut rng)
        });
        let mut staged = Vec::new();
        write_csv(&published, &mut staged).map_err(|e| e.to_string())?;
        if staged != bytes || zones.len() != report.zones.len() {
            return Err("stage-by-stage replay diverged from Engine::try_protect".into());
        }
        Ok((
            bytes,
            Counts {
                zones: zones.len() as f64,
                suppressed: report.suppressed_fixes as f64,
                output_fixes: published.total_fixes() as f64,
            },
        ))
    })
}

/// Checks kept results against the replay; returns (checked, bad,
/// summed counts).
fn verify(
    ctx: &Ctx,
    s: &Setup,
    run: &mut LoopRun<Cycle>,
    tracer: &mut Tracer,
    limit: usize,
    decompose: bool,
) -> (u64, u64, Counts) {
    let query = ctx.spec.text("query");
    let (mut checked, mut bad) = (0, 0);
    let mut sum = Counts::default();
    for op in run
        .ops
        .iter_mut()
        .filter(|o| o.extra.kept.is_some())
        .take(limit)
    {
        tracer.begin_op(op.index);
        checked += 1;
        match replay(
            tracer,
            &s.dataset_of(op.index).1,
            query,
            op.extra.seed,
            decompose,
        ) {
            Ok((bytes, counts)) if Some(bytes.as_slice()) == op.extra.kept.as_deref() => {
                sum.zones += counts.zones;
                sum.suppressed += counts.suppressed;
                sum.output_fixes += counts.output_fixes;
            }
            _ => {
                bad += 1;
                op.sample.ok = false;
            }
        }
    }
    (checked, bad, sum)
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
    let fixes: Vec<String> = s
        .datasets
        .iter()
        .map(|d| d.1.total_fixes().to_string())
        .collect();
    outcome.note("datasets", s.datasets.len());
    outcome.note("fixes", fixes.join(" "));
    outcome
        .phases
        .push(Phase::new("setup", setup_times.len() as u64, 0));

    let query = ctx.spec.text("query");
    let poll = Duration::from_secs_f64(ctx.spec.num("poll_ms") / 1e3);
    let check_every = ctx.spec.count("check_every").max(1) as u64;
    let seconds = if ctx.args.trace {
        ctx.args.seconds * 0.5
    } else {
        ctx.args.seconds
    };
    let origin = Instant::now();
    let before = NodeCounters::read(&[&s.server.addr])?;
    let cpu_before = s.server.cpu_ms();
    let errors = std::sync::Mutex::new(Vec::new());
    let rss = RssMark::new(ctx.spec.count("rss_after_ops") as u64);
    let mut run = closed_loop(
        &s.server.addr,
        ctx.spec.count("clients"),
        seconds,
        1,
        |index, conn| {
            let seed = op_seed(ctx.args.seed, index);
            let done = cycle(conn, &s.dataset_of(index).0, query, seed, poll);
            rss.observe(index, &s.server);
            match done {
                Ok((body, wall_ms, fetch_ms, polls)) => {
                    let kept =
                        (index % check_every == 0 || index < REPLAY_OPS as u64).then_some(body);
                    (
                        true,
                        1.0,
                        Cycle {
                            seed,
                            wall_ms,
                            fetch_ms,
                            polls,
                            kept,
                        },
                    )
                }
                Err(e) => {
                    errors.lock().expect("errors").push(e);
                    (
                        false,
                        1.0,
                        Cycle {
                            seed,
                            wall_ms: 0.0,
                            fetch_ms: 0.0,
                            polls: 0,
                            kept: None,
                        },
                    )
                }
            }
        },
    )?;
    let cpu_ms = s.server.cpu_ms() - cpu_before;
    let delta = NodeCounters::read(&[&s.server.addr])?.since(&before);
    for e in errors.into_inner().expect("errors") {
        outcome.error(e);
    }
    let attempted = run.ops.len() as u64;
    // Mean job wall time per dataset: how much the generated content
    // alone moves the numbers.
    let wall_by_dataset: Vec<String> = (0..s.datasets.len())
        .map(|d| {
            let walls: Vec<f64> = run
                .ops
                .iter()
                .filter(|o| o.sample.ok && o.index as usize % s.datasets.len() == d)
                .map(|o| o.extra.wall_ms)
                .collect();
            format!("{:.0}", mean(&walls))
        })
        .collect();
    outcome.note("job_wall_ms_by_dataset", wall_by_dataset.join(" "));
    // Every job computes afresh (result fetches are the only hits).
    outcome.guards.push(Guard::at_least(
        "computations_per_job",
        delta.computations / attempted.max(1) as f64,
        1.0,
    ));

    let mut replay_tracer = Tracer::new(false, origin);
    if !ctx.args.trace {
        let (checked, bad, _) = verify(ctx, &s, &mut run, &mut replay_tracer, usize::MAX, false);
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

    let mut layers = LayerValues::default();
    delta.set_layers(&mut layers);
    set_client_layers(&mut layers, run.requests, run.connects);
    layers.set("synth.generate_ms", s.synth_ms);
    layers.set("datasets.register_ms", s.register_ms);
    let done: Vec<&Timed<Cycle>> = run.ops.iter().filter(|o| o.sample.ok).collect();
    let per =
        |f: &dyn Fn(&Timed<Cycle>) -> f64| mean(&done.iter().map(|o| f(o)).collect::<Vec<_>>());
    layers.set("jobs.run_ms", per(&|o| o.extra.wall_ms));
    layers.set(
        "jobs.queue_wait_ms",
        per(&|o| o.sample.latency_ms - o.extra.wall_ms - o.extra.fetch_ms),
    );
    layers.set("jobs.polls_per_job", per(&|o| o.extra.polls as f64));

    let ((checked, bad, _), untraced_s) =
        timed(|| verify(ctx, &s, &mut run, &mut replay_tracer, REPLAY_OPS, true));
    let mut tracer = Tracer::new(true, origin);
    for op in &run.ops {
        tracer.push("client.job_cycle", op.index, op.start, op.end);
    }
    let ((checked2, bad2, counts), traced_s) =
        timed(|| verify(ctx, &s, &mut run, &mut tracer, REPLAY_OPS, true));
    outcome.phases.push(Phase::new(
        "service",
        attempted,
        run.ops.iter().filter(|o| !o.sample.ok).count() as u64,
    ));
    outcome
        .phases
        .push(Phase::new("replay", checked + checked2, bad + bad2));
    layers.set_from_tracer(&tracer, checked2);
    let n = checked2.max(1) as f64;
    let layer_ms = |name: &str| tracer.layers().get(name).map_or(0.0, |l| l.self_ms) / n;
    layers.set(
        "core.mixzone_swap_ms",
        layer_ms("core.mixzone") - layer_ms("core.mixzone_detect"),
    );
    layers.set("core.zones", counts.zones / n);
    layers.set("core.suppressed_fixes", counts.suppressed / n);
    layers.set("core.output_fixes", counts.output_fixes / n);
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
