//! `evaluate_smoke`: the evaluation matrix over the smoke scenarios.
//!
//! One closed-loop client cycles `GET /v1/evaluate?scenario=S` through
//! the smoke scenarios (starting point drawn from the seed); every body
//! must equal `tests/golden/S.json` byte for byte. An operation stands
//! for the scenario's cells, so `ops_per_s` counts cells. The replay
//! rebuilds each cell in process, one span per library call: scenario
//! generation, `MechanismSpec::build`, `Engine::protect`, the four
//! attacks and the three utility metrics; each cell's output digest and
//! scores must match the golden corpus.

use std::time::Instant;

use mobipriv_attacks::{HomeAttack, PoiAttack, ReidentAttack, Tracker};
use mobipriv_core::Engine;
use mobipriv_eval::digest::cell_seed;
use mobipriv_eval::{EvalPlan, Json, ScenarioSpec};
use mobipriv_metrics::{coverage, spatial, trips};
use mobipriv_model::digest::dataset_digest;

use crate::common::*;
use crate::tracer::Tracer;

/// The scenario of the set-up's warm-up request (about 8 ms).
const WARM_UP_SCENARIO: &str = "crossing_paths";
/// Grid-cell size of the eval runner's coverage metric, meters.
const COVERAGE_CELL_M: f64 = 250.0;

struct Setup {
    server: ServerProc,
    /// `(scenario, golden bytes, cells)` in the spec's order.
    scenarios: Vec<(ScenarioSpec, Vec<u8>, usize)>,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let server = ServerProc::spawn(&ctx.args.serve, &[])?;
    let names = ctx
        .spec
        .section()
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("evaluate_smoke.scenarios must be a list")?;
    let mut scenarios = Vec::new();
    for name in names {
        let name = name.as_str().ok_or("scenario names are strings")?;
        let plan = EvalPlan::smoke()
            .with_scenario(name)
            .ok_or_else(|| format!("`{name}` is not a smoke scenario"))?;
        let path = ctx
            .args
            .root
            .join("tests")
            .join("golden")
            .join(format!("{name}.json"));
        let golden =
            std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        scenarios.push((plan.scenarios[0], golden, plan.cell_count()));
    }
    // One warm-up request (a cheap scenario, checked like any other), so
    // the server's lazy start-up is not timed as an operation.
    let (_, golden, _) = scenarios
        .iter()
        .find(|(s, _, _)| s.name() == WARM_UP_SCENARIO)
        .ok_or("the warm-up scenario is not in the cycle")?;
    let target = format!("/v1/evaluate?scenario={WARM_UP_SCENARIO}");
    if expect(&mut connect(&server.addr)?, "GET", &target, b"", &[200])? != *golden {
        return Err(format!("{target}: bytes differ from the golden file"));
    }
    Ok(Setup { server, scenarios })
}

fn scenario_of(seed: u64, index: u64, count: usize) -> usize {
    (seed.wrapping_add(index) % count as u64) as usize
}

/// Rebuilds every cell of one scenario in process and checks it
/// against the golden document.
fn replay(t: &mut Tracer, scenario: ScenarioSpec, golden: &[u8]) -> Result<(), String> {
    let doc = json_of(golden)?;
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("golden file has no cells")?;
    let plan = EvalPlan::smoke();
    let seed = plan.seeds[0];
    t.span("op", |t| {
        let world = t.span("synth.generate", |_| scenario.generate(seed));
        for mechanism in &plan.mechanisms {
            let id = mechanism.id();
            let cseed = cell_seed(seed, scenario.name(), &id);
            let built = t.span("eval.build", |_| mechanism.build());
            let published = t.span("core.protect", |_| {
                Engine::sequential().protect(built.as_ref(), &world.dataset, cseed)
            });
            let noise = mechanism.expected_noise_m();
            let poi = t.span("attacks.poi", |_| {
                PoiAttack::tuned_for_noise(noise).run(&published, &world.truth)
            });
            let reident = t.span("attacks.reident", |_| {
                ReidentAttack::tuned_for_noise(noise).run(&world.dataset, &published)
            });
            let tracker = t.span("attacks.tracker", |_| Tracker::default().run(&published));
            let home = t.span("attacks.home", |_| {
                HomeAttack::tuned_for_noise(noise).run(&published, &world.truth)
            });
            let distortion = t.span("metrics.distortion", |_| {
                spatial::dataset_distortion_anonymous(&world.dataset, &published)
            });
            let cover = t.span("metrics.coverage", |_| {
                coverage::coverage(&world.dataset, &published, COVERAGE_CELL_M)
            });
            let trip = t.span("metrics.trips", |_| {
                trips::trip_report(&world.dataset, &published)
            });
            let cell = cells
                .iter()
                .find(|c| c.get("mechanism").and_then(Json::as_str) == Some(id.as_str()))
                .ok_or_else(|| format!("golden {} has no cell {id}", scenario.name()))?;
            let num = |k: &str| cell.get(k).and_then(Json::as_f64);
            let agrees = cell.get("digest").and_then(Json::as_str)
                == Some(dataset_digest(&published).as_str())
                && num("poi_recall") == Some(poi.overall.recall)
                && num("reident_accuracy") == Some(reident.accuracy_identity())
                && num("tracker_continuity") == Some(tracker.continuity)
                && num("home_accuracy") == Some(home.accuracy())
                && num("distortion_mean_m") == Some(distortion.mean)
                && num("coverage_f1") == Some(cover.f1)
                && num("trip_length_ks") == Some(trip.length_ks);
            if !agrees {
                return Err(format!(
                    "replayed cell {}/{id} disagrees with the golden corpus",
                    scenario.name()
                ));
            }
        }
        Ok(())
    })
}

/// One replay pass over every scenario; returns (ops, failures).
fn replay_all(s: &Setup, t: &mut Tracer, errors: &mut Vec<String>) -> (u64, u64) {
    let mut bad = 0;
    for (i, (scenario, golden, _)) in s.scenarios.iter().enumerate() {
        t.begin_op(i as u64);
        if let Err(e) = replay(t, *scenario, golden) {
            errors.push(e);
            bad += 1;
        }
    }
    (s.scenarios.len() as u64, bad)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let repeats = if ctx.args.trace {
        1
    } else {
        ctx.spec.setup_repeats()
    };
    let (s, setup_times) = repeated_setup(repeats, || setup(ctx))?;
    let mut outcome = Outcome::new();
    outcome
        .phases
        .push(Phase::new("setup", setup_times.len() as u64, 0));
    outcome.note(
        "cells_per_cycle",
        s.scenarios.iter().map(|x| x.2).sum::<usize>(),
    );
    let seconds = if ctx.args.trace {
        ctx.args.seconds * 0.5
    } else {
        ctx.args.seconds
    };
    let origin = Instant::now();
    let before = NodeCounters::read(&[&s.server.addr])?;
    let cpu_before = s.server.cpu_ms();
    let errors = std::sync::Mutex::new(Vec::new());
    let count = s.scenarios.len();
    let run = closed_loop(
        &s.server.addr,
        ctx.spec.count("clients"),
        seconds,
        count as u64,
        |index, conn| {
            let (scenario, golden, cells) = &s.scenarios[scenario_of(ctx.args.seed, index, count)];
            let target = format!("/v1/evaluate?scenario={}", scenario.name());
            let ok = match call(conn, "GET", &target, b"") {
                Ok((200, _, body)) if body == *golden => true,
                Ok((status, _, _)) => {
                    errors.lock().expect("errors").push(format!(
                        "{target}: HTTP {status} or bytes differ from the golden file"
                    ));
                    false
                }
                Err(e) => {
                    errors.lock().expect("errors").push(e);
                    false
                }
            };
            (ok, *cells as f64, ())
        },
    )?;
    let cpu_ms = s.server.cpu_ms() - cpu_before;
    for (k, (scenario, _, _)) in s.scenarios.iter().enumerate() {
        let latencies: Vec<f64> = run
            .ops
            .iter()
            .filter(|o| scenario_of(ctx.args.seed, o.index, count) == k)
            .map(|o| o.sample.latency_ms)
            .collect();
        outcome.note(
            &format!("latency_p50_ms.{}", scenario.name()),
            median(&latencies),
        );
    }
    let delta = NodeCounters::read(&[&s.server.addr])?.since(&before);
    for e in errors.into_inner().expect("errors") {
        outcome.error(e);
    }
    let window = run.window(cpu_ms, s.server.peak_rss_mb());
    outcome.attempted = window.attempted();
    outcome.failed = window.failed();
    outcome.phases.push(Phase::new(
        if ctx.args.trace { "service" } else { "measure" },
        window.attempted(),
        window.failed(),
    ));
    // Evaluation never touches the result cache.
    outcome.guards.push(Guard::at_most(
        "cache_lookups",
        delta.hits + delta.misses,
        0.0,
    ));

    if !ctx.args.trace {
        outcome.report(&window, &setup_times, ctx.spec.num("slo_ms"));
        return Ok(outcome);
    }

    let mut layers = LayerValues::default();
    delta.set_layers(&mut layers);
    set_client_layers(&mut layers, run.requests, run.connects);
    let mut replay_errors = Vec::new();
    let mut untraced = Tracer::new(false, origin);
    let ((ops, bad), untraced_s) = timed(|| replay_all(&s, &mut untraced, &mut replay_errors));
    let mut tracer = Tracer::new(true, origin);
    for op in &run.ops {
        tracer.push("client.evaluate", op.index, op.start, op.end);
    }
    let ((ops2, bad2), traced_s) = timed(|| replay_all(&s, &mut tracer, &mut replay_errors));
    for e in replay_errors {
        outcome.error(e);
    }
    outcome
        .phases
        .push(Phase::new("replay", ops + ops2, bad + bad2));
    layers.set_from_tracer(&tracer, ops2);
    layers.set(
        "obs.trace_overhead_ratio",
        overhead_ratio(untraced_s, traced_s),
    );
    outcome.metrics = layers.metrics();
    outcome.tracer = Some((tracer, ops2));
    Ok(outcome)
}
