//! `mobipriv-perfbench` — the repository's benchmark harness.
//!
//! Runs one workload against the release `mobipriv-serve` binary and
//! prints one JSON result line. With `--trace 0` the line carries the
//! end-to-end metrics of a measured window; with `--trace 1` it carries
//! the per-layer metrics of a traced run: a shorter service phase whose
//! counters are read from `/metrics` and `/v1/stats`, then an in-process
//! replay of sampled operations with a span around every call into a
//! library layer. `perfbench/run.py` builds and invokes it; see
//! `perfbench/README.md`.

mod common;
mod evaluate_smoke;
mod publish_cold;
mod publish_paper;
mod serve_hot;
mod tracer;

use common::{Args, Ctx, Spec};

const USAGE: &str = "usage: mobipriv-perfbench --serve PATH [--root DIR] --workload NAME \
--seed N --seconds S [--trace 0|1] [--capacity]
workloads: publish_cold publish_paper serve_hot evaluate_smoke";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let spec = match Spec::load(&args.root, &args.workload) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx { args, spec };
    let result = match ctx.args.workload.as_str() {
        "publish_cold" => publish_cold::run(&ctx),
        "publish_paper" => publish_paper::run(&ctx),
        "serve_hot" => serve_hot::run(&ctx),
        "evaluate_smoke" => evaluate_smoke::run(&ctx),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(outcome) => {
            let correct = outcome.finish(&ctx.args);
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
