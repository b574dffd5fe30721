//! Standing benchmark of the MAC engine: one recorder, three workloads.
//!
//! ```text
//! perfbench --workload <serve-zipf|gs-heavy|churn-40k> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! perfbench --compare <a> <b>
//! ```
//!
//! A run builds its workload, gates every answer (identity against a
//! serial uncached session, plus the result-shape gate) before anything is
//! timed, measures, writes a record to `<out>/<workload>-seed<n>-trace<t>.tsv`
//! (and the spans of a traced run next to it), and prints one JSON line:
//! the end-to-end metrics, or the per-layer metrics with `--trace 1`.
//! `--compare` prints medians, quartiles and deltas between two sets of
//! records (directories or single files). See `README.md`.

mod churn;
mod common;
mod gs_heavy;
mod layers;
mod report;
mod serve_zipf;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Every end-to-end metric, reported by every workload (`BENCHMARK.json`).
const END_TO_END: [&str; 6] = [
    "query_p50_ms",
    "query_p95_ms",
    "throughput_qps",
    "update_p50_ms",
    "setup_s",
    "peak_rss_mb",
];

/// Every per-layer metric, reported by every traced workload.
const PER_LAYER: [&str; 41] = [
    "serve.capacity_qps",
    "serve.overload_goodput_qps",
    "serve.queue_wait_p50_ms",
    "serve.service_p50_ms",
    "serve.coalesce_rate",
    "serve.shed",
    "serve.partials",
    "ctxcache.hit_rate",
    "rangefilter.ms",
    "rangefilter.selectivity",
    "rangefilter.plan_sweep",
    "rangefilter.plan_multiseed",
    "ktcore.peel_ms",
    "ktcore.core_vertices",
    "ktcore.core_edges",
    "dominance.build_ms",
    "dominance.tests",
    "context.build_ms",
    "global.search_ms",
    "global.partitions",
    "global.halfspaces",
    "global.halfspace_insertions",
    "global.cells_per_partition",
    "global.tasks_stolen",
    "global.halfspace_efficiency",
    "global.parallel_speedup",
    "engine.update_ms",
    "gtree.dirty_leaves",
    "gtree.row_dijkstras",
    "gtree.recomputed_cells",
    "engine.user_targets_refreshed",
    "gtree.build_s",
    "engine.build_s",
    "gtree.bytes",
    "engine.sweep_cell_cost",
    "engine.calibration_probe_ms",
    "result.cells",
    "result.macs",
    "trace.layer_coverage",
    "trace.spans",
    "memory.peak_rss_mb",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out: PathBuf::from("perfbench/results"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn run(a: &Args) -> Result<report::Report, String> {
    let mut tracer = trace::Tracer::new(a.trace);
    let mut r = match a.workload.as_str() {
        serve_zipf::NAME => serve_zipf::run(a.seed, a.seconds, &mut tracer),
        gs_heavy::NAME => gs_heavy::run(a.seed, a.seconds, &mut tracer),
        churn::NAME => churn::run(a.seed, a.seconds, &mut tracer),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let rss = common::peak_rss_mb();
    r.e2e("peak_rss_mb", rss, "MB");
    r.layer("memory.peak_rss_mb", rss, "MB");
    if a.trace {
        r.layer("trace.spans", tracer.len() as f64, "count");
    }
    let check = |kind: &str, got: &[report::Metric], want: &[&str]| {
        let mut got: Vec<&str> = got.iter().map(|m| m.name.as_str()).collect();
        let mut want = want.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            return Err(format!(
                "{kind} metrics {got:?} differ from the declared {want:?}"
            ));
        }
        Ok(())
    };
    check("end-to-end", &r.end_to_end, &END_TO_END)?;
    if a.trace {
        check("per-layer", &r.per_layer, &PER_LAYER)?;
    }
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let stem = format!("{}-seed{}-trace{}", a.workload, a.seed, u8::from(a.trace));
    let path = a.out.join(format!("{stem}.tsv"));
    std::fs::write(&path, r.record_text()).map_err(|e| format!("{}: {e}", path.display()))?;
    if a.trace {
        let path = a.out.join(format!("{stem}.spans.json"));
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(r)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("usage: perfbench --compare <a> <b>");
            return ExitCode::from(2);
        };
        return match report::compare(a.as_ref(), b.as_ref()) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(r) => {
            for (k, v) in &r.notes {
                eprintln!("  {k} = {v}");
            }
            for m in r.end_to_end.iter().chain(&r.per_layer) {
                eprintln!("  {} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", r.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
