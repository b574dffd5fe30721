//! Per-layer probes of the traced run.
//!
//! Each layer is timed from outside, by calling its public function on the
//! workload's own queries against the engine's current epoch:
//!
//! | span          | call                                                   |
//! |---------------|--------------------------------------------------------|
//! | `rangefilter` | `RoadSocialNetwork::range_filter` + `users_within_with` |
//! | `ktcore`      | `maximal_kt_core_with` (range filter + peel)           |
//! | `dominance`   | `DominanceGraph::build_flat` over the core             |
//! | `context`     | `SearchContext::build_with` (core + G_d + glue)        |
//! | `execute`     | `QuerySession::execute`, serial and uncached            |
//! | `execute.all` | the same on all cores (work stealing)                   |
//! | `ctxcache.hit`| `QuerySession::execute` with the context cached         |
//!
//! Self times follow by difference: peel = ktcore − rangefilter, global
//! search = execute − context.
//!
//! `trace.layer_coverage` charges each of the workload's own timed requests
//! the probed layer times of its query in its cache state and divides by
//! the requests' measured latency. A context-cache miss is charged the range
//! filter and peel, `G_d` and the global search (context glue, the induced
//! subgraph and attribute matrix, stays uncovered); a hit is charged the
//! probed cached execution, which is the cache lookup and the global search.

use crate::common::{ms, PopQuery, Timed};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use rsn_core::context::ContextScratch;
use rsn_core::ktcore::{maximal_kt_core_with, KtScratch};
use rsn_core::{ExecutionPolicy, MacEngine, SearchContext};
use rsn_dom::{AttrMatrix, DominanceGraph};
use rsn_road::FilterScratch;
use std::time::Instant;

/// Per-query layer measurements (medians over repetitions).
#[derive(Debug, Default, Clone)]
struct QueryLayers {
    rangefilter_ms: f64,
    selectivity: f64,
    ktcore_ms: f64,
    dominance_ms: f64,
    context_ms: f64,
    execute_ms: f64,
    execute_all_ms: f64,
    execute_hit_ms: f64,
    core_vertices: usize,
    core_edges: usize,
    dominance_tests: usize,
    partitions: usize,
    halfspaces_serial: usize,
    halfspaces_all: usize,
    halfspace_insertions: usize,
    tasks_stolen: usize,
    cells: usize,
    macs: usize,
}

/// Repeats `f` until `budget_ms` of it has run (at least once, at most
/// `max_reps` times). Returns the median wall time in ms, the last value,
/// and the start and end of the last repetition (its span).
fn timed<R>(
    max_reps: usize,
    budget_ms: f64,
    mut f: impl FnMut() -> R,
) -> (f64, R, Instant, Instant) {
    let mut times = Vec::new();
    let mut spent = 0.0;
    loop {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        let end = Instant::now();
        let t = ms(end - start);
        times.push(t);
        spent += t;
        if times.len() >= max_reps || spent >= budget_ms {
            return (median(&times), r, start, end);
        }
    }
}

fn probe_one(engine: &MacEngine, p: &PopQuery, tracer: &mut Tracer, request: u64) -> QueryLayers {
    const REPS: usize = 7;
    const BUDGET_MS: f64 = 40.0;
    let epoch = engine.epoch();
    let rsn = epoch.network();
    let q = &p.query;
    let choice = epoch.resolve_filter_with(q, engine.policy().filter);
    let targets = epoch.user_targets();
    let locations: Vec<_> = q.q.iter().map(|&v| *rsn.location(v)).collect();
    let mut out = Vec::new();
    let mut l = QueryLayers::default();
    let probe_start = Instant::now();

    let mut fs = FilterScratch::new();
    let (t, _, s, e) = timed(REPS, BUDGET_MS, || {
        rsn.range_filter(choice, locations.len(), q.t)
            .users_within_with(
                rsn.road(),
                &locations,
                q.t,
                rsn.locations(),
                targets,
                &mut fs,
                &mut out,
            )
    });
    l.rangefilter_ms = t;
    l.selectivity = out.iter().filter(|&&w| w).count() as f64 / out.len().max(1) as f64;
    let spans = [("rangefilter", s, e)];

    let mut ks = KtScratch::new();
    let (t, core, s, e) = timed(REPS, BUDGET_MS, || {
        maximal_kt_core_with(rsn, q, choice, targets, &mut ks).expect("valid query")
    });
    l.ktcore_ms = t;
    let core = core.map(|c| c.vertices).unwrap_or_default();
    l.core_vertices = core.len();
    let spans2 = [("ktcore", s, e)];

    let mut attrs = AttrMatrix::with_capacity(rsn.attribute_dim(), core.len());
    for &v in &core {
        attrs.push_row(rsn.attributes(v));
    }
    let ids: Vec<u32> = (0..core.len() as u32).collect();
    let (t, gd, s, e) = timed(REPS, BUDGET_MS, || {
        DominanceGraph::build_flat(&ids, &attrs, &q.region)
    });
    l.dominance_ms = t;
    l.dominance_tests = gd.tests_performed();
    let spans3 = [("dominance", s, e)];

    let mut cs = ContextScratch::new();
    let (t, edges, s, e) = timed(REPS, BUDGET_MS, || {
        SearchContext::build_with(rsn, q, choice, targets, &mut cs)
            .expect("valid query")
            .map_or(0, |c| c.core_edges())
    });
    l.context_ms = t;
    l.core_edges = edges;
    let spans4 = [("context", s, e)];

    let serial = engine.policy().clone().with_parallelism(1);
    let mut session = engine.session().with_policy(serial).without_context_cache();
    let (t, r, s, e) = timed(REPS, BUDGET_MS, || session.execute(q).expect("valid query"));
    l.execute_ms = t;
    l.partitions = r.stats.partitions_explored;
    l.halfspaces_serial = r.stats.halfspaces_computed;
    l.halfspace_insertions = r.stats.halfspace_insertions;
    l.cells = r.num_cells();
    l.macs = r.distinct_communities().len();
    let spans5 = [("execute", s, e)];

    let all = ExecutionPolicy::clone(engine.policy()).with_parallelism(0);
    let mut session = engine.session().with_policy(all).without_context_cache();
    let (t, r, s, e) = timed(REPS, BUDGET_MS, || session.execute(q).expect("valid query"));
    l.execute_all_ms = t;
    l.halfspaces_all = r.stats.halfspaces_computed;
    l.tasks_stolen = r.stats.tasks_stolen;
    let spans6 = [("execute.all", s, e)];

    // The cached path, under the engine's own policy as the workloads run
    // it: one execution stores the context, the timed ones hit it.
    let mut session = engine.session().with_context_cache(4);
    session.execute(q).expect("valid query");
    let (t, _, s, e) = timed(REPS, BUDGET_MS, || session.execute(q).expect("valid query"));
    l.execute_hit_ms = t;
    let spans7 = [("ctxcache.hit", s, e)];

    if tracer.is_on() {
        let root = tracer.record("probe", probe_start, Instant::now(), None, request);
        for (name, s, e) in spans
            .into_iter()
            .chain(spans2)
            .chain(spans3)
            .chain(spans4)
            .chain(spans5)
            .chain(spans6)
            .chain(spans7)
        {
            tracer.record(name, s, e, root, request);
        }
    }
    l
}

/// Probes every population query and records the per-layer metrics:
/// times as medians over the queries, work as totals over them. `samples`
/// are the workload's timed requests, whose session ran the global search
/// on all cores when `all_cores` is set.
pub fn probe(
    report: &mut Report,
    engine: &MacEngine,
    population: &[PopQuery],
    tracer: &mut Tracer,
    request_base: u64,
    samples: &[Timed],
    all_cores: bool,
) {
    let rows: Vec<QueryLayers> = population
        .iter()
        .enumerate()
        .map(|(i, p)| probe_one(engine, p, tracer, request_base + i as u64))
        .collect();
    let med = |f: fn(&QueryLayers) -> f64| median(&rows.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&QueryLayers) -> usize| rows.iter().map(f).sum::<usize>() as f64;
    report.layer("rangefilter.ms", med(|l| l.rangefilter_ms), "ms");
    report.layer("rangefilter.selectivity", med(|l| l.selectivity), "ratio");
    report.layer(
        "ktcore.peel_ms",
        med(|l| (l.ktcore_ms - l.rangefilter_ms).max(0.0)),
        "ms",
    );
    report.layer("ktcore.core_vertices", sum(|l| l.core_vertices), "count");
    report.layer("ktcore.core_edges", sum(|l| l.core_edges), "count");
    report.layer("dominance.build_ms", med(|l| l.dominance_ms), "ms");
    report.layer("dominance.tests", sum(|l| l.dominance_tests), "count");
    report.layer("context.build_ms", med(|l| l.context_ms), "ms");
    report.layer(
        "global.search_ms",
        med(|l| (l.execute_ms - l.context_ms).max(0.0)),
        "ms",
    );
    let partitions = sum(|l| l.partitions);
    let cells = sum(|l| l.cells);
    let hs_serial = sum(|l| l.halfspaces_serial);
    let hs_all = sum(|l| l.halfspaces_all);
    report.layer("global.partitions", partitions, "count");
    report.layer("global.halfspaces", hs_serial, "count");
    report.layer(
        "global.halfspace_insertions",
        sum(|l| l.halfspace_insertions),
        "count",
    );
    report.layer(
        "global.cells_per_partition",
        cells / partitions.max(1.0),
        "ratio",
    );
    report.layer("global.tasks_stolen", sum(|l| l.tasks_stolen), "count");
    report.layer(
        "global.halfspace_efficiency",
        hs_serial / hs_all.max(1.0),
        "ratio",
    );
    // Serial against all-cores time, summed over the population so the
    // queries that dominate the workload's time dominate the ratio.
    let serial_ms: f64 = rows.iter().map(|l| l.execute_ms).sum();
    let all_ms: f64 = rows.iter().map(|l| l.execute_all_ms).sum();
    report.layer("global.parallel_speedup", serial_ms / all_ms, "ratio");
    report.layer("result.cells", cells, "count");
    report.layer("result.macs", sum(|l| l.macs), "count");
    let (covered, measured) = samples.iter().fold((0.0, 0.0), |(c, m), s| {
        let l = &rows[s.query];
        let layers = if s.cache_hit {
            l.execute_hit_ms
        } else {
            let execute = if all_cores {
                l.execute_all_ms
            } else {
                l.execute_ms
            };
            l.ktcore_ms + l.dominance_ms + (execute - l.context_ms).max(0.0)
        };
        (c + layers, m + s.ms)
    });
    report.layer("trace.layer_coverage", covered / measured, "ratio");
    report.note("basis.coverage.layer_ms", covered);
    report.note("basis.coverage.measured_ms", measured);
    if let Some(served) = tracer.child_coverage("serve.request") {
        report.note("coverage.served_queue_and_service", served);
    }
    report.note("basis.global.halfspaces_serial", hs_serial);
    report.note("basis.global.halfspaces_all_cores", hs_all);
    report.note("basis.global.serial_ms", serial_ms);
    report.note("basis.global.all_cores_ms", all_ms);
    report.note("basis.global.cells", cells);
    report.note("basis.probe.queries", rows.len());
}
