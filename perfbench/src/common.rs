//! Pieces every workload shares: timed set-up, the identity and shape gate,
//! the serving phases through `MacServer`, and the traffic-delta phase.

use crate::report::Report;
use crate::stats::{self, Arrival};
use crate::trace::Tracer;
use rand::prelude::*;
use rand::rngs::StdRng;
use rsn_core::{
    EngineCalibration, ExecutionPolicy, MacEngine, MacQuery, MacSearchResult, NetworkDelta,
    QueryOutcome, QuerySession, RoadSocialNetwork, UpdateStats,
};
use rsn_datagen::attrs::{generate_attrs, AttrDistribution};
use rsn_datagen::locations::{assign_locations, LocationConfig};
use rsn_datagen::road::{generate_road, RoadConfig};
use rsn_datagen::social::{generate_social, PlantedGroup, SocialConfig};
use rsn_road::network::Location;
use rsn_road::rangefilter::resolve_auto_calibrated;
use rsn_road::RangeFilterChoice;
use rsn_serve::{MacServer, Response, ResponseHandle, ServeConfig, ServerStats, SubmitError};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One query of a workload's population, labelled by class.
#[derive(Debug, Clone)]
pub struct PopQuery {
    pub query: MacQuery,
    pub class: &'static str,
    /// Whether the class is meant to bear results (the shape gate fails the
    /// run if such a query comes back empty).
    pub bears: bool,
}

/// A generated grid road network of `road_vertices` with `users` social
/// users, `groups` planted groups of 18 members at degree 6 located near
/// each other, and three independent attributes: the `serve_load` network
/// scaled. Returns the network and the members of each group.
pub fn planted_grid(
    road_vertices: usize,
    users: usize,
    groups: usize,
    seed: u64,
) -> (RoadSocialNetwork, Vec<Vec<u32>>) {
    let road = generate_road(&RoadConfig::with_size(road_vertices, seed));
    let social = generate_social(&SocialConfig {
        n: users,
        attach_m: 3,
        planted: vec![
            PlantedGroup {
                size: 18,
                degree: 6,
            };
            groups
        ],
        seed,
    });
    let attrs = generate_attrs(users, 3, AttrDistribution::Independent, 10.0, seed);
    let locations = assign_locations(
        &road,
        users,
        &social.groups,
        &LocationConfig {
            clusters: 8,
            radius: 5,
            seed,
        },
    );
    let rsn = RoadSocialNetwork::new(social.graph, road, locations, attrs)
        .expect("datagen output is consistent");
    (rsn, social.groups)
}

/// Mean road-edge weight, the unit of every query's distance threshold t.
pub fn mean_edge_weight(rsn: &RoadSocialNetwork) -> f64 {
    rsn.road().edges().map(|(_, _, w)| w).sum::<f64>() / rsn.road().num_edges() as f64
}

/// Cores of the machine; every result that depends on threads reports it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall times of the repeated set-up and the engine of the last one.
pub struct Setup {
    pub engine: MacEngine,
    /// The engine of the previous repetition, when kept.
    pub spare: Option<MacEngine>,
    pub setup_s: f64,
    pub gtree_build_s: f64,
    pub engine_build_s: f64,
    pub gtree_bytes: usize,
    /// Calibration of every repetition, in order.
    pub calibrations: Vec<EngineCalibration>,
}

/// Sets the workload up `reps` times and reports medians: network
/// assembly, G-tree build, `MacEngine::build` with its calibration probe,
/// and a server start (and stop). The last engine is kept, and with
/// `keep_spare` the one before it (an engine of its own to apply writes to
/// while reads run on the other); any other is dropped before the next
/// build.
pub fn setup(
    reps: usize,
    keep_spare: bool,
    mut assemble: impl FnMut() -> RoadSocialNetwork,
    leaf_capacity: usize,
    policy: &ExecutionPolicy,
    serve: &ServeConfig,
) -> Setup {
    let (mut total, mut gtree, mut build) = (Vec::new(), Vec::new(), Vec::new());
    let mut calibrations = Vec::new();
    let mut engine: Option<MacEngine> = None;
    let mut spare = None;
    let mut gtree_bytes = 0;
    for _ in 0..reps {
        spare = engine.take().filter(|_| keep_spare);
        let t0 = Instant::now();
        let rsn = assemble();
        let t1 = Instant::now();
        let rsn = rsn.with_gtree_index_capacity(leaf_capacity);
        let t2 = Instant::now();
        let built = MacEngine::build_with_policy(rsn, policy.clone());
        let t3 = Instant::now();
        MacServer::start(built.clone(), serve.clone()).shutdown();
        let t4 = Instant::now();
        total.push((t4 - t0).as_secs_f64());
        gtree.push((t2 - t1).as_secs_f64());
        build.push((t3 - t2).as_secs_f64());
        calibrations.push(built.calibration());
        gtree_bytes = built
            .epoch()
            .network()
            .gtree()
            .map_or(0, |g| g.memory_bytes());
        engine = Some(built);
    }
    Setup {
        engine: engine.expect("at least one set-up"),
        spare,
        setup_s: stats::median(&total),
        gtree_build_s: stats::median(&gtree),
        engine_build_s: stats::median(&build),
        gtree_bytes,
        calibrations,
    }
}

/// Records set-up and calibration facts; a calibration that resolves the
/// population to different plans across repetitions is named as a noise
/// source.
pub fn report_setup(report: &mut Report, s: &Setup, population: &[PopQuery]) {
    report.e2e("setup_s", s.setup_s, "s");
    report.layer("gtree.build_s", s.gtree_build_s, "s");
    report.layer("engine.build_s", s.engine_build_s, "s");
    report.layer("gtree.bytes", s.gtree_bytes as f64, "bytes");
    let c = s.engine.calibration();
    report.layer("engine.sweep_cell_cost", c.filter.sweep_cell_cost, "ratio");
    report.layer(
        "engine.calibration_probe_ms",
        (c.sweep_probe_seconds + c.walk_probe_seconds) * 1e3,
        "ms",
    );
    report.note("calibration.sweep_cell_cost", c.filter.sweep_cell_cost);
    report.note("calibration.local_core_threshold", c.local_core_threshold);
    report.note("calibration.measured", c.is_measured());
    report.note("calibration.sweep_probe_s", c.sweep_probe_seconds);
    report.note("calibration.walk_probe_s", c.walk_probe_seconds);
    report.note("setup.repetitions", s.calibrations.len());
    let cores = cores();
    report.note("machine.cores", cores);
    // The plan the timed engine resolves, and whether any repetition's
    // calibration would have resolved a different one.
    let epoch = s.engine.epoch();
    let policy_filter = s.engine.policy().filter;
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for p in population {
        *counts
            .entry(epoch.resolve_filter_with(&p.query, policy_filter).name())
            .or_default() += 1;
    }
    let (mut sweep, mut multiseed) = (0, 0);
    for (name, n) in &counts {
        report.note(format!("plan.filter.{name}"), n);
        match *name {
            "dijkstra-sweep" => sweep += n,
            "gtree-multi-seed-batched" => multiseed += n,
            _ => {}
        }
    }
    report.layer("rangefilter.plan_sweep", sweep as f64, "count");
    report.layer("rangefilter.plan_multiseed", multiseed as f64, "count");
    // The multi-seed count each repetition's measured calibration would
    // resolve on this network: a count that differs between repetitions is
    // a plan flip caused by the timed probe, named here as a noise source.
    let rsn = epoch.network();
    let per_rep: Vec<String> = s
        .calibrations
        .iter()
        .map(|c| {
            let n = population
                .iter()
                .filter(|p| {
                    let q = &p.query;
                    resolve_auto_calibrated(
                        rsn.road(),
                        rsn.gtree(),
                        q.q.len(),
                        q.t,
                        rsn.num_users(),
                        &c.filter,
                    ) == RangeFilterChoice::GTreeMultiSeedBatched
                })
                .count();
            format!("{:.3}:{n}", c.filter.sweep_cell_cost)
        })
        .collect();
    report.note(
        "setup.sweep_cell_cost_and_multiseed_per_repetition",
        per_rep.join(","),
    );
    let flips = per_rep
        .iter()
        .map(|x| x.rsplit(':').next())
        .collect::<std::collections::BTreeSet<_>>()
        .len()
        > 1;
    report.note("plan.flip_across_setups", flips);
}

/// Whether two answers are identical: same cells, same sample weights, same
/// communities in the same order.
pub fn same_answer(a: &MacSearchResult, b: &MacSearchResult) -> bool {
    a.cells.len() == b.cells.len()
        && a.cells.iter().zip(&b.cells).all(|(x, y)| {
            x.sample_weight == y.sample_weight
                && x.communities.len() == y.communities.len()
                && x.communities
                    .iter()
                    .zip(&y.communities)
                    .all(|(c, d)| c.vertices == d.vertices)
        })
}

pub fn assert_same(label: &str, got: &MacSearchResult, reference: &MacSearchResult) {
    assert!(
        same_answer(got, reference),
        "identity gate: {label} differs from the serial uncached reference \
         ({} cells vs {})",
        got.num_cells(),
        reference.num_cells()
    );
}

/// (k,t)-core vertices, cells and distinct MACs of one answer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shape {
    pub core: usize,
    pub cells: usize,
    pub macs: usize,
}

pub fn shape(r: &MacSearchResult) -> Shape {
    Shape {
        core: r.stats.kt_core_vertices,
        cells: r.num_cells(),
        macs: r.distinct_communities().len(),
    }
}

/// How strictly the shape gate reads "meant to bear results".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeGate {
    /// Every query of a bearing class must bear results (the generated
    /// network, before any write).
    EachQuery,
    /// Every bearing class must keep at least one result-bearing query
    /// (after traffic deltas, which may legitimately push a member out of
    /// one query's ball).
    EachClass,
}

/// Serial, uncached reference answers for the population on the engine's
/// current epoch, with the shape gate applied.
pub fn reference_answers(
    engine: &MacEngine,
    population: &[PopQuery],
    gate: ShapeGate,
) -> Vec<MacSearchResult> {
    let mut session = engine
        .session()
        .with_policy(engine.policy().clone().with_parallelism(1))
        .without_context_cache();
    let answers: Vec<MacSearchResult> = population
        .iter()
        .enumerate()
        .map(|(i, p)| {
            session
                .execute(&p.query)
                .unwrap_or_else(|e| panic!("reference query {i} ({}) failed: {e}", p.class))
        })
        .collect();
    for (i, (p, r)) in population.iter().zip(&answers).enumerate() {
        let class_bears = || {
            population
                .iter()
                .zip(&answers)
                .any(|(q, a)| q.class == p.class && !a.is_empty())
        };
        let ok = match gate {
            ShapeGate::EachQuery => !r.is_empty(),
            ShapeGate::EachClass => class_bears(),
        };
        assert!(
            !p.bears || ok,
            "shape gate: query {i} of class {} is meant to bear results but came back empty \
             (core {}, gate {gate:?})",
            p.class,
            r.stats.kt_core_vertices
        );
    }
    answers
}

/// Records per-class result shape (medians over the class's queries).
pub fn report_shapes(report: &mut Report, population: &[PopQuery], answers: &[MacSearchResult]) {
    let mut by_class: BTreeMap<&str, Vec<Shape>> = BTreeMap::new();
    for (p, r) in population.iter().zip(answers) {
        by_class.entry(p.class).or_default().push(shape(r));
    }
    for (class, shapes) in by_class {
        let med = |f: fn(&Shape) -> usize| {
            stats::median(&shapes.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
        };
        report.note(
            format!("shape.{class}"),
            format!(
                "queries={} core={} cells={} macs={}",
                shapes.len(),
                med(|s| s.core),
                med(|s| s.cells),
                med(|s| s.macs)
            ),
        );
    }
}

/// Submits every population query twice through a server (so coalescing and
/// the per-worker context caches both engage) and checks each answer
/// against the reference. Returns the number of comparisons.
pub fn gate_served(
    engine: &MacEngine,
    config: &ServeConfig,
    population: &[PopQuery],
    reference: &[MacSearchResult],
) -> usize {
    let server = MacServer::start(engine.clone(), config.clone());
    let handles: Vec<(usize, ResponseHandle)> = (0..2)
        .flat_map(|_| 0..population.len())
        .map(|i| {
            let h = server
                .submit_with_budget(
                    population[i].query.clone(),
                    rsn_core::QueryBudget::unlimited(),
                )
                .expect("gate submission");
            (i, h)
        })
        .collect();
    for (i, h) in &handles {
        let resp = h.wait();
        match &resp.outcome {
            Ok(QueryOutcome::Complete(r)) => {
                assert_same(&format!("served query {i}"), r, &reference[*i])
            }
            other => panic!("identity gate: served query {i} did not complete: {other:?}"),
        }
    }
    server.shutdown();
    handles.len()
}

/// Runs the population through a session twice (the second pass hits the
/// context cache) under `policy` and checks every answer. Returns the number
/// of comparisons.
pub fn gate_session(
    engine: &MacEngine,
    policy: &ExecutionPolicy,
    label: &str,
    population: &[PopQuery],
    reference: &[MacSearchResult],
) -> usize {
    let mut session = engine
        .session()
        .with_policy(policy.clone())
        .with_context_cache(64);
    for pass in 0..2 {
        for (i, p) in population.iter().enumerate() {
            let r = session.execute(&p.query).expect("gate query");
            assert_same(&format!("{label} query {i} pass {pass}"), &r, &reference[i]);
        }
    }
    2 * population.len()
}

/// One timed request of a closed-loop client: its latency, its query (an
/// index into the population) and whether the context cache held the
/// query's context.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub ms: f64,
    pub query: usize,
    pub cache_hit: bool,
}

/// Runs population query `qi` through `session`, timing only the
/// `execute` call, and records the request's span.
pub fn timed_query(
    session: &mut QuerySession,
    population: &[PopQuery],
    qi: usize,
    tracer: &mut Tracer,
    parent: Option<usize>,
    request: u64,
) -> (Timed, MacSearchResult) {
    let hits = session.stats().context_cache_hits;
    let start = Instant::now();
    let r = session
        .execute(&population[qi].query)
        .expect("population queries are valid");
    let end = Instant::now();
    tracer.record("request", start, end, parent, request);
    let timed = Timed {
        ms: ms(end - start),
        query: qi,
        cache_hit: session.stats().context_cache_hits > hits,
    };
    (timed, r)
}

/// Checks that the `p`-th percentile of the latency sample lies inside one
/// cost class of population queries (see [`stats::percentile_class`]) and
/// records which query holds it.
pub fn check_percentile_class(
    report: &mut Report,
    population: &[PopQuery],
    samples: &[Timed],
    p: f64,
    margin: usize,
) -> usize {
    /// Neighbouring queries whose median latencies differ by more than
    /// this ratio are different cost classes.
    const COST_STEP: f64 = 1.25;
    let labelled: Vec<(f64, usize)> = samples.iter().map(|s| (s.ms, s.query)).collect();
    let qi = stats::percentile_class(&labelled, p, margin, COST_STEP)
        .unwrap_or_else(|e| panic!("class-boundary check: {e}"));
    report.note(
        format!("percentile.p{p}.query"),
        format!("{qi} ({})", population[qi].class),
    );
    qi
}

/// Records each population query's share of the timed requests and its
/// median latency (the cost split the class-boundary check relies on).
pub fn report_query_medians(report: &mut Report, population: &[PopQuery], samples: &[Timed]) {
    for (qi, p) in population.iter().enumerate() {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.query == qi)
            .map(|s| s.ms)
            .collect();
        if !ms.is_empty() {
            report.note(
                format!("latency.q{qi}.{}", p.class),
                format!(
                    "share={:.4} p50_ms={:.4}",
                    ms.len() as f64 / samples.len() as f64,
                    stats::median(&ms)
                ),
            );
        }
    }
}

/// Nearest-rank p50 and p95 of the latency sample as `query_p50_ms` and
/// `query_p95_ms`, each with [`stats::MIN_BEYOND`] samples beyond it.
pub fn report_latency(report: &mut Report, samples: &[Timed]) {
    let mut sorted: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    sorted.sort_by(f64::total_cmp);
    for (name, p) in [("query_p50_ms", 50.0), ("query_p95_ms", 95.0)] {
        let v = stats::percentile(&sorted, p, stats::MIN_BEYOND).expect("enough samples");
        report.e2e(name, v, "ms");
    }
    report.note("latency.samples", samples.len());
}

/// Outcome of one phase through a `MacServer`.
#[derive(Debug, Default)]
pub struct ServePhase {
    pub offered: usize,
    pub completes: usize,
    pub partials: usize,
    pub errors: usize,
    pub shed: usize,
    /// Latency of every answered request in submission order, from when it
    /// was due (open loop) or submitted (closed loop), in ms.
    pub latency_ms: Vec<f64>,
    /// Per executed request: time queued before service, and service time.
    pub queue_wait_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    /// Seconds from the phase start to the last answer.
    pub wall_s: f64,
    /// Median and largest generator lag behind the schedule, seconds.
    pub lateness_p50_s: f64,
    pub lateness_max_s: f64,
    pub stats: Option<ServerStats>,
}

impl ServePhase {
    /// Adds another slice of the same phase to this one.
    pub fn absorb(&mut self, other: ServePhase) {
        self.offered += other.offered;
        self.completes += other.completes;
        self.partials += other.partials;
        self.errors += other.errors;
        self.shed += other.shed;
        self.latency_ms.extend(other.latency_ms);
        self.queue_wait_ms.extend(other.queue_wait_ms);
        self.service_ms.extend(other.service_ms);
        self.wall_s += other.wall_s;
        self.lateness_p50_s = self.lateness_p50_s.max(other.lateness_p50_s);
        self.lateness_max_s = self.lateness_max_s.max(other.lateness_max_s);
    }

    /// Complete answers per second of phase time.
    pub fn goodput(&self) -> f64 {
        self.completes as f64 / self.wall_s
    }

    fn account(&mut self, resp: &Response) {
        match &resp.outcome {
            Ok(QueryOutcome::Complete(_)) => self.completes += 1,
            Ok(QueryOutcome::Partial(_)) => self.partials += 1,
            Err(_) => self.errors += 1,
        }
    }
}

/// Sleeps until `t`. The sleep overshoots by some tens of microseconds;
/// that lag counts against latency and is reported as generator lateness.
fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Answered open-loop requests are folded into the phase as they arrive, so
/// the benchmark never holds more than this many answers.
const MAX_PENDING: usize = 4096;

/// Folds answered requests, oldest first, into `phase`; with `block` it
/// waits for all of them, otherwise it stops at the first unanswered one.
///
/// Coalesced requests share one `Response`, whose latency runs from the
/// submission of the execution's leader: the earliest of them, which is the
/// first of the group folded here. `leaders` keeps each shared answer alive
/// while any of its requests is pending, so its address is not reused.
#[allow(clippy::too_many_arguments)]
fn fold_answers(
    phase: &mut ServePhase,
    pending: &mut VecDeque<(usize, f64, ResponseHandle)>,
    leaders: &mut HashMap<*const Response, (Arc<Response>, f64)>,
    block: bool,
    schedule: &[Arrival],
    origin: Instant,
    tracer: &mut Tracer,
    request_base: u64,
) {
    while let Some((_, _, h)) = pending.front() {
        let resp = if block {
            h.wait()
        } else {
            match h.try_get() {
                Some(r) => r,
                None => break,
            }
        };
        let (i, at, _) = pending.pop_front().expect("front exists");
        let key = Arc::as_ptr(&resp);
        let (fresh, lead) = match leaders.get(&key) {
            Some(&(_, lead)) => (false, lead),
            None => {
                leaders.insert(key, (Arc::clone(&resp), at));
                (true, at)
            }
        };
        let done_s = lead + resp.latency.as_secs_f64();
        phase.account(&resp);
        let due = schedule[i].due_s;
        phase
            .latency_ms
            .push(stats::due_latency_s(due, lead, resp.latency.as_secs_f64()) * 1e3);
        let service = resp
            .outcome
            .as_ref()
            .ok()
            .map(|o| o.result().stats.elapsed_seconds);
        if let (true, Some(service)) = (fresh, service) {
            phase.service_ms.push(service * 1e3);
            phase
                .queue_wait_ms
                .push(((resp.latency.as_secs_f64() - service) * 1e3).max(0.0));
        }
        if tracer.is_on() {
            let t = |s: f64| origin + Duration::from_secs_f64(s.max(0.0));
            let req = request_base + i as u64;
            let root = tracer.record("serve.request", t(due), t(done_s), None, req);
            if let Some(service) = service {
                tracer.record("serve.queue", t(lead), t(done_s - service), root, req);
                tracer.record("serve.service", t(done_s - service), t(done_s), root, req);
            }
        }
    }
    if leaders.len() > MAX_PENDING {
        // Only this map still holds an answer whose requests are all folded.
        leaders.retain(|_, (r, _)| Arc::strong_count(r) > 1);
    }
}

/// Open loop: submits `schedule` on time from this thread, never waiting
/// for answers (`shed` = `try_submit`, refusing when the queue is full).
/// Latency runs from each request's due time.
pub fn open_loop(
    server: &MacServer,
    population: &[PopQuery],
    schedule: &[Arrival],
    shed: bool,
    tracer: &mut Tracer,
    request_base: u64,
) -> ServePhase {
    let mut phase = ServePhase {
        offered: schedule.len(),
        ..ServePhase::default()
    };
    let mut pending = VecDeque::new();
    let mut leaders = HashMap::new();
    let mut submit_s = Vec::with_capacity(schedule.len());
    let mut due_s = Vec::with_capacity(schedule.len());
    let origin = Instant::now();
    for (i, a) in schedule.iter().enumerate() {
        wait_until(origin + Duration::from_secs_f64(a.due_s));
        let query = population[a.query].query.clone();
        let at = origin.elapsed().as_secs_f64();
        let submitted = if shed {
            server.try_submit(query)
        } else {
            server.submit(query)
        };
        due_s.push(a.due_s);
        submit_s.push(at);
        match submitted {
            Ok(h) => pending.push_back((i, at, h)),
            Err(SubmitError::QueueFull) if shed => phase.shed += 1,
            Err(e) => panic!("open-loop submission failed: {e}"),
        }
        if pending.len() >= MAX_PENDING {
            let block = pending.len() >= 2 * MAX_PENDING;
            fold_answers(
                &mut phase,
                &mut pending,
                &mut leaders,
                block,
                schedule,
                origin,
                tracer,
                request_base,
            );
        }
    }
    fold_answers(
        &mut phase,
        &mut pending,
        &mut leaders,
        true,
        schedule,
        origin,
        tracer,
        request_base,
    );
    phase.wall_s = origin.elapsed().as_secs_f64();
    (phase.lateness_p50_s, phase.lateness_max_s) = stats::lateness_s(&due_s, &submit_s);
    phase
}

/// Closed loop through a server: one generator thread keeps `window`
/// requests in flight, submitting the next query of `order` (cycled over
/// its whole length, from position `from`) as soon as the oldest answer
/// arrives, for `duration`.
pub fn closed_window(
    server: &MacServer,
    population: &[PopQuery],
    order: &[usize],
    from: usize,
    window: usize,
    duration: Duration,
) -> ServePhase {
    let mut phase = ServePhase::default();
    let mut inflight: VecDeque<(Instant, ResponseHandle)> = VecDeque::with_capacity(window);
    let origin = Instant::now();
    let mut next = from;
    loop {
        if origin.elapsed() < duration && inflight.len() < window {
            let q = population[order[next % order.len()]].query.clone();
            next += 1;
            phase.offered += 1;
            let h = server.submit(q).expect("closed-loop submission");
            inflight.push_back((Instant::now(), h));
            continue;
        }
        let Some((at, h)) = inflight.pop_front() else {
            break;
        };
        let r = h.wait();
        phase.latency_ms.push(ms(at.elapsed()));
        phase.account(&r);
    }
    phase.wall_s = origin.elapsed().as_secs_f64();
    phase
}

/// Deterministic traffic deltas of a fixed shape: `reweights` road segments
/// set to their original weight times each factor of a fixed cycle in
/// [0.6, 2.3] (never compounding, never below a resident on-edge user's
/// offset) plus `moves` users from `movable` relocated to random road
/// vertices. The segments are evenly spaced through the edge order from a
/// seeded offset; vertex ids are row-major, so they spread over the whole
/// network, and every delta costs about the same to apply whatever the
/// seed.
pub fn traffic_deltas(
    rsn: &RoadSocialNetwork,
    seed: u64,
    count: usize,
    reweights: usize,
    moves: usize,
    movable: &[u32],
) -> Vec<NetworkDelta> {
    const FACTORS: [f64; 5] = [0.6, 0.85, 1.2, 1.6, 2.3];
    let edges: Vec<(u32, u32, f64)> = rsn.road().edges().collect();
    let mut floor: HashMap<(u32, u32), f64> = HashMap::new();
    for loc in rsn.locations() {
        if let Location::OnEdge { u, v, offset } = *loc {
            let f = floor.entry((u, v)).or_insert(0.0);
            *f = f.max(offset);
        }
    }
    let n_road = rsn.road().num_vertices() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut d = NetworkDelta::new();
            let offset = rng.random_range(0..edges.len());
            for i in 0..reweights {
                let (u, v, w) = edges[(offset + i * edges.len() / reweights) % edges.len()];
                let factor = FACTORS[i % FACTORS.len()];
                let min = floor.get(&(u, v)).copied().unwrap_or(0.0);
                d = d.reweight_edge(u, v, (w * factor).max(min));
            }
            for _ in 0..moves {
                let user = movable[rng.random_range(0..movable.len())];
                d = d.move_user(user, Location::Vertex(rng.random_range(0..n_road)));
            }
            d
        })
        .collect()
}

/// Applies one delta, timing `MacEngine::apply_updates`.
pub fn apply(engine: &MacEngine, delta: &NetworkDelta) -> (f64, UpdateStats) {
    let t = Instant::now();
    let s = engine.apply_updates(delta).expect("traffic delta applies");
    (ms(t.elapsed()), s)
}

/// Per-layer facts of a set of applied updates.
pub fn report_updates(report: &mut Report, updates: &[(f64, UpdateStats)]) {
    let med = |f: &dyn Fn(&UpdateStats) -> f64| {
        stats::median(&updates.iter().map(|(_, s)| f(s)).collect::<Vec<_>>())
    };
    let gt = |f: fn(&rsn_road::GTreeUpdateStats) -> usize| {
        move |s: &UpdateStats| s.gtree.as_ref().map_or(0.0, |g| f(g) as f64)
    };
    report.layer(
        "engine.update_ms",
        stats::median(&updates.iter().map(|u| u.0).collect::<Vec<_>>()),
        "ms",
    );
    report.layer("gtree.dirty_leaves", med(&gt(|g| g.dirty_leaves)), "count");
    report.layer(
        "gtree.row_dijkstras",
        med(&gt(|g| g.row_dijkstras)),
        "count",
    );
    report.layer(
        "gtree.recomputed_cells",
        med(&gt(|g| g.recomputed_matrix_cells)),
        "count",
    );
    report.layer(
        "engine.user_targets_refreshed",
        med(&|s| s.user_targets_refreshed as f64),
        "count",
    );
    // Bases of the G-tree ratios.
    report.note("basis.gtree.total_nodes", med(&gt(|g| g.total_nodes)));
    report.note("basis.gtree.dirty_internal", med(&gt(|g| g.dirty_internal)));
    report.note("basis.gtree.patched_rows", med(&gt(|g| g.patched_rows)));
    report.note("updates.count", updates.len());
}

/// Records the serving-layer facts of a phase.
pub fn report_serve_layers(report: &mut Report, phase: &ServePhase) {
    report.layer(
        "serve.queue_wait_p50_ms",
        stats::median(&phase.queue_wait_ms),
        "ms",
    );
    report.layer(
        "serve.service_p50_ms",
        stats::median(&phase.service_ms),
        "ms",
    );
    if let Some(s) = &phase.stats {
        report.layer("serve.coalesce_rate", s.coalescing_rate(), "ratio");
        report.note("basis.serve.coalesced_joins", s.coalesced_joins);
        report.note("basis.serve.submitted", s.submitted);
    }
}

/// Records the capacity phase: complete answers per second through a
/// server kept busy by one generator thread with a fixed window in flight.
pub fn report_capacity(report: &mut Report, phase: &ServePhase, window: usize) {
    report.layer("serve.capacity_qps", phase.goodput(), "1/s");
    report.note("capacity.window", window);
    report.note("capacity.completes", phase.completes);
}

/// Records the overload phase.
pub fn report_overload(report: &mut Report, phase: &ServePhase) {
    report.layer("serve.overload_goodput_qps", phase.goodput(), "1/s");
    report.layer("serve.shed", phase.shed as f64, "count");
    report.layer("serve.partials", phase.partials as f64, "count");
    report.note("overload.offered", phase.offered);
    report.note("overload.completes", phase.completes);
    report.note("overload.lateness_p50_ms", phase.lateness_p50_s * 1e3);
    report.note("overload.lateness_max_ms", phase.lateness_max_s * 1e3);
}

/// Peak resident set of this process, MB (from `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .expect("VmHWM readable from /proc/self/status")
}
