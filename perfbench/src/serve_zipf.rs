//! `serve-zipf`: light queries through the threaded server.
//!
//! A Zipf-skewed population of planted-group and single-user queries on the
//! 5k-road / 800-user network, against `MacServer`s with one worker per
//! core and per-worker context caches. Each round runs a slice of every
//! phase: a closed-loop capacity phase (one generator keeps a fixed window
//! of requests in flight), the latency phase (one client through a cached
//! session), an open loop of Poisson arrivals at a fixed absolute rate
//! with coalescing on, an open loop at a fixed overload rate with
//! `try_submit` and a deadline, and traffic deltas applied to a second
//! engine, never while a read runs.
//!
//! The population is `serve_load`'s: planted-group queries and background
//! single users at k = 4 to 5 and t of 10 to 18 mean edge weights. The
//! planted cores are tiny (18 vertices, 2 to 5 cells) and the singles'
//! cores are empty, so the time goes to serving, the context cache, the
//! range filter and the peel; the arrangement does almost nothing.

use crate::common::{self, PopQuery, ServePhase, ShapeGate, Timed};
use crate::layers;
use crate::report::Report;
use crate::stats::{self, poisson_schedule, Popularity};
use crate::trace::Tracer;
use rsn_core::{AlgorithmChoice, ExecutionPolicy, MacQuery, QueryBudget, RoadSocialNetwork};
use rsn_geom::region::PrefRegion;
use rsn_geom::weights::WeightVector;
use rsn_serve::{MacServer, ServeConfig};
use std::time::{Duration, Instant};

pub const NAME: &str = "serve-zipf";

const ROAD_VERTICES: usize = 5_000;
const USERS: usize = 800;
const LEAF_CAPACITY: usize = 64;
/// The network is fixed; the run seed drives only the generated requests.
const NETWORK_SEED: u64 = 29;
/// `serve_load`'s steady-mixed population and skew.
const POPULATION: usize = 16;
const ZIPF_S: f64 = 1.1;
/// Samples on either side of a reported percentile, as a share of the
/// sample, that must lie in its cost class.
const CLASS_MARGIN: f64 = 0.01;
const SETUP_REPS: usize = 15;
/// In-flight requests per worker in the capacity phase.
const WINDOW_PER_WORKER: usize = 32;
/// Requests per open-loop latency window (its p50 and p95 are medians over
/// windows).
const OPEN_WINDOW: usize = 250;
/// Offered rate of the open loop, requests/s: well under capacity.
const OPEN_RATE_HZ: f64 = 1_000.0;
/// Offered rate and per-request deadline of the overload phase. It and
/// the capacity phase run without coalescing: with it, joins onto
/// in-flight requests absorb the Zipf head and one generator thread cannot
/// offer enough distinct work to saturate the workers (100,000 requests/s
/// were answered without a shed, and a deep closed window measured little
/// but joins).
const OVERLOAD_RATE_HZ: f64 = 20_000.0;
const OVERLOAD_DEADLINE: Duration = Duration::from_millis(5);
const OVERLOAD_QUEUE: usize = 32;
/// Traffic deltas applied per round, and their shape.
const DELTAS_PER_ROUND: usize = 3;
const DELTA_REWEIGHTS: usize = 24;
const DELTA_MOVES: usize = 12;

fn network() -> (RoadSocialNetwork, Vec<u32>) {
    let (rsn, groups) = common::planted_grid(ROAD_VERTICES, USERS, 1, NETWORK_SEED);
    (rsn, groups[0].clone())
}

/// `serve_load`'s population, in Zipf rank order: every fourth query is a
/// background single user (its core is empty), the others are planted-group
/// queries with |Q| of 1 to 3, and every fifth is a top-2 query.
fn population(rsn: &RoadSocialNetwork, group: &[u32]) -> Vec<PopQuery> {
    let center = WeightVector::uniform(3).expect("d = 3");
    let region = PrefRegion::around(&center, 0.06).expect("valid region");
    let avg_w = common::mean_edge_weight(rsn);
    let n_users = rsn.num_users() as u32;
    (0..POPULATION)
        .map(|i| {
            let single = i % 4 == 3;
            let q: Vec<u32> = if single {
                vec![(i as u32 * 31 + 5) % n_users]
            } else {
                group[..1 + i % 3].to_vec()
            };
            let t = avg_w * [10.0, 14.0, 18.0][i % 3];
            let mut query = MacQuery::new(q, 4 + (i % 2) as u32, t, region.clone())
                .with_algorithm(AlgorithmChoice::Global);
            if i % 5 == 2 {
                query = query.with_top_j(2);
            }
            let class = match (single, i % 5 == 2) {
                (true, _) => "single",
                (false, true) => "planted-topj",
                (false, false) => "planted",
            };
            PopQuery {
                query,
                class,
                bears: !single,
            }
        })
        .collect()
}

fn serve_config(budget: QueryBudget, queue: usize, coalescing: bool) -> ServeConfig {
    ServeConfig {
        workers: common::cores(),
        queue_capacity: queue,
        coalescing,
        context_cache_capacity: 32,
        policy: ExecutionPolicy::new().with_default_budget(budget),
    }
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Report {
    let mut report = Report::new(NAME, seed, tracer.is_on());
    let (rsn, group) = network();
    let population = population(&rsn, &group);
    let config = serve_config(QueryBudget::unlimited(), 256, true);
    let setup = common::setup(
        SETUP_REPS,
        true,
        || network().0,
        LEAF_CAPACITY,
        &ExecutionPolicy::new(),
        &config,
    );
    common::report_setup(&mut report, &setup, &population);
    let engine = setup.engine;
    let writer = setup.spare.expect("a spare engine for the writes");

    // Identity and shape gate, before anything is timed.
    let reference = common::reference_answers(&engine, &population, ShapeGate::EachQuery);
    common::report_shapes(&mut report, &population, &reference);
    let mut checks = common::gate_served(&engine, &config, &population, &reference);
    let all_cores = ExecutionPolicy::new().with_parallelism(0);
    checks += common::gate_session(
        &engine,
        &all_cores,
        "parallel cached",
        &population,
        &reference,
    );

    let popularity = Popularity::zipf(POPULATION, ZIPF_S);
    let order = stats::closed_order(seed ^ 0xC4_9AC1, 1 << 16, &popularity);
    let rounds = seconds.ceil() as usize;
    let round_s = seconds / rounds as f64;
    let movable: Vec<u32> = (0..rsn.num_users() as u32)
        .filter(|u| !group.contains(u))
        .collect();
    let deltas = common::traffic_deltas(
        &rsn,
        seed,
        rounds * DELTAS_PER_ROUND,
        DELTA_REWEIGHTS,
        DELTA_MOVES,
        &movable,
    );

    // Capacity and overload run without coalescing (see
    // `OVERLOAD_RATE_HZ`); the open loop runs the server as configured.
    let cap_server = MacServer::start(
        engine.clone(),
        serve_config(QueryBudget::unlimited(), 256, false),
    );
    let open_server = MacServer::start(engine.clone(), config.clone());
    let over_server = MacServer::start(
        engine.clone(),
        serve_config(
            QueryBudget::new().with_deadline(OVERLOAD_DEADLINE),
            OVERLOAD_QUEUE,
            false,
        ),
    );
    let window = WINDOW_PER_WORKER * cap_server.workers();
    let mut session = engine.session().with_context_cache(32);

    // Every phase runs a slice in every one-second round, so each metric
    // samples the machine across the whole run rather than during one
    // stretch of it.
    let (mut cap, mut open, mut over) = (
        ServePhase::default(),
        ServePhase::default(),
        ServePhase::default(),
    );
    let mut latency: Vec<Timed> = Vec::new();
    let mut latency_s = 0.0;
    let mut updates = Vec::new();
    for round in 0..rounds {
        // Capacity: a closed loop keeping a fixed window in flight.
        cap.absorb(common::closed_window(
            &cap_server,
            &population,
            &order,
            cap.offered,
            window,
            Duration::from_secs_f64(0.25 * round_s),
        ));

        // Latency: one client runs the same traffic through a
        // context-cached session, one query after another. Through the
        // server the two thread hand-offs per request cost as much as a
        // cached query and vary with the machine's scheduling, so the
        // served latency is recorded from the open loop instead.
        let origin = Instant::now();
        while origin.elapsed() < Duration::from_secs_f64(0.3 * round_s) {
            let qi = order[latency.len() % order.len()];
            let request = latency.len() as u64;
            let (timed, r) =
                common::timed_query(&mut session, &population, qi, tracer, None, request);
            assert!(
                common::same_answer(&r, &reference[qi]),
                "identity gate: cached session answer of {} diverged",
                population[qi].class
            );
            session.recycle(r);
            latency.push(timed);
        }
        latency_s += origin.elapsed().as_secs_f64();

        // Open loop at a fixed absolute rate, timed from due times.
        let schedule = poisson_schedule(
            seed ^ round as u64,
            OPEN_RATE_HZ,
            0.2 * round_s,
            &popularity,
        );
        let base = open.offered as u64;
        ServePhase::absorb(
            &mut open,
            common::open_loop(&open_server, &population, &schedule, false, tracer, base),
        );

        // Overload: a fixed rate past capacity, shedding on a full queue,
        // each request under a deadline.
        let schedule = poisson_schedule(
            seed ^ 0x0E_4104D ^ round as u64,
            OVERLOAD_RATE_HZ,
            0.25 * round_s,
            &popularity,
        );
        ServePhase::absorb(
            &mut over,
            common::open_loop(
                &over_server,
                &population,
                &schedule,
                true,
                &mut Tracer::new(false),
                0,
            ),
        );

        // Writes go to an engine of their own, never while a read runs.
        for d in &deltas[round * DELTAS_PER_ROUND..(round + 1) * DELTAS_PER_ROUND] {
            updates.push(common::apply(&writer, d));
        }
    }
    drop(session);
    cap_server.shutdown();
    open.stats = Some(open_server.shutdown());
    over.stats = Some(over_server.shutdown());
    assert_eq!(
        cap.errors + cap.partials,
        0,
        "capacity answers must complete"
    );
    assert_eq!(
        open.errors + open.partials,
        0,
        "open-loop answers must complete"
    );
    assert_eq!(over.errors, 0, "overload must not error");

    report.e2e("throughput_qps", latency.len() as f64 / latency_s, "1/s");
    common::report_capacity(&mut report, &cap, window);
    // Percentiles over the result-bearing requests only: the background
    // singles' cores are empty, and timing an empty answer measures
    // nothing. Their latencies are in the record, query by query.
    let bearing: Vec<Timed> = latency
        .iter()
        .filter(|t| population[t.query].bears)
        .copied()
        .collect();
    let margin = (CLASS_MARGIN * bearing.len() as f64) as usize;
    for p in [50.0, 95.0] {
        common::check_percentile_class(&mut report, &population, &bearing, p, margin);
    }
    common::report_latency(&mut report, &bearing);
    common::report_query_medians(&mut report, &population, &latency);
    report.note("rounds", rounds);

    for (name, p) in [("openloop.p50_ms", 50.0), ("openloop.p95_ms", 95.0)] {
        let v =
            stats::windowed_percentile(&open.latency_ms, OPEN_WINDOW, p).expect("enough samples");
        report.note(name, v);
    }
    report.note("openloop.samples", open.latency_ms.len());
    report.note("openloop.offered_rate_hz", OPEN_RATE_HZ);
    report.note(
        "openloop.generator_lateness_p50_ms",
        open.lateness_p50_s * 1e3,
    );
    report.note(
        "openloop.generator_lateness_max_ms",
        open.lateness_max_s * 1e3,
    );
    common::report_serve_layers(&mut report, &open);
    let s = open.stats.as_ref().expect("stats recorded");
    report.layer("ctxcache.hit_rate", s.cache_hit_rate(), "ratio");
    report.note("basis.ctxcache.hits", s.sessions.context_cache_hits);
    report.note(
        "basis.ctxcache.lookups",
        s.sessions.context_cache_hits + s.sessions.context_cache_misses,
    );
    common::report_overload(&mut report, &over);

    let update_ms: Vec<f64> = updates.iter().map(|u| u.0).collect();
    report.e2e("update_p50_ms", stats::median(&update_ms), "ms");
    common::report_updates(&mut report, &updates);
    // Post-update identity gate on the writer's final epoch.
    let post = common::reference_answers(&writer, &population, ShapeGate::EachClass);
    checks += common::gate_session(
        &writer,
        &ExecutionPolicy::new(),
        "post-update",
        &population,
        &post,
    );
    report.note("gate.comparisons", checks);

    if tracer.is_on() {
        layers::probe(
            &mut report,
            &engine,
            &population,
            tracer,
            1 << 32,
            &latency,
            false,
        );
    }
    report.attempted =
        (cap.offered + latency.len() + open.offered + over.offered + updates.len()) as u64;
    report.failed = (cap.errors + open.errors + over.errors) as u64;
    report
}
