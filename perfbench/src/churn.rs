//! `churn-40k`: live updates on a continental grid, reads between them.
//!
//! A 40k-vertex grid with 2,000 users and four planted groups, indexed by a
//! G-tree. Each step applies one traffic `NetworkDelta` of fixed shape
//! (network-wide reweights plus a few moves of users outside the groups)
//! and then runs every population query once on the new epoch, through one
//! session with a context cache. Writes and reads never overlap. Every
//! query is a planted-group query, so every class bears results.
//!
//! The time goes to G-tree maintenance, the range filter over large balls
//! and the per-epoch invalidation of the context cache.

use crate::common::{self, PopQuery, ServePhase, ShapeGate, Timed};
use crate::layers;
use crate::report::Report;
use crate::stats::{self, MIN_BEYOND};
use crate::trace::Tracer;
use rand::prelude::*;
use rand::rngs::StdRng;
use rsn_core::{AlgorithmChoice, ExecutionPolicy, MacQuery, QueryBudget, RoadSocialNetwork};
use rsn_geom::region::PrefRegion;
use rsn_geom::weights::WeightVector;
use rsn_serve::{MacServer, ServeConfig};
use std::time::{Duration, Instant};

pub const NAME: &str = "churn-40k";

const ROAD_VERTICES: usize = 40_000;
const USERS: usize = 2_000;
const GROUPS: usize = 4;
const LEAF_CAPACITY: usize = 128;
const NETWORK_SEED: u64 = 7;
/// Each set-up takes about 3.5 s, so two repetitions are enough.
const SETUP_REPS: usize = 2;
/// Coreness and preference-region side of every query. At k = 5 and
/// t of 30 to 36 mean edge weights every group bears a core of 36 to 88
/// vertices and 2 to 33 cells; smaller t leaves some groups without one.
const K: u32 = 5;
const SIGMA: f64 = 0.01;
const T_EDGES: [f64; 3] = [30.0, 33.0, 36.0];
/// Shape of every delta.
const DELTA_REWEIGHTS: usize = 24;
const DELTA_MOVES: usize = 12;
/// Nominal length of one epoch on a 2-core machine. The epoch count follows
/// from `--seconds` through it, never from how fast the machine runs, so
/// every run of one length does the same work.
const EPOCH_SECONDS: f64 = 5.0;
/// Overload slice after every epoch's reads: no coalescing and no context
/// cache (every epoch starts the cache empty, so churn reads miss), under
/// a deadline.
const OVERLOAD_RATE_HZ: f64 = 1_000.0;
const OVERLOAD_SLICE_S: f64 = 0.2;
const OVERLOAD_DEADLINE: Duration = Duration::from_millis(200);
const OVERLOAD_QUEUE: usize = 8;
/// Capacity slice per epoch through the same server: one generator keeps
/// this many queries per worker in flight.
const CAPACITY_SLICE_S: f64 = 0.25;
const CAPACITY_WINDOW_PER_WORKER: usize = 2;
/// Samples on either side of a reported percentile, as a share of the
/// sample, that must lie in its cost class.
const CLASS_MARGIN: f64 = 0.01;

fn network() -> (RoadSocialNetwork, Vec<Vec<u32>>) {
    common::planted_grid(ROAD_VERTICES, USERS, GROUPS, NETWORK_SEED)
}

/// Per group: |Q| of 1 to 3 members at each t, plus one top-2 query.
fn population(rsn: &RoadSocialNetwork, groups: &[Vec<u32>]) -> Vec<PopQuery> {
    let center = WeightVector::uniform(3).expect("d = 3");
    let region = PrefRegion::around(&center, SIGMA).expect("valid region");
    let avg_w = common::mean_edge_weight(rsn);
    let query = |group: &[u32], size: usize, t_edges: f64| {
        MacQuery::new(group[..size].to_vec(), K, avg_w * t_edges, region.clone())
            .with_algorithm(AlgorithmChoice::Global)
    };
    let mut out = Vec::new();
    for group in groups {
        for size in 1..=3 {
            for t_edges in T_EDGES {
                out.push(PopQuery {
                    query: query(group, size, t_edges),
                    class: "planted",
                    bears: true,
                });
            }
        }
        out.push(PopQuery {
            query: query(group, 2, T_EDGES[1]).with_top_j(2),
            class: "planted-topj",
            bears: true,
        });
    }
    out
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Report {
    let mut report = Report::new(NAME, seed, tracer.is_on());
    let (rsn, groups) = network();
    let population = population(&rsn, &groups);
    let over_config = ServeConfig {
        workers: common::cores(),
        queue_capacity: OVERLOAD_QUEUE,
        coalescing: false,
        context_cache_capacity: 0,
        policy: ExecutionPolicy::new()
            .with_default_budget(QueryBudget::new().with_deadline(OVERLOAD_DEADLINE)),
    };
    let setup = common::setup(
        SETUP_REPS,
        false,
        || network().0,
        LEAF_CAPACITY,
        &ExecutionPolicy::new(),
        &over_config,
    );
    common::report_setup(&mut report, &setup, &population);
    let engine = setup.engine;

    // Shape gate on the first epoch; identity is gated on every epoch.
    let reference = common::reference_answers(&engine, &population, ShapeGate::EachQuery);
    common::report_shapes(&mut report, &population, &reference);
    let gate_config = ServeConfig {
        coalescing: true,
        policy: ExecutionPolicy::new(),
        ..over_config.clone()
    };
    let mut checks = common::gate_served(&engine, &gate_config, &population, &reference);

    let planted: Vec<u32> = groups.iter().flatten().copied().collect();
    let movable: Vec<u32> = (0..rsn.num_users() as u32)
        .filter(|u| !planted.contains(u))
        .collect();
    // Whole epochs, at least enough for p95 to have its samples beyond it.
    let need = stats::min_samples(95.0, MIN_BEYOND);
    let epochs = ((seconds / EPOCH_SECONDS).round() as usize).max(need.div_ceil(population.len()));
    let deltas = common::traffic_deltas(&rsn, seed, epochs, DELTA_REWEIGHTS, DELTA_MOVES, &movable);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut session = engine.session().with_context_cache(64);
    let server = MacServer::start(engine.clone(), over_config);
    let uniform = stats::Popularity::zipf(population.len(), 0.0);
    let cap_order = stats::closed_order(seed ^ 0xC4_9AC1, 1 << 10, &uniform);
    let window = CAPACITY_WINDOW_PER_WORKER * server.workers();
    let (mut cap, mut over) = (ServePhase::default(), ServePhase::default());
    let mut latency: Vec<Timed> = Vec::new();
    let mut updates = Vec::new();
    let mut read_s = 0.0;
    let mut order: Vec<usize> = (0..population.len()).collect();
    for (epoch, delta) in deltas.iter().enumerate() {
        let t0 = Instant::now();
        updates.push(common::apply(&engine, delta));
        let step = tracer.record("update", t0, Instant::now(), None, epoch as u64);
        order.shuffle(&mut rng);
        let mut answers = vec![None; population.len()];
        let reads = Instant::now();
        for &qi in &order {
            let (timed, r) =
                common::timed_query(&mut session, &population, qi, tracer, step, epoch as u64);
            latency.push(timed);
            answers[qi] = Some(r);
        }
        read_s += reads.elapsed().as_secs_f64();
        // Post-update identity gate, untimed: the cached session's answers
        // equal a serial uncached session on the same epoch.
        let reference = common::reference_answers(&engine, &population, ShapeGate::EachClass);
        for (qi, (got, want)) in answers.iter().zip(&reference).enumerate() {
            let got = got.as_ref().expect("every query answered");
            common::assert_same(&format!("epoch {epoch} query {qi}"), got, want);
        }
        checks += population.len();
        // Slices of the capacity and overload phases on this epoch: the
        // population through the server, closed loop, then at a fixed rate
        // under a deadline.
        cap.absorb(common::closed_window(
            &server,
            &population,
            &cap_order,
            cap.offered,
            window,
            Duration::from_secs_f64(CAPACITY_SLICE_S),
        ));
        let schedule = stats::poisson_schedule(
            seed ^ 0x0E_4104D ^ epoch as u64,
            OVERLOAD_RATE_HZ,
            OVERLOAD_SLICE_S,
            &uniform,
        );
        let base = (1 << 31) + over.offered as u64;
        over.absorb(common::open_loop(
            &server,
            &population,
            &schedule,
            true,
            tracer,
            base,
        ));
    }
    over.stats = Some(server.shutdown());
    assert_eq!(cap.errors + over.errors, 0, "served phases must not error");
    // Every query runs once per epoch, so each takes an equal share; their
    // costs spread from under 1 ms to about 30 ms.
    let margin = (CLASS_MARGIN * latency.len() as f64) as usize;
    for p in [50.0, 95.0] {
        common::check_percentile_class(&mut report, &population, &latency, p, margin);
    }
    common::report_latency(&mut report, &latency);
    common::report_query_medians(&mut report, &population, &latency);
    report.e2e("throughput_qps", latency.len() as f64 / read_s, "1/s");
    let update_ms: Vec<f64> = updates.iter().map(|u| u.0).collect();
    report.e2e("update_p50_ms", stats::median(&update_ms), "ms");
    common::report_updates(&mut report, &updates);
    report.note("epochs", updates.len());
    let cache = session.stats();
    report.layer("ctxcache.hit_rate", cache.cache_hit_rate(), "ratio");
    report.note("basis.ctxcache.hits", cache.context_cache_hits);
    report.note(
        "basis.ctxcache.lookups",
        cache.context_cache_hits + cache.context_cache_misses,
    );
    drop(session);

    common::report_capacity(&mut report, &cap, window);
    common::report_overload(&mut report, &over);
    common::report_serve_layers(&mut report, &over);

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
    report.note("gate.comparisons", checks);
    report.attempted = (latency.len() + updates.len() + cap.offered + over.offered) as u64;
    report.failed = (cap.errors + over.errors) as u64;
    report
}
