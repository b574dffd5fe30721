//! `gs-heavy`: paper-scale global search.
//!
//! GS-NC and GS-T (j = 10) on the FL+Lastfm preset with k = 6, t = 40 and
//! |Q| = 8, at σ = 0.01 (146 cells, 1,431 partitions) and σ = 0.05
//! (3,336 cells, 31,493 partitions), from one closed-loop client. Each round of
//! 40 queries holds 36 σ = 0.01 queries and 4 σ = 0.05 queries in a seeded
//! order, and each σ class is GS-NC and GS-T at 1 : 3. So p50 falls inside
//! the light class and p95 inside the heavy one, and inside one of GS-NC
//! and GS-T whichever of them costs more; the run checks that neither sits
//! near a class boundary.
//!
//! More than 99% of the time goes to the arrangement and the partition
//! DFS; the range filter, the peel and G_d take a few milliseconds.
//!
//! The client's session runs serially. On all cores with work stealing
//! the same queries moved by up to 1.8× between runs on a shared 2-vCPU
//! virtual machine, whenever the host took time from one vCPU, where the
//! serial queries moved by about 15%; the timed end-to-end numbers must
//! hold still. The all-cores path is gated for identity before timing and
//! timed against the serial one in the traced run
//! (`global.parallel_speedup`, `global.tasks_stolen`).

use crate::common::{self, PopQuery, ServePhase, ShapeGate, Timed};
use crate::layers;
use crate::report::Report;
use crate::stats::{self, MIN_BEYOND};
use crate::trace::Tracer;
use rand::prelude::*;
use rand::rngs::StdRng;
use rsn_core::{AlgorithmChoice, ExecutionPolicy, MacQuery, QueryBudget, RoadSocialNetwork};
use rsn_datagen::presets::{build_preset, PresetName};
use rsn_geom::region::PrefRegion;
use rsn_geom::weights::WeightVector;
use rsn_serve::{MacServer, ServeConfig};
use std::time::{Duration, Instant};

pub const NAME: &str = "gs-heavy";

const LEAF_CAPACITY: usize = 64;
const SETUP_REPS: usize = 21;
const K: u32 = 6;
const T: f64 = 40.0;
const Q_SIZE: usize = 8;
const TOP_J: usize = 10;
const LIGHT_SIGMA: f64 = 0.01;
const HEAVY_SIGMA: f64 = 0.05;
/// Queries of each population class (σ 0.01 GS-NC and GS-T, σ 0.05 GS-NC
/// and GS-T) in one round: 10% heavy, GS-NC : GS-T = 1 : 3 in each.
const ROUND: [usize; 4] = [9, 27, 1, 3];
/// Samples on either side of a reported percentile, as a share of the
/// sample, that must lie in its cost class.
const CLASS_MARGIN: f64 = 0.02;
/// Overload phase: light queries only, offered far past the capacity of
/// one serial worker (one, for the reason the client runs serially), no
/// coalescing, under a deadline.
const OVERLOAD_RATE_HZ: f64 = 400.0;
const OVERLOAD_SLICE_S: f64 = 0.5;
const OVERLOAD_DEADLINE: Duration = Duration::from_millis(250);
const OVERLOAD_QUEUE: usize = 4;
/// Capacity slice per round through the same server: one generator keeps
/// this many light queries in flight.
const CAPACITY_SLICE_S: f64 = 0.25;
const CAPACITY_WINDOW: usize = 2;
/// Traffic deltas applied per round, to the spare engine.
const DELTAS_PER_ROUND: usize = 4;
/// Nominal length of one round on a 2-core machine. The round count follows
/// from `--seconds` through it, never from how fast the machine runs, so
/// every run of one length does the same work.
const ROUND_SECONDS: f64 = 6.5;
const DELTA_REWEIGHTS: usize = 24;
const DELTA_MOVES: usize = 12;

fn network() -> (RoadSocialNetwork, Vec<u32>, Vec<u32>) {
    let ds = build_preset(PresetName::FlLastfm);
    let q = ds.query_vertices(Q_SIZE);
    let planted: Vec<u32> = ds.deep_groups.iter().flatten().copied().collect();
    (ds.rsn, q, planted)
}

fn population(q: &[u32]) -> Vec<PopQuery> {
    let center = WeightVector::uniform(3).expect("d = 3");
    let mut out = Vec::new();
    for (sigma, light) in [(LIGHT_SIGMA, true), (HEAVY_SIGMA, false)] {
        let region = PrefRegion::around(&center, sigma).expect("valid region");
        for j in [1, TOP_J] {
            let query = MacQuery::new(q.to_vec(), K, T, region.clone())
                .with_top_j(j)
                .with_algorithm(AlgorithmChoice::Global);
            let class = match (light, j == 1) {
                (true, true) => "sigma0.01-nc",
                (true, false) => "sigma0.01-t",
                (false, true) => "sigma0.05-nc",
                (false, false) => "sigma0.05-t",
            };
            out.push(PopQuery {
                query,
                class,
                bears: true,
            });
        }
    }
    out
}

/// One round of [`ROUND`] queries in a seeded order.
fn round(rng: &mut StdRng) -> Vec<usize> {
    let mut r: Vec<usize> = ROUND
        .iter()
        .enumerate()
        .flat_map(|(qi, &n)| std::iter::repeat_n(qi, n))
        .collect();
    r.shuffle(rng);
    r
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Report {
    let mut report = Report::new(NAME, seed, tracer.is_on());
    let (rsn, q, planted) = network();
    let population = population(&q);
    let all_cores = ExecutionPolicy::new().with_parallelism(0);
    let over_config = ServeConfig {
        workers: 1,
        queue_capacity: OVERLOAD_QUEUE,
        coalescing: false,
        context_cache_capacity: 8,
        policy: ExecutionPolicy::new()
            .with_default_budget(QueryBudget::new().with_deadline(OVERLOAD_DEADLINE)),
    };
    let setup = common::setup(
        SETUP_REPS,
        true,
        || network().0,
        LEAF_CAPACITY,
        &ExecutionPolicy::new(),
        &over_config,
    );
    common::report_setup(&mut report, &setup, &population);
    let engine = setup.engine;
    let writer = setup.spare.expect("a spare engine for the writes");

    // Identity and shape gate, before anything is timed.
    let reference = common::reference_answers(&engine, &population, ShapeGate::EachQuery);
    common::report_shapes(&mut report, &population, &reference);
    let mut checks = common::gate_session(
        &engine,
        &all_cores,
        "parallel cached",
        &population,
        &reference,
    );
    let gate_config = ServeConfig {
        coalescing: true,
        policy: ExecutionPolicy::new(),
        ..over_config.clone()
    };
    checks += common::gate_served(&engine, &gate_config, &population, &reference);

    let light: Vec<PopQuery> = population[..2].to_vec();
    let uniform = stats::Popularity::zipf(light.len(), 0.0);
    let light_order = stats::closed_order(seed ^ 0xC4_9AC1, 1 << 10, &uniform);
    let movable: Vec<u32> = (0..rsn.num_users() as u32)
        .filter(|u| !planted.contains(u))
        .collect();
    // Whole rounds, at least enough for p95 to have its samples beyond it.
    let need = stats::min_samples(95.0, MIN_BEYOND);
    let per_round: usize = ROUND.iter().sum();
    let rounds = ((seconds / ROUND_SECONDS).round() as usize).max(need.div_ceil(per_round));
    let deltas = common::traffic_deltas(
        &rsn,
        seed,
        DELTAS_PER_ROUND * rounds,
        DELTA_REWEIGHTS,
        DELTA_MOVES,
        &movable,
    );
    let server = MacServer::start(engine.clone(), over_config);
    let mut session = engine.session().with_context_cache(8);

    // Each round also runs a slice of the overload phase (light queries
    // through the server, at a fixed rate, under a deadline) and applies
    // writes to an engine of its own, so every metric samples the machine
    // across the whole run.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples: Vec<Timed> = Vec::new();
    let (mut cap, mut over) = (ServePhase::default(), ServePhase::default());
    let mut updates = Vec::new();
    let mut loop_s = 0.0;
    for round_index in 0..rounds {
        let started = Instant::now();
        for qi in round(&mut rng) {
            let request = samples.len() as u64;
            let (timed, r) =
                common::timed_query(&mut session, &population, qi, tracer, None, request);
            assert!(
                common::same_answer(&r, &reference[qi]),
                "identity gate: closed-loop answer of {} diverged",
                population[qi].class
            );
            session.recycle(r);
            samples.push(timed);
        }
        loop_s += started.elapsed().as_secs_f64();
        cap.absorb(common::closed_window(
            &server,
            &light,
            &light_order,
            cap.offered,
            CAPACITY_WINDOW,
            Duration::from_secs_f64(CAPACITY_SLICE_S),
        ));
        let schedule = stats::poisson_schedule(
            seed ^ 0x0E_4104D ^ round_index as u64,
            OVERLOAD_RATE_HZ,
            OVERLOAD_SLICE_S,
            &uniform,
        );
        let base = (1 << 31) + over.offered as u64;
        over.absorb(common::open_loop(
            &server, &light, &schedule, true, tracer, base,
        ));
        let first = round_index * DELTAS_PER_ROUND;
        for d in &deltas[first..first + DELTAS_PER_ROUND] {
            updates.push(common::apply(&writer, d));
        }
    }
    over.stats = Some(server.shutdown());
    assert_eq!(cap.errors + over.errors, 0, "served phases must not error");
    let margin = (CLASS_MARGIN * samples.len() as f64) as usize;
    let p50 = common::check_percentile_class(&mut report, &population, &samples, 50.0, margin);
    let p95 = common::check_percentile_class(&mut report, &population, &samples, 95.0, margin);
    assert!(p50 < 2, "p50 must fall inside the σ = {LIGHT_SIGMA} class");
    assert!(p95 >= 2, "p95 must fall inside the σ = {HEAVY_SIGMA} class");
    common::report_latency(&mut report, &samples);
    common::report_query_medians(&mut report, &population, &samples);
    report.e2e("throughput_qps", samples.len() as f64 / loop_s, "1/s");
    report.note("rounds", rounds);
    let cache = session.stats();
    report.layer("ctxcache.hit_rate", cache.cache_hit_rate(), "ratio");
    report.note("basis.ctxcache.hits", cache.context_cache_hits);
    report.note(
        "basis.ctxcache.lookups",
        cache.context_cache_hits + cache.context_cache_misses,
    );
    drop(session);
    common::report_capacity(&mut report, &cap, CAPACITY_WINDOW);
    common::report_overload(&mut report, &over);
    common::report_serve_layers(&mut report, &over);

    let update_ms: Vec<f64> = updates.iter().map(|u| u.0).collect();
    report.e2e("update_p50_ms", stats::median(&update_ms), "ms");
    common::report_updates(&mut report, &updates);
    // Post-update identity gate on the writer's final epoch, light classes.
    let post = common::reference_answers(&writer, &light, ShapeGate::EachClass);
    checks += common::gate_session(&writer, &all_cores, "post-update", &light, &post);
    report.note("gate.comparisons", checks);

    if tracer.is_on() {
        layers::probe(
            &mut report,
            &engine,
            &population,
            tracer,
            1 << 32,
            &samples,
            false,
        );
    }
    report.attempted = (samples.len() + cap.offered + over.offered + updates.len()) as u64;
    report.failed = (cap.errors + over.errors) as u64;
    report
}
