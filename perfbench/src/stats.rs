//! Sample statistics and request schedules shared by the workloads.
//!
//! Everything here is pure: the workloads feed in measured samples or a
//! seed, and these helpers decide what may be reported. The unit tests at
//! the bottom pin the rules the benchmark relies on.

use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// A reported percentile must leave at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Zero-based nearest-rank index of the `p`-th percentile in a sorted sample
/// of `n` values.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank `p`-th percentile of `sorted`, refused unless at least
/// `min_beyond` samples lie beyond it (a percentile read off the last few
/// samples is a maximum, not a percentile).
pub fn percentile(sorted: &[f64], p: f64, min_beyond: usize) -> Result<f64, String> {
    if sorted.is_empty() {
        return Err(format!("p{p}: no samples"));
    }
    let r = rank(sorted.len(), p);
    let beyond = sorted.len() - 1 - r;
    if beyond < min_beyond {
        return Err(format!(
            "p{p}: only {beyond} of {} samples lie beyond it, {min_beyond} required",
            sorted.len()
        ));
    }
    Ok(sorted[r])
}

/// Smallest sample count for which the `p`-th percentile leaves
/// `min_beyond` samples beyond it.
pub fn min_samples(p: f64, min_beyond: usize) -> usize {
    (1..)
        .find(|&n| n - 1 - rank(n, p) >= min_beyond)
        .expect("unbounded search")
}

/// Median of an unsorted sample (mean of the two middle values for even
/// counts). An empty sample has none: a metric built on one is a defect of
/// the run, not a zero.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => panic!("median of an empty sample"),
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

/// Median over consecutive windows of `window` samples (in arrival order)
/// of each window's `p`-th percentile; a trailing partial window joins the
/// one before it. Every window must leave [`MIN_BEYOND`] samples beyond its
/// percentile. A stall of the machine spoils the windows it falls in, not
/// the reported value, so the median over windows holds still from run to
/// run where one percentile over the whole phase would not.
pub fn windowed_percentile(samples: &[f64], window: usize, p: f64) -> Result<f64, String> {
    let count = samples.len() / window.max(1);
    if count == 0 {
        return Err(format!(
            "p{p}: {} samples fill no window of {window}",
            samples.len()
        ));
    }
    let per_window: Vec<f64> = (0..count)
        .map(|w| {
            let end = if w + 1 == count {
                samples.len()
            } else {
                (w + 1) * window
            };
            let mut v = samples[w * window..end].to_vec();
            v.sort_by(f64::total_cmp);
            percentile(&v, p, MIN_BEYOND)
        })
        .collect::<Result<_, _>>()?;
    Ok(median(&per_window))
}

/// Zipf CDF over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Query popularity: Zipf(`s`) over ranks `0..n` (`s` = 0 is uniform).
#[derive(Debug, Clone)]
pub struct Popularity {
    cdf: Vec<f64>,
}

impl Popularity {
    pub fn zipf(n: usize, s: f64) -> Self {
        assert!(n >= 1, "a popularity needs at least one rank");
        Popularity {
            cdf: zipf_cdf(n, s),
        }
    }

    pub fn draw(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// One scheduled request of an open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the phase start at which the request is due.
    pub due_s: f64,
    /// Index into the query population.
    pub query: usize,
}

/// A Poisson arrival schedule at `rate_hz` over `duration_s`, each request
/// drawing its query from `popularity`. The whole schedule is fixed by
/// `seed` before the phase starts, so the program under test receives only
/// generated inputs.
pub fn poisson_schedule(
    seed: u64,
    rate_hz: f64,
    duration_s: f64,
    popularity: &Popularity,
) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut due_s = 0.0;
    loop {
        let u: f64 = rng.random_range(0.0..1.0);
        due_s += -(1.0 - u).ln() / rate_hz;
        if due_s >= duration_s {
            return out;
        }
        out.push(Arrival {
            due_s,
            query: popularity.draw(&mut rng),
        });
    }
}

/// A closed loop's request order: `len` draws from `popularity`, fixed by
/// `seed`.
pub fn closed_order(seed: u64, len: usize, popularity: &Popularity) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| popularity.draw(&mut rng)).collect()
}

/// Latency of an open-loop request measured from when it was **due**, not
/// from when the generator got round to submitting it: the generator's own
/// lag counts against the system, as it would for a real user.
///
/// `leader_submit_s` is when the execution that answered the request was
/// submitted (the request itself, or the earlier identical request it was
/// coalesced onto) and `latency_s` that execution's submit-to-answer time;
/// all instants are seconds from the phase start.
pub fn due_latency_s(due_s: f64, leader_submit_s: f64, latency_s: f64) -> f64 {
    (leader_submit_s + latency_s - due_s).max(0.0)
}

/// How late an open-loop generator ran: the median and largest gap between
/// a request's due time and its actual submission, in seconds.
pub fn lateness_s(due_s: &[f64], submit_s: &[f64]) -> (f64, f64) {
    let lags: Vec<f64> = due_s
        .iter()
        .zip(submit_s)
        .map(|(d, s)| (s - d).max(0.0))
        .collect();
    let max = lags.iter().copied().fold(0.0, f64::max);
    (median(&lags), max)
}

/// Checks that the `p`-th percentile of a sample labelled by query class
/// lies well inside one class, and returns that class.
///
/// The classes are put in order of their median latency and laid end to
/// end by sample count. Between two neighbours whose medians differ by more
/// than the ratio `step` there is a cost boundary, and the percentile's rank
/// must lie at least `margin` ranks from every such boundary. A percentile
/// on a boundary would jump between a cheap and an expensive class on noise
/// alone; neighbours of about the same cost overlap, so a percentile between
/// them moves smoothly and is allowed. Ordering by median rather than by
/// each sample keeps a stalled request from counting as a boundary.
pub fn percentile_class(
    samples: &[(f64, usize)],
    p: f64,
    margin: usize,
    step: f64,
) -> Result<usize, String> {
    if samples.is_empty() {
        return Err(format!("p{p}: no samples"));
    }
    let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(v, c) in samples {
        by_class.entry(c).or_default().push(v);
    }
    let mut classes: Vec<(f64, usize, usize)> = by_class
        .iter()
        .map(|(&c, v)| (median(v), c, v.len()))
        .collect();
    classes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let r = rank(samples.len(), p);
    let mut start = 0;
    let mut holder = None;
    for (i, &(med, class, count)) in classes.iter().enumerate() {
        if i > 0 && med > step * classes[i - 1].0 {
            // A cost boundary before rank `start`.
            let distance = if r >= start { r - start } else { start - 1 - r };
            if distance < margin {
                let order: Vec<String> = classes
                    .iter()
                    .map(|(m, c, n)| format!("{c}:{m:.4}x{n}"))
                    .collect();
                return Err(format!(
                    "p{p} (rank {r} of {}) sits on a class boundary: {distance} ranks from \
                     the step from class {} ({:.4}) to class {class} ({med:.4}), {margin} \
                     required; classes in cost order (class:median x count): {}",
                    samples.len(),
                    classes[i - 1].1,
                    classes[i - 1].0,
                    order.join(" ")
                ));
            }
        }
        if (start..start + count).contains(&r) {
            holder = Some(class);
        }
        start += count;
    }
    Ok(holder.expect("the rank lies inside the sample"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_requires_ten_samples_beyond() {
        let sorted: Vec<f64> = (0..200).map(f64::from).collect();
        // Rank 189 of 200 leaves exactly 10 beyond: accepted.
        assert_eq!(percentile(&sorted, 95.0, MIN_BEYOND), Ok(189.0));
        assert_eq!(percentile(&sorted, 50.0, MIN_BEYOND), Ok(99.0));
        // One sample short of the rule is refused, not rounded.
        assert!(percentile(&sorted[..199], 95.0, MIN_BEYOND).is_err());
        assert!(percentile(&[], 50.0, 0).is_err());
        assert_eq!(min_samples(95.0, MIN_BEYOND), 200);
        assert_eq!(min_samples(50.0, MIN_BEYOND), 20);
    }

    #[test]
    fn windowed_percentile_ignores_a_stalled_window() {
        // Ten windows of 200 samples (the last with 50 more folded in);
        // one window is ruined by a stall.
        let mut s: Vec<f64> = (0..2050).map(|i| f64::from(i % 200)).collect();
        for x in &mut s[400..600] {
            *x += 1000.0;
        }
        assert_eq!(windowed_percentile(&s, 200, 95.0), Ok(189.0));
        let whole: Vec<f64> = {
            let mut v = s.clone();
            v.sort_by(f64::total_cmp);
            v
        };
        assert!(percentile(&whole, 95.0, MIN_BEYOND).unwrap() > 1000.0);
        assert_eq!(windowed_percentile(&s, 200, 50.0), Ok(99.0));
        assert!(windowed_percentile(&s[..199], 200, 95.0).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn schedule_is_fixed_by_the_seed() {
        let pop = Popularity::zipf(16, 1.1);
        let a = poisson_schedule(7, 500.0, 2.0, &pop);
        let b = poisson_schedule(7, 500.0, 2.0, &pop);
        let c = poisson_schedule(8, 500.0, 2.0, &pop);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Poisson at 500/s for 2 s: about 1000 arrivals, increasing due
        // times inside the window, a hot Zipf head.
        assert!((900..1100).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(a.last().is_some_and(|x| x.due_s < 2.0));
        let head = a.iter().filter(|x| x.query == 0).count();
        let tail = a.iter().filter(|x| x.query == 15).count();
        assert!(head > 5 * tail, "head {head} tail {tail}");
        assert_eq!(closed_order(3, 50, &pop), closed_order(3, 50, &pop));
        assert_ne!(closed_order(3, 50, &pop), closed_order(4, 50, &pop));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Submitted 3 ms late, answered 2 ms after submission: 5 ms.
        assert!((due_latency_s(1.000, 1.003, 0.002) - 0.005).abs() < 1e-12);
        // Coalesced onto an execution submitted before this request was
        // due: only the time from due to the shared answer counts.
        assert!((due_latency_s(1.000, 0.999, 0.004) - 0.003).abs() < 1e-12);
        // An answer that was already there costs nothing, never less.
        assert_eq!(due_latency_s(1.0, 0.5, 0.1), 0.0);
    }

    #[test]
    fn generator_lateness_is_reported() {
        let due = [0.0, 1.0, 2.0, 3.0];
        let sent = [0.0, 1.001, 2.004, 2.999];
        let (p50, max) = lateness_s(&due, &sent);
        assert!((p50 - 0.0005).abs() < 1e-12);
        assert!((max - 0.004).abs() < 1e-12);
    }

    #[test]
    fn percentile_off_a_class_boundary() {
        // 180 cheap samples (class 0) and 20 expensive ones (class 1).
        let mut s: Vec<(f64, usize)> = (0..180).map(|i| (1.0 + f64::from(i) * 1e-3, 0)).collect();
        s.extend((0..20).map(|i| (1000.0 + f64::from(i), 1)));
        assert_eq!(percentile_class(&s, 50.0, 5, 1.25), Ok(0));
        assert_eq!(percentile_class(&s, 95.0, 5, 1.25), Ok(1));
        // p90 is rank 179, the last cheap sample: on the boundary.
        assert!(percentile_class(&s, 90.0, 5, 1.25).is_err());
        // A stalled cheap request among the expensive ones moves no class
        // median, so no boundary moves.
        s[5].0 = 5000.0;
        assert_eq!(percentile_class(&s, 95.0, 5, 1.25), Ok(1));
        // With too few expensive samples p95 lands near the boundary.
        s.truncate(190);
        assert!(percentile_class(&s, 95.0, 5, 1.25).is_err());
        assert!(percentile_class(&[], 50.0, 5, 1.25).is_err());
    }

    #[test]
    fn classes_of_one_cost_share_no_boundary() {
        // Two classes of the same cost, interleaved, split at p50: no
        // boundary between them, whichever median happens to be lower.
        let s: Vec<(f64, usize)> = (0..200)
            .map(|i| (10.0 + f64::from(i % 7) * 0.1, i as usize % 2))
            .collect();
        assert!(percentile_class(&s, 50.0, 5, 1.25).is_ok());
        // The same split with one class twice as expensive is refused.
        let s: Vec<(f64, usize)> = (0..200)
            .map(|i| (if i % 2 == 0 { 10.0 } else { 20.0 }, i as usize % 2))
            .collect();
        assert!(percentile_class(&s, 50.0, 5, 1.25).is_err());
    }

    #[test]
    fn a_three_to_one_mix_keeps_percentiles_inside_a_class() {
        // gs-heavy's round: 9 GS-NC + 27 GS-T light queries, 1 + 3 heavy.
        // Whether GS-NC costs half, the same as or twice GS-T, p50 and p95
        // each lie inside one class at the smallest sample a run takes.
        for nc in [0.5, 1.0, 2.0] {
            let round = [(9, nc), (27, 1.0), (1, 100.0 * nc), (3, 100.0)];
            let s: Vec<(f64, usize)> = (0..5)
                .flat_map(|_| round.iter().enumerate())
                .flat_map(|(class, &(n, cost))| std::iter::repeat_n((cost, class), n))
                .collect();
            assert_eq!(s.len(), min_samples(95.0, MIN_BEYOND));
            let margin = s.len() / 50;
            let p50 = percentile_class(&s, 50.0, margin, 1.25);
            let p95 = percentile_class(&s, 95.0, margin, 1.25);
            assert!(
                p50.as_ref().is_ok_and(|&c| c < 2),
                "GS-NC at {nc}: p50 {p50:?}"
            );
            assert!(
                p95.as_ref().is_ok_and(|&c| c >= 2),
                "GS-NC at {nc}: p95 {p95:?}"
            );
        }
    }
}
