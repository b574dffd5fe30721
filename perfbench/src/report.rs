//! What one run reports, how it is written down, and `--compare`.
//!
//! A run prints one JSON line (the last line of standard output) with the
//! end-to-end metrics, or with the per-layer metrics when traced, and writes
//! a plain-text record of everything it measured: both metric kinds, the
//! resolved plan, the engine calibration, the result shape of every query
//! class and the bases of every ratio. `--compare` reads two sets of such
//! records.

use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Free-form facts: plan, calibration, shape, sample counts, bases.
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Report {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        push(&mut self.end_to_end, name, value, unit);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        push(&mut self.per_layer, name, value, unit);
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn result_line(&self) -> String {
        let metrics = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// The plain-text record: one tab-separated fact per line.
    pub fn record_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "workload\t{}", self.workload);
        let _ = writeln!(out, "seed\t{}", self.seed);
        let _ = writeln!(out, "trace\t{}", u8::from(self.traced));
        let _ = writeln!(out, "attempted\t{}", self.attempted);
        let _ = writeln!(out, "failed\t{}", self.failed);
        for m in &self.end_to_end {
            let _ = writeln!(out, "e2e\t{}\t{}\t{}", m.name, m.value, m.unit);
        }
        for m in &self.per_layer {
            let _ = writeln!(out, "layer\t{}\t{}\t{}", m.name, m.value, m.unit);
        }
        for (k, v) in &self.notes {
            let _ = writeln!(out, "note\t{k}\t{v}");
        }
        out
    }
}

fn push(list: &mut Vec<Metric>, name: &str, value: f64, unit: &str) {
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    assert!(
        list.iter().all(|m| m.name != name),
        "metric {name} reported twice"
    );
    list.push(Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    });
}

/// One parsed record file.
#[derive(Debug, Default)]
struct Record {
    workload: String,
    traced: bool,
    metrics: Vec<(String, String, f64, String)>,
    notes: Vec<(String, String)>,
}

fn parse_record(text: &str) -> Record {
    let mut r = Record::default();
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["workload", w] => r.workload = w.to_string(),
            ["trace", t] => r.traced = *t == "1",
            [kind @ ("e2e" | "layer"), name, value, unit] => {
                if let Ok(v) = value.parse::<f64>() {
                    r.metrics
                        .push((kind.to_string(), name.to_string(), v, unit.to_string()));
                }
            }
            ["note", k, v] => r.notes.push((k.to_string(), v.to_string())),
            _ => {}
        }
    }
    r
}

fn load_records(path: &Path) -> Result<Vec<Record>, String> {
    let files: Vec<_> = if path.is_dir() {
        let mut v: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "tsv"))
            .collect();
        v.sort();
        v
    } else {
        vec![path.to_path_buf()]
    };
    let records: Vec<Record> = files
        .iter()
        .map(|f| {
            std::fs::read_to_string(f)
                .map(|t| parse_record(&t))
                .map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect::<Result<_, _>>()?;
    if records.is_empty() {
        return Err(format!("{}: no .tsv records", path.display()));
    }
    Ok(records)
}

/// `(workload, traced, kind, metric)` → (values, unit).
type Grouped = BTreeMap<(String, bool, String, String), (Vec<f64>, String)>;

fn group(records: &[Record]) -> Grouped {
    let mut g: Grouped = BTreeMap::new();
    for r in records {
        for (kind, name, value, unit) in &r.metrics {
            let e = g
                .entry((r.workload.clone(), r.traced, kind.clone(), name.clone()))
                .or_insert_with(|| (Vec::new(), unit.clone()));
            e.0.push(*value);
        }
    }
    g
}

/// Distinct values of each plan/calibration note per workload.
fn plans(records: &[Record]) -> BTreeMap<(String, String), Vec<String>> {
    let mut p: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    for r in records {
        for (k, v) in &r.notes {
            if k.starts_with("plan.") {
                let e = p.entry((r.workload.clone(), k.clone())).or_default();
                if !e.contains(v) {
                    e.push(v.clone());
                }
            }
        }
    }
    p
}

/// Prints, per workload, each metric's median and quartiles in set `a` and
/// set `b` and the change of the median; then any resolved-plan difference
/// and the tracing overhead seen in each set.
pub fn compare(a: &Path, b: &Path) -> Result<String, String> {
    let (ra, rb) = (load_records(a)?, load_records(b)?);
    let (ga, gb) = (group(&ra), group(&rb));
    let mut out = String::new();
    let _ = writeln!(out, "a = {}\nb = {}", a.display(), b.display());
    let mut current = String::new();
    for (key, (va, unit)) in &ga {
        let (workload, traced, kind, name) = key;
        // End-to-end metrics come from untraced runs, layers from traced.
        if (kind == "e2e") == *traced {
            continue;
        }
        let Some((vb, _)) = gb.get(key) else {
            continue;
        };
        if *workload != current {
            current = workload.clone();
            let _ = writeln!(
                out,
                "\n[{workload}]  {:<34} {:>40} {:>40} {:>9}",
                "metric (unit)", "a: q1 / median / q3 (n)", "b: q1 / median / q3 (n)", "delta"
            );
        }
        let (a1, am, a3) = quartiles(va);
        let (b1, bm, b3) = quartiles(vb);
        let delta = if am != 0.0 {
            format!("{:+.1}%", (bm / am - 1.0) * 100.0)
        } else {
            "n/a".to_string()
        };
        let _ = writeln!(
            out,
            "  {:<44} {:>11.4} / {:>11.4} / {:>11.4} ({:>2}) {:>11.4} / {:>11.4} / {:>11.4} ({:>2}) {:>9}",
            format!("{kind} {name} ({unit})"),
            a1,
            am,
            a3,
            va.len(),
            b1,
            bm,
            b3,
            vb.len(),
            delta
        );
    }
    let (pa, pb) = (plans(&ra), plans(&rb));
    let mut flips = Vec::new();
    for (key, va) in &pa {
        let vb = pb.get(key).cloned().unwrap_or_default();
        if va.len() > 1 || vb.len() > 1 || *va != vb {
            flips.push(format!("  {} {}: a {:?} b {:?}", key.0, key.1, va, vb));
        }
    }
    let _ = writeln!(out, "\nresolved plan:");
    if flips.is_empty() {
        let _ = writeln!(out, "  identical in every run of both sets");
    } else {
        let _ = writeln!(out, "  differs (a noise source, named):");
        for f in flips {
            let _ = writeln!(out, "{f}");
        }
    }
    let _ = writeln!(out, "\ntracing overhead (traced vs untraced query_p50_ms):");
    for (label, g) in [("a", &ga), ("b", &gb)] {
        for ((workload, traced, kind, name), (vt, _)) in g.iter() {
            if !*traced || kind != "e2e" || name != "query_p50_ms" {
                continue;
            }
            let untraced = (workload.clone(), false, kind.clone(), name.clone());
            if let Some((vu, _)) = g.get(&untraced) {
                let _ = writeln!(
                    out,
                    "  {label} {workload}: {:+.1}%",
                    (median(vt) / median(vu) - 1.0) * 100.0
                );
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("w", 1, false);
        r.attempted = 5;
        r.e2e("query_p50_ms", 1.25, "ms");
        r.layer("serve.shed", 0.0, "count");
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"query_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.traced = true;
        assert!(r
            .result_line()
            .contains("\"serve.shed\": {\"value\": 0, \"unit\": \"count\"}"));
    }

    #[test]
    fn record_round_trips_through_the_parser() {
        let mut r = Report::new("w", 3, true);
        r.e2e("query_p50_ms", 0.5, "ms");
        r.layer("rangefilter.ms", 0.25, "ms");
        r.note("plan.filter.dijkstra-sweep", 16);
        let p = parse_record(&r.record_text());
        assert_eq!(p.workload, "w");
        assert!(p.traced);
        assert_eq!(p.metrics.len(), 2);
        assert_eq!(p.metrics[1].1, "rangefilter.ms");
        assert_eq!(
            p.notes,
            vec![("plan.filter.dijkstra-sweep".into(), "16".into())]
        );
    }
}
