//! `BENCHMARK.json` as the runner sees it, and the ledger that holds one
//! run's metrics against it.

use crate::stats::Summary;
use fuzzy_util::Json;

/// The file at the repository root, compiled in so the runner and the
/// file cannot drift apart unnoticed.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening of the median as a share of the baseline;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses `text`.
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped key.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        lower_is_better: text_of(m, "better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_i64)
                .and_then(|s| u64::try_from(s).ok())
                .ok_or("BENCHMARK.json: `run_seconds` is not a whole number")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The compiled-in file.
    ///
    /// # Panics
    ///
    /// Panics if the repository's `BENCHMARK.json` is malformed.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("the repository's BENCHMARK.json is well-formed")
    }

    /// The metrics one run must print: end-to-end untraced, per-layer
    /// traced.
    pub fn metrics(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// One run's metrics. Every name must come from `BENCHMARK.json`, be
/// reported exactly once, and be finite; [`Ledger::finish`] names the
/// offenders.
#[derive(Debug)]
pub struct Ledger<'a> {
    spec: &'a [MetricSpec],
    values: Vec<Option<f64>>,
    notes: Vec<String>,
    errors: Vec<String>,
}

impl<'a> Ledger<'a> {
    pub fn new(spec: &'a [MetricSpec]) -> Self {
        Ledger {
            spec,
            values: vec![None; spec.len()],
            notes: vec![String::new(); spec.len()],
            errors: Vec::new(),
        }
    }

    fn put_noted(&mut self, name: &str, value: f64, note: String) {
        let Some(index) = self.spec.iter().position(|m| m.name == name) else {
            self.errors
                .push(format!("`{name}` is not named in BENCHMARK.json"));
            return;
        };
        if self.values[index].is_some() {
            self.errors.push(format!("`{name}` reported twice"));
        } else if !value.is_finite() {
            self.errors.push(format!("`{name}` is not finite: {value}"));
        }
        self.values[index] = Some(value);
        self.notes[index] = note;
    }

    /// Reports a count, ratio or single measurement.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_noted(name, value, String::new());
    }

    /// Reports a timing by its median, noting sample count and
    /// inter-quartile range beside it.
    pub fn put_timing(&mut self, name: &str, summary: &Summary) {
        self.put_noted(name, summary.median, summary.note());
    }

    /// Reports a timing's 99th percentile.
    pub fn put_p99(&mut self, name: &str, summary: &Summary) {
        self.put_noted(name, summary.p99, summary.note());
    }

    /// Reports 0 for every metric not reported so far: a layer the
    /// workload does not run did no work and took no time. Only the
    /// traced run calls this; which workload measures which layer is
    /// pinned by the `every_layer_metric_is_measured_somewhere` test.
    pub fn rest_not_run(&mut self) {
        for (value, note) in self.values.iter_mut().zip(&mut self.notes) {
            if value.is_none() {
                *value = Some(0.0);
                *note = NOT_RUN.to_owned();
            }
        }
    }

    /// `(name, value, unit, note)` rows in `BENCHMARK.json` order.
    ///
    /// # Errors
    ///
    /// Every unknown, repeated, non-finite or missing metric.
    pub fn finish(mut self) -> Result<Vec<Row>, Vec<String>> {
        for (m, v) in self.spec.iter().zip(&self.values) {
            if v.is_none() {
                self.errors.push(format!("`{}` was not reported", m.name));
            }
        }
        if !self.errors.is_empty() {
            return Err(self.errors);
        }
        Ok(self
            .spec
            .iter()
            .zip(self.values)
            .zip(self.notes)
            .map(|((m, v), note)| Row {
                name: m.name.clone(),
                value: v.expect("checked above"),
                unit: m.unit.clone(),
                note,
            })
            .collect())
    }
}

/// The note beside a metric of a layer the workload does not run.
pub const NOT_RUN: &str = "layer not run by this workload";

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub note: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Vec<MetricSpec> {
        ["a.x", "a.y", "b"]
            .iter()
            .map(|n| MetricSpec {
                name: (*n).into(),
                unit: "ns".into(),
                lower_is_better: true,
                bound: None,
            })
            .collect()
    }

    #[test]
    fn complete_ledger_finishes_in_spec_order() {
        let spec = spec();
        let mut l = Ledger::new(&spec);
        l.put("b", 3.0);
        l.rest_not_run();
        let rows = l.finish().unwrap();
        let got: Vec<_> = rows.iter().map(|r| (r.name.as_str(), r.value)).collect();
        assert_eq!(got, vec![("a.x", 0.0), ("a.y", 0.0), ("b", 3.0)]);
    }

    #[test]
    fn missing_repeated_unknown_and_nan_are_errors() {
        let spec = spec();
        let mut l = Ledger::new(&spec);
        l.put("a.x", 1.0);
        l.put("a.x", 2.0);
        l.put("nope", 1.0);
        l.put("b", f64::NAN);
        let errors = l.finish().unwrap_err();
        assert_eq!(errors.len(), 4, "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("`a.x` reported twice")));
        assert!(errors.iter().any(|e| e.contains("`nope` is not named")));
        assert!(errors.iter().any(|e| e.contains("`b` is not finite")));
        assert!(errors.iter().any(|e| e.contains("`a.y` was not reported")));
    }

    #[test]
    fn repository_file_meets_the_contract_limits() {
        let spec = Spec::load();
        assert_eq!(spec.workloads, crate::WORKLOADS);
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        assert_eq!(setup.map(|m| m.unit.as_str()), Some("s"));
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
            .map(String::as_str)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
