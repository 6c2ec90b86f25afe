//! Structural schema validation for `--stats-json` exports.
//!
//! A [`Shape`] describes the key set and value types a telemetry file must
//! have; [`validate`] walks a parsed [`Json`] tree against it and collects
//! every mismatch with a JSON-pointer-style path. The telemetry blocks'
//! shapes are built from the key lists their writers export with (a
//! `counter_set!`'s `KEYS`, the histogram's and the spread's), so only the
//! document-level shapes are written out here. What pins the format is
//! the checked-in `BENCH_encore.json`: it must validate against
//! [`encore_shape`], so a key rename or type drift fails the build instead
//! of silently breaking downstream plotting scripts.

use fuzzy_barrier::{ParticipantSnapshot, SpreadSnapshot, StatsSnapshot, TelemetrySnapshot};
use fuzzy_sim::{MachineStats, ProcStats, SyncTelemetry};
use fuzzy_util::{Histogram, Json};

/// A structural type for one JSON value.
#[derive(Debug, Clone)]
pub enum Shape {
    /// Any string.
    Str,
    /// Any number (the writer never emits non-finite values).
    Num,
    /// `true` or `false`.
    Bool,
    /// An array with at least `min_len` elements, each matching `elem`.
    Arr {
        /// Shape every element must match.
        elem: Box<Shape>,
        /// Minimum element count (0 = may be empty).
        min_len: usize,
    },
    /// An object with exactly these keys (any order), each value matching
    /// its shape. Missing and unexpected keys are both errors.
    Obj(Vec<(&'static str, Shape)>),
}

/// Shorthand for a non-empty array of `elem`.
#[must_use]
pub fn arr_of(elem: Shape) -> Shape {
    Shape::Arr {
        elem: Box::new(elem),
        min_len: 1,
    }
}

/// Shorthand for an object shape from `(key, shape)` pairs.
#[must_use]
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Shape)>) -> Shape {
    Shape::Obj(fields.into_iter().collect())
}

/// Validates `value` against `shape`, returning every mismatch as a
/// `path: problem` line. An empty vector means the document conforms.
#[must_use]
pub fn validate(value: &Json, shape: &Shape) -> Vec<String> {
    let mut errors = Vec::new();
    walk(value, shape, "$", &mut errors);
    errors
}

fn type_name(value: &Json) -> &'static str {
    match value {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn walk(value: &Json, shape: &Shape, path: &str, errors: &mut Vec<String>) {
    match (shape, value) {
        (Shape::Str, Json::Str(_)) | (Shape::Num, Json::Num(_)) | (Shape::Bool, Json::Bool(_)) => {}
        (Shape::Arr { elem, min_len }, Json::Arr(items)) => {
            if items.len() < *min_len {
                errors.push(format!(
                    "{path}: expected at least {min_len} element(s), got {}",
                    items.len()
                ));
            }
            for (i, item) in items.iter().enumerate() {
                walk(item, elem, &format!("{path}[{i}]"), errors);
            }
        }
        (Shape::Obj(fields), Json::Obj(actual)) => {
            for (key, field_shape) in fields {
                match value.get(key) {
                    Some(v) => walk(v, field_shape, &format!("{path}.{key}"), errors),
                    None => errors.push(format!("{path}: missing key {key:?}")),
                }
            }
            for (key, _) in actual {
                if !fields.iter().any(|(k, _)| k == key) {
                    errors.push(format!("{path}: unexpected key {key:?}"));
                }
            }
        }
        (expected, actual) => {
            let want = match expected {
                Shape::Str => "string",
                Shape::Num => "number",
                Shape::Bool => "bool",
                Shape::Arr { .. } => "array",
                Shape::Obj(_) => "object",
            };
            errors.push(format!(
                "{path}: expected {want}, got {}",
                type_name(actual)
            ));
        }
    }
}

/// An object of numbers, one per key: the shape of a counter set's
/// `to_json` and of the other all-number blocks.
fn numbers(keys: &[&'static str]) -> Vec<(&'static str, Shape)> {
    keys.iter().map(|&key| (key, Shape::Num)).collect()
}

/// A histogram export ([`Histogram::to_json`]). Buckets may be empty (a
/// run can finish without a single recorded stall).
fn stall_hist() -> Shape {
    let [unit, total, buckets] = Histogram::KEYS;
    obj([
        (unit, Shape::Str),
        (total, Shape::Num),
        (
            buckets,
            Shape::Arr {
                elem: Box::new(Shape::Obj(numbers(&Histogram::BUCKET_KEYS))),
                min_len: 0,
            },
        ),
    ])
}

/// Per-backend telemetry block ([`TelemetrySnapshot::to_json`]).
fn backend_telemetry() -> Shape {
    let [hist, spread, rows] = TelemetrySnapshot::KEYS;
    let mut fields = numbers(StatsSnapshot::KEYS);
    fields.extend([
        (hist, stall_hist()),
        (spread, Shape::Obj(numbers(&SpreadSnapshot::KEYS))),
        (rows, arr_of(Shape::Obj(numbers(ParticipantSnapshot::KEYS)))),
    ]);
    Shape::Obj(fields)
}

/// A simulated machine's block ([`MachineStats::to_json`]).
fn machine() -> Shape {
    let [cycles, sync_events, hist, spread, procs] = MachineStats::KEYS;
    obj([
        (cycles, Shape::Num),
        (sync_events, Shape::Num),
        (hist, stall_hist()),
        (spread, Shape::Obj(numbers(&SyncTelemetry::SPREAD_KEYS))),
        (procs, arr_of(Shape::Obj(numbers(ProcStats::KEYS)))),
    ])
}

/// The full `exp_encore --stats-json` document shape.
#[must_use]
pub fn encore_shape() -> Shape {
    let soft_row = obj([
        ("region (% of body)", Shape::Str),
        ("total cycles", Shape::Num),
        ("spin probes/proc/barrier", Shape::Num),
        ("ctx switches", Shape::Num),
        ("sync cost/barrier (cycles)", Shape::Num),
    ]);
    let hw_row = obj([
        ("region_pct", Shape::Num),
        ("total_stall_cycles", Shape::Num),
        ("machine", machine()),
    ]);
    obj([
        ("experiment", Shape::Str),
        ("soft_sweep", arr_of(soft_row)),
        ("hw_sweep", arr_of(hw_row)),
        (
            "backends",
            obj([
                ("central", backend_telemetry()),
                ("counting", backend_telemetry()),
                ("dissemination", backend_telemetry()),
                ("tree", backend_telemetry()),
            ]),
        ),
    ])
}

/// Summary block shared by the single-run sections of the fault-recovery
/// export.
fn fault_run_summary() -> Shape {
    obj([
        ("evictions", Shape::Num),
        ("sync_events", Shape::Num),
        ("cycles", Shape::Num),
        ("outcome", Shape::Str),
    ])
}

/// The full `exp_fault_recovery --stats-json` document shape.
#[must_use]
pub fn fault_recovery_shape() -> Shape {
    let sweep_row = obj([
        ("budget", Shape::Num),
        ("fired_at", Shape::Num),
        ("recovery_cycles", Shape::Num),
        ("evictions", Shape::Num),
        ("survivor_syncs_min", Shape::Num),
        ("victim_syncs", Shape::Num),
        ("cycles", Shape::Num),
        ("outcome", Shape::Str),
    ]);
    obj([
        ("experiment", Shape::Str),
        ("stall_sweep", arr_of(sweep_row)),
        ("transient_delay", fault_run_summary()),
        ("stutter", fault_run_summary()),
    ])
}

/// The full `exp_chaos_churn --stats-json` document shape. One row per
/// (backend, mode) chaos run; `recovery` is the post-event epoch-recovery
/// latency histogram in the standard `stall_hist` format.
#[must_use]
pub fn chaos_churn_shape() -> Shape {
    let run = obj([
        ("backend", Shape::Str),
        ("mode", Shape::Str),
        (
            "events",
            obj([
                ("joins", Shape::Num),
                ("leaves", Shape::Num),
                ("crashes", Shape::Num),
                ("delays", Shape::Num),
                ("spurious", Shape::Num),
                ("total", Shape::Num),
            ]),
        ),
        ("episodes", Shape::Num),
        ("final_epoch", Shape::Num),
        ("final_members", Shape::Num),
        ("agreement", Shape::Bool),
        ("spurious_hits", Shape::Num),
        ("elapsed_ms", Shape::Num),
        ("recovery", stall_hist()),
    ]);
    obj([
        ("experiment", Shape::Str),
        (
            "config",
            obj([
                ("seed", Shape::Num),
                ("events_per_run", Shape::Num),
                ("quick", Shape::Bool),
            ]),
        ),
        ("runs", arr_of(run)),
        (
            "verdict",
            obj([
                ("runs", Shape::Num),
                ("total_events", Shape::Num),
                ("all_agreed", Shape::Bool),
            ]),
        ),
    ])
}

/// The `fuzz --stats-json` campaign summary shape (see
/// `fuzzy_fuzz::campaign::CampaignStats::to_json`). `repros` may be empty
/// — a clean campaign is the expected steady state.
#[must_use]
pub fn fuzz_campaign_shape() -> Shape {
    let repro = obj([("name", Shape::Str), ("divergences", arr_of(Shape::Str))]);
    obj([
        ("schema", Shape::Str),
        ("seed", Shape::Num),
        ("iters", Shape::Num),
        ("rejected_nests", Shape::Num),
        ("near_invalid_ok", Shape::Num),
        ("near_invalid_bad", Shape::Num),
        ("divergent_cases", Shape::Num),
        (
            "repros",
            Shape::Arr {
                elem: Box::new(repro),
                min_len: 0,
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj()
            .field("name", "x")
            .field("xs", vec![1u64, 2])
            .field("flag", true)
    }

    fn sample_shape() -> Shape {
        obj([
            ("name", Shape::Str),
            ("xs", arr_of(Shape::Num)),
            ("flag", Shape::Bool),
        ])
    }

    #[test]
    fn conforming_document_validates() {
        assert_eq!(validate(&sample(), &sample_shape()), Vec::<String>::new());
    }

    #[test]
    fn missing_extra_and_mistyped_keys_all_report() {
        let doc = Json::obj()
            .field("name", 7u64)
            .field("stray", Json::Null)
            .field("flag", true);
        let errors = validate(&doc, &sample_shape());
        assert!(errors
            .iter()
            .any(|e| e.contains("$.name") && e.contains("expected string")));
        assert!(errors.iter().any(|e| e.contains("missing key \"xs\"")));
        assert!(errors
            .iter()
            .any(|e| e.contains("unexpected key \"stray\"")));
    }

    #[test]
    fn array_paths_point_at_the_bad_element() {
        let doc = Json::obj()
            .field("name", "x")
            .field(
                "xs",
                Json::Arr(vec![Json::Num(1.0), Json::Str("two".into())]),
            )
            .field("flag", true);
        let errors = validate(&doc, &sample_shape());
        assert_eq!(errors.len(), 1);
        assert!(errors[0].starts_with("$.xs[1]:"), "{}", errors[0]);
    }

    #[test]
    fn empty_array_fails_min_len() {
        let doc = Json::obj()
            .field("name", "x")
            .field("xs", Json::Arr(vec![]))
            .field("flag", true);
        let errors = validate(&doc, &sample_shape());
        assert!(errors[0].contains("at least 1 element"), "{}", errors[0]);
    }

    #[test]
    fn checked_in_encore_export_conforms() {
        // The committed reference export must always match the schema: a
        // renamed key in a writer's declaration fails here until the file
        // is regenerated on purpose.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_encore.json"
        ))
        .expect("BENCH_encore.json present in repo root");
        let doc = Json::parse(&text).expect("reference export parses");
        assert_eq!(validate(&doc, &encore_shape()), Vec::<String>::new());
    }
}
