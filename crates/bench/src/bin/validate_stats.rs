//! `validate_stats` — checks a `--stats-json` export against its schema.
//!
//! ```text
//! validate_stats <file.json> [--schema <name>]
//! ```
//!
//! Parses the file with the in-tree JSON parser and validates key names
//! and value types against the expected export shape (`encore` by
//! default; the usage line lists every schema name). Exit codes:
//! 0 = conforms, 1 = schema violations or unreadable/unparsable input,
//! 2 = usage error.

use fuzzy_bench::schema::{
    chaos_churn_shape, encore_shape, fault_recovery_shape, fuzz_campaign_shape, validate, Shape,
};
use fuzzy_util::Json;

/// A schema's `--schema` name and its shape.
type Schema = (&'static str, fn() -> Shape);

/// Every schema `--schema` can name.
const SCHEMAS: [Schema; 4] = [
    ("encore", encore_shape),
    ("fault_recovery", fault_recovery_shape),
    ("fuzz_campaign", fuzz_campaign_shape),
    ("chaos_churn", chaos_churn_shape),
];

fn schema_names(separator: &str) -> String {
    SCHEMAS.map(|(name, _)| name).join(separator)
}

fn usage() -> ! {
    eprintln!(
        "usage: validate_stats <file.json> [--schema {}]",
        schema_names("|")
    );
    std::process::exit(2);
}

fn shape_for(name: &str) -> Option<Shape> {
    SCHEMAS
        .iter()
        .find(|(known, _)| *known == name)
        .map(|(_, shape)| shape())
}

fn main() {
    let mut file = None;
    let mut schema_name = "encore".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schema" => match args.next() {
                Some(v) => schema_name = v,
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("validate_stats: unknown flag {other:?}");
                usage();
            }
            path if file.is_none() => file = Some(path.to_string()),
            _ => usage(),
        }
    }
    let Some(path) = file else { usage() };
    let Some(shape) = shape_for(&schema_name) else {
        eprintln!(
            "validate_stats: unknown schema {schema_name:?} (have: {})",
            schema_names(", ")
        );
        usage();
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("validate_stats: cannot read {path}: {err}");
            std::process::exit(1);
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(err) => {
            eprintln!("validate_stats: {path}: malformed JSON: {err}");
            std::process::exit(1);
        }
    };
    let errors = validate(&doc, &shape);
    if errors.is_empty() {
        println!("validate_stats: {path} conforms to schema {schema_name:?}");
    } else {
        eprintln!(
            "validate_stats: {path} violates schema {schema_name:?} ({} problem(s)):",
            errors.len()
        );
        for error in &errors {
            eprintln!("  {error}");
        }
        std::process::exit(1);
    }
}
