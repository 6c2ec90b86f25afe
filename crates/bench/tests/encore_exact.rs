//! `exp_encore`'s simulator rows are exact: a fresh export's `soft_sweep`
//! and `hw_sweep` sections must equal `BENCH_encore.json`'s.
//!
//! Those sections are simulated cycle counts at a fixed seed, so they do
//! not depend on the host: any change to what `fuzzy-sim` counts shows up
//! here, however loaded the machine. The `backends` section of the same
//! export is thread-timed and is only checked for shape. Regenerate the
//! checked-in file (`exp_encore --stats-json BENCH_encore.json`) only when
//! a simulated count is meant to change.

use fuzzy_bench::schema::{encore_shape, validate};
use fuzzy_util::Json;
use std::path::Path;
use std::process::{Command, Stdio};

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: malformed JSON: {e}", path.display()))
}

#[test]
fn fresh_export_matches_checked_in_simulator_rows() {
    let fresh_path = std::env::temp_dir().join(format!("encore_exact_{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_exp_encore"))
        .arg("--stats-json")
        .arg(&fresh_path)
        .stdout(Stdio::null())
        .status()
        .expect("exp_encore starts");
    assert!(status.success(), "exp_encore failed: {status}");
    let fresh = read_json(&fresh_path);
    let _ = std::fs::remove_file(&fresh_path);

    assert_eq!(validate(&fresh, &encore_shape()), Vec::<String>::new());

    let baseline =
        read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_encore.json"));
    for section in ["soft_sweep", "hw_sweep"] {
        let want = baseline
            .get(section)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCH_encore.json has no {section} array"));
        let got = fresh
            .get(section)
            .and_then(Json::as_arr)
            .expect("validated above");
        assert_eq!(got.len(), want.len(), "{section}: row count");
        for (i, (got, want)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                got, want,
                "{section}[{i}] differs from BENCH_encore.json: a simulated count changed"
            );
        }
    }
}
