//! `exp_semantics` draws Fig. 1 exactly: each processor's position in its
//! barrier region when synchronization fires, per region size, serial and
//! pipelined. The positions are simulated instruction counts, so they do
//! not depend on the host; any change to where a synchronization samples
//! them shows up here. The pipelined run has a 16-cycle memory, so the
//! last arriver's flag store is still in flight when it enters its region.

use fuzzy_util::Json;
use std::process::{Command, Stdio};

/// Region iterations and the sorted positions at sync, per table row, under
/// serial issue.
const FIG1: [(i64, &str); 6] = [
    (0, "[1, 1, 1, 1]"),
    (50, "[1, 102, 102, 102]"),
    (100, "[1, 202, 202, 202]"),
    (200, "[1, 402, 402, 402]"),
    (400, "[1, 801, 802, 802]"),
    (800, "[1, 801, 1201, 1501]"),
];

/// The same under pipelined issue: the last arriver's ready line waits
/// for its 16-cycle flag store, by which time it is 16 instructions into
/// its region, and every peer still inside its own is 15 deeper than
/// under serial issue.
const PIPELINED: [(i64, &str); 6] = [
    (0, "[1, 1, 1, 1]"),
    (50, "[16, 102, 102, 102]"),
    (100, "[16, 202, 202, 202]"),
    (200, "[16, 402, 402, 402]"),
    (400, "[16, 802, 802, 802]"),
    (800, "[16, 816, 1216, 1516]"),
];

/// The `(region iters, region positions at sync)` column pair of an
/// export made with `extra` arguments.
fn positions(mode: &str, extra: &[&str]) -> Vec<(i64, String)> {
    let path = std::env::temp_dir().join(format!(
        "semantics_exact_{mode}_{}.json",
        std::process::id()
    ));
    let status = Command::new(env!("CARGO_BIN_EXE_exp_semantics"))
        .args(extra)
        .arg("--stats-json")
        .arg(&path)
        .stdout(Stdio::null())
        .status()
        .expect("exp_semantics starts");
    assert!(status.success(), "exp_semantics {extra:?} failed: {status}");
    let text = std::fs::read_to_string(&path).expect("export written");
    let _ = std::fs::remove_file(&path);
    let doc = Json::parse(&text).expect("well-formed JSON");
    let rows = doc.get("results").and_then(Json::as_arr).expect("results");
    rows.iter()
        .map(|row| {
            let region = row.get("region iters").and_then(Json::as_i64);
            let at_sync = row.get("region positions at sync").and_then(Json::as_str);
            (
                region.expect("region iters"),
                at_sync.expect("region positions at sync").to_owned(),
            )
        })
        .collect()
}

fn expected(table: &[(i64, &str)]) -> Vec<(i64, String)> {
    table.iter().map(|&(r, p)| (r, p.to_owned())).collect()
}

#[test]
fn serial_region_positions_at_sync_are_fig1s() {
    assert_eq!(positions("serial", &[]), expected(&FIG1));
}

#[test]
fn pipelined_region_positions_at_sync_are_fig1s() {
    assert_eq!(
        positions("pipelined", &["--pipelined"]),
        expected(&PIPELINED)
    );
}

/// Pipelined issue shows what serial issue cannot: wherever there is a
/// region to run on into, the last arriver synchronizes past position 1,
/// because it entered its region before its non-barrier region finished.
#[test]
fn pipelined_table_differs_from_the_serial_one() {
    let serial = positions("serial", &[]);
    let pipelined = positions("pipelined", &["--pipelined"]);
    assert_eq!(serial.len(), pipelined.len());
    // Row 0's region is one `nop`: nothing to run on into.
    for ((region, s), (_, p)) in serial.iter().zip(&pipelined).skip(1) {
        assert!(
            s.starts_with("[1,") && !p.starts_with("[1,"),
            "region {region}: serial {s}, pipelined {p}"
        );
    }
}
