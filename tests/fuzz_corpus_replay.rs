//! Replays the checked-in fuzz regression corpus through the full
//! differential harness. Every case in `crates/fuzz/corpus` once exposed
//! a real compiler or calibration bug (root causes in CHANGES.md's PR 6
//! entry);
//! this test keeps those bugs fixed.

use fuzzy_fuzz::corpus;
use fuzzy_fuzz::diff::{check_case, DiffOptions};

#[test]
fn corpus_cases_replay_clean() {
    let cases = corpus::load_dir(&corpus::default_dir()).expect("corpus loads");
    assert!(
        cases.len() >= 3,
        "regression corpus went missing: found {} case(s)",
        cases.len()
    );
    for (name, case) in cases {
        let divergences = check_case(&case, &DiffOptions::default());
        assert!(
            divergences.is_empty(),
            "corpus case {name} regressed:\n{}",
            divergences
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
