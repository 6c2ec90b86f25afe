//! The compiler is a function of its input: compiling the same source
//! twice, in one process, yields the same program image. The fuzzer and
//! the simulator's equivalence suite both consume compiled programs, so a
//! compile that depended on hash order would make their findings
//! irreproducible.

use fuzzy_compiler::ast::VarId;
use fuzzy_compiler::fuzzy_sim::encoding::encode_program;
use fuzzy_compiler::parse::parse_program;
use fuzzy_compiler::{compile_nest, CompileOptions, LoopNest};
use fuzzy_fuzz::corpus::{default_dir, load_dir};
use std::path::Path;

/// The program image of two compiles of one nest.
fn compiled_twice(nest: &LoopNest, inits: &[Vec<(VarId, i64)>]) -> [Vec<u8>; 2] {
    [0, 1].map(|_| {
        let compiled = compile_nest(nest, inits, &CompileOptions::default()).expect("compiles");
        encode_program(&compiled.program).expect("encodes")
    })
}

#[test]
fn compiling_twice_gives_identical_programs() {
    let demo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../demos/poisson.fc");
    let parsed = parse_program(&std::fs::read_to_string(demo).expect("readable")).expect("parses");
    let [first, second] = compiled_twice(&parsed.nest, &parsed.proc_inits);
    assert!(first == second, "demos/poisson.fc compiled two ways");

    let corpus = load_dir(&default_dir()).expect("loads");
    let (name, case) = corpus.first().expect("a corpus case");
    let [first, second] = compiled_twice(&case.nest, &case.inits(case.max_procs));
    assert!(first == second, "corpus case {name} compiled two ways");
}
