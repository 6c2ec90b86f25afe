//! `fsim` — assemble and run a fuzzy-barrier machine program.
//!
//! ```text
//! fsim PROGRAM.fasm [options]
//!
//!   --cycles N       cycle budget (default 10_000_000)
//!   --pipelined      overlapped issue
//!   --trace          print the barrier event trace
//!   --miss-rate X    probabilistic cache-miss rate (0.0-1.0)
//!   --miss-penalty N miss penalty in cycles
//!   --banks N        memory banks
//!   --seed N         RNG seed for miss injection
//!   --dump A B       print memory words A..B after the run
//!   --stats-json P   write the full stats snapshot (stall histogram,
//!                    arrival spread, per-proc counters) as JSON to P
//! ```
//!
//! The program format is the `fuzzy_sim::assembler` syntax: `.stream`
//! separates processors, `B:` marks barrier-region instructions, `.word`
//! preloads memory.

use fuzzy_sim::assembler::assemble;
use fuzzy_sim::builder::MachineBuilder;
use std::process::ExitCode;

struct Options {
    path: String,
    cycles: u64,
    pipelined: bool,
    trace: bool,
    miss_rate: Option<f64>,
    miss_penalty: Option<u64>,
    banks: Option<usize>,
    seed: Option<u64>,
    dump: Option<(usize, usize)>,
    stats_json: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        path: String::new(),
        cycles: 10_000_000,
        pipelined: false,
        trace: false,
        miss_rate: None,
        miss_penalty: None,
        banks: None,
        seed: None,
        dump: None,
        stats_json: None,
    };
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cycles" => {
                opts.cycles = need(&mut args, "--cycles")?
                    .parse()
                    .map_err(|e| format!("--cycles: {e}"))?;
            }
            "--pipelined" => opts.pipelined = true,
            "--trace" => opts.trace = true,
            "--miss-rate" => {
                opts.miss_rate = Some(
                    need(&mut args, "--miss-rate")?
                        .parse()
                        .map_err(|e| format!("--miss-rate: {e}"))?,
                );
            }
            "--miss-penalty" => {
                opts.miss_penalty = Some(
                    need(&mut args, "--miss-penalty")?
                        .parse()
                        .map_err(|e| format!("--miss-penalty: {e}"))?,
                );
            }
            "--banks" => {
                opts.banks = Some(
                    need(&mut args, "--banks")?
                        .parse()
                        .map_err(|e| format!("--banks: {e}"))?,
                );
            }
            "--seed" => {
                opts.seed = Some(
                    need(&mut args, "--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--dump" => {
                let a = need(&mut args, "--dump")?
                    .parse()
                    .map_err(|e| format!("--dump: {e}"))?;
                let b = need(&mut args, "--dump")?
                    .parse()
                    .map_err(|e| format!("--dump: {e}"))?;
                opts.dump = Some((a, b));
            }
            "--stats-json" => {
                opts.stats_json = Some(need(&mut args, "--stats-json")?);
            }
            "--help" | "-h" => return Err("usage".into()),
            other if opts.path.is_empty() && !other.starts_with('-') => {
                opts.path = other.to_string();
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if opts.path.is_empty() {
        return Err("no program file given".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("fsim: {msg}");
            eprintln!(
                "usage: fsim PROGRAM.fasm [--cycles N] [--pipelined] [--trace] \
                 [--miss-rate X] [--miss-penalty N] [--banks N] [--seed N] [--dump A B] \
                 [--stats-json PATH]"
            );
            return ExitCode::FAILURE;
        }
    };
    let source = match std::fs::read_to_string(&opts.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fsim: cannot read `{}`: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let assembled = match assemble(&source) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fsim: {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}: {} processor stream(s), {} data word(s)",
        opts.path,
        assembled.program.num_procs(),
        assembled.data.len()
    );

    let mut builder = MachineBuilder::new(assembled.program)
        .pipelined(opts.pipelined)
        .trace(opts.trace)
        .preload(assembled.data);
    if let Some(r) = opts.miss_rate {
        builder = builder.miss_rate(r);
    }
    if let Some(p) = opts.miss_penalty {
        builder = builder.miss_penalty(p);
    }
    if let Some(b) = opts.banks {
        builder = builder.banks(b);
    }
    if let Some(s) = opts.seed {
        builder = builder.seed(s);
    }
    let mut machine = match builder.build() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("fsim: {e}");
            return ExitCode::FAILURE;
        }
    };

    let outcome = match machine.run(opts.cycles) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fsim: runtime fault: {e}");
            return ExitCode::FAILURE;
        }
    };

    let stats = machine.stats();
    println!("outcome: {outcome:?}");
    println!(
        "cycles: {}, instructions: {}, syncs: {}, stall cycles: {} ({:.1}% of proc-cycles)",
        stats.cycles,
        stats.total_instructions(),
        stats.sync_events,
        stats.total_stall_cycles(),
        100.0 * stats.stall_fraction()
    );
    for (p, ps) in stats.procs.iter().enumerate() {
        println!(
            "  p{p}: {} instrs, {} stall, {} busy, {} barrier entries, {} syncs",
            ps.instructions, ps.stall_cycles, ps.busy_cycles, ps.barrier_entries, ps.syncs
        );
    }
    let sync = &stats.sync;
    match sync.position_hist.quantile_upper_bound(0.5) {
        Some(median) => println!(
            "region positions at sync: {} samples, mean {:.1}, max {}, median <= {} instrs",
            sync.position_hist.total(),
            sync.mean_position_instrs(),
            sync.position_max_instrs,
            median
        ),
        None => println!("region positions at sync: 0 samples"),
    }
    if opts.trace {
        println!("trace:");
        for e in machine.trace().events() {
            println!("  {e}");
        }
        if machine.trace().dropped() > 0 {
            println!("  … {} events dropped", machine.trace().dropped());
        }
    }
    if let Some((a, b)) = opts.dump {
        println!("memory[{a}..{b}]:");
        for w in a..b {
            println!("  [{w:>6}] = {}", machine.memory().peek(w));
        }
    }
    if let Some(path) = &opts.stats_json {
        let doc = fuzzy_util::Json::obj()
            .field("program", opts.path.as_str())
            .field("outcome", format!("{outcome:?}"))
            .field("stats", stats.to_json());
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("fsim: cannot create `{}`: {e}", parent.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Err(e) = std::fs::write(path, doc.to_string_pretty() + "\n") {
            eprintln!("fsim: cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        println!("stats written to {path}");
    }
    if outcome.is_halted() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
