//! # fuzzy-compiler
//!
//! The compiler half of Gupta's fuzzy-barrier system (ASPLOS 1989,
//! Secs. 4 and 7): it constructs the barrier and non-barrier regions that
//! the hardware (simulated by `fuzzy-sim`) synchronizes over.
//!
//! ## Pipeline
//!
//! 1. [`ast`] — parallel loop nests with affine array subscripts (the
//!    Poisson solver of Fig. 3 and friends);
//! 2. [`deps`] — loop-carried and lexically forward dependence analysis;
//!    the accesses involved become the **marked instructions**;
//! 3. [`lower`] — lowering to three-address code in the paper's Fig. 4
//!    style (explicit address arithmetic, memory operands fused into
//!    arithmetic);
//! 4. [`region`] — non-barrier region = first marked … last marked
//!    instruction; everything else is barrier region;
//! 5. [`mod@reorder`] — the three-phase scheduling of Sec. 4 that hoists
//!    address arithmetic into the preceding barrier region and sinks
//!    consumers into the following one, shrinking the non-barrier region
//!    to its minimum;
//! 6. [`transform`] — loop distribution (Fig. 5), unrolling (Fig. 11) and
//!    multi-version loops (Fig. 12);
//! 7. [`codegen`] + [`driver`] — register allocation and emission of
//!    per-processor `fuzzy-sim` streams with the barrier-region bit set.
//!
//! ## Example
//!
//! Compile the Fig. 9 recurrence for four processors and inspect how much
//! the reordering grew the barrier region:
//!
//! ```
//! use fuzzy_compiler::ast::*;
//! use fuzzy_compiler::driver::{compile_nest, CompileOptions};
//!
//! let j = VarId(0);
//! let i = VarId(1);
//! let a = ArrayId(0);
//! let nest = LoopNest {
//!     arrays: vec![ArrayDecl { name: "a".into(), dims: vec![12, 6], base: 0 }],
//!     seq_var: j,
//!     seq_lo: 1,
//!     seq_hi: 9,
//!     private_vars: vec![i],
//!     body: vec![Stmt::Assign(Assign {
//!         target: ArrayAccess::new(a, vec![Subscript::var(j, 0), Subscript::var(i, 0)]),
//!         value: Expr::add(
//!             Expr::Access(ArrayAccess::new(
//!                 a,
//!                 vec![Subscript::var(j, -1), Subscript::var(i, -1)],
//!             )),
//!             Expr::mul(Expr::Var(i), Expr::Var(j)),
//!         ),
//!     })],
//!     var_names: vec!["j".into(), "i".into()],
//! };
//! let inits: Vec<Vec<(VarId, i64)>> = (1..=4).map(|l| vec![(i, l)]).collect();
//! let compiled = compile_nest(&nest, &inits, &CompileOptions::default())?;
//! assert!(compiled.after.non_barrier_len() < compiled.before.non_barrier_len());
//! # Ok::<(), fuzzy_compiler::driver::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod codegen;
pub mod dag;
pub mod deps;
pub mod driver;
pub mod lower;
pub mod parse;
pub mod pretty;
pub mod region;
pub mod reorder;
pub mod tac;
pub mod transform;

pub use ast::LoopNest;
pub use driver::{compile_nest, CompileError, CompileOptions, CompiledLoop};
/// The simulator crate whose [`fuzzy_sim::Program`] this compiler emits,
/// for callers that take the output further without a dependency of
/// their own.
pub use fuzzy_sim;
pub use region::RegionSplit;
pub use reorder::reorder;
