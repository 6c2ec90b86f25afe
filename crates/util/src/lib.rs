//! # fuzzy-util
//!
//! Small, dependency-free building blocks shared by every crate in the
//! fuzzy-barrier workspace. The build environment is offline, so the few
//! external utilities the workspace used to pull in (`crossbeam`'s
//! `CachePadded`, `rand`'s seedable RNG) live here as minimal local
//! implementations, alongside the JSON value type backing the unified
//! telemetry export, the power-of-two histogram both telemetry domains
//! report, and the `counter_set!` declaration every counter snapshot is
//! written in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counters;
pub mod histogram;
pub mod json;
pub mod pad;
pub mod rng;

pub use counters::Counter;
pub use histogram::{Histogram, HISTOGRAM_BUCKETS, SHARED_SECTION_KEYS};
pub use json::{Json, JsonParseError};
pub use pad::CachePadded;
pub use rng::SplitMix64;
