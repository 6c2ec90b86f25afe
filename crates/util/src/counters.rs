//! One declaration per counter set: [`counter_set!`](crate::counter_set!)
//! turns one line per counter (doc, field, JSON key) into the public
//! snapshot struct, its saturating `merge`, its `to_json` and the `KEYS`
//! list export schemas are built from. A declarative macro, because the
//! offline build has no proc-macro crate to derive with.

use crate::Json;
use std::time::Duration;

/// A value one line of a [`counter_set!`](crate::counter_set!) can hold.
pub trait Counter: Copy {
    /// `self + other`, saturating at the type's maximum.
    fn saturating_sum(self, other: Self) -> Self;
    /// The JSON number it exports as.
    fn to_json(self) -> Json;
}

impl Counter for u64 {
    fn saturating_sum(self, other: Self) -> Self {
        self.saturating_add(other)
    }

    fn to_json(self) -> Json {
        Json::from(self)
    }
}

/// A duration exports as whole nanoseconds, saturating at `u64::MAX`.
impl Counter for Duration {
    fn saturating_sum(self, other: Self) -> Self {
        self.saturating_add(other)
    }

    fn to_json(self) -> Json {
        Json::from(u64::try_from(self.as_nanos()).unwrap_or(u64::MAX))
    }
}

/// Declares a set of summable counters:
///
/// ```
/// use std::time::Duration;
///
/// fuzzy_util::counter_set! {
///     /// What one worker did.
///     pub struct WorkSnapshot {
///         /// Jobs finished.
///         jobs: u64 => "jobs",
///         /// Time spent on them.
///         busy: Duration => "busy_ns",
///     }
/// }
///
/// let mut total = WorkSnapshot { jobs: 2, busy: Duration::from_nanos(5) };
/// total.merge(&WorkSnapshot { jobs: 1, ..WorkSnapshot::default() });
/// assert_eq!(total.jobs, 3);
/// assert_eq!(WorkSnapshot::KEYS, ["jobs", "busy_ns"]);
/// assert_eq!(total.to_json().to_string_compact(), r#"{"jobs":3,"busy_ns":5}"#);
/// ```
///
/// Every field is public and a [`Counter`]; the struct derives `Debug`,
/// `Clone`, `Copy`, `Default`, `PartialEq` and `Eq`.
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[doc = $doc:literal])*
                $field:ident: $ty:ty => $key:literal,
            )+
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $(
                $(#[doc = $doc])*
                pub $field: $ty,
            )+
        }

        impl $name {
            /// The JSON key of every counter, in declaration order.
            pub const KEYS: &'static [&'static str] = &[$($key),+];

            /// Adds another snapshot's counts into this one (for
            /// aggregation across barriers, participants or executors),
            /// saturating each at its maximum.
            pub fn merge(&mut self, other: &Self) {
                $(
                    self.$field = $crate::Counter::saturating_sum(self.$field, other.$field);
                )+
            }

            /// JSON object with one number per counter, keyed by
            /// [`Self::KEYS`].
            #[must_use]
            pub fn to_json(&self) -> $crate::Json {
                $crate::Json::obj()
                    $(.field($key, $crate::Counter::to_json(self.$field)))+
            }
        }
    };
}
