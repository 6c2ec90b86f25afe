//! Error types for barrier operations.

use crate::tag::Tag;
use std::error::Error;
use std::fmt;

/// Errors returned by fallible barrier operations.
///
/// Most of the split-phase protocol is infallible by construction (the type
/// system ties an [`crate::ArrivalToken`] to the episode it belongs to);
/// errors arise only at the edges the paper calls out — tag mismatches
/// between processors that try to synchronize at logically different
/// barriers (Sec. 5), invalid participants, and exhaustion of the *N − 1*
/// barrier budget of a registry.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BarrierError {
    /// A participant tried to synchronize at a barrier whose tag does not
    /// match the tag it holds. In the paper's hardware "two processors can
    /// only synchronize at a barrier if their tags match"; the software
    /// library surfaces the mismatch instead of silently mis-synchronizing.
    TagMismatch {
        /// The tag the participant presented.
        presented: Tag,
        /// The tag of the barrier it addressed.
        expected: Tag,
    },
    /// The participant id is not a member of the barrier's mask.
    NotAParticipant {
        /// The offending participant id.
        id: usize,
    },
    /// A participant id exceeds the capacity of the underlying mask or
    /// barrier (participant ids must be `< n`).
    InvalidParticipant {
        /// The offending participant id.
        id: usize,
        /// The number of participants the barrier was built for.
        capacity: usize,
    },
    /// The registry has already allocated its maximum of *N − 1* barriers
    /// (Sec. 5: "in a N processor system which allows creation of at most N
    /// streams, a maximum of N−1 barriers is needed").
    RegistryFull {
        /// The registry capacity that was exhausted.
        capacity: usize,
    },
    /// A barrier with this tag has already been allocated.
    DuplicateTag {
        /// The tag that was requested twice.
        tag: Tag,
    },
    /// No barrier with this tag exists in the registry.
    UnknownTag {
        /// The tag that was looked up.
        tag: Tag,
    },
    /// A barrier group was asked for zero participants.
    EmptyGroup,
    /// A bounded wait (see [`crate::failure::Deadline`]) expired before the
    /// episode completed. The arrival already counted; the caller may retry
    /// the wait with a fresh token-free probe, poison the barrier, or evict
    /// the straggler and re-synchronize.
    Timeout {
        /// The episode the waiter was stalled on.
        episode: u64,
    },
    /// The barrier was poisoned (a participant panicked or called `abort`)
    /// while the caller was waiting; the episode may never complete.
    Poisoned {
        /// The episode the waiter was stalled on.
        episode: u64,
    },
    /// The backend does not implement participant eviction.
    EvictionUnsupported,
    /// The backend cannot admit a participant back into the barrier.
    AdmitUnsupported,
    /// A reconfigurable group (see [`crate::reconfig::ReconfigBarrier`])
    /// has no free membership slot for a joiner. A leaver's or evictee's
    /// slot frees when its departure returns, so callers may back off and
    /// retry.
    GroupFull {
        /// The fixed slot capacity of the group.
        capacity: usize,
    },
    /// A remote peer of a message-passing barrier (see the `fuzzy-net`
    /// crate) is unreachable or its link died: connect/send retries were
    /// exhausted, or the peer's connection closed without a goodbye frame.
    /// Survivors of a mid-episode peer death observe the barrier poisoned;
    /// this variant names the peer on the transport-facing paths.
    PeerDown {
        /// The mesh rank of the unreachable or dead peer.
        peer: usize,
    },
    /// A membership handle is stale: the slot's generation has advanced
    /// past the one stamped into the handle (its holder left or was
    /// evicted, and the slot may since have been re-issued to a new
    /// joiner). A stale handle can never arrive into the resized barrier.
    StaleGeneration {
        /// The membership slot the handle named.
        slot: usize,
        /// The generation stamped into the handle.
        held: u64,
        /// The slot's current generation.
        current: u64,
    },
}

impl fmt::Display for BarrierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BarrierError::TagMismatch {
                presented,
                expected,
            } => write!(
                f,
                "tag mismatch: presented {presented}, barrier expects {expected}"
            ),
            BarrierError::NotAParticipant { id } => {
                write!(f, "participant {id} is not in the barrier mask")
            }
            BarrierError::InvalidParticipant { id, capacity } => {
                write!(
                    f,
                    "participant id {id} out of range for {capacity} participants"
                )
            }
            BarrierError::RegistryFull { capacity } => {
                write!(
                    f,
                    "registry full: at most {capacity} barriers may be allocated"
                )
            }
            BarrierError::DuplicateTag { tag } => {
                write!(f, "a barrier with tag {tag} already exists")
            }
            BarrierError::UnknownTag { tag } => {
                write!(f, "no barrier with tag {tag} exists")
            }
            BarrierError::EmptyGroup => write!(f, "barrier group must have at least one member"),
            BarrierError::Timeout { episode } => {
                write!(
                    f,
                    "wait deadline expired before episode {episode} completed"
                )
            }
            BarrierError::Poisoned { episode } => {
                write!(f, "barrier poisoned while waiting on episode {episode}")
            }
            BarrierError::EvictionUnsupported => {
                write!(f, "this backend does not support participant eviction")
            }
            BarrierError::AdmitUnsupported => {
                write!(f, "this backend does not support admitting participants")
            }
            BarrierError::GroupFull { capacity } => {
                write!(f, "group full: all {capacity} membership slots are claimed")
            }
            BarrierError::PeerDown { peer } => {
                write!(f, "peer {peer} is down or unreachable")
            }
            BarrierError::StaleGeneration {
                slot,
                held,
                current,
            } => {
                write!(
                    f,
                    "stale handle for slot {slot}: holds generation {held}, slot is at {current}"
                )
            }
        }
    }
}

impl Error for BarrierError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = BarrierError::NotAParticipant { id: 3 };
        let s = e.to_string();
        assert!(s.starts_with("participant"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn Error + Send + Sync> = Box::new(BarrierError::RegistryFull { capacity: 7 });
        assert!(e.to_string().contains("registry full"));
    }

    #[test]
    fn reconfig_errors_mention_slots_and_generations() {
        let full = BarrierError::GroupFull { capacity: 8 };
        assert_eq!(
            full.to_string(),
            "group full: all 8 membership slots are claimed"
        );
        let stale = BarrierError::StaleGeneration {
            slot: 2,
            held: 1,
            current: 3,
        };
        let s = stale.to_string();
        assert!(
            s.contains("slot 2") && s.contains("generation 1") && s.contains("at 3"),
            "{s}"
        );
        // Both thread through a boxed error stack like any std error.
        let boxed: Box<dyn Error + Send + Sync> = Box::new(stale);
        assert!(boxed.to_string().starts_with("stale handle"));
    }

    #[test]
    fn peer_down_names_the_peer() {
        let e = BarrierError::PeerDown { peer: 3 };
        assert_eq!(e.to_string(), "peer 3 is down or unreachable");
    }

    #[test]
    fn tag_mismatch_mentions_both_tags() {
        let a = Tag::new(3).unwrap();
        let b = Tag::new(5).unwrap();
        let e = BarrierError::TagMismatch {
            presented: a,
            expected: b,
        };
        let s = e.to_string();
        assert!(s.contains("tag(3)") && s.contains("tag(5)"), "{s}");
    }
}
