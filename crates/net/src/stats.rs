//! Transport counters of a [`crate::NetBarrier`] endpoint.
//!
//! They live beside the barrier's own statistics rather than inside them:
//! the flat `StatsSnapshot` feeds schema-pinned experiment exports, so
//! transport-only counters get their own block.

use fuzzy_util::counter_set;
use std::sync::atomic::{AtomicU64, Ordering};

/// Link counters of one mesh endpoint, one row per peer rank (the local
/// rank's row stays zero). Recorded by whichever thread sends or delivers
/// a frame, so every count is a relaxed read-modify-write.
#[derive(Debug)]
pub struct NetStats {
    retries: AtomicU64,
    decode_errors: AtomicU64,
    poison_frames: AtomicU64,
    nacks: AtomicU64,
    per_peer: Vec<LinkCounters>,
}

#[derive(Debug, Default)]
struct LinkCounters {
    sent: AtomicU64,
    received: AtomicU64,
    retries: AtomicU64,
}

impl NetStats {
    /// Creates a zeroed counter block for a mesh of `nodes` endpoints.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        NetStats {
            retries: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            poison_frames: AtomicU64::new(0),
            nacks: AtomicU64::new(0),
            per_peer: (0..nodes).map(|_| LinkCounters::default()).collect(),
        }
    }

    /// Records one frame sent to `peer`. The totals are sums of the
    /// per-peer rows, so a frame to an out-of-range rank is counted
    /// nowhere.
    pub fn record_send(&self, peer: usize) {
        if let Some(link) = self.per_peer.get(peer) {
            link.sent.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one frame received from `peer`; out-of-range ranks are
    /// counted nowhere, as in [`Self::record_send`].
    pub fn record_recv(&self, peer: usize) {
        if let Some(link) = self.per_peer.get(peer) {
            link.received.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one retransmission (send retry or nack-triggered resend)
    /// toward `peer`.
    pub fn record_retry(&self, peer: usize) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        if let Some(link) = self.per_peer.get(peer) {
            link.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a frame that failed to decode (bad magic/version/length).
    pub fn record_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a poison frame sent or delivered.
    pub fn record_poison_frame(&self) {
        self.poison_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a nack frame sent (a receiver asking for a retransmission).
    pub fn record_nack(&self) {
        self.nacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> NetSnapshot {
        let per_peer: Vec<PeerLinkSnapshot> = self
            .per_peer
            .iter()
            .map(|link| PeerLinkSnapshot {
                sent: link.sent.load(Ordering::Relaxed),
                received: link.received.load(Ordering::Relaxed),
                retries: link.retries.load(Ordering::Relaxed),
            })
            .collect();
        NetSnapshot {
            frames_sent: per_peer.iter().map(|p| p.sent).sum(),
            frames_received: per_peer.iter().map(|p| p.received).sum(),
            retries: self.retries.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            poison_frames: self.poison_frames.load(Ordering::Relaxed),
            nacks: self.nacks.load(Ordering::Relaxed),
            per_peer,
        }
    }
}

/// A point-in-time copy of [`NetStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Frames sent across all links as a first transmission: round
    /// signals, poison broadcasts and nacks. A retransmitted signal is
    /// counted in `retries` only.
    pub frames_sent: u64,
    /// Frames received across all links.
    pub frames_received: u64,
    /// Retransmissions (send retries plus nack-triggered resends).
    pub retries: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Poison frames sent or delivered.
    pub poison_frames: u64,
    /// Nack frames sent.
    pub nacks: u64,
    /// Per-peer link rows; row `i` is mesh rank `i`.
    pub per_peer: Vec<PeerLinkSnapshot>,
}

counter_set! {
    /// One peer's row in a [`NetSnapshot`].
    pub struct PeerLinkSnapshot {
        /// Frames sent to this peer (first transmissions only).
        sent: u64 => "sent",
        /// Frames received from this peer.
        received: u64 => "received",
        /// Retransmissions toward this peer.
        retries: u64 => "retries",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_stats_aggregates_match_per_peer_rows() {
        let net = NetStats::new(3);
        net.record_send(1);
        net.record_send(2);
        net.record_send(2);
        net.record_recv(1);
        net.record_retry(2);
        net.record_decode_error();
        net.record_poison_frame();
        net.record_nack();
        let snap = net.snapshot();
        assert_eq!(snap.frames_sent, 3);
        assert_eq!(snap.frames_received, 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.decode_errors, 1);
        assert_eq!(snap.poison_frames, 1);
        assert_eq!(snap.nacks, 1);
        assert_eq!(snap.per_peer.len(), 3);
        assert_eq!(snap.per_peer[2].sent, 2);
        assert_eq!(snap.per_peer[2].retries, 1);
        assert_eq!(snap.per_peer[0].sent, 0);
        // Out-of-range ranks never panic and are counted nowhere: not in
        // the per-peer rows, and not in the totals summed from them.
        net.record_send(99);
        let snap = net.snapshot();
        assert_eq!(snap.per_peer.iter().map(|p| p.sent).sum::<u64>(), 3);
        assert_eq!(snap.frames_sent, 3);
    }
}
