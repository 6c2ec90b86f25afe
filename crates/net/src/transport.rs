//! The pluggable transport abstraction under [`crate::NetBarrier`].
//!
//! A [`Transport`] is one endpoint of a fully connected mesh of `nodes`
//! endpoints, addressed by dense ranks `0..nodes`. It moves [`Message`]s;
//! it knows nothing about barriers. Every inbound frame (and every link
//! state change) is pushed into a [`FrameSink`], by one of two drivers of
//! the same receive path:
//!
//! * **the caller**: [`Transport::poll`] delivers, on the calling thread
//!   and without blocking, whatever has already arrived, into the sink the
//!   caller passes. The barrier polls wherever it already pumps its
//!   protocol (after `arrive` has sent its signal, and in each probe of a
//!   pending episode) and passes a sink over its own call, so a waiter
//!   reads its own socket, the frame that releases it costs no thread
//!   hand-off, and the probe takes no lock to find a sink. Waiters still
//!   stall on their own spin/yield machinery
//!   (`SyncOps::wait_until_budget`), never inside a read on one
//!   connection.
//! * **the transport**: after [`Transport::start`] the sink attached there
//!   receives frames even if nobody polls — that is what notices a
//!   `Poison` or a dead peer while every local participant is deep in its
//!   barrier region. Socket transports keep one background sweeper per
//!   endpoint that loops the same `poll`; loopback delivers on the
//!   sender's thread at `send` time and has nothing left to poll.
//!
//! Transports hold the started sink **weakly**: the barrier owns the
//! transport, so a strong reference back would cycle and leak both. The
//! sweeper upgrades it once per sweep, and is the only code that does;
//! when the upgrade fails the barrier is gone and there is nobody to
//! deliver to.

use crate::error::NetError;
use crate::wire::{DecodeError, Message};
use std::fmt::Debug;
use std::sync::Arc;
use std::time::Duration;

/// Receiver of inbound frames and link events, implemented by the barrier
/// layer. Object-safe so transports need not know the barrier's `SyncOps`
/// domain.
pub trait FrameSink: Send + Sync {
    /// A frame from `from` decoded cleanly.
    fn deliver(&self, from: usize, msg: Message);

    /// Bytes from `from` failed to decode. The transport drops the
    /// offending frame (stream transports drop the whole connection, since
    /// framing is lost); the sink only records it.
    fn decode_failure(&self, from: usize, err: DecodeError) {
        let _ = (from, err);
    }

    /// The link to `peer` went down: `graceful` if the peer said `Bye`
    /// first (departure), otherwise the peer died mid-protocol and
    /// survivors should poison rather than wait forever.
    fn link_down(&self, peer: usize, graceful: bool);
}

/// One endpoint of a fully connected message mesh.
pub trait Transport: Send + Sync + Debug {
    /// This endpoint's mesh rank.
    fn rank(&self) -> usize;

    /// Total number of mesh endpoints.
    fn nodes(&self) -> usize;

    /// Sends one message to `to`. Never blocks on the *receiver* (the
    /// message is written to the link or queued); may block briefly on
    /// link-level flow control.
    fn send(&self, to: usize, msg: &Message) -> Result<(), NetError>;

    /// Attaches the sink and starts delivery (the sweeper thread for
    /// socket transports, queued-frame flush for loopback). Frames sent to
    /// this endpoint before `start` are buffered and delivered afterwards,
    /// in order. From here on the sink receives frames whether or not
    /// anyone calls [`Transport::poll`].
    fn start(&self, sink: Arc<dyn FrameSink>);

    /// Delivers to `sink`, on the calling thread, every frame that has
    /// already arrived, and returns how many. Never blocks and never waits
    /// for data; callable from any thread, concurrently. Frames of one
    /// link are delivered in order, by one thread at a time: a caller that
    /// finds a link being pumped skips it, so `0` means "nothing for
    /// *you* to do", not "nothing arrived" — re-check your predicate.
    ///
    /// The frames go to `sink`, not to the started one: the caller owns
    /// the endpoint the frames are for and hands in a sink over its own
    /// call, so a poll takes no lock and no reference count.
    ///
    /// The default is for transports that deliver at `send` time and so
    /// never hold an undelivered frame.
    fn poll(&self, sink: &dyn FrameSink) -> usize {
        let _ = sink;
        0
    }

    /// Stops delivery, says `Bye` to peers on a best-effort basis, closes
    /// links, and joins the transport's own thread, if any. Idempotent.
    fn shutdown(&self);
}

/// Capped exponential backoff for connect/send retries.
///
/// `delay(k)` for attempt `k` is `base << k`, saturating at `cap`; the
/// schedule is deterministic (no jitter) so tests can bound total retry
/// time exactly: with `attempts` tries the worst-case total sleep is
/// `Σ min(base·2^k, cap)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the second attempt.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Maximum number of attempts (≥ 1).
    pub attempts: u32,
}

impl Default for Backoff {
    /// The mesh-setup default: ~8 s of patience for a peer process that
    /// has not bound its listener yet, in 1 ms → 512 ms capped steps.
    fn default() -> Self {
        Backoff {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(512),
            attempts: 24,
        }
    }
}

impl Backoff {
    /// The delay to sleep after failed attempt `k` (0-based).
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Duration {
        let shifted = self
            .base
            .checked_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .unwrap_or(self.cap);
        shifted.min(self.cap)
    }

    /// Runs `op` up to [`Backoff::attempts`] times, sleeping the capped
    /// exponential delay between failures. Returns the first success or
    /// the last error.
    pub fn retry<T, E>(&self, mut op: impl FnMut() -> Result<T, E>) -> Result<T, E> {
        let attempts = self.attempts.max(1);
        let mut last = None;
        for k in 0..attempts {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    last = Some(e);
                    if k + 1 < attempts {
                        std::thread::sleep(self.delay(k));
                    }
                }
            }
        }
        Err(last.expect("at least one attempt ran"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let b = Backoff {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(9),
            attempts: 5,
        };
        assert_eq!(b.delay(0), Duration::from_millis(2));
        assert_eq!(b.delay(1), Duration::from_millis(4));
        assert_eq!(b.delay(2), Duration::from_millis(8));
        assert_eq!(b.delay(3), Duration::from_millis(9));
        assert_eq!(b.delay(31), Duration::from_millis(9));
    }

    #[test]
    fn retry_returns_first_success() {
        let b = Backoff {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            attempts: 10,
        };
        let mut calls = 0;
        let r: Result<u32, &str> = b.retry(|| {
            calls += 1;
            if calls == 3 {
                Ok(42)
            } else {
                Err("not yet")
            }
        });
        assert_eq!(r, Ok(42));
        assert_eq!(calls, 3);
    }

    #[test]
    fn retry_surfaces_the_last_error() {
        let b = Backoff {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            attempts: 3,
        };
        let mut calls = 0;
        let r: Result<(), u32> = b.retry(|| {
            calls += 1;
            Err(calls)
        });
        assert_eq!(r, Err(3));
    }
}
