//! # fuzzy-net — message-passing fuzzy barriers across processes
//!
//! Gupta's fuzzy barrier (ASPLOS 1989) splits synchronization into an
//! *arrive* signal and a *wait*, with useful work in between. Nothing in
//! that contract requires shared memory — the dissemination backend is
//! already message-shaped — so this crate carries the same
//! [`fuzzy_barrier::SplitBarrier`] contract across a fabric:
//!
//! * [`wire`] — a length-prefixed, versioned frame format with explicit
//!   [`DecodeError`]s; five message kinds carry the whole protocol.
//! * [`Transport`] — one endpoint of a fully connected mesh, pluggable:
//!   [`LoopbackMesh`] (in-process, deterministic, with seeded fault
//!   injection), and [`SocketTransport`] over Unix-domain sockets or TCP.
//! * [`NetBarrier`] — a dissemination barrier over any transport, with
//!   per-round receive timeouts, nack-driven retransmission, and
//!   peer-death detection that poisons survivors instead of wedging them.
//! * [`NetStats`] — the endpoint's frame and retransmission counters,
//!   read through [`NetBarrier::net_stats`].
//!
//! The barrier region buys over the wire exactly what it buys over a
//! cache hierarchy, scaled up: a network round-trip (microseconds to
//! milliseconds) hides behind the region's useful work instead of a
//! stalled spin loop. See the repository's DESIGN §15 for the wire format
//! and failure model.
//!
//! ```
//! use fuzzy_barrier::SplitBarrier;
//! use fuzzy_net::{LoopbackMesh, NetBarrier, NetConfig};
//! use std::sync::Arc;
//!
//! let mesh = LoopbackMesh::new(2);
//! let barriers: Vec<_> = mesh
//!     .endpoints()
//!     .into_iter()
//!     .map(|t| NetBarrier::start(Arc::new(t), NetConfig::new()))
//!     .collect();
//! std::thread::scope(|s| {
//!     for b in &barriers {
//!         let b = Arc::clone(b);
//!         s.spawn(move || {
//!             let token = b.arrive(0);
//!             // fuzzy region: the network round-trip hides here
//!             assert_eq!(b.wait(token).episode, 0);
//!         });
//!     }
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod barrier;
pub mod error;
pub mod loopback;
pub mod socket;
pub mod stats;
pub mod transport;
pub mod wire;

pub use barrier::{NetBarrier, NetConfig};
pub use error::NetError;
pub use loopback::{FaultCounts, FaultPlan, LoopbackMesh, LoopbackTransport};
pub use socket::{unix_socket_path, SocketTransport};
pub use stats::{NetSnapshot, NetStats, PeerLinkSnapshot};
pub use transport::{Backoff, FrameSink, Transport};
pub use wire::{DecodeError, Message};
