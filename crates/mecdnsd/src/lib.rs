#![warn(missing_docs)]

//! `mecdnsd` — the MEC DNS daemon: the repo's resolution path on real
//! UDP sockets.
//!
//! Everything else in the workspace runs the resolver under the
//! deterministic simulator. This crate is the transport shim the paper's
//! deployment story needs: the same `dns-server` plugin chain and
//! `cdn-sim` Traffic Router (via [`cdn_sim::ServeTopology`] and
//! [`dns_server::ServeEngine`]), fed by `std::net::UdpSocket` datagrams
//! instead of simulated ones.
//!
//! * [`serve`] — the sharded serving loop: per-shard (or shared)
//!   sockets, a spin-then-park receive loop (nonblocking while busy,
//!   a bounded blocking receive once idle), bounded encode
//!   (`encode_bounded`, TC on truncation), graceful shutdown into a
//!   merged [`serve::ServeReport`].
//! * [`loadgen`] — a closed-loop, Zipf-mix load generator for driving
//!   the fleet over loopback (`mecdnsd smoke` and the loopback
//!   tests are built on it).
//! * [`clock`] — the single wall-clock read site; the rest of the crate
//!   sees only virtual [`netsim::SimTime`].

pub mod clock;
pub mod loadgen;
pub mod serve;

pub use clock::WallClock;
pub use loadgen::{LoadReport, LoadgenConfig};
pub use serve::{ServeConfig, ServeReport, ServerHandle};
