#![warn(missing_docs)]

//! `dns-server` — DNS servers and resolvers over the simulator.
//!
//! This crate is the DNS half of the MEC-CDN reproduction. It provides:
//!
//! * [`zone::Zone`] — authoritative data with answers, CNAMEs, referrals
//!   (NS + glue) and negative answers.
//! * A CoreDNS-style **plugin chain** ([`plugin::Plugin`]): the paper's
//!   design §3 ("content mapping to MEC IP addresses can be achieved ...
//!   by using separate DNS plugins for handling the two namespaces
//!   differently") maps directly onto this. Included plugins:
//!   [`plugins::CachePlugin`], [`plugins::KubernetesPlugin`] (backed by
//!   the orchestrator's service registry, with split-horizon views),
//!   [`plugins::StubDomainPlugin`] (the CoreDNS stub-domain mechanism the
//!   prototype uses to hand the CDN zone to the Traffic Router),
//!   [`plugins::ForwardPlugin`] and [`plugins::AuthoritativePlugin`].
//! * [`resolver::Resolver`] — the one sans-IO **resolver core**:
//!   forwarding, retries and a full **iterative resolver** (root → TLD
//!   → authoritative, CNAME chasing, glue) for [`plugins::RecursePlugin`].
//! * [`server::DnsServer`] — the core as a [`netsim::NodeBehavior`],
//!   with a per-query processing-delay model.
//! * [`stub::StubEngine`] — the client side: unicast, multicast (the
//!   paper's "DNS requests be multicast to both MEC DNS and the
//!   network's L-DNS") and fallback-on-timeout strategies, with RTT
//!   measurement per query.
//! * EDNS Client Subnet end to end: stubs and forwarders can attach ECS,
//!   servers model its extra processing cost, and answers can be scoped.
//! * [`engine::ServeEngine`] — the core behind a synchronous call, with
//!   in-process backend cores: `mecdnsd` decodes a UDP datagram, calls
//!   [`engine::ServeEngine::resolve`], and encodes the answer with
//!   `Message::encode_bounded` (TC-bit truncation to the payload budget).
//!
//! # Omitted (deliberately)
//!
//! * TCP fallback — truncated answers set the TC bit and rely on the
//!   client retrying; the serving path never emits a response beyond
//!   the client's advertised payload budget.
//! * DNSSEC — orthogonal to the latency argument of the paper.

pub mod cache;
pub mod engine;
pub mod plugin;
pub mod plugins;
pub mod resolver;
pub mod server;
pub mod stub;
pub mod zone;

pub use cache::{CacheHit, DnsCache};
pub use engine::{RcodeCounts, ServeEngine};
pub use plugin::{Plugin, PluginDecision, QueryCtx};
pub use resolver::{Action, Resolver, ServerConfig, DNS_PORT};
pub use server::DnsServer;
pub use stub::{QueryOutcome, SendStrategy, StubEngine};
pub use zone::{LookupResult, Zone};
