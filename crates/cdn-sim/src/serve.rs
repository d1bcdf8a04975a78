//! Canonical serve-mode wiring: the co-located L-DNS + C-DNS pair the
//! `mecdnsd` binary runs on real UDP sockets.
//!
//! The paper's deployment (§3, Figure 4) co-locates a CoreDNS-style
//! L-DNS (cache + stub-domain) with the CDN's Traffic Router on the MEC
//! host: the stub hands the CDN namespace to the C-DNS, everything
//! stays in-process. This module packages that topology so the binary,
//! its load generator, the bench runner and the tests all serve exactly
//! the same world.

use crate::router::{Selection, TrafficRouterPlugin};
use dns_server::plugins::{CachePlugin, StubDomainPlugin};
use dns_server::{Plugin, ServeEngine};
use dns_wire::Name;
use std::net::{IpAddr, Ipv4Addr};

/// Blueprint for one serving process: which CDN namespace it owns,
/// which cache servers the C-DNS hands out, and how big the L-DNS
/// cache is. `Name`s are plain owned data, so a topology can be shared
/// across shard threads while each thread builds its own (non-`Send`)
/// engine from it.
#[derive(Debug, Clone)]
pub struct ServeTopology {
    /// The CDN's whole namespace (stub-routed to the C-DNS).
    pub suffix: Name,
    /// Domains hosted at this tier; queries beneath them get a cache
    /// address.
    pub hosted: Vec<Name>,
    /// Cache servers the Traffic Router selects among.
    pub caches: Vec<Ipv4Addr>,
    /// In-process address of the C-DNS backend chain.
    pub cdns_addr: IpAddr,
    /// L-DNS cache capacity (entries).
    pub cache_capacity: usize,
    /// Answer TTL the C-DNS attaches.
    pub ttl: u32,
}

impl Default for ServeTopology {
    /// The testbed world used throughout the workspace: the
    /// `mycdn.ciab.test` namespace with one hosted video domain and
    /// three edge caches.
    fn default() -> Self {
        let parse = |s: &str| Name::parse(s).unwrap_or_else(|_| Name::root());
        ServeTopology {
            suffix: parse("mycdn.ciab.test"),
            hosted: vec![parse("video.mycdn.ciab.test")],
            caches: vec![
                Ipv4Addr::new(10, 96, 0, 10),
                Ipv4Addr::new(10, 96, 0, 11),
                Ipv4Addr::new(10, 96, 0, 12),
            ],
            cdns_addr: IpAddr::V4(Ipv4Addr::new(10, 96, 0, 53)),
            cache_capacity: 4096,
            ttl: 30,
        }
    }
}

impl ServeTopology {
    /// The client-facing chain: L-DNS cache, then the stub that routes
    /// the CDN namespace to the in-process C-DNS.
    pub fn front_chain(&self) -> Vec<Box<dyn Plugin>> {
        vec![
            Box::new(CachePlugin::new(self.cache_capacity)),
            Box::new(StubDomainPlugin::new(vec![(
                self.suffix.clone(),
                self.cdns_addr,
            )])),
        ]
    }

    /// The C-DNS backend chain: a Traffic Router with content-stable
    /// (consistent-hash) cache selection.
    pub fn cdns_chain(&self) -> Vec<Box<dyn Plugin>> {
        let mut router = TrafficRouterPlugin::new(
            self.suffix.clone(),
            self.hosted.clone(),
            self.caches.clone(),
            Selection::ConsistentHash,
        );
        router.ttl = self.ttl;
        vec![Box::new(router)]
    }

    /// A ready engine: front chain wired to the C-DNS backend. Called
    /// once per shard thread.
    pub fn engine(&self) -> ServeEngine {
        ServeEngine::new(self.front_chain()).with_backend(self.cdns_addr, self.cdns_chain())
    }

    /// The `k`-th content name under the first hosted domain — the
    /// query population load generators draw from (Zipf over `k`).
    pub fn content_name(&self, k: usize) -> Name {
        let base = self.hosted.first().unwrap_or(&self.suffix);
        base.child(&format!("vod{k}"))
            .unwrap_or_else(|_| base.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Message, Rcode, RrType};
    use netsim::SimTime;

    const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(127, 0, 0, 1));

    #[test]
    fn default_topology_answers_hosted_content() {
        let topo = ServeTopology::default();
        let mut engine = topo.engine();
        let q = Message::query(1, topo.content_name(0), RrType::A);
        let resp = engine.resolve(SimTime::ZERO, CLIENT, 5000, &q).unwrap();
        assert_eq!(resp.header.rcode, Rcode::NoError);
        let addrs = resp.answer_a_addrs();
        assert_eq!(addrs.len(), 1);
        assert!(topo.caches.contains(&addrs[0]), "answer must be a cache");
    }

    #[test]
    fn content_names_are_distinct_and_hosted() {
        let topo = ServeTopology::default();
        let a = topo.content_name(0);
        let b = topo.content_name(1);
        assert_ne!(a, b);
        assert!(a.is_subdomain_of(&topo.hosted[0]));
    }

    #[test]
    fn repeat_queries_hit_the_ldns_cache() {
        let topo = ServeTopology::default();
        let mut engine = topo.engine();
        let q = Message::query(1, topo.content_name(3), RrType::A);
        let first = engine.resolve(SimTime::ZERO, CLIENT, 5000, &q).unwrap();
        let second = engine.resolve(SimTime::ZERO, CLIENT, 5000, &q).unwrap();
        assert_eq!(first.answer_a_addrs(), second.answer_a_addrs());
        let cache = engine.front_plugin::<CachePlugin>(0).unwrap();
        assert_eq!(cache.hits(), 1);
    }
}
