//! Workloads for the `bench_hotpath` gate binary, matching the layers
//! of the zero-allocation work:
//!
//! * [`intern_names`] — the interner itself.
//! * [`warm_cache`] + repeated [`DnsCache::get_shared`] — the
//!   steady-state cached-hit path (the path gated to zero allocations).
//! * [`churn_new`] / [`churn_naive`] — insert/get/evict pressure far
//!   above capacity, the same schedule against the new cache and the
//!   pre-interning `dns_server::cache::naive` reference.
//! * [`run_resolution`] — a full simulated client → L-DNS (cache +
//!   recursion) → root/TLD/authoritative world resolving one CDN name
//!   many times: first query iterates, the rest hit the L-DNS cache.

use dns_server::plugins::{AuthoritativePlugin, CachePlugin, RecursePlugin};
use dns_server::{DnsCache, DnsServer, SendStrategy, ServerConfig, StubEngine, Zone};
use dns_wire::{Name, RData, Record, RrClass, RrType};
use netsim::{
    Datagram, Latency, LinkProfile, Network, NodeBehavior, NodeContext, NodeId, SimDuration,
    SimTime, TimerToken,
};
use std::net::{IpAddr, Ipv4Addr};

/// The benchmark name pool: mixed-depth names under one CDN suffix, the
/// shape resolution traffic has.
pub fn name_pool(n: usize) -> Vec<Name> {
    (0..n)
        .map(|i| Name::parse(&format!("host-{i}.pool.mycdn.ciab.test")).unwrap())
        .collect()
}

/// One A record for `name`.
pub fn a_record(name: &Name, ttl: u32) -> Record {
    Record::new(
        name.clone(),
        RrClass::In,
        ttl,
        RData::A(Ipv4Addr::new(10, 0, 0, 1)),
    )
}

/// Interns every name in the pool (steady state: all already interned).
pub fn intern_names(names: &[Name]) -> usize {
    let mut acc = 0usize;
    for n in names {
        acc = acc.wrapping_add(n.id().label_count());
    }
    acc
}

/// A cache pre-filled with one A record per name.
pub fn warm_cache(names: &[Name], capacity: usize) -> DnsCache {
    let mut cache = DnsCache::new(capacity);
    for n in names {
        cache.insert(n, RrType::A, vec![a_record(n, 300)], SimTime::ZERO);
    }
    cache
}

/// Insert/get churn with the working set far above capacity — the
/// workload where the old O(n) victim scan and full-map purge dominated.
pub fn churn_new(names: &[Name], capacity: usize, rounds: usize) -> u64 {
    let mut cache = DnsCache::new(capacity);
    let mut t = 0u64;
    for _ in 0..rounds {
        for n in names {
            t += 1;
            let now = SimTime::ZERO + SimDuration::from_millis(t);
            cache.insert(n, RrType::A, vec![a_record(n, 2)], now);
            cache.get(n, RrType::A, now + SimDuration::from_millis(1));
        }
    }
    cache.hits + cache.misses
}

/// The same churn schedule against the pre-interning reference cache.
pub fn churn_naive(names: &[Name], capacity: usize, rounds: usize) -> u64 {
    let mut cache = dns_server::cache::naive::DnsCache::new(capacity);
    let mut t = 0u64;
    for _ in 0..rounds {
        for n in names {
            t += 1;
            let now = SimTime::ZERO + SimDuration::from_millis(t);
            cache.insert(n, RrType::A, vec![a_record(n, 2)], now);
            cache.get(n, RrType::A, now + SimDuration::from_millis(1));
        }
    }
    cache.hits + cache.misses
}

/// Instant-ish processing so the run measures engine work, not modelled
/// server delay.
fn fast_config() -> ServerConfig {
    ServerConfig {
        processing: Latency::ConstantMs(0.1),
        ecs_processing: Latency::ConstantMs(0.05),
        ..ServerConfig::default()
    }
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

/// A client that issues the same query `count` times, 10 ms apart.
struct RepeatClient {
    engine: StubEngine,
    name: Name,
    resolver: IpAddr,
    count: u64,
}

impl NodeBehavior for RepeatClient {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        for i in 0..self.count {
            ctx.set_timer(SimDuration::from_millis(10 * i), i);
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
        if StubEngine::owns_timer(data) {
            self.engine.on_timer(ctx, data);
            return;
        }
        self.engine.issue(
            ctx,
            self.name.clone(),
            RrType::A,
            SendStrategy::Unicast(self.resolver),
            None,
            data,
        );
    }
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        self.engine.on_datagram(ctx, &dgram);
    }
}

/// Builds the Figure 1 hierarchy (client → caching L-DNS → root → TLD →
/// A-DNS), runs `queries` repeats of one CDN name through it, and
/// returns the number of answered queries. After the first iteration the
/// L-DNS serves every repeat from its cache, so this is the end-to-end
/// cached-hit path including wire encode/decode and the event loop.
pub fn run_resolution(queries: u64) -> usize {
    let mut net = Network::new(2020);

    let mut root_zone = Zone::new(Name::root());
    root_zone.delegate(n("test"), n("ns.test"), Ipv4Addr::new(10, 50, 0, 2), 86400);
    let mut tld_zone = Zone::new(n("test"));
    tld_zone.delegate(
        n("mycdn.ciab.test"),
        n("ns1.mycdn.ciab.test"),
        Ipv4Addr::new(10, 50, 0, 3),
        3600,
    );
    let mut cdn_zone = Zone::new(n("mycdn.ciab.test"));
    cdn_zone
        .add_cname(
            n("video.demo1.mycdn.ciab.test"),
            n("cache-1.mycdn.ciab.test"),
            3600,
        )
        .add_a(n("cache-1.mycdn.ciab.test"), Ipv4Addr::new(10, 60, 0, 11), 3600);

    let root = net.add_node(
        "root",
        [ip("10.50.0.1")],
        DnsServer::new(
            fast_config(),
            vec![Box::new(AuthoritativePlugin::new(vec![root_zone]))],
        ),
    );
    let tld = net.add_node(
        "tld",
        [ip("10.50.0.2")],
        DnsServer::new(
            fast_config(),
            vec![Box::new(AuthoritativePlugin::new(vec![tld_zone]))],
        ),
    );
    let adns = net.add_node(
        "adns",
        [ip("10.50.0.3")],
        DnsServer::new(
            fast_config(),
            vec![Box::new(AuthoritativePlugin::new(vec![cdn_zone]))],
        ),
    );
    let ldns = net.add_node(
        "ldns",
        [ip("10.40.0.1")],
        DnsServer::new(
            fast_config(),
            vec![
                Box::new(CachePlugin::new(1024)),
                Box::new(RecursePlugin::new(vec![ip("10.50.0.1")])),
            ],
        ),
    );
    let client = net.add_node(
        "client",
        [ip("192.168.1.10")],
        RepeatClient {
            engine: StubEngine::new(),
            name: n("video.demo1.mycdn.ciab.test"),
            resolver: ip("10.40.0.1"),
            count: queries,
        },
    );

    for (node, ms) in [(root, 5.0), (tld, 5.0), (adns, 5.0)] {
        net.connect(ldns, node, LinkProfile::with_latency(Latency::ConstantMs(ms)));
        net.add_default_route(node, ldns);
    }
    net.connect(
        client,
        ldns,
        LinkProfile::with_latency(Latency::ConstantMs(2.0)),
    );
    net.add_default_route(client, ldns);

    net.run();
    answered(&net, client)
}

fn answered(net: &Network, client: NodeId) -> usize {
    net.behavior::<RepeatClient>(client)
        .engine
        .outcomes
        .iter()
        .filter(|o| !o.timed_out && !o.addrs.is_empty())
        .count()
}
