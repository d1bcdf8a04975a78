//! One resolver core, two drivers: the same query script through the
//! netsim driver (`DnsServer` nodes) and the loopback driver
//! (`ServeEngine` backends) must produce the same response bytes.

use dns_server::plugins::{
    AuthoritativePlugin, CachePlugin, ForwardPlugin, RecursePlugin, ScopePlugin, StubDomainPlugin,
};
use dns_server::{DnsServer, Plugin, ServeEngine, ServerConfig, Zone};
use dns_wire::{ClientSubnet, Message, Name, Rcode, RrType};
use netsim::{
    Datagram, Latency, LinkProfile, Network, NodeBehavior, NodeContext, SimDuration, SimTime,
    TimerToken,
};
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

const PROBE: &str = "10.0.0.2";
const FRONT: &str = "10.0.0.1";
/// When script step `i` is sent. Steps are 10 s apart: longer than the
/// 6 s retry budget, shorter than the 30 s answer TTL.
fn step(i: usize) -> SimDuration {
    SimDuration::from_secs(10 * i as u64)
}

/// A chain factory: the same plugins, built once per driver.
type Chain = fn() -> Vec<Box<dyn Plugin>>;

/// Sends the script's payloads to the front, one per [`step`], and
/// keeps every reply by transaction id.
struct Probe {
    script: Vec<Vec<u8>>,
    replies: BTreeMap<u16, Vec<u8>>,
}

impl NodeBehavior for Probe {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        for i in 0..self.script.len() {
            ctx.set_timer(step(i), i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
        let payload = self.script[data as usize].clone();
        ctx.send(ip(FRONT), 53, payload);
    }
    fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, dgram: Datagram) {
        let id = u16::from_be_bytes([dgram.payload[0], dgram.payload[1]]);
        assert!(
            self.replies.insert(id, dgram.payload).is_none(),
            "one reply per query"
        );
    }
}

fn config() -> ServerConfig {
    ServerConfig {
        processing: Latency::ConstantMs(0.1),
        ecs_processing: Latency::ConstantMs(0.05),
        ..ServerConfig::default()
    }
}

/// (a) The netsim driver: a probe, a front `DnsServer`, and backend
/// `DnsServer`s at the upstream addresses.
fn via_netsim(
    front: Chain,
    backends: &[(&str, Chain)],
    script: &[Message],
) -> BTreeMap<u16, Vec<u8>> {
    let mut net = Network::new(7);
    let link = || LinkProfile::with_latency(Latency::ConstantMs(1.0));
    let front_node = net.add_node("front", [ip(FRONT)], DnsServer::new(config(), front()));
    let probe = net.add_node(
        "probe",
        [ip(PROBE)],
        Probe {
            script: script.iter().map(|m| m.encode().unwrap()).collect(),
            replies: BTreeMap::new(),
        },
    );
    net.connect(probe, front_node, link());
    for (addr, chain) in backends {
        let node = net.add_node(addr, [ip(addr)], DnsServer::new(config(), chain()));
        net.connect(front_node, node, link());
    }
    net.run();
    net.behavior::<Probe>(probe).replies.clone()
}

/// (b) The loopback driver: a `ServeEngine` with the same chains as
/// backends, each script step at the virtual time the probe sends it.
fn via_loopback(
    front: Chain,
    backends: &[(&str, Chain)],
    script: &[Message],
) -> BTreeMap<u16, Vec<u8>> {
    let mut engine = ServeEngine::new(front());
    for (addr, chain) in backends {
        engine = engine.with_backend(ip(addr), chain());
    }
    let mut replies = BTreeMap::new();
    for (i, query) in script.iter().enumerate() {
        let now = SimTime::ZERO + step(i);
        if let Some(resp) = engine.resolve(now, ip(PROBE), 5353, query) {
            replies.insert(resp.header.id, resp.encode().unwrap());
        }
    }
    replies
}

fn rcode_tally(replies: &BTreeMap<u16, Vec<u8>>) -> BTreeMap<String, usize> {
    let mut tally = BTreeMap::new();
    for bytes in replies.values() {
        let rcode = Message::decode(bytes).unwrap().header.rcode;
        *tally.entry(format!("{rcode:?}")).or_insert(0) += 1;
    }
    tally
}

/// Runs `script` through both drivers and checks they agree byte for
/// byte; returns the (shared) replies.
fn both(front: Chain, backends: &[(&str, Chain)], script: &[Message]) -> BTreeMap<u16, Message> {
    let sim = via_netsim(front, backends, script);
    let lo = via_loopback(front, backends, script);
    assert_eq!(
        sim.keys().collect::<Vec<_>>(),
        lo.keys().collect::<Vec<_>>(),
        "same queries answered"
    );
    for (id, bytes) in &sim {
        assert_eq!(Some(bytes), lo.get(id), "query {id}: response bytes differ");
    }
    assert_eq!(rcode_tally(&sim), rcode_tally(&lo));
    sim.iter()
        .map(|(&id, bytes)| (id, Message::decode(bytes).unwrap()))
        .collect()
}

const CDNS: &str = "10.96.0.53";
/// Nothing answers here, in either driver.
const SILENT: &str = "10.96.0.99";

fn stub_front() -> Vec<Box<dyn Plugin>> {
    vec![
        Box::new(CachePlugin::new(64)),
        Box::new(ScopePlugin::new(vec![n("ciab.test"), n("dead.test")])),
        Box::new(StubDomainPlugin::new(vec![
            (n("mycdn.ciab.test"), ip(CDNS)),
            (n("dead.test"), ip(SILENT)),
        ])),
    ]
}

fn cdns() -> Vec<Box<dyn Plugin>> {
    let mut zone = Zone::new(n("mycdn.ciab.test"));
    zone.add_a(n("video.mycdn.ciab.test"), Ipv4Addr::new(10, 96, 0, 10), 30)
        .add_a(n("ecs.mycdn.ciab.test"), Ipv4Addr::new(10, 96, 0, 11), 30);
    vec![Box::new(AuthoritativePlugin::new(vec![zone]))]
}

#[test]
fn stub_domain_script_gets_identical_bytes_from_both_drivers() {
    let ecs = ClientSubnet::query(ip("172.16.5.0"), 24);
    let mut spoofed = Message::query(8, n("video.mycdn.ciab.test"), RrType::A);
    spoofed.header.is_response = true;
    let script = vec![
        Message::query(1, n("video.mycdn.ciab.test"), RrType::A), // miss
        // A cache hit; the front core itself echoes the client's ECS.
        Message::query(2, n("video.mycdn.ciab.test"), RrType::A).with_client_subnet(ecs),
        Message::query(3, n("missing.mycdn.ciab.test"), RrType::A), // NXDOMAIN
        Message::query(4, n("other.ciab.test"), RrType::A),         // chain end
        Message::query(5, n("elsewhere.example"), RrType::A),       // ignored
        // ECS travels upstream and comes back scoped by the backend.
        Message::query(6, n("ecs.mycdn.ciab.test"), RrType::A).with_client_subnet(ecs),
        Message::query(7, n("www.dead.test"), RrType::A), // silent upstream
        spoofed,                                          // QR=1: dropped
    ];
    let replies = both(stub_front, &[(CDNS, cdns)], &script);
    let rcode = |id: u16| replies.get(&id).map(|m| m.header.rcode);
    assert_eq!(rcode(1), Some(Rcode::NoError));
    assert_eq!(
        replies[&2].answer_a_addrs(),
        vec![Ipv4Addr::new(10, 96, 0, 10)]
    );
    assert!(
        replies[&2].header.recursion_available,
        "second answer came from the cache"
    );
    assert_eq!(replies[&2].client_subnet(), Some(&ecs));
    assert_eq!(rcode(3), Some(Rcode::NxDomain));
    assert_eq!(rcode(4), Some(Rcode::Refused));
    assert_eq!(rcode(5), None, "ignored: no reply");
    assert_eq!(
        replies[&6].client_subnet().map(|cs| cs.addr),
        Some(ecs.addr)
    );
    assert_eq!(rcode(7), Some(Rcode::ServFail));
    assert_eq!(rcode(8), None, "a response on the query path is dropped");
}

const ROOT: &str = "10.50.0.1";
const TLD: &str = "10.50.0.2";
const ADNS: &str = "10.50.0.3";

fn recursive_front() -> Vec<Box<dyn Plugin>> {
    vec![
        Box::new(CachePlugin::new(64)),
        Box::new(RecursePlugin::new(vec![ip(ROOT)])),
    ]
}

fn root() -> Vec<Box<dyn Plugin>> {
    let mut zone = Zone::new(Name::root());
    zone.delegate(n("test"), n("ns.test"), Ipv4Addr::new(10, 50, 0, 2), 86400);
    vec![Box::new(AuthoritativePlugin::new(vec![zone]))]
}

fn tld() -> Vec<Box<dyn Plugin>> {
    let mut zone = Zone::new(n("test"));
    zone.delegate(
        n("mycdn.ciab.test"),
        n("ns1.mycdn.ciab.test"),
        Ipv4Addr::new(10, 50, 0, 3),
        3600,
    );
    vec![Box::new(AuthoritativePlugin::new(vec![zone]))]
}

fn adns() -> Vec<Box<dyn Plugin>> {
    let mut zone = Zone::new(n("mycdn.ciab.test"));
    zone.add_cname(
        n("video.demo1.mycdn.ciab.test"),
        n("cache-1.mycdn.ciab.test"),
        60,
    )
    .add_a(
        n("cache-1.mycdn.ciab.test"),
        Ipv4Addr::new(10, 60, 0, 11),
        30,
    );
    vec![Box::new(AuthoritativePlugin::new(vec![zone]))]
}

#[test]
fn recursion_with_cname_chase_gets_identical_bytes_from_both_drivers() {
    let script = vec![
        Message::query(1, n("video.demo1.mycdn.ciab.test"), RrType::A),
        Message::query(2, n("nope.mycdn.ciab.test"), RrType::A),
    ];
    let backends: [(&str, Chain); 3] = [(ROOT, root), (TLD, tld), (ADNS, adns)];
    let replies = both(recursive_front, &backends, &script);
    let chased = &replies[&1];
    assert_eq!(chased.header.rcode, Rcode::NoError);
    assert_eq!(chased.answers.len(), 2, "CNAME then A");
    assert_eq!(chased.answer_a_addrs(), vec![Ipv4Addr::new(10, 60, 0, 11)]);
    assert_eq!(replies[&2].header.rcode, Rcode::NxDomain);
}

/// Swallows everything.
struct Silent;

impl NodeBehavior for Silent {}

/// Sends `count` queries at once and counts the replies by rcode.
struct Burst {
    count: u32,
    servfails: u32,
    others: u32,
}

impl NodeBehavior for Burst {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        for i in 0..self.count {
            let q = Message::query(i as u16, n("x.test"), RrType::A);
            ctx.send(ip(FRONT), 53, q.encode().unwrap());
        }
    }
    fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, dgram: Datagram) {
        match Message::decode(&dgram.payload).map(|m| m.header.rcode) {
            Ok(Rcode::ServFail) => self.servfails += 1,
            _ => self.others += 1,
        }
    }
}

#[test]
fn exhausted_upstream_ids_answer_servfail() {
    // One more query than there are upstream ids (1..=65535), all
    // forwarded to a node that never answers: the last one finds no
    // free id, and every retry must go out without a fresh one.
    let count = u32::from(u16::MAX) + 1;
    let mut net = Network::new(3);
    let front = net.add_node(
        "front",
        [ip(FRONT)],
        DnsServer::new(
            ServerConfig::default(),
            vec![Box::new(ForwardPlugin::new(ip(SILENT)))],
        ),
    );
    let probe = net.add_node(
        "probe",
        [ip(PROBE)],
        Burst {
            count,
            servfails: 0,
            others: 0,
        },
    );
    let silent = net.add_node("silent", [ip(SILENT)], Silent);
    let link = || LinkProfile::with_latency(Latency::ConstantMs(1.0));
    net.connect(probe, front, link());
    net.connect(front, silent, link());
    net.run();
    let burst = net.behavior::<Burst>(probe);
    assert_eq!(burst.servfails, count);
    assert_eq!(burst.others, 0);
    assert_eq!(
        net.behavior::<DnsServer>(front).core.queries,
        u64::from(count)
    );
}
