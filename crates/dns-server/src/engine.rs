//! The loopback driver of the [`Resolver`] core, for real transports
//! (`mecdnsd`): the upstreams the front core forwards to are in-process
//! cores too, and each [`Action::Upstream`] is answered synchronously by
//! the backend at that address. Silence (no backend, an ignored query,
//! a hop nested past `MAX_FORWARD_HOPS`) times out at once. Backends see
//! the client's address and, as under the netsim driver, the upstream
//! transaction id the forwarding core allocated. Hot path: no query may
//! panic a shard.

use crate::plugin::Plugin;
use crate::resolver::{Action, Resolver, ServerConfig};
use dns_wire::{Message, Rcode};
use netsim::{SimTime, Telemetry};
use std::net::IpAddr;

/// Backend hops one query may nest before the next counts as silent.
/// Deployments here take one (L-DNS → C-DNS); this guards mis-wiring.
const MAX_FORWARD_HOPS: usize = 4;

/// Responses tallied by rcode — the numbers behind the `--stats` line.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RcodeCounts {
    /// NOERROR responses.
    pub noerror: u64,
    /// NXDOMAIN responses.
    pub nxdomain: u64,
    /// SERVFAIL responses.
    pub servfail: u64,
    /// REFUSED responses.
    pub refused: u64,
    /// Everything else.
    pub other: u64,
}

impl RcodeCounts {
    fn count(&mut self, rcode: Rcode) {
        match rcode {
            Rcode::NoError => self.noerror += 1,
            Rcode::NxDomain => self.nxdomain += 1,
            Rcode::ServFail => self.servfail += 1,
            Rcode::Refused => self.refused += 1,
            _ => self.other += 1,
        }
    }

    /// Total responses across all rcodes.
    pub fn total(&self) -> u64 {
        self.noerror + self.nxdomain + self.servfail + self.refused + self.other
    }

    /// Folds another tally into this one (per-shard merge at shutdown).
    pub fn merge(&mut self, other: &RcodeCounts) {
        self.noerror += other.noerror;
        self.nxdomain += other.nxdomain;
        self.servfail += other.servfail;
        self.refused += other.refused;
        self.other += other.other;
    }
}

/// The resolver cores of one serving process: a front core that faces
/// clients, plus backend cores addressable by the IPs it forwards to.
pub struct ServeEngine {
    /// The front core (no address) first, then the in-process
    /// "upstreams", found by a linear scan (deployments have one or two).
    cores: Vec<(Option<IpAddr>, Resolver<()>)>,
    /// Outboxes reused across calls, one per nesting level.
    outboxes: Vec<Vec<Action<()>>>,
    /// Responses tallied by rcode.
    pub rcodes: RcodeCounts,
    /// Queries accepted into the chain.
    pub queries: u64,
    /// Queries dropped by a [`crate::PluginDecision::Ignore`].
    pub ignored: u64,
    /// Responses (QR=1) offered as queries, dropped unanswered.
    pub dropped: u64,
}

impl ServeEngine {
    /// An engine with the given client-facing chain and no backends.
    pub fn new(front: Vec<Box<dyn Plugin>>) -> Self {
        ServeEngine {
            cores: vec![(None, Resolver::new(ServerConfig::default(), front))],
            outboxes: Vec::new(),
            rcodes: RcodeCounts::default(),
            queries: 0,
            ignored: 0,
            dropped: 0,
        }
    }

    /// Registers the chain that answers forwards addressed to `addr`,
    /// replacing any earlier one there (builder-style).
    pub fn with_backend(mut self, addr: IpAddr, chain: Vec<Box<dyn Plugin>>) -> Self {
        let mut core = Resolver::new(ServerConfig::default(), chain);
        if let Some((_, front)) = self.cores.first() {
            core.telemetry = front.telemetry.clone();
        }
        self.cores.retain(|(ip, _)| *ip != Some(addr));
        self.cores.push((Some(addr), core));
        self
    }

    /// Routes the engine's counters into `t` (per-shard registries are
    /// merged at shutdown).
    pub fn with_telemetry(mut self, t: Telemetry) -> Self {
        for (_, core) in &mut self.cores {
            core.telemetry = t.clone();
        }
        self
    }

    /// A front-chain plugin by index, downcast to its concrete type.
    pub fn front_plugin<P: Plugin + 'static>(&self, index: usize) -> Option<&P> {
        self.cores.first()?.1.plugin(index)
    }

    /// Resolves one client query to the response for the wire, or `None`
    /// (ignored, or a response). `now` is the transport's clock (virtual
    /// in tests, a wall-clock anchor in `mecdnsd`); it feeds TTLs only.
    pub fn resolve(
        &mut self,
        now: SimTime,
        client: IpAddr,
        client_port: u16,
        query: &Message,
    ) -> Option<Message> {
        let answer = self.exchange(now, 0, (client, client_port), query, 0);
        let front = &self.cores.first()?.1;
        self.queries = front.queries;
        self.ignored = front.ignored;
        self.dropped = front.dropped;
        let response = answer?;
        self.rcodes.count(response.header.rcode);
        Some(response)
    }

    /// Runs `query` through core `i` and pumps its actions until that
    /// core answers (`Some`) or stays silent (`None`).
    fn exchange(
        &mut self,
        now: SimTime,
        i: usize,
        client: (IpAddr, u16),
        query: &Message,
        depth: usize,
    ) -> Option<Message> {
        let (_, core) = self.cores.get_mut(i)?;
        if !core.admit(query) {
            return None;
        }
        let mut out = self.outboxes.pop().unwrap_or_default();
        core.on_query(now, client, (), query, &mut out);
        let mut answer = None;
        while let Some(action) = out.pop() {
            let (upstream, up, timer) = match action {
                Action::Reply((), response) => {
                    answer = Some(response);
                    continue;
                }
                Action::Upstream {
                    upstream,
                    query,
                    timer,
                    ..
                } => (upstream, query, timer),
            };
            let backend = self.cores.iter().position(|(ip, _)| *ip == Some(upstream));
            let reply = match backend {
                Some(j) if depth < MAX_FORWARD_HOPS => {
                    self.exchange(now, j, client, &up, depth + 1)
                }
                _ => None, // nothing there, or past the hop guard: silence
            };
            let Some((_, core)) = self.cores.get_mut(i) else {
                break;
            };
            if let Some(reply) = reply {
                core.on_reply(now, reply, &mut out);
            }
            // Silence, or a reply the core could not match.
            if out.is_empty() {
                core.on_timeout(now, timer, &mut out);
            }
        }
        self.outboxes.push(out);
        answer
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("cores", &self.cores.len())
            .field("queries", &self.queries)
            .field("rcodes", &self.rcodes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::{PluginDecision, QueryCtx};
    use crate::plugins::{AuthoritativePlugin, CachePlugin, StubDomainPlugin};
    use crate::zone::Zone;
    use dns_wire::{Name, RrType};
    use netsim::SimDuration;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 9));
    const CDNS: IpAddr = IpAddr::V4(Ipv4Addr::new(10, 96, 0, 53));

    /// Front: cache → stub to the backend; backend: authoritative zone.
    fn engine() -> ServeEngine {
        let mut zone = Zone::new(n("mycdn.ciab.test"));
        zone.add_a(n("video.mycdn.ciab.test"), Ipv4Addr::new(10, 96, 0, 10), 30);
        ServeEngine::new(vec![
            Box::new(CachePlugin::new(64)),
            Box::new(StubDomainPlugin::new(vec![(n("mycdn.ciab.test"), CDNS)])),
        ])
        .with_backend(CDNS, vec![Box::new(AuthoritativePlugin::new(vec![zone]))])
    }

    #[test]
    fn forward_is_answered_by_the_backend_chain() {
        let mut e = engine();
        let q = Message::query(7, n("video.mycdn.ciab.test"), RrType::A);
        let resp = e.resolve(at(0), CLIENT, 4000, &q).unwrap();
        assert_eq!(resp.header.id, 7);
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert_eq!(resp.answer_a_addrs(), vec![Ipv4Addr::new(10, 96, 0, 10)]);
        assert_eq!(e.rcodes.noerror, 1);
    }

    #[test]
    fn backend_answer_fills_the_front_cache() {
        let mut e = engine();
        let q = Message::query(7, n("video.mycdn.ciab.test"), RrType::A);
        e.resolve(at(0), CLIENT, 4000, &q).unwrap();
        let again = Message::query(8, n("video.mycdn.ciab.test"), RrType::A);
        let resp = e.resolve(at(1), CLIENT, 4000, &again).unwrap();
        assert_eq!(resp.header.id, 8);
        assert_eq!(resp.answer_a_addrs(), vec![Ipv4Addr::new(10, 96, 0, 10)]);
        let cache = e.front_plugin::<CachePlugin>(0).unwrap();
        assert_eq!(cache.hits(), 1, "second query must be a cache hit");
    }

    #[test]
    fn unknown_upstream_servfails() {
        let mut e = ServeEngine::new(vec![Box::new(StubDomainPlugin::new(vec![(
            n("mycdn.ciab.test"),
            CDNS,
        )]))]);
        let q = Message::query(9, n("video.mycdn.ciab.test"), RrType::A);
        let resp = e.resolve(at(0), CLIENT, 4000, &q).unwrap();
        assert_eq!(resp.header.rcode, Rcode::ServFail);
        assert_eq!(e.rcodes.servfail, 1);
    }

    #[test]
    fn off_chain_end_refuses() {
        let mut e = ServeEngine::new(vec![]);
        let q = Message::query(3, n("elsewhere.test"), RrType::A);
        let resp = e.resolve(at(0), CLIENT, 4000, &q).unwrap();
        assert_eq!(resp.header.rcode, Rcode::Refused);
        assert_eq!(e.rcodes.refused, 1);
    }

    #[test]
    fn nxdomain_from_backend_is_relayed_and_counted() {
        let mut e = engine();
        let q = Message::query(4, n("missing.mycdn.ciab.test"), RrType::A);
        let resp = e.resolve(at(0), CLIENT, 4000, &q).unwrap();
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
        assert_eq!(e.rcodes.nxdomain, 1);
    }

    #[test]
    fn forwarding_loop_hits_the_hop_budget() {
        struct Bounce(IpAddr);
        impl Plugin for Bounce {
            fn name(&self) -> &'static str {
                "bounce"
            }
            fn on_query(&mut self, _ctx: &QueryCtx, _q: &Message) -> PluginDecision {
                PluginDecision::Forward { upstream: self.0 }
            }
        }
        let a: IpAddr = "10.0.0.1".parse().unwrap();
        let b: IpAddr = "10.0.0.2".parse().unwrap();
        let mut e = ServeEngine::new(vec![Box::new(Bounce(a))])
            .with_backend(a, vec![Box::new(Bounce(b))])
            .with_backend(b, vec![Box::new(Bounce(a))]);
        let q = Message::query(5, n("loop.test"), RrType::A);
        let resp = e.resolve(at(0), CLIENT, 4000, &q).unwrap();
        assert_eq!(resp.header.rcode, Rcode::ServFail);
    }

    #[test]
    fn ecs_option_is_echoed_back() {
        let mut e = engine();
        let ecs = dns_wire::ClientSubnet::query("172.16.0.0".parse().unwrap(), 12);
        let q = Message::query(6, n("video.mycdn.ciab.test"), RrType::A).with_client_subnet(ecs);
        let resp = e.resolve(at(0), CLIENT, 4000, &q).unwrap();
        assert_eq!(resp.client_subnet(), Some(&ecs));
    }

    #[test]
    fn rcode_counts_merge() {
        let mut a = RcodeCounts {
            noerror: 3,
            nxdomain: 1,
            ..RcodeCounts::default()
        };
        let b = RcodeCounts {
            noerror: 2,
            servfail: 5,
            refused: 1,
            other: 2,
            ..RcodeCounts::default()
        };
        a.merge(&b);
        assert_eq!(a.noerror, 5);
        assert_eq!(a.servfail, 5);
        assert_eq!(a.total(), 14);
    }
}
