//! The DNS server as a simulator node: the netsim driver of the
//! [`Resolver`] core. It keeps only the simulation — processing delay,
//! single-worker queueing, the inbox, port demux, encoding with a
//! SERVFAIL fallback, crash-restart — and runs actions in the order the
//! core emits them (send, then arm), keeping RNG draws and event order.

use crate::plugin::Plugin;
use crate::resolver::{Action, Resolver, ServerConfig, DNS_PORT};
use dns_wire::{Message, Rcode};
use netsim::{Datagram, NodeBehavior, NodeContext, SimTime, Telemetry, TimerToken};
use std::collections::HashMap;

/// Timer-data tag for queued inbound queries.
const TAG_INBOX: u64 = 0x1 << 56;
/// Timer-data tag for upstream timeouts.
const TAG_PENDING: u64 = 0x2 << 56;
const TAG_MASK: u64 = 0xFF << 56;

/// A DNS server as a simulator node behavior: queries reach the core
/// after a sampled processing delay; upstream sends become datagrams.
pub struct DnsServer {
    /// The resolver core: its counters, plugins and configuration.
    pub core: Resolver<Datagram>,
    /// Queries waiting out their processing delay, with reply templates.
    inbox: HashMap<u64, (Datagram, Message)>,
    next_inbox: u64,
    /// When the single worker next becomes free (see
    /// [`ServerConfig::single_worker`]).
    busy_until: SimTime,
    /// The core's actions, reused across events.
    outbox: Vec<Action<Datagram>>,
    /// Responses sent to clients.
    pub responses_sent: u64,
    /// Datagrams that failed to parse, and queries on a reply port.
    pub malformed: u64,
}

impl DnsServer {
    /// Creates a server with the given plugin chain.
    pub fn new(config: ServerConfig, plugins: Vec<Box<dyn Plugin>>) -> Self {
        DnsServer {
            core: Resolver::new(config, plugins),
            inbox: HashMap::new(),
            next_inbox: 0,
            busy_until: SimTime::ZERO,
            outbox: Vec::new(),
            responses_sent: 0,
            malformed: 0,
        }
    }

    /// Routes this server's (and its plugins') telemetry into `t`.
    pub fn with_telemetry(mut self, t: Telemetry) -> Self {
        self.core.telemetry = t;
        self
    }

    /// Feeds one event to the core and carries out its actions. Only a
    /// client query (`query_id`) opens exchanges; each marks its trace.
    fn drive(
        &mut self,
        ctx: &mut NodeContext<'_>,
        query_id: Option<u16>,
        event: impl FnOnce(&mut Resolver<Datagram>, &mut Vec<Action<Datagram>>),
    ) {
        let mut out = std::mem::take(&mut self.outbox);
        event(&mut self.core, &mut out);
        for action in out.drain(..) {
            match action {
                Action::Reply(to, response) => self.send_reply(ctx, &to, response),
                Action::Upstream {
                    upstream,
                    query,
                    timer,
                    timeout,
                } => {
                    if let Some(id) = query_id {
                        let tel = &self.core.telemetry;
                        tel.mark(u64::from(id), ctx.now(), "server.forward", upstream);
                    }
                    // An unencodable query is never sent; its timeout
                    // still fires, so the client gets SERVFAIL.
                    if let Ok(bytes) = query.encode() {
                        ctx.send(upstream, DNS_PORT, bytes);
                    }
                    ctx.set_timer(timeout, TAG_PENDING | timer);
                }
            }
        }
        self.outbox = out;
    }

    fn send_reply(&mut self, ctx: &mut NodeContext<'_>, reply_to: &Datagram, resp: Message) {
        let bytes = resp.encode().or_else(|_| {
            // Encoding failures are server bugs; surface as SERVFAIL.
            let mut sf = Message::response_to(&resp).with_rcode(Rcode::ServFail);
            sf.answers.clear();
            sf.encode()
        });
        if let Ok(bytes) = bytes {
            ctx.send_datagram(reply_to.reply_with(bytes));
            self.responses_sent += 1;
        }
    }
}

impl NodeBehavior for DnsServer {
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, mut dgram: Datagram) {
        let Ok(msg) = Message::decode(&dgram.payload) else {
            self.malformed += 1;
            return;
        };
        // Responses to our upstream queries come back on ephemeral ports.
        if dgram.dst_port != DNS_PORT {
            if msg.header.is_response {
                let now = ctx.now();
                self.drive(ctx, None, |core, out| core.on_reply(now, msg, out));
            } else {
                self.malformed += 1;
            }
            return;
        }
        if !self.core.admit(&msg) {
            return;
        }
        let config = &self.core.config;
        let mut work = config.processing.sample(ctx.rng());
        if msg.client_subnet().is_some() {
            work += config.ecs_processing.sample(ctx.rng());
        }
        let delay = if config.single_worker {
            // Queue behind whatever the worker is already doing.
            let now = ctx.now();
            let start = self.busy_until.max(now);
            self.busy_until = start + work;
            self.busy_until - now
        } else {
            work
        };
        let key = self.next_inbox;
        self.next_inbox += 1;
        dgram.payload = Vec::new(); // decoded; the rest is the reply template
        self.inbox.insert(key, (dgram, msg));
        ctx.set_timer(delay, TAG_INBOX | key);
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _token: TimerToken, data: u64) {
        let payload = data & !TAG_MASK;
        let now = ctx.now();
        match data & TAG_MASK {
            TAG_INBOX => {
                if let Some((dgram, q)) = self.inbox.remove(&payload) {
                    let client = (dgram.src, dgram.src_port);
                    let id = Some(q.header.id);
                    self.drive(ctx, id, |core, out| {
                        core.on_query(now, client, dgram, &q, out)
                    });
                }
            }
            TAG_PENDING => self.drive(ctx, None, |core, out| core.on_timeout(now, payload, out)),
            _ => {}
        }
    }

    fn on_restart(&mut self, _ctx: &mut NodeContext<'_>) {
        // Cold start after a crash: queued queries and in-flight upstream
        // exchanges are gone; clients see silence for anything dropped.
        self.inbox.clear();
        self.core.on_restart();
        self.busy_until = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugins::AuthoritativePlugin;
    use crate::zone::Zone;
    use dns_wire::{Name, RrType};
    use netsim::{Latency, Network, NodeId};
    use std::net::{IpAddr, Ipv4Addr};

    struct Probe {
        server: IpAddr,
        payloads: Vec<Vec<u8>>,
        replies: Vec<Message>,
    }
    impl NodeBehavior for Probe {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            for p in self.payloads.clone() {
                ctx.send(self.server, 53, p);
            }
        }
        fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, dgram: Datagram) {
            if let Ok(m) = Message::decode(&dgram.payload) {
                self.replies.push(m);
            }
        }
    }

    fn world(plugins: Vec<Box<dyn Plugin>>, payloads: Vec<Vec<u8>>) -> (Network, NodeId, NodeId) {
        let mut net = Network::new(5);
        let server = net.add_node(
            "server",
            ["10.0.0.1".parse::<IpAddr>().unwrap()],
            DnsServer::new(ServerConfig::default(), plugins),
        );
        let probe = net.add_node(
            "probe",
            ["10.0.0.2".parse::<IpAddr>().unwrap()],
            Probe {
                server: "10.0.0.1".parse().unwrap(),
                payloads,
                replies: vec![],
            },
        );
        net.connect(
            probe,
            server,
            netsim::LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        net.run();
        (net, server, probe)
    }

    #[test]
    fn garbage_counts_as_malformed_and_gets_no_reply() {
        let (net, server, probe) = world(vec![], vec![vec![0xDE, 0xAD], vec![]]);
        assert_eq!(net.behavior::<DnsServer>(server).malformed, 2);
        assert!(net.behavior::<Probe>(probe).replies.is_empty());
    }

    #[test]
    fn empty_plugin_chain_refuses() {
        let q = Message::query(7, Name::parse("x.test").unwrap(), RrType::A);
        let (net, server, probe) = world(vec![], vec![q.encode().unwrap()]);
        let replies = &net.behavior::<Probe>(probe).replies;
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].header.rcode, Rcode::Refused);
        assert_eq!(replies[0].header.id, 7);
        assert_eq!(net.behavior::<DnsServer>(server).responses_sent, 1);
    }

    #[test]
    fn response_id_and_question_echo_the_query() {
        let mut zone = Zone::new(Name::parse("z.test").unwrap());
        zone.add_a(
            Name::parse("a.z.test").unwrap(),
            Ipv4Addr::new(4, 4, 4, 4),
            60,
        );
        let q = Message::query(0xABCD, Name::parse("a.z.test").unwrap(), RrType::A);
        let (net, _server, probe) = world(
            vec![Box::new(AuthoritativePlugin::new(vec![zone]))],
            vec![q.encode().unwrap()],
        );
        let replies = &net.behavior::<Probe>(probe).replies;
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].header.id, 0xABCD);
        assert_eq!(replies[0].questions, q.questions);
        assert!(replies[0].header.is_response);
    }

    #[test]
    fn responses_sent_to_the_service_port_are_ignored() {
        // A spoofed "response" aimed at port 53 must not crash or be
        // treated as a query.
        let mut resp = Message::query(9, Name::parse("x.test").unwrap(), RrType::A);
        resp.header.is_response = true;
        let (net, server, probe) = world(vec![], vec![resp.encode().unwrap()]);
        let s = net.behavior::<DnsServer>(server);
        assert_eq!(s.core.queries, 0);
        assert_eq!(s.core.dropped, 1);
        assert!(net.behavior::<Probe>(probe).replies.is_empty());
    }

    #[test]
    fn plugin_accessor_downcasts_by_index() {
        let server = DnsServer::new(
            ServerConfig::default(),
            vec![Box::new(crate::plugins::CachePlugin::new(8))],
        );
        assert!(server
            .core
            .plugin::<crate::plugins::CachePlugin>(0)
            .is_some());
        assert!(server
            .core
            .plugin::<crate::plugins::ForwardPlugin>(0)
            .is_none());
        assert!(server
            .core
            .plugin::<crate::plugins::CachePlugin>(1)
            .is_none());
    }
}
