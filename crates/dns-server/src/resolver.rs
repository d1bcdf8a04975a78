//! The resolver core: the one place a query is resolved. [`Resolver`]
//! is sans-IO: a driver feeds it events (client query, upstream reply,
//! upstream timeout, restart) and carries out the [`Action`]s they leave
//! in its outbox (DESIGN.md, "Resolver core and drivers"). Drivers:
//! [`crate::server::DnsServer`] (netsim) and [`crate::engine::ServeEngine`]
//! (loopback, `mecdnsd`). Hot path: no event may panic the core.

use crate::plugin::{Plugin, PluginDecision, QueryCtx};
use dns_wire::{ClientSubnet, Message, Name, Opt, RData, Rcode, Record, RrType};
use netsim::{Latency, SimDuration, SimTime, Telemetry};
use std::collections::HashMap;
use std::net::IpAddr;

/// The UDP port every DNS server listens on: servers take queries on
/// it and send upstream queries to it, and stubs send to it.
pub const DNS_PORT: u16 = 53;

/// Tuning for a DNS server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-query processing delay (lookup work, plugin chain).
    pub processing: Latency,
    /// Extra processing when the query carries an ECS option — the
    /// overhead whose end-to-end effect §4 measures at ×1.01–1.08.
    pub ecs_processing: Latency,
    /// Attach an ECS option (the client's /24) to upstream queries when
    /// the client did not send one — "ECS support at L-DNS".
    pub attach_ecs: bool,
    /// Drop any client-supplied ECS option instead of propagating it —
    /// the behaviour of a "hidden resolver" in a forwarding chain, which
    /// §1 cites as a way ECS-based localization breaks: the C-DNS then
    /// scopes its answer to the egress resolver, not the client.
    pub strip_ecs: bool,
    /// How long to wait for an upstream response before retrying.
    pub upstream_timeout: SimDuration,
    /// Retries per upstream server before giving up on it.
    pub upstream_retries: u8,
    /// When true, queries are processed by a single worker: each query's
    /// processing starts only after the previous one finishes, so load
    /// shows up as queueing delay. Realistic for a small containerized
    /// DNS pod; large shared resolvers stay `false` (parallel).
    pub single_worker: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            processing: Latency::UniformMs(0.1, 0.4),
            ecs_processing: Latency::UniformMs(0.05, 0.25),
            attach_ecs: false,
            upstream_timeout: SimDuration::from_millis(2000),
            upstream_retries: 2,
            single_worker: false,
            strip_ecs: false,
        }
    }
}

/// What the core asks its driver to do; each event leaves at most one.
/// `R` is the driver's handle for a client.
#[derive(Debug)]
pub enum Action<R> {
    /// Send the response (id, question and ECS already set) to the
    /// client behind the handle passed to [`Resolver::on_query`].
    Reply(R, Message),
    /// Send `query` to [`DNS_PORT`] of `upstream`, then arm a timer that
    /// calls [`Resolver::on_timeout`] with `timer` after `timeout`.
    /// Timers are never cancelled; stale ones are ignored.
    Upstream {
        /// Server to ask.
        upstream: IpAddr,
        /// The query, under its upstream transaction id.
        query: Message,
        /// Correlation value for [`Resolver::on_timeout`].
        timer: u64,
        /// Delay before the timeout fires.
        timeout: SimDuration,
    },
}

/// CNAMEs one recursion may chase before it answers SERVFAIL.
const MAX_CNAMES: u8 = 8;
/// Referrals one recursion may follow, across all its CNAME chases,
/// before it answers SERVFAIL: a referral cycle ends here.
const MAX_REFERRALS: u8 = 32;

/// Iterative-resolution state: where we are in root → TLD → authority.
struct Recursion {
    roots: Vec<IpAddr>,
    /// Servers of the current zone cut (roots, or referral glue).
    servers: Vec<IpAddr>,
    server_idx: usize,
    /// The name being resolved (moves along a CNAME chain).
    current_name: Name,
    cname_count: u8,
    referral_count: u8,
    /// CNAMEs followed so far, prepended to the final answer.
    acc: Vec<Record>,
}

/// What one upstream reply does to a job.
enum Step {
    Finish(Message),
    Fail,
    NextServer,
    Rehop,
}

impl Recursion {
    fn step(&mut self, mut reply: Message, qtype: RrType) -> Step {
        let rcode = reply.header.rcode;
        if rcode != Rcode::NoError && rcode != Rcode::NxDomain {
            return Step::NextServer; // treat as a dead server
        }
        let answered =
            rcode == Rcode::NxDomain || reply.answers.iter().any(|rec| rec.rrtype() == qtype);
        let cname = reply
            .answers
            .iter()
            .find(|rec| rec.rrtype() == RrType::Cname);
        if let (false, Some(c)) = (answered, cname) {
            // CNAME without the final type: chase it from the roots.
            if self.cname_count >= MAX_CNAMES {
                return Step::Fail;
            }
            self.cname_count += 1;
            if let RData::Cname(target) = &c.rdata {
                self.current_name = target.clone();
            }
            self.acc.push(c.clone());
            self.servers = self.roots.clone();
            self.server_idx = 0;
            return Step::Rehop;
        }
        let glue: Vec<IpAddr> = reply
            .additionals
            .iter()
            .filter_map(|rec| rec.rdata.as_a().map(IpAddr::V4))
            .collect();
        if !answered && !reply.authorities.is_empty() && !glue.is_empty() {
            // Referral: follow the glue.
            if self.referral_count >= MAX_REFERRALS {
                return Step::Fail;
            }
            self.referral_count += 1;
            self.servers = glue;
            self.server_idx = 0;
            return Step::Rehop;
        }
        // An answer, NXDOMAIN, NoData or a glueless referral (not built in
        // this workspace's topologies): return it behind the CNAME chain.
        let mut answers = std::mem::take(&mut self.acc);
        answers.append(&mut reply.answers);
        reply.answers = answers;
        Step::Finish(reply)
    }
}

enum JobKind {
    Forward { upstream: IpAddr },
    Recurse(Recursion),
}

/// One client query waiting on upstream servers.
struct Job<R> {
    reply_to: R,
    client: (IpAddr, u16),
    /// The client's original query (id, question, ECS...).
    query: Message,
    kind: JobKind,
    upstream_id: u16,
    attempts_left: u8,
}

impl<R> Job<R> {
    /// The server the current hop goes to.
    fn target(&self) -> Option<IpAddr> {
        match &self.kind {
            JobKind::Forward { upstream } => Some(*upstream),
            JobKind::Recurse(r) => r.servers.get(r.server_idx).copied(),
        }
    }
}

/// The resolver state machine: a plugin chain and its exchanges.
pub struct Resolver<R> {
    /// ECS and retry policy; drivers read their simulation fields here.
    pub config: ServerConfig,
    /// Where the core and its plugins record counters and breadcrumbs.
    pub telemetry: Telemetry,
    plugins: Vec<Box<dyn Plugin>>,
    jobs: HashMap<u64, Job<R>>,
    id_to_gen: HashMap<u16, u64>,
    next_gen: u64,
    next_id: u16,
    /// Client queries admitted.
    pub queries: u64,
    /// Queries dropped by a [`PluginDecision::Ignore`].
    pub ignored: u64,
    /// Responses (QR=1) offered as queries: dropped, never answered.
    pub dropped: u64,
    /// Upstream attempts that timed out.
    pub upstream_timeouts: u64,
    /// Queries answered SERVFAIL because every upstream id was in use.
    pub ids_exhausted: u64,
}

impl<R> Resolver<R> {
    /// A core running `plugins` under `config`'s ECS and retry policy.
    pub fn new(config: ServerConfig, plugins: Vec<Box<dyn Plugin>>) -> Self {
        Resolver {
            config,
            telemetry: Telemetry::default(),
            plugins,
            jobs: HashMap::new(),
            id_to_gen: HashMap::new(),
            next_gen: 0,
            next_id: 1,
            queries: 0,
            ignored: 0,
            dropped: 0,
            upstream_timeouts: 0,
            ids_exhausted: 0,
        }
    }

    /// A plugin by index, downcast to its concrete type.
    pub fn plugin<P: Plugin + 'static>(&self, index: usize) -> Option<&P> {
        let p: &dyn Plugin = self.plugins.get(index)?.as_ref();
        (p as &dyn std::any::Any).downcast_ref::<P>()
    }

    /// Client query, first half: counts it, or drops it if it is a
    /// response. Then [`Resolver::on_query`], after any processing delay.
    pub fn admit(&mut self, query: &Message) -> bool {
        if query.header.is_response {
            self.dropped += 1;
            return false;
        }
        self.queries += 1;
        true
    }

    /// Runs an admitted query from `client` through the plugin chain;
    /// `reply_to` comes back in the [`Action::Reply`] that answers it.
    pub fn on_query(
        &mut self,
        now: SimTime,
        client: (IpAddr, u16),
        reply_to: R,
        query: &Message,
        out: &mut Vec<Action<R>>,
    ) {
        let ctx = self.ctx(now, client);
        let mut decision = PluginDecision::Continue;
        for p in &mut self.plugins {
            decision = p.on_query(&ctx, query);
            if !matches!(decision, PluginDecision::Continue) {
                break;
            }
        }
        let kind = match decision {
            PluginDecision::Respond(mut resp) => {
                resp.header.id = query.header.id;
                return respond(reply_to, query, resp, out);
            }
            PluginDecision::Forward { upstream } => JobKind::Forward { upstream },
            PluginDecision::Recurse { roots } => JobKind::Recurse(Recursion {
                servers: roots.clone(),
                roots,
                server_idx: 0,
                current_name: query
                    .question()
                    .map_or_else(Name::root, |q| q.qname.clone()),
                cname_count: 0,
                referral_count: 0,
                acc: Vec::new(),
            }),
            PluginDecision::Ignore => {
                self.ignored += 1;
                return;
            }
            PluginDecision::Continue => {
                // Off the end of the chain: refuse.
                let resp = Message::response_to(query).with_rcode(Rcode::Refused);
                return respond(reply_to, query, resp, out);
            }
        };
        let Some(id) = self.alloc_id() else {
            self.ids_exhausted += 1;
            let resp = Message::response_to(query).with_rcode(Rcode::ServFail);
            return respond(reply_to, query, resp, out);
        };
        let gen = self.next_gen;
        self.next_gen += 1;
        self.telemetry.incr("dns.upstream.query");
        let job = Job {
            reply_to,
            client,
            query: query.clone(),
            kind,
            upstream_id: id,
            attempts_left: self.config.upstream_retries,
        };
        self.jobs.insert(gen, job);
        self.id_to_gen.insert(id, gen);
        self.send(gen, out);
    }

    /// An upstream reply arrived; one matching no exchange in flight
    /// (late or spoofed) is dropped.
    pub fn on_reply(&mut self, now: SimTime, reply: Message, out: &mut Vec<Action<R>>) {
        let Some(&gen) = self.id_to_gen.get(&reply.header.id) else {
            return;
        };
        self.notify(now, gen, true);
        let Some(job) = self.jobs.get_mut(&gen) else {
            return;
        };
        let step = match &mut job.kind {
            JobKind::Forward { .. } => Step::Finish(reply),
            JobKind::Recurse(r) => {
                r.step(reply, job.query.question().map_or(RrType::A, |q| q.qtype))
            }
        };
        match step {
            Step::Finish(mut resp) => {
                let Some(mut job) = self.finish(gen) else {
                    return;
                };
                // Restore the client's transaction id and question.
                resp.header.id = job.query.header.id;
                resp.questions = std::mem::take(&mut job.query.questions);
                let ctx = self.ctx(now, job.client);
                for p in &mut self.plugins {
                    p.on_response(&ctx, &mut resp);
                }
                respond(job.reply_to, &job.query, resp, out);
            }
            Step::Fail => self.fail(gen, out),
            Step::NextServer => self.next_server(gen, out),
            Step::Rehop => self.resend(gen, true, out),
        }
    }

    /// An [`Action::Upstream`] timer fired: retry, fail over, or SERVFAIL.
    pub fn on_timeout(&mut self, now: SimTime, timer: u64, out: &mut Vec<Action<R>>) {
        let Some(job) = self.jobs.get_mut(&timer) else {
            return; // already completed
        };
        let retry = job.attempts_left > 0;
        job.attempts_left = job.attempts_left.saturating_sub(1);
        self.upstream_timeouts += 1;
        self.telemetry.incr("dns.upstream.timeout");
        if retry {
            self.telemetry.incr("dns.upstream.retry");
            self.resend(timer, false, out);
        } else {
            // Retry budget spent in silence: the upstream is presumed
            // dead. Tell the plugins before failing over or SERVFAILing.
            self.notify(now, timer, false);
            self.next_server(timer, out);
        }
    }

    /// Cold start after a crash: in-flight exchanges are gone; counters
    /// survive (they model external scraping, not process state).
    pub fn on_restart(&mut self) {
        self.jobs.clear();
        self.id_to_gen.clear();
    }

    fn ctx(&self, now: SimTime, client: (IpAddr, u16)) -> QueryCtx {
        let telemetry = self.telemetry.clone();
        QueryCtx {
            now,
            client: client.0,
            client_port: client.1,
            telemetry,
        }
    }

    /// A free upstream id, or `None` when all 65,535 are in flight
    /// (reusing a live one would cross-wire two exchanges).
    fn alloc_id(&mut self) -> Option<u16> {
        if self.id_to_gen.len() >= usize::from(u16::MAX) {
            return None;
        }
        for _ in 0..u16::MAX {
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1).max(1);
            if !self.id_to_gen.contains_key(&id) {
                return Some(id);
            }
        }
        None
    }

    /// Queues the current hop of job `gen`, propagating the client's ECS
    /// option (unless this server strips it) or synthesising one.
    fn send(&mut self, gen: u64, out: &mut Vec<Action<R>>) {
        let Some(job) = self.jobs.get(&gen) else {
            return;
        };
        let Some(upstream) = job.target() else {
            return self.fail(gen, out); // a recursion with no servers
        };
        let qname = match &job.kind {
            JobKind::Forward { .. } => job
                .query
                .question()
                .map_or_else(Name::root, |q| q.qname.clone()),
            JobKind::Recurse(r) => r.current_name.clone(),
        };
        let qtype = job.query.question().map_or(RrType::A, |q| q.qtype);
        let mut query = Message::query(job.upstream_id, qname, qtype);
        query.header.recursion_desired = job.query.header.recursion_desired;
        if let (Some(cs), false) = (job.query.client_subnet(), self.config.strip_ecs) {
            query = query.with_client_subnet(*cs);
        } else if self.config.attach_ecs {
            let prefix = if job.client.0.is_ipv4() { 24 } else { 56 };
            query = query.with_client_subnet(ClientSubnet::query(job.client.0, prefix));
        }
        let (timer, timeout) = (gen, self.config.upstream_timeout);
        out.push(Action::Upstream {
            upstream,
            query,
            timer,
            timeout,
        });
    }

    /// Re-sends job `gen`'s current hop under a fresh id — or its old one
    /// when every other id is in flight. A new hop (`rehop`) also gets a
    /// fresh retry budget.
    fn resend(&mut self, gen: u64, rehop: bool, out: &mut Vec<Action<R>>) {
        let Some(old) = self.jobs.get(&gen).map(|j| j.upstream_id) else {
            return;
        };
        let id = self.alloc_id().unwrap_or(old);
        self.id_to_gen.remove(&old);
        self.id_to_gen.insert(id, gen);
        if let Some(job) = self.jobs.get_mut(&gen) {
            job.upstream_id = id;
            if rehop {
                job.attempts_left = self.config.upstream_retries;
            }
        }
        self.send(gen, out);
    }

    /// Moves a recursion to the next server of its zone cut, or fails.
    fn next_server(&mut self, gen: u64, out: &mut Vec<Action<R>>) {
        match self.jobs.get_mut(&gen).map(|j| &mut j.kind) {
            Some(JobKind::Recurse(r)) if r.server_idx + 1 < r.servers.len() => {
                r.server_idx += 1;
                self.resend(gen, true, out);
            }
            Some(_) => self.fail(gen, out),
            None => {}
        }
    }

    /// Ends job `gen`, freeing its upstream id.
    fn finish(&mut self, gen: u64) -> Option<Job<R>> {
        let job = self.jobs.remove(&gen)?;
        self.id_to_gen.remove(&job.upstream_id);
        Some(job)
    }

    fn fail(&mut self, gen: u64, out: &mut Vec<Action<R>>) {
        if let Some(job) = self.finish(gen) {
            let resp = Message::response_to(&job.query).with_rcode(Rcode::ServFail);
            respond(job.reply_to, &job.query, resp, out);
        }
    }

    /// Tells every plugin how job `gen`'s exchange with its current
    /// server ended — once per exchange, not per attempt.
    fn notify(&mut self, now: SimTime, gen: u64, ok: bool) {
        if let Some(upstream) = self.jobs.get(&gen).and_then(Job::target) {
            for p in &mut self.plugins {
                p.on_upstream_event(now, upstream, ok);
            }
        }
    }
}

/// Hands `response` to the driver, echoing the client's ECS option when
/// the response does not scope itself (RFC 7871 §7.2.2).
fn respond<R>(to: R, query: &Message, mut response: Message, out: &mut Vec<Action<R>>) {
    if response.client_subnet().is_none() {
        if let Some(cs) = query.client_subnet() {
            response.edns = Some(Opt::with_client_subnet(*cs));
        }
    }
    out.push(Action::Reply(to, response));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugins::{ForwardPlugin, RecursePlugin};
    use dns_wire::RrClass;
    use std::net::Ipv4Addr;

    const CLIENT: (IpAddr, u16) = (IpAddr::V4(Ipv4Addr::new(10, 0, 0, 9)), 4000);
    const UPSTREAM: IpAddr = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 53));

    #[test]
    fn events_in_actions_out() {
        let forward: Vec<Box<dyn Plugin>> = vec![Box::new(ForwardPlugin::new(UPSTREAM))];
        let mut core: Resolver<&str> = Resolver::new(ServerConfig::default(), forward);
        let mut out = Vec::new();
        let now = SimTime::ZERO;
        let q = Message::query(77, Name::parse("x.test").unwrap(), RrType::A);
        assert!(core.admit(&q));
        core.on_query(now, CLIENT, "client", &q, &mut out);
        let Some(Action::Upstream {
            upstream,
            query: first,
            timer,
            ..
        }) = out.pop()
        else {
            panic!("a forward goes upstream");
        };
        assert_eq!(upstream, UPSTREAM);
        core.on_timeout(now, timer, &mut out);
        let Some(Action::Upstream { query: retry, .. }) = out.pop() else {
            panic!("a timeout retries");
        };
        assert_ne!(first.header.id, retry.header.id, "a retry gets a fresh id");
        // A late answer to the first attempt matches nothing.
        core.on_reply(now, Message::response_to(&first), &mut out);
        assert!(out.is_empty());
        core.on_reply(now, Message::response_to(&retry), &mut out);
        let Some(Action::Reply("client", response)) = out.pop() else {
            panic!("the answer goes back to the client");
        };
        assert_eq!(response.header.id, 77);
        assert_eq!(response.questions, q.questions);
        // The finished exchange's timer is stale.
        core.on_timeout(now, timer, &mut out);
        assert!(out.is_empty());
        assert_eq!(core.upstream_timeouts, 1);
    }

    #[test]
    fn a_referral_cycle_answers_servfail() {
        // Two servers, each referring `x.test` to the other.
        let (a, b) = (Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 1, 2));
        let roots = vec![IpAddr::V4(a)];
        let recurse: Vec<Box<dyn Plugin>> = vec![Box::new(RecursePlugin::new(roots))];
        let mut core: Resolver<&str> = Resolver::new(ServerConfig::default(), recurse);
        let mut out = Vec::new();
        let now = SimTime::ZERO;
        let q = Message::query(5, Name::parse("x.test").unwrap(), RrType::A);
        assert!(core.admit(&q));
        core.on_query(now, CLIENT, "client", &q, &mut out);
        let mut referrals = 0;
        let response = loop {
            let (upstream, query) = match out.pop() {
                Some(Action::Upstream {
                    upstream, query, ..
                }) => (upstream, query),
                Some(Action::Reply("client", response)) => break response,
                other => panic!("unexpected action {other:?}"),
            };
            assert!(
                referrals <= MAX_REFERRALS,
                "a referral cycle must end within {MAX_REFERRALS} referrals"
            );
            referrals += 1;
            let (ns, glue) = if upstream == IpAddr::V4(a) {
                ("ns.b.test", b)
            } else {
                ("ns.a.test", a)
            };
            let ns = Name::parse(ns).unwrap();
            let mut referral = Message::response_to(&query);
            referral.authorities.push(Record::new(
                Name::parse("test").unwrap(),
                RrClass::In,
                300,
                RData::Ns(ns.clone()),
            ));
            referral
                .additionals
                .push(Record::new(ns, RrClass::In, 300, RData::A(glue)));
            core.on_reply(now, referral, &mut out);
        };
        assert_eq!(response.header.rcode, Rcode::ServFail);
        assert_eq!(response.header.id, 5);
        assert!(out.is_empty());
    }
}
