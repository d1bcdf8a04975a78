//! The client-side stub resolver engine.
//!
//! A UE (or any client behavior) embeds a [`StubEngine`] and delegates
//! datagrams and timers to it. The engine supports the three dispatch
//! strategies §3 of the paper discusses for connecting end users to the
//! MEC L-DNS:
//!
//! * [`SendStrategy::Unicast`] — the ordinary single-resolver case.
//! * [`SendStrategy::Multicast`] — *"have DNS requests be multicast to
//!   both MEC DNS and the network's L-DNS"*; the first answer wins.
//! * [`SendStrategy::FallbackOnTimeout`] — *"or even be forwarded to
//!   L-DNS on timeout from MEC DNS"*.
//!
//! Every completed query yields a [`QueryOutcome`] carrying the RTT the
//! paper's figures plot.

use crate::resolver::DNS_PORT;
use dns_wire::{ClientSubnet, Message, Name, Rcode, RrType};
use netsim::{Datagram, NodeContext, SimDuration, SimTime, Telemetry};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

/// Timer tag the engine uses; client behaviors embedding an engine must
/// keep their own timer data below this bit.
const TAG_STUB: u64 = 0xD5 << 56;
const TAG_MASK: u64 = 0xFF << 56;

/// Where (and how) a query is sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendStrategy {
    /// One resolver, with retries on timeout.
    Unicast(IpAddr),
    /// Several resolvers at once; first answer wins, the rest are
    /// ignored.
    Multicast(Vec<IpAddr>),
    /// Ask `primary`; if no answer within `timeout`, ask `fallback`
    /// (while still accepting a late primary answer).
    FallbackOnTimeout {
        /// First choice (the MEC DNS).
        primary: IpAddr,
        /// Second choice (the provider's L-DNS).
        fallback: IpAddr,
        /// How long to give the primary.
        timeout: SimDuration,
    },
    /// The federated-anycast policy: it distinguishes *"my site died"*
    /// from *"resolution failed"*. Silence means the packet blackholed
    /// at a dead catchment site — the right move is to retransmit to
    /// the **same** anycast address and let routing reconverge to the
    /// next site, not to flee to the cloud. A SERVFAIL or REFUSED is an
    /// affirmative *"the MEC federation cannot resolve this"*, so only
    /// then does the query leave the edge for `cloud`.
    CloudOnServfail {
        /// The anycast resolver address every federated site advertises.
        anycast: IpAddr,
        /// The cloud resolver of last resort.
        cloud: IpAddr,
    },
}

/// The result of one completed (or failed) query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Caller-supplied correlation tag.
    pub tag: u64,
    /// Queried name.
    pub name: Name,
    /// Queried type.
    pub qtype: RrType,
    /// Response code, or `ServFail` on total timeout.
    pub rcode: Rcode,
    /// A-record addresses in the answer.
    pub addrs: Vec<Ipv4Addr>,
    /// CNAME chain observed in the answer, in order.
    pub cnames: Vec<Name>,
    /// Time from first transmission to the accepted answer.
    pub rtt: SimDuration,
    /// Resolver that provided the accepted answer.
    pub responder: Option<IpAddr>,
    /// True when no resolver answered at all.
    pub timed_out: bool,
    /// True when the answer came from the fallback resolver.
    pub used_fallback: bool,
    /// Scope prefix of the ECS option in the response, if any.
    pub ecs_scope: Option<u8>,
}

struct Pending {
    tag: u64,
    name: Name,
    qtype: RrType,
    strategy: SendStrategy,
    started: SimTime,
    retries_left: u8,
    /// Timeouts observed so far; drives the exponential backoff.
    attempt: u8,
    fallback_sent: bool,
    /// Multicast members that answered SERVFAIL (an affirmative "I
    /// cannot"): the query stays open until someone answers or everyone
    /// has refused.
    servfails: Vec<IpAddr>,
    ecs: Option<ClientSubnet>,
}

/// Client-side query engine: id allocation, retries with exponential
/// backoff, multicast and fallback, SERVFAIL-vs-silence handling, and
/// RTT accounting.
pub struct StubEngine {
    pending: HashMap<u16, Pending>,
    next_id: u16,
    telemetry: Telemetry,
    /// Base timeout: how long the first transmission waits. Each
    /// retransmission doubles the wait (deterministic, jitter-free),
    /// capped at [`StubEngine::max_backoff`].
    pub query_timeout: SimDuration,
    /// Retransmissions before giving up. Applies to every strategy: a
    /// `FallbackOnTimeout` query retransmits to both resolvers after the
    /// fallback is engaged, rather than waiting a single extra timeout.
    pub retries: u8,
    /// Upper bound on one backoff interval.
    pub max_backoff: SimDuration,
    /// Completed queries, in completion order.
    pub outcomes: Vec<QueryOutcome>,
}

impl Default for StubEngine {
    fn default() -> Self {
        StubEngine::new()
    }
}

impl StubEngine {
    /// An engine with the defaults used throughout the experiments:
    /// 3-second timeout, 1 retry, 30-second backoff cap.
    pub fn new() -> Self {
        StubEngine {
            pending: HashMap::new(),
            next_id: 1,
            telemetry: Telemetry::default(),
            query_timeout: SimDuration::from_secs(3),
            retries: 1,
            max_backoff: SimDuration::from_secs(30),
            outcomes: Vec::new(),
        }
    }

    /// The wait after the `attempt`-th timeout: `query_timeout * 2^attempt`,
    /// capped at `max_backoff`. Purely a function of configuration — no
    /// random jitter — so retry timelines are reproducible.
    fn backoff(&self, attempt: u8) -> SimDuration {
        let shift = u32::from(attempt.min(16));
        let ns = self.query_timeout.as_nanos().saturating_mul(1u64 << shift);
        SimDuration::from_nanos(ns).min(self.max_backoff)
    }

    /// Routes this engine's telemetry into `t`. The engine is the only
    /// component that opens traces: one per issued query, keyed by its
    /// DNS transaction id — the same id the P-GW tap sees in the wire
    /// payloads, which is what makes trace-vs-tap cross-validation
    /// possible. Every other mark lands on such a trace or nowhere.
    pub fn set_telemetry(&mut self, t: Telemetry) {
        self.telemetry = t;
    }

    /// True if the timer `data` belongs to this engine and must be passed
    /// to [`StubEngine::on_timer`].
    pub fn owns_timer(data: u64) -> bool {
        data & TAG_MASK == TAG_STUB
    }

    /// Number of queries still awaiting an answer.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Issues a query. `tag` is returned in the outcome for correlation;
    /// `ecs` optionally attaches a client-subnet option (the §4 ECS
    /// experiments).
    pub fn issue(
        &mut self,
        ctx: &mut NodeContext<'_>,
        name: Name,
        qtype: RrType,
        strategy: SendStrategy,
        ecs: Option<ClientSubnet>,
        tag: u64,
    ) -> u16 {
        let id = self.alloc_id();
        let pending = Pending {
            tag,
            name: name.clone(),
            qtype,
            strategy: strategy.clone(),
            started: ctx.now(),
            retries_left: self.retries,
            attempt: 0,
            fallback_sent: false,
            servfails: Vec::new(),
            ecs,
        };
        self.pending.insert(id, pending);
        self.telemetry.incr("stub.query");
        self.telemetry
            .open(u64::from(id), ctx.now(), "stub.issue", &name);
        match &strategy {
            SendStrategy::Unicast(server) => {
                self.transmit(ctx, id, *server);
                ctx.set_timer(self.query_timeout, TAG_STUB | u64::from(id));
            }
            SendStrategy::Multicast(servers) => {
                for s in servers {
                    self.transmit(ctx, id, *s);
                }
                ctx.set_timer(self.query_timeout, TAG_STUB | u64::from(id));
            }
            SendStrategy::FallbackOnTimeout {
                primary, timeout, ..
            } => {
                self.transmit(ctx, id, *primary);
                ctx.set_timer(*timeout, TAG_STUB | u64::from(id));
            }
            SendStrategy::CloudOnServfail { anycast, .. } => {
                self.transmit(ctx, id, *anycast);
                ctx.set_timer(self.query_timeout, TAG_STUB | u64::from(id));
            }
        }
        id
    }

    fn alloc_id(&mut self) -> u16 {
        for _ in 0..=u16::MAX {
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1).max(1);
            if !self.pending.contains_key(&id) {
                return id;
            }
        }
        // detlint: allow(hot-panic) — reaching 65535 simultaneously
        // in-flight queries means the driving experiment is wedged;
        // aborting is more honest than silently reusing a live id.
        panic!("65535 concurrent stub queries");
    }

    fn transmit(&self, ctx: &mut NodeContext<'_>, id: u16, server: IpAddr) {
        let Some(p) = self.pending.get(&id) else {
            return; // query already completed; nothing to retransmit
        };
        let mut q = Message::query(id, p.name.clone(), p.qtype);
        q.header.recursion_desired = true;
        if let Some(cs) = p.ecs {
            q = q.with_client_subnet(cs);
        }
        let Ok(bytes) = q.encode() else {
            return; // unencodable query: drop it, let the timer expire it
        };
        ctx.send(server, DNS_PORT, bytes);
    }

    /// Feeds a datagram to the engine. Returns the completed outcome if
    /// this datagram finished a query; `None` if it was consumed as a
    /// duplicate/late answer, a SERVFAIL the engine keeps working around,
    /// or was not DNS at all.
    ///
    /// SERVFAIL is treated as an affirmative refusal, distinct from
    /// silence: a `FallbackOnTimeout` primary's SERVFAIL engages the
    /// fallback immediately instead of waiting out the timer, and a
    /// multicast query only fails once *every* member has refused.
    pub fn on_datagram(
        &mut self,
        ctx: &mut NodeContext<'_>,
        dgram: &Datagram,
    ) -> Option<QueryOutcome> {
        let msg = Message::decode(&dgram.payload).ok()?;
        if !msg.header.is_response {
            return None;
        }
        let id = msg.header.id;
        let rcode = msg.header.rcode;
        if rcode == Rcode::ServFail || rcode == Rcode::Refused {
            let p = self.pending.get_mut(&id)?;
            match p.strategy.clone() {
                SendStrategy::FallbackOnTimeout {
                    primary, fallback, ..
                } if rcode == Rcode::ServFail && !p.fallback_sent && dgram.src == primary => {
                    // The primary affirmatively refused — no point
                    // waiting for its timer before trying the fallback.
                    p.fallback_sent = true;
                    self.telemetry.incr("stub.servfail");
                    self.telemetry
                        .mark(u64::from(id), ctx.now(), "stub.servfail", fallback);
                    self.transmit(ctx, id, fallback);
                    ctx.set_timer(self.query_timeout, TAG_STUB | u64::from(id));
                    return None;
                }
                SendStrategy::CloudOnServfail { anycast, cloud }
                    if !p.fallback_sent && dgram.src == anycast =>
                {
                    // The federation affirmatively cannot resolve this
                    // name (SERVFAIL *or* REFUSED) — that is "resolution
                    // failed", the one case that leaves the edge for the
                    // cloud resolver.
                    p.fallback_sent = true;
                    self.telemetry.incr("stub.servfail");
                    self.telemetry
                        .mark(u64::from(id), ctx.now(), "stub.servfail", cloud);
                    self.transmit(ctx, id, cloud);
                    ctx.set_timer(self.query_timeout, TAG_STUB | u64::from(id));
                    return None;
                }
                SendStrategy::Multicast(servers) if rcode == Rcode::ServFail => {
                    if !p.servfails.contains(&dgram.src) {
                        p.servfails.push(dgram.src);
                    }
                    self.telemetry.incr("stub.servfail");
                    if p.servfails.len() < servers.len() {
                        // Someone else may still answer; hold the query
                        // open (its timer is the backstop).
                        return None;
                    }
                    // Everyone refused: fall through and complete with
                    // the SERVFAIL (an answer, not a timeout).
                }
                _ => {}
            }
        }
        let pending = self.pending.remove(&id)?;
        let used_fallback = match &pending.strategy {
            SendStrategy::FallbackOnTimeout { fallback, .. } => dgram.src == *fallback,
            SendStrategy::CloudOnServfail { cloud, .. } => dgram.src == *cloud,
            _ => false,
        };
        let mut cnames = Vec::new();
        for rec in &msg.answers {
            if let Some(target) = rec.rdata.as_cname() {
                cnames.push(target.clone());
            }
        }
        let outcome = QueryOutcome {
            tag: pending.tag,
            name: pending.name,
            qtype: pending.qtype,
            rcode: msg.header.rcode,
            addrs: msg.answer_a_addrs(),
            cnames,
            rtt: ctx.now() - pending.started,
            responder: Some(dgram.src),
            timed_out: false,
            used_fallback,
            ecs_scope: msg.client_subnet().map(|cs| cs.scope_prefix),
        };
        self.telemetry.observe("stub.rtt", outcome.rtt);
        self.telemetry.mark(
            u64::from(msg.header.id),
            ctx.now(),
            "stub.answer",
            dgram.src,
        );
        self.outcomes.push(outcome.clone());
        Some(outcome)
    }

    /// Feeds an engine timer. Returns a final (failed) outcome when the
    /// query is abandoned.
    pub fn on_timer(&mut self, ctx: &mut NodeContext<'_>, data: u64) -> Option<QueryOutcome> {
        debug_assert!(Self::owns_timer(data));
        let id = (data & !TAG_MASK) as u16;
        let p = self.pending.get_mut(&id)?;
        match p.strategy.clone() {
            SendStrategy::FallbackOnTimeout { fallback, .. } if !p.fallback_sent => {
                // Primary silent: engage the fallback, then wait the full
                // query timeout for either to answer. Engaging the
                // fallback is strategy, not a retry — it does not touch
                // the budget or the backoff clock.
                p.fallback_sent = true;
                self.telemetry.incr("stub.fallback");
                self.telemetry
                    .mark(u64::from(id), ctx.now(), "stub.fallback", fallback);
                self.transmit(ctx, id, fallback);
                ctx.set_timer(self.query_timeout, TAG_STUB | u64::from(id));
                None
            }
            SendStrategy::Unicast(server) if p.retries_left > 0 => {
                p.retries_left -= 1;
                p.attempt = p.attempt.saturating_add(1);
                let attempt = p.attempt;
                let wait = self.backoff(attempt);
                self.telemetry.incr("stub.retry");
                self.telemetry
                    .mark(u64::from(id), ctx.now(), "stub.retry", server);
                self.transmit(ctx, id, server);
                ctx.set_timer(wait, TAG_STUB | u64::from(id));
                None
            }
            SendStrategy::Multicast(servers) if p.retries_left > 0 => {
                p.retries_left -= 1;
                p.attempt = p.attempt.saturating_add(1);
                let attempt = p.attempt;
                let wait = self.backoff(attempt);
                self.telemetry.incr("stub.retry");
                self.telemetry.mark(
                    u64::from(id),
                    ctx.now(),
                    "stub.retry",
                    format_args!("x{}", servers.len()),
                );
                for s in &servers {
                    self.transmit(ctx, id, *s);
                }
                ctx.set_timer(wait, TAG_STUB | u64::from(id));
                None
            }
            SendStrategy::FallbackOnTimeout {
                primary, fallback, ..
            } if p.retries_left > 0 => {
                // Fallback engaged and still silence: retransmit to both
                // within the budget, backing off, instead of abandoning
                // after one extra wait (or retrying a dead primary
                // forever).
                p.retries_left -= 1;
                p.attempt = p.attempt.saturating_add(1);
                let attempt = p.attempt;
                let wait = self.backoff(attempt);
                self.telemetry.incr("stub.retry");
                self.telemetry
                    .mark(u64::from(id), ctx.now(), "stub.retry", fallback);
                self.transmit(ctx, id, primary);
                self.transmit(ctx, id, fallback);
                ctx.set_timer(wait, TAG_STUB | u64::from(id));
                None
            }
            SendStrategy::CloudOnServfail { anycast, cloud } if p.retries_left > 0 => {
                // Silence on an anycast address means the catchment site
                // died mid-flight. The address itself is still right —
                // routing is reconverging to the next site — so
                // retransmit to the *same* anycast address, backing off.
                // (If a SERVFAIL already sent us to the cloud, keep that
                // leg warm too.)
                p.retries_left -= 1;
                p.attempt = p.attempt.saturating_add(1);
                let attempt = p.attempt;
                let engaged = p.fallback_sent;
                let wait = self.backoff(attempt);
                self.telemetry.incr("stub.retry");
                self.telemetry
                    .mark(u64::from(id), ctx.now(), "stub.retry", anycast);
                self.transmit(ctx, id, anycast);
                if engaged {
                    self.transmit(ctx, id, cloud);
                }
                ctx.set_timer(wait, TAG_STUB | u64::from(id));
                None
            }
            _ => {
                let p = self.pending.remove(&id)?;
                self.telemetry.incr("stub.timeout");
                self.telemetry.mark(u64::from(id), ctx.now(), "stub.timeout", "");
                let outcome = QueryOutcome {
                    tag: p.tag,
                    name: p.name,
                    qtype: p.qtype,
                    rcode: Rcode::ServFail,
                    addrs: Vec::new(),
                    cnames: Vec::new(),
                    rtt: ctx.now() - p.started,
                    responder: None,
                    timed_out: true,
                    used_fallback: false,
                    ecs_scope: None,
                };
                self.outcomes.push(outcome.clone());
                Some(outcome)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_tag_roundtrip() {
        assert!(StubEngine::owns_timer(TAG_STUB | 42));
        assert!(!StubEngine::owns_timer(42));
        assert!(!StubEngine::owns_timer(0x11 << 56));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = StubEngine::new();
        e.query_timeout = SimDuration::from_millis(250);
        e.max_backoff = SimDuration::from_secs(1);
        assert_eq!(e.backoff(0), SimDuration::from_millis(250));
        assert_eq!(e.backoff(1), SimDuration::from_millis(500));
        assert_eq!(e.backoff(2), SimDuration::from_secs(1));
        assert_eq!(e.backoff(3), SimDuration::from_secs(1), "capped");
        assert_eq!(e.backoff(200), SimDuration::from_secs(1), "shift-safe");
    }
}
