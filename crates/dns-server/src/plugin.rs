//! The plugin chain: CoreDNS-style query handling.
//!
//! A [`crate::resolver::Resolver`] core owns an ordered list of
//! [`Plugin`]s. For each query, plugins are consulted in order until one
//! returns a decision other than [`PluginDecision::Continue`]. Plugins
//! also observe upstream responses via [`Plugin::on_response`].

use dns_wire::Message;
use netsim::{SimTime, Telemetry};
use std::net::IpAddr;

/// Per-query context a plugin sees.
#[derive(Debug, Clone)]
pub struct QueryCtx {
    /// Virtual time the query is being processed.
    pub now: SimTime,
    /// Address the query came from. For the split-horizon decision this
    /// is the client as the server sees it — behind a P-GW NAT that is
    /// the gateway's address, reproducing the obfuscation the paper
    /// describes in §1.
    pub client: IpAddr,
    /// Client source port.
    pub client_port: u16,
    /// Where plugins record counters and resolution breadcrumbs. A
    /// breadcrumb lands only on a trace the query's stub opened; on any
    /// other id it is dropped unformatted. A default handle is a private
    /// store, so tests and callers that don't collect telemetry
    /// construct it with `Telemetry::default()`.
    pub telemetry: Telemetry,
}

/// What a plugin wants done with a query.
#[derive(Debug)]
pub enum PluginDecision {
    /// Send this response to the client now.
    Respond(Message),
    /// Forward the query to an upstream server; the response is relayed
    /// back to the client (passing through every plugin's
    /// [`Plugin::on_response`]).
    Forward {
        /// Upstream server address (port [`crate::DNS_PORT`]).
        upstream: IpAddr,
    },
    /// Resolve iteratively starting from these root servers, then respond.
    Recurse {
        /// Root server addresses.
        roots: Vec<IpAddr>,
    },
    /// Drop the query without responding — the paper's "have the MEC DNS
    /// ignore queries not related to MEC-CDN" workaround.
    Ignore,
    /// This plugin has no opinion; ask the next one.
    Continue,
}

/// A query-processing stage.
pub trait Plugin: std::any::Any {
    /// Short name for diagnostics.
    fn name(&self) -> &'static str;

    /// Examines a query and decides what to do with it.
    fn on_query(&mut self, ctx: &QueryCtx, query: &Message) -> PluginDecision;

    /// Observes a response obtained from an upstream (forward or
    /// recursion) before it is sent to the client. May mutate it.
    fn on_response(&mut self, _ctx: &QueryCtx, _response: &mut Message) {}

    /// Observes the fate of an upstream exchange the core ran on this
    /// plugin chain's behalf: `ok = true` when `upstream` answered,
    /// `false` when it exhausted the retry budget in silence. How the
    /// forward plugin's health tracker learns which upstreams are dead
    /// without doing its own I/O.
    fn on_upstream_event(&mut self, _now: SimTime, _upstream: IpAddr, _ok: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Name, RrType};

    struct Always(&'static str);
    impl Plugin for Always {
        fn name(&self) -> &'static str {
            self.0
        }
        fn on_query(&mut self, _ctx: &QueryCtx, q: &Message) -> PluginDecision {
            PluginDecision::Respond(Message::response_to(q))
        }
    }

    #[test]
    fn plugin_trait_is_object_safe() {
        let mut plugins: Vec<Box<dyn Plugin>> = vec![Box::new(Always("a"))];
        let q = Message::query(1, Name::parse("x.test").unwrap(), RrType::A);
        let ctx = QueryCtx {
            now: SimTime::ZERO,
            client: "10.0.0.1".parse().unwrap(),
            client_port: 5000,
            telemetry: Telemetry::default(),
        };
        match plugins[0].on_query(&ctx, &q) {
            PluginDecision::Respond(r) => assert!(r.header.is_response),
            _ => panic!("expected respond"),
        }
        assert_eq!(plugins[0].name(), "a");
    }
}
