//! Checks every reply of the serving workloads.
//!
//! A reply passes when it echoes the query's id and question, is a
//! NOERROR response, carries an A record naming one of the topology's
//! caches, and names the same cache every time the same name is asked
//! (the Traffic Router's consistent hash).

use dns_wire::{Message, Rcode};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Why a query failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No reply within the timeout.
    Timeout,
    /// A reply whose id is not the query's.
    IdMismatch,
    /// A reply that does not echo the question.
    QuestionMismatch,
    /// A reply that does not decode, or is not a response.
    Malformed,
    /// A reply with an rcode other than NOERROR.
    Rcode,
    /// A reply with no A record, or one outside the caches.
    WrongAnswer,
    /// A name answered with a different cache than before.
    Inconsistent,
}

/// Reply checker with the name → cache assignment seen so far.
pub struct Checker {
    caches: Vec<Ipv4Addr>,
    assigned: HashMap<u64, Ipv4Addr>,
}

impl Checker {
    /// A checker that accepts only addresses in `caches`.
    pub fn new(caches: Vec<Ipv4Addr>) -> Self {
        Checker {
            caches,
            assigned: HashMap::new(),
        }
    }

    /// Checks `reply` against `query` (rank `k`, whose question section
    /// is `question_len` bytes long).
    pub fn check(
        &mut self,
        k: u64,
        query: &[u8],
        question_len: usize,
        reply: &[u8],
    ) -> Result<(), Fault> {
        if reply.len() < 12 {
            return Err(Fault::Malformed);
        }
        if reply[..2] != query[..2] {
            return Err(Fault::IdMismatch);
        }
        let question = 12..12 + question_len;
        if reply.get(question.clone()) != query.get(question) {
            return Err(Fault::QuestionMismatch);
        }
        let msg = Message::decode(reply).map_err(|_| Fault::Malformed)?;
        if !msg.header.is_response {
            return Err(Fault::Malformed);
        }
        if msg.header.rcode != Rcode::NoError {
            return Err(Fault::Rcode);
        }
        let addr = match msg.answer_a_addrs().first() {
            Some(a) if self.caches.contains(a) => *a,
            _ => return Err(Fault::WrongAnswer),
        };
        if *self.assigned.entry(k).or_insert(addr) != addr {
            return Err(Fault::Inconsistent);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::QueryTemplate;
    use cdn_sim::ServeTopology;
    use dns_server::ServeEngine;
    use netsim::SimTime;
    use std::net::{IpAddr, Ipv4Addr};

    /// A query for rank `k` and the engine's real reply to it.
    fn exchange(
        engine: &mut ServeEngine,
        template: &QueryTemplate,
        id: u16,
        k: u64,
    ) -> (Vec<u8>, Vec<u8>) {
        let mut query = Vec::new();
        template.write(id, k, &mut query);
        let msg = Message::decode(&query).expect("query decodes");
        let reply = engine
            .resolve(SimTime::ZERO, IpAddr::V4(Ipv4Addr::LOCALHOST), 5353, &msg)
            .expect("answered")
            .encode()
            .expect("reply encodes");
        (query, reply)
    }

    #[test]
    fn real_replies_pass_and_injected_faults_fail() {
        let topo = ServeTopology::default();
        let template = QueryTemplate::new(&topo);
        let mut engine = topo.engine();
        let mut checker = Checker::new(topo.caches.clone());
        let (query, reply) = exchange(&mut engine, &template, 42, 7);
        let qlen = template.question_len(7);
        assert_eq!(checker.check(7, &query, qlen, &reply), Ok(()));

        let mut wrong_id = reply.clone();
        wrong_id[1] ^= 1;
        assert_eq!(
            checker.check(7, &query, qlen, &wrong_id),
            Err(Fault::IdMismatch)
        );

        // Another name's reply under this query's id.
        let (_, other) = exchange(&mut engine, &template, 42, 8);
        assert_eq!(
            checker.check(7, &query, qlen, &other),
            Err(Fault::QuestionMismatch)
        );

        let mut servfail = reply.clone();
        servfail[3] = (servfail[3] & 0xF0) | 2;
        assert_eq!(checker.check(7, &query, qlen, &servfail), Err(Fault::Rcode));

        // The A record's last octet moved off every cache address.
        let mut not_a_cache = reply.clone();
        let last = not_a_cache.len() - 1;
        not_a_cache[last] = 200;
        assert_eq!(
            checker.check(7, &query, qlen, &not_a_cache),
            Err(Fault::WrongAnswer)
        );

        assert_eq!(
            checker.check(7, &query, qlen, &reply[..5]),
            Err(Fault::Malformed)
        );
    }

    #[test]
    fn a_name_that_moves_between_caches_fails() {
        let topo = ServeTopology::default();
        let template = QueryTemplate::new(&topo);
        let mut engine = topo.engine();
        let mut checker = Checker::new(topo.caches.clone());
        let (query, reply) = exchange(&mut engine, &template, 1, 3);
        let qlen = template.question_len(3);
        assert_eq!(checker.check(3, &query, qlen, &reply), Ok(()));
        let served = Message::decode(&reply).unwrap().answer_a_addrs()[0];
        let other = topo.caches.iter().find(|&&c| c != served).unwrap();
        let mut moved = reply.clone();
        let last = moved.len() - 1;
        moved[last] = other.octets()[3];
        assert_eq!(
            checker.check(3, &query, qlen, &moved),
            Err(Fault::Inconsistent)
        );
    }
}
