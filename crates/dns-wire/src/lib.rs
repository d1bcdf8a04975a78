#![warn(missing_docs)]

//! `dns-wire` — DNS wire format implemented from scratch.
//!
//! This crate provides the on-the-wire representation of DNS used by every
//! other crate in the workspace: domain [`Name`]s with RFC 1035 message
//! compression, the message [`Header`] with its flag bits, resource records
//! ([`Record`] / [`RData`]) for the types the MEC-CDN system exercises
//! (A, AAAA, CNAME, NS, SOA, PTR, TXT, MX, SRV and OPT), EDNS(0) and the
//! EDNS Client Subnet option of RFC 7871 ([`edns::ClientSubnet`]), and the
//! top-level [`Message`] encoder/decoder.
//!
//! # Implemented
//!
//! * RFC 1035 names, including compression pointers on encode and decode,
//!   label / name length limits, and case-insensitive equality.
//! * Query/response messages with arbitrary section contents.
//! * EDNS(0) OPT pseudo-records: extended RCODE, version, the DO bit and
//!   the requestor's UDP payload size.
//! * The Client Subnet option: family, source/scope prefix lengths, and
//!   address bits truncated to the source prefix as the RFC requires.
//!
//! # Omitted (deliberately)
//!
//! * DNSSEC records and validation — orthogonal to the paper's latency
//!   argument.
//! * Zone transfer (AXFR/IXFR) and dynamic update.
//! * Obsolete or exotic RR types; unknown types round-trip as opaque
//!   [`RData::Unknown`] bytes instead.
//!
//! # Example
//!
//! ```
//! use dns_wire::{Message, Name, RrType, RrClass, Record, RData};
//! use std::net::Ipv4Addr;
//!
//! let mut query = Message::query(0x1234, Name::parse("video.demo1.mycdn.ciab.test").unwrap(), RrType::A);
//! query.header.recursion_desired = true;
//! let bytes = query.encode().unwrap();
//! let decoded = Message::decode(&bytes).unwrap();
//! assert_eq!(decoded.questions[0].qname.to_string(), "video.demo1.mycdn.ciab.test.");
//!
//! let mut reply = Message::response_to(&decoded);
//! reply.answers.push(Record::new(
//!     decoded.questions[0].qname.clone(),
//!     RrClass::In,
//!     30,
//!     RData::A(Ipv4Addr::new(10, 96, 0, 10)),
//! ));
//! let bytes = reply.encode().unwrap();
//! assert!(Message::decode(&bytes).unwrap().header.is_response);
//! ```

pub mod edns;
pub mod error;
pub mod header;
pub mod message;
pub mod name;
pub mod presentation;
pub mod rdata;
pub mod record;
pub mod wire;

pub use edns::{ClientSubnet, EdnsOption, Opt};
pub use error::WireError;
pub use header::{Header, Opcode, Rcode};
pub use message::{Message, Question, CLASSIC_UDP_PAYLOAD};
pub use name::Name;
pub use presentation::PresentationError;
pub use rdata::RData;
pub use record::{Record, RrClass, RrType};
