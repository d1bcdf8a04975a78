//! Property-based tests for zone lookup and cache invariants.

use dns_server::{DnsCache, LookupResult, Zone};
use dns_wire::{Name, RData, Rcode, Record, RrClass, RrType};
use netsim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]{1,8}").unwrap()
}

fn arb_subname(apex: &'static str) -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..3).prop_map(move |labels| {
        let mut s = labels.join(".");
        if !s.is_empty() {
            s.push('.');
        }
        s.push_str(apex);
        Name::parse(&s).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn zone_lookup_never_panics_and_classifies_consistently(
        names in proptest::collection::vec(arb_subname("zone.test"), 1..20),
        queries in proptest::collection::vec(arb_subname("zone.test"), 1..20),
    ) {
        let mut zone = Zone::new(Name::parse("zone.test").unwrap());
        for (i, n) in names.iter().enumerate() {
            zone.add_a(n.clone(), Ipv4Addr::from(u32::try_from(i).unwrap() + 1), 60);
        }
        for q in &queries {
            match zone.lookup(q, RrType::A) {
                LookupResult::Answer(recs) => {
                    prop_assert!(!recs.is_empty());
                    // Every returned record is owned by the queried name.
                    for r in &recs {
                        prop_assert_eq!(&r.name, q);
                    }
                    prop_assert!(names.contains(q));
                }
                LookupResult::NxDomain => {
                    // No record owner may sit at or below the name.
                    prop_assert!(!names.iter().any(|n| n.is_subdomain_of(q)));
                }
                LookupResult::NoData => {
                    // The name exists in the tree but has no A records
                    // of its own.
                    prop_assert!(!names.contains(q));
                    prop_assert!(names.iter().any(|n| n.is_subdomain_of(q)));
                }
                LookupResult::Referral { .. } => {
                    prop_assert!(false, "no delegations were added");
                }
                LookupResult::NotAuthoritative => {
                    prop_assert!(false, "query is inside the apex by construction");
                }
            }
        }
    }

    #[test]
    fn zone_queries_for_types_not_added_are_nodata_or_nxdomain(
        names in proptest::collection::vec(arb_subname("zone.test"), 1..10),
    ) {
        let mut zone = Zone::new(Name::parse("zone.test").unwrap());
        for n in &names {
            zone.add_a(n.clone(), Ipv4Addr::new(1, 2, 3, 4), 60);
        }
        for n in &names {
            match zone.lookup(n, RrType::Txt) {
                LookupResult::NoData => {}
                other => prop_assert!(false, "expected NoData, got {other:?}"),
            }
        }
    }

    #[test]
    fn cache_never_serves_expired_entries(
        ttl in 1u32..1000,
        probe_offset in 0u64..2000,
    ) {
        let mut cache = DnsCache::new(8);
        let name = Name::parse("x.test").unwrap();
        let rec = Record::new(
            name.clone(),
            RrClass::In,
            ttl,
            RData::A(Ipv4Addr::new(9, 9, 9, 9)),
        );
        cache.insert(&name, RrType::A, vec![rec], SimTime::ZERO);
        let probe = SimTime::ZERO + SimDuration::from_secs(probe_offset);
        match cache.get(&name, RrType::A, probe) {
            Some(hit) => {
                prop_assert!(probe_offset < u64::from(ttl), "served after expiry");
                prop_assert_eq!(hit.rcode, Rcode::NoError);
                let recs: Vec<Record> = hit.decayed_records().collect();
                // Served TTL never exceeds remaining lifetime.
                prop_assert!(u64::from(recs[0].ttl) <= u64::from(ttl) - probe_offset
                    || recs[0].ttl == 1);
            }
            None => {
                prop_assert!(probe_offset >= u64::from(ttl), "dropped a live entry");
            }
        }
    }

    #[test]
    fn cache_capacity_is_respected(
        capacity in 1usize..16,
        inserts in 1usize..64,
    ) {
        let mut cache = DnsCache::new(capacity);
        for i in 0..inserts {
            let name = Name::parse(&format!("h{i}.test")).unwrap();
            let rec = Record::new(
                name.clone(),
                RrClass::In,
                300,
                RData::A(Ipv4Addr::new(10, 0, 0, 1)),
            );
            cache.insert(&name, RrType::A, vec![rec], SimTime::ZERO);
            prop_assert!(cache.len() <= capacity, "cache grew past capacity");
        }
    }

    #[test]
    fn cache_hit_returns_what_was_inserted(
        octets in any::<u32>(),
        ttl in 1u32..3600,
    ) {
        let mut cache = DnsCache::new(4);
        let name = Name::parse("exact.test").unwrap();
        let addr = Ipv4Addr::from(octets);
        let rec = Record::new(name.clone(), RrClass::In, ttl, RData::A(addr));
        cache.insert(&name, RrType::A, vec![rec], SimTime::ZERO);
        let hit = cache.get(&name, RrType::A, SimTime::ZERO).unwrap();
        prop_assert_eq!(hit.records[0].rdata.as_a(), Some(addr));
    }
}
