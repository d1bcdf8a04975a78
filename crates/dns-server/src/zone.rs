//! Authoritative zone data and lookup semantics.

use dns_wire::name::{key_is_subdomain_of, suffixes, MAX_LABELS, MAX_NAME_LEN};
use dns_wire::{Name, RData, Record, RrClass, RrType};
use std::collections::HashMap;

/// The result of an authoritative lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupResult {
    /// Records of the requested type at the name (possibly preceded by a
    /// CNAME chain within the zone).
    Answer(Vec<Record>),
    /// The name lies below a delegation: here are the NS records and any
    /// glue addresses the zone holds.
    Referral {
        /// NS records for the delegated child zone.
        ns: Vec<Record>,
        /// A records for the name servers, when the zone has them.
        glue: Vec<Record>,
    },
    /// The name exists but has no records of the requested type.
    NoData,
    /// The name does not exist in this zone.
    NxDomain,
    /// The name is not within this zone's authority at all.
    NotAuthoritative,
}

/// An authoritative zone: an apex name and a record store.
///
/// Lookup follows RFC 1034 §4.3.2: exact-match answers, CNAME
/// substitution (chased within the zone, then surfaced for the resolver
/// to finish), and delegation referrals for names below an NS cut.
#[derive(Debug, Clone)]
pub struct Zone {
    apex: Name,
    /// Records by folded owner name ([`Name::fold_into`]), so lookups
    /// probe with a stack-buffer key and never build `canonical()`
    /// strings.
    records: HashMap<Box<[u8]>, Vec<Record>>,
}

impl Zone {
    /// An empty zone rooted at `apex`.
    pub fn new(apex: Name) -> Self {
        Zone {
            apex,
            records: HashMap::new(),
        }
    }

    /// The zone apex.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// Adds a record.
    ///
    /// # Panics
    /// Panics if the owner name is outside the zone — a configuration
    /// bug, not a runtime condition.
    pub fn add(&mut self, record: Record) -> &mut Self {
        assert!(
            record.name.is_subdomain_of(&self.apex),
            "{} is outside zone {}",
            record.name,
            self.apex
        );
        self.records
            .entry(key(&record.name))
            .or_default()
            .push(record);
        self
    }

    /// Convenience: adds an A record with the given TTL.
    pub fn add_a(&mut self, name: Name, addr: std::net::Ipv4Addr, ttl: u32) -> &mut Self {
        self.add(Record::new(name, RrClass::In, ttl, RData::A(addr)))
    }

    /// Adds a record from presentation format, zone-file style.
    ///
    /// ```
    /// use dns_server::Zone;
    /// use dns_wire::Name;
    /// let mut zone = Zone::new(Name::parse("mycdn.ciab.test").unwrap());
    /// zone.add_str("video.demo1.mycdn.ciab.test. 30 IN A 10.96.0.20").unwrap();
    /// assert_eq!(zone.len(), 1);
    /// ```
    ///
    /// # Errors
    /// Returns the parse error for malformed lines. Panics (like
    /// [`Zone::add`]) if the parsed owner is outside the zone.
    pub fn add_str(&mut self, line: &str) -> Result<&mut Self, dns_wire::PresentationError> {
        let record: Record = line.parse()?;
        Ok(self.add(record))
    }

    /// Adds several presentation-format records, stopping at the first
    /// error.
    pub fn add_lines(&mut self, lines: &str) -> Result<&mut Self, dns_wire::PresentationError> {
        for line in lines.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with(';') {
                continue;
            }
            self.add_str(line)?;
        }
        Ok(self)
    }

    /// Convenience: adds a CNAME record.
    pub fn add_cname(&mut self, name: Name, target: Name, ttl: u32) -> &mut Self {
        self.add(Record::new(name, RrClass::In, ttl, RData::Cname(target)))
    }

    /// Convenience: delegates `child` to a name server, with glue.
    pub fn delegate(
        &mut self,
        child: Name,
        ns_name: Name,
        ns_addr: std::net::Ipv4Addr,
        ttl: u32,
    ) -> &mut Self {
        self.add(Record::new(
            child,
            RrClass::In,
            ttl,
            RData::Ns(ns_name.clone()),
        ));
        // Glue may live outside the zone cut; store it regardless (it is
        // served in the additional section of referrals only).
        self.records
            .entry(key(&ns_name))
            .or_default()
            .push(Record::new(ns_name, RrClass::In, ttl, RData::A(ns_addr)));
        self
    }

    /// Number of records in the zone.
    pub fn len(&self) -> usize {
        self.records.values().map(Vec::len).sum()
    }

    /// True when the zone holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Looks up `qname`/`qtype`.
    pub fn lookup(&self, qname: &Name, qtype: RrType) -> LookupResult {
        if !qname.is_subdomain_of(&self.apex) {
            return LookupResult::NotAuthoritative;
        }
        let mut buf = [0; MAX_NAME_LEN];
        let qkey = qname.fold_into(&mut buf);
        // Key buffer for names found in records (glue, CNAME targets).
        let mut other = [0; MAX_NAME_LEN];
        let apex_key_len = self.apex.encoded_len() - 1;
        // Delegation check: walk from the apex child toward qname; the
        // first NS cut strictly between apex and qname wins (unless the
        // query is for the cut's NS records themselves at the apex). The
        // candidates are suffixes of qname's folded key, collected on
        // the stack and visited apex-side first.
        let mut cuts: [&[u8]; MAX_LABELS] = [&[]; MAX_LABELS];
        let mut ncuts = 0;
        let below_apex = suffixes(qkey).take_while(|s| s.len() > apex_key_len);
        for (slot, cut) in cuts.iter_mut().zip(below_apex) {
            *slot = cut;
            ncuts += 1;
        }
        for &candidate in cuts.get(..ncuts).unwrap_or_default().iter().rev() {
            if candidate.len() == qkey.len() && qtype == RrType::Ns {
                break; // asking for the delegation itself: answer below
            }
            if let Some(recs) = self.records.get(candidate) {
                let ns: Vec<Record> = recs
                    .iter()
                    .filter(|r| r.rrtype() == RrType::Ns)
                    .cloned()
                    .collect();
                if !ns.is_empty() {
                    let mut glue = Vec::new();
                    for n in &ns {
                        if let RData::Ns(target) = &n.rdata {
                            if let Some(g) = self.records.get(target.fold_into(&mut other)) {
                                glue.extend(
                                    g.iter().filter(|r| r.rrtype() == RrType::A).cloned(),
                                );
                            }
                        }
                    }
                    return LookupResult::Referral { ns, glue };
                }
            }
        }
        // Exact-name lookup with in-zone CNAME chasing.
        let mut answers: Vec<Record> = Vec::new();
        let mut current = qkey;
        for _ in 0..8 {
            match self.records.get(current) {
                Some(recs) => {
                    let typed: Vec<Record> = recs
                        .iter()
                        .filter(|r| r.rrtype() == qtype)
                        .cloned()
                        .collect();
                    if !typed.is_empty() {
                        answers.extend(typed);
                        return LookupResult::Answer(answers);
                    }
                    let cname = recs.iter().find(|r| r.rrtype() == RrType::Cname);
                    match (cname, qtype) {
                        (Some(c), t) if t != RrType::Cname => {
                            answers.push(c.clone());
                            if let RData::Cname(target) = &c.rdata {
                                if target.is_subdomain_of(&self.apex) {
                                    current = target.fold_into(&mut other);
                                    continue;
                                }
                            }
                            // Chain leaves the zone: surface what we have.
                            return LookupResult::Answer(answers);
                        }
                        _ => {
                            return if answers.is_empty() {
                                LookupResult::NoData
                            } else {
                                LookupResult::Answer(answers)
                            };
                        }
                    }
                }
                None => {
                    return if answers.is_empty() {
                        if self.name_exists(current) {
                            LookupResult::NoData
                        } else {
                            LookupResult::NxDomain
                        }
                    } else {
                        LookupResult::Answer(answers)
                    };
                }
            }
        }
        // CNAME loop inside the zone: treat as server failure upstream.
        LookupResult::Answer(answers)
    }

    /// "Empty non-terminal" check: a name exists if any record owner is
    /// at or below it.
    fn name_exists(&self, name: &[u8]) -> bool {
        self.records.keys().any(|k| key_is_subdomain_of(k, name))
    }
}

/// The records-map key of an owner name.
fn key(name: &Name) -> Box<[u8]> {
    name.fold_into(&mut [0; MAX_NAME_LEN]).into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn cdn_zone() -> Zone {
        let mut z = Zone::new(n("mycdn.ciab.test"));
        z.add_a(n("cache-1.mycdn.ciab.test"), Ipv4Addr::new(10, 0, 0, 11), 30)
            .add_a(n("cache-1.mycdn.ciab.test"), Ipv4Addr::new(10, 0, 0, 12), 30)
            .add_cname(n("video.demo1.mycdn.ciab.test"), n("cache-1.mycdn.ciab.test"), 60);
        z
    }

    #[test]
    fn answers_exact_match_with_all_records() {
        let z = cdn_zone();
        match z.lookup(&n("cache-1.mycdn.ciab.test"), RrType::A) {
            LookupResult::Answer(recs) => assert_eq!(recs.len(), 2),
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn chases_in_zone_cname() {
        let z = cdn_zone();
        match z.lookup(&n("video.demo1.mycdn.ciab.test"), RrType::A) {
            LookupResult::Answer(recs) => {
                assert_eq!(recs[0].rrtype(), RrType::Cname);
                assert_eq!(recs.len(), 3, "CNAME + 2 A records");
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn cname_query_returns_the_cname_itself() {
        let z = cdn_zone();
        match z.lookup(&n("video.demo1.mycdn.ciab.test"), RrType::Cname) {
            LookupResult::Answer(recs) => {
                assert_eq!(recs.len(), 1);
                assert_eq!(recs[0].rrtype(), RrType::Cname);
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn out_of_zone_cname_target_is_surfaced_not_chased() {
        let mut z = Zone::new(n("example.com"));
        z.add_cname(n("www.example.com"), n("cdn.other.net"), 60);
        match z.lookup(&n("www.example.com"), RrType::A) {
            LookupResult::Answer(recs) => {
                assert_eq!(recs.len(), 1);
                assert_eq!(
                    recs[0].rdata.as_cname().unwrap(),
                    &n("cdn.other.net")
                );
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn nxdomain_vs_nodata() {
        let z = cdn_zone();
        assert_eq!(
            z.lookup(&n("missing.mycdn.ciab.test"), RrType::A),
            LookupResult::NxDomain
        );
        assert_eq!(
            z.lookup(&n("cache-1.mycdn.ciab.test"), RrType::Txt),
            LookupResult::NoData
        );
        // Empty non-terminal: demo1.mycdn.ciab.test has a child but no
        // records of its own → NoData, not NXDOMAIN.
        assert_eq!(
            z.lookup(&n("demo1.mycdn.ciab.test"), RrType::A),
            LookupResult::NoData
        );
    }

    #[test]
    fn not_authoritative_outside_apex() {
        let z = cdn_zone();
        assert_eq!(
            z.lookup(&n("www.google.com"), RrType::A),
            LookupResult::NotAuthoritative
        );
    }

    #[test]
    fn referral_below_delegation_with_glue() {
        let mut z = Zone::new(n("test"));
        z.delegate(
            n("ciab.test"),
            n("ns1.ciab.test"),
            Ipv4Addr::new(10, 0, 0, 2),
            3600,
        );
        match z.lookup(&n("video.demo1.mycdn.ciab.test"), RrType::A) {
            LookupResult::Referral { ns, glue } => {
                assert_eq!(ns.len(), 1);
                assert_eq!(glue.len(), 1);
                assert_eq!(glue[0].rdata.as_a(), Some(Ipv4Addr::new(10, 0, 0, 2)));
            }
            other => panic!("expected referral, got {other:?}"),
        }
    }

    #[test]
    fn ns_query_at_the_cut_answers_instead_of_referring() {
        let mut z = Zone::new(n("test"));
        z.delegate(
            n("ciab.test"),
            n("ns1.ciab.test"),
            Ipv4Addr::new(10, 0, 0, 2),
            3600,
        );
        match z.lookup(&n("ciab.test"), RrType::Ns) {
            LookupResult::Answer(recs) => assert_eq!(recs[0].rrtype(), RrType::Ns),
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn apex_ns_records_do_not_cause_self_referral() {
        let mut z = Zone::new(n("ciab.test"));
        z.add(Record::new(
            n("ciab.test"),
            RrClass::In,
            3600,
            RData::Ns(n("ns1.ciab.test")),
        ));
        z.add_a(n("www.ciab.test"), Ipv4Addr::new(1, 2, 3, 4), 60);
        match z.lookup(&n("www.ciab.test"), RrType::A) {
            LookupResult::Answer(_) => {}
            other => panic!("apex NS wrongly treated as delegation: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn adding_out_of_zone_record_panics() {
        let mut z = Zone::new(n("example.com"));
        z.add_a(n("other.net"), Ipv4Addr::LOCALHOST, 60);
    }

    #[test]
    fn len_and_empty() {
        let mut z = Zone::new(n("x.test"));
        assert!(z.is_empty());
        z.add_a(n("a.x.test"), Ipv4Addr::LOCALHOST, 60);
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }

    #[test]
    fn zone_builds_from_presentation_lines() {
        let mut z = Zone::new(n("mycdn.ciab.test"));
        z.add_lines(
            "; the CDN-in-a-box zone\n\
             video.demo1.mycdn.ciab.test. 60 IN CNAME cache-1.mycdn.ciab.test.\n\
             cache-1.mycdn.ciab.test.     30 IN A     10.96.0.20\n\
             \n\
             mycdn.ciab.test. 3600 IN SOA ns1.mycdn.ciab.test. admin.mycdn.ciab.test. 1 7200 900 1209600 30",
        )
        .unwrap();
        assert_eq!(z.len(), 3);
        match z.lookup(&n("video.demo1.mycdn.ciab.test"), RrType::A) {
            LookupResult::Answer(recs) => assert_eq!(recs.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn add_lines_stops_at_first_error() {
        let mut z = Zone::new(n("x.test"));
        let res = z.add_lines("a.x.test. 60 IN A 1.2.3.4\nbroken line here");
        assert!(res.is_err());
        assert_eq!(z.len(), 1, "records before the error are kept");
    }

    #[test]
    fn root_zone_can_delegate_tlds() {
        let mut root = Zone::new(Name::root());
        root.delegate(n("test"), n("ns.test"), Ipv4Addr::new(10, 9, 9, 9), 86400);
        match root.lookup(&n("anything.under.test"), RrType::A) {
            LookupResult::Referral { ns, glue } => {
                assert_eq!(ns.len(), 1);
                assert_eq!(glue.len(), 1);
            }
            other => panic!("expected referral from root, got {other:?}"),
        }
    }
}
