//! A TTL-honouring, capacity-bounded DNS cache.
//!
//! The paper's Figure 2 analysis leans on caching behaviour: *"for
//! popular websites' CDN domains, the A records TTL never expires at
//! L-DNS and the cached A records are used for lookup"* — which is why
//! step 2 (the A-DNS CNAME lookup) never appears in their measurements.
//! This cache reproduces that: positive and negative entries with
//! absolute expiry in virtual time, TTL decay on read, and LRU eviction
//! at capacity.
//!
//! # Internals
//!
//! The steady-state hit path allocates nothing:
//!
//! * Keys are the qtype followed by the qname's folded wire labels
//!   ([`Name::fold_into`]) — no `canonical()` strings. A lookup builds
//!   its key in a stack buffer and probes with the borrowed slice, so a
//!   miss for a never-seen name is allocation-free too.
//! * Entries live in a slab (`Vec<Slot>` + free list) threaded onto an
//!   index-based doubly-linked LRU list (head = most recent); eviction
//!   pops the tail in O(1) instead of scanning the map for the minimum
//!   `last_used`.
//! * Expired entries are purged via a min-expiry binary heap with lazy
//!   invalidation (per-slot generation stamps), replacing the old
//!   full-map `retain` at capacity inserts with amortized O(log n) work
//!   per entry. Once the heap holds more than twice the capacity in
//!   nodes, the stale ones are dropped in place, so LRU churn cannot
//!   grow it.
//! * Answers are shared `Arc<[Record]>` sets; TTL decay is applied when
//!   the answer is serialized into a response, not by deep-cloning the
//!   record vector inside the cache.
//!
//! The string-keyed reference implementation is kept, for tests only,
//! as `naive::DnsCache`: the equivalence suite drives both side by
//! side, and `timing_gate_cache_churn` holds the new cache to at least
//! 3× the reference's churn throughput.

use dns_wire::name::MAX_NAME_LEN;
use dns_wire::{Name, Rcode, Record, RrType};
use netsim::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, OnceLock};

/// Null index in the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// One second in `SimTime` nanoseconds: the smallest remaining lifetime
/// an entry can be served with. Anything below truncates to TTL 0 on
/// the wire, which downstream caches treat as uncacheable, so both
/// cache implementations expire such entries on lookup instead.
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Writes the cache key for `(name, qtype)` into `buf`: the qtype, then
/// the name's folded wire labels.
fn key<'b>(name: &Name, qtype: RrType, buf: &'b mut [u8; MAX_NAME_LEN + 2]) -> &'b [u8] {
    let (ty, folded) = buf.split_at_mut(2);
    ty.copy_from_slice(&qtype.to_u16().to_be_bytes());
    let n = 2 + name.fold_into(folded).len();
    buf.get(..n).unwrap_or_default()
}

#[derive(Debug, Clone)]
struct Slot {
    /// This slot's index-map key (one allocation shared with the map),
    /// so removing the slot can remove its map entry.
    key: Arc<[u8]>,
    records: Arc<[Record]>,
    rcode: Rcode,
    expires: SimTime,
    /// LRU list neighbours (`NIL`-terminated; head is most recent).
    prev: u32,
    next: u32,
    /// Generation stamp; bumped on every content change or release so
    /// stale expiry-heap nodes can be recognised and discarded.
    stamp: u64,
    live: bool,
}

/// Slab of cache slots threaded onto an index-based doubly-linked LRU
/// list. Index-based (no `unsafe`, no pointer juggling): `u32` slot
/// indices are the links.
#[derive(Debug, Default)]
struct Store {
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

// detlint: allow-item(hot-index) — slot indices are minted by `alloc`
// from `slots.len()` and recycled through `free`; slots are never
// removed, so every stored index stays in bounds for the slab's life.
impl Store {
    fn new() -> Self {
        Store {
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn alloc(
        &mut self,
        key: Arc<[u8]>,
        records: Arc<[Record]>,
        rcode: Rcode,
        expires: SimTime,
    ) -> u32 {
        match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.key = key;
                s.records = records;
                s.rcode = rcode;
                s.expires = expires;
                s.prev = NIL;
                s.next = NIL;
                s.live = true;
                i
            }
            None => {
                // detlint: allow(hot-panic) — 2^32 live cache slots exceeds
                // any configured capacity by orders of magnitude; abort on
                // the impossible rather than wrap an index.
                let i = u32::try_from(self.slots.len()).expect("cache slab overflow");
                self.slots.push(Slot {
                    key,
                    records,
                    rcode,
                    expires,
                    prev: NIL,
                    next: NIL,
                    stamp: 0,
                    live: true,
                });
                i
            }
        }
    }

    /// True when slot `i` is live at generation `stamp`.
    fn is_current(&self, i: u32, stamp: u64) -> bool {
        self.slots.get(i as usize).is_some_and(|s| s.live && s.stamp == stamp)
    }

    /// Unlinks `i` from the LRU list (no-op links afterwards).
    fn detach(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        let s = &mut self.slots[i as usize];
        s.prev = NIL;
        s.next = NIL;
    }

    /// Links a detached `i` at the head (most recently used).
    fn push_front(&mut self, i: u32) {
        let old = self.head;
        self.slots[i as usize].next = old;
        if old == NIL {
            self.tail = i;
        } else {
            self.slots[old as usize].prev = i;
        }
        self.head = i;
    }

    /// Marks a detached slot dead and returns it to the free list. The
    /// record set is dropped here (the `Arc` may live on in responses).
    fn release(&mut self, i: u32) {
        let s = &mut self.slots[i as usize];
        s.live = false;
        s.stamp += 1;
        // One process-wide empty set: eviction runs on the lookup path
        // (expired entries are removed by the probe that finds them), so
        // it must not allocate a fresh Arc per release.
        s.records = empty_records();
        self.free.push(i);
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// The shared empty record set dead slots point at. Initialized once;
/// every later call is a refcount bump.
fn empty_records() -> Arc<[Record]> {
    static EMPTY: OnceLock<Arc<[Record]>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| {
        // detlint: allow(hot-alloc) — one-time initialization of the
        // process-wide empty set; steady-state calls never enter this
        // closure.
        let none: Vec<Record> = Vec::new();
        // detlint: allow(hot-alloc) — same one-time initialization: the
        // Arc control block is allocated exactly once per process.
        Arc::from(none)
    }))
}

/// A borrowed-nothing cache hit: the shared record set, the response
/// code, and the (truncated) seconds of life the entry has left. TTL
/// decay is applied by the consumer at serialization time via
/// [`CacheHit::decayed_records`].
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// Shared answer set, exactly as inserted (original TTLs).
    pub records: Arc<[Record]>,
    /// `NoError` for positive entries, the cached rcode otherwise.
    pub rcode: Rcode,
    /// Whole seconds until expiry, truncated — never 0: a lookup that
    /// finds an entry inside its final second expires it instead of
    /// serving an answer downstream caches would treat as uncacheable.
    pub remaining_ttl: u32,
}

impl CacheHit {
    /// The records with TTLs clamped to the remaining lifetime — what a
    /// response serializer should emit. Clones each record; the lookup
    /// itself stays allocation-free.
    pub fn decayed_records(&self) -> impl Iterator<Item = Record> + '_ {
        self.records.iter().map(move |r| {
            let mut r = r.clone();
            // Serve the truncated remaining lifetime as-is: truncation
            // (never rounding up) keeps downstream caches from outliving
            // the authoritative expiry, and the lookup already expired
            // anything with less than a whole second left, so this is
            // always ≥ 1 for a hit.
            r.ttl = r.ttl.min(self.remaining_ttl);
            r
        })
    }
}

/// TTL + LRU cache for DNS answers.
#[derive(Debug)]
pub struct DnsCache {
    /// Key (see [`key`]) → slot index.
    index: HashMap<Arc<[u8]>, u32>,
    store: Store,
    /// Min-heap of `(expires, slot, stamp)`; stale nodes are discarded
    /// lazily when their stamp no longer matches the slot.
    expiry: BinaryHeap<Reverse<(SimTime, u32, u64)>>,
    capacity: usize,
    /// Cache hits served.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
}

// detlint: allow-item(hot-index) — indices reaching `store.slots` come
// from the `index` map or the intrusive LRU links, both maintained in
// lock-step with the slab (see `Store`); they cannot dangle.
impl DnsCache {
    /// A cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        DnsCache {
            index: HashMap::new(),
            store: Store::new(),
            expiry: BinaryHeap::new(),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of live entries (including expired but not yet evicted).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Stores a positive answer. The entry TTL is the smallest record
    /// TTL, so no record is ever served beyond its own lifetime.
    pub fn insert(&mut self, name: &Name, qtype: RrType, records: Vec<Record>, now: SimTime) {
        if records.is_empty() {
            return;
        }
        let min_ttl = records.iter().map(|r| r.ttl).min().unwrap_or(0);
        if min_ttl == 0 {
            return; // TTL 0 forbids caching
        }
        self.insert_entry(
            name,
            qtype,
            records.into(),
            Rcode::NoError,
            now + SimDuration::from_secs(u64::from(min_ttl)),
            now,
        );
    }

    /// Stores a negative answer (NXDOMAIN / NoData) for `ttl` — RFC 2308
    /// negative caching, with the TTL taken from the zone's SOA minimum
    /// by the caller.
    pub fn insert_negative(
        &mut self,
        name: &Name,
        qtype: RrType,
        rcode: Rcode,
        ttl: u32,
        now: SimTime,
    ) {
        if ttl == 0 {
            return;
        }
        self.insert_entry(
            name,
            qtype,
            Arc::from(Vec::new()),
            rcode,
            now + SimDuration::from_secs(u64::from(ttl)),
            now,
        );
    }

    fn insert_entry(
        &mut self,
        name: &Name,
        qtype: RrType,
        records: Arc<[Record]>,
        rcode: Rcode,
        expires: SimTime,
        now: SimTime,
    ) {
        let mut buf = [0u8; MAX_NAME_LEN + 2];
        let key = key(name, qtype, &mut buf);
        if self.index.len() >= self.capacity && !self.index.contains_key(key) {
            // Expired entries are dead weight: drop them all first, and
            // only fall back to evicting the live LRU tail if the cache
            // is still full.
            self.purge_expired(now);
            if self.index.len() >= self.capacity {
                let victim = self.store.tail;
                debug_assert_ne!(victim, NIL, "full cache must have a tail");
                self.remove_slot(victim);
            }
        }
        match self.index.get(key) {
            Some(&i) => {
                let s = &mut self.store.slots[i as usize];
                s.records = records;
                s.rcode = rcode;
                s.expires = expires;
                s.stamp += 1;
                let stamp = s.stamp;
                self.store.detach(i);
                self.store.push_front(i);
                self.expiry.push(Reverse((expires, i, stamp)));
            }
            None => {
                let key: Arc<[u8]> = Arc::from(key);
                let i = self.store.alloc(Arc::clone(&key), records, rcode, expires);
                self.index.insert(key, i);
                self.store.push_front(i);
                let stamp = self.store.slots[i as usize].stamp;
                self.expiry.push(Reverse((expires, i, stamp)));
            }
        }
        if self.expiry.len() > self.capacity.saturating_mul(2) {
            self.compact_expiry();
        }
    }

    /// Drops, in place, the expiry nodes of evicted or re-stamped slots,
    /// which would otherwise stay until their expiry passed (forever
    /// under a fixed clock). Purge order is unchanged.
    fn compact_expiry(&mut self) {
        let store = &self.store;
        self.expiry.retain(|&Reverse((_, i, stamp))| store.is_current(i, stamp));
    }

    /// Removes every entry with `expires <= now`, driven by the expiry
    /// heap instead of a full-map scan.
    fn purge_expired(&mut self, now: SimTime) {
        while let Some(&Reverse((expires, i, stamp))) = self.expiry.peek() {
            if expires > now {
                break;
            }
            self.expiry.pop();
            if self.store.is_current(i, stamp) {
                self.remove_slot(i);
            }
        }
    }

    fn remove_slot(&mut self, i: u32) {
        let removed = self.index.remove(&self.store.slots[i as usize].key);
        debug_assert_eq!(removed, Some(i), "index and slab out of sync");
        self.store.detach(i);
        self.store.release(i);
    }

    /// Looks up an answer without cloning it: on a hit, the shared
    /// record set plus the remaining lifetime. Expired entries — and
    /// entries inside their final second, whose truncated TTL would be
    /// 0 and therefore uncacheable downstream — are removed in the same
    /// (single) map probe. This is the steady-state zero-allocation path.
    pub fn get(&mut self, name: &Name, qtype: RrType, now: SimTime) -> Option<CacheHit> {
        let mut buf = [0u8; MAX_NAME_LEN + 2];
        let Some(&i) = self.index.get(key(name, qtype, &mut buf)) else {
            self.misses += 1;
            return None;
        };
        let s = &self.store.slots[i as usize];
        let remaining_ns = s.expires.as_nanos().saturating_sub(now.as_nanos());
        if remaining_ns < NANOS_PER_SEC {
            self.remove_slot(i);
            self.misses += 1;
            return None;
        }
        let hit = CacheHit {
            records: Arc::clone(&s.records),
            rcode: s.rcode,
            remaining_ttl: (remaining_ns / NANOS_PER_SEC) as u32,
        };
        self.store.detach(i);
        self.store.push_front(i);
        self.hits += 1;
        Some(hit)
    }

    /// Drops every entry (used when a deployment switches resolvers).
    pub fn clear(&mut self) {
        self.index.clear();
        self.store.clear();
        self.expiry.clear();
    }
}

/// The string-keyed reference cache: `String` keys, full-map expired purge and an
/// O(n) LRU victim scan. Kept only as the behavioural reference for the
/// equivalence tests and the churn timing gate.
#[cfg(test)]
mod naive {
    use dns_wire::{Name, Rcode, Record, RrType};
    use netsim::{SimDuration, SimTime};
    use std::collections::HashMap;

    fn key(name: &Name, qtype: RrType) -> (String, u16) {
        (name.canonical(), qtype.to_u16())
    }

    #[derive(Debug, Clone)]
    struct Entry {
        records: Vec<Record>,
        rcode: Rcode,
        expires: SimTime,
        last_used: SimTime,
    }

    /// TTL + LRU cache with the original O(n) eviction strategy.
    #[derive(Debug)]
    pub struct DnsCache {
        entries: HashMap<(String, u16), Entry>,
        capacity: usize,
        /// Cache hits served.
        pub hits: u64,
        /// Lookups that found nothing usable.
        pub misses: u64,
    }

    impl DnsCache {
        /// A cache bounded to `capacity` entries.
        pub fn new(capacity: usize) -> Self {
            assert!(capacity > 0, "cache capacity must be positive");
            DnsCache {
                entries: HashMap::new(),
                capacity,
                hits: 0,
                misses: 0,
            }
        }

        /// Number of entries.
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// Stores a positive answer (minimum record TTL governs expiry).
        pub fn insert(&mut self, name: &Name, qtype: RrType, records: Vec<Record>, now: SimTime) {
            if records.is_empty() {
                return;
            }
            let min_ttl = records.iter().map(|r| r.ttl).min().unwrap_or(0);
            if min_ttl == 0 {
                return;
            }
            self.insert_entry(
                key(name, qtype),
                Entry {
                    records,
                    rcode: Rcode::NoError,
                    expires: now + SimDuration::from_secs(u64::from(min_ttl)),
                    last_used: now,
                },
                now,
            );
        }

        /// Stores a negative answer.
        pub fn insert_negative(
            &mut self,
            name: &Name,
            qtype: RrType,
            rcode: Rcode,
            ttl: u32,
            now: SimTime,
        ) {
            if ttl == 0 {
                return;
            }
            self.insert_entry(
                key(name, qtype),
                Entry {
                    records: Vec::new(),
                    rcode,
                    expires: now + SimDuration::from_secs(u64::from(ttl)),
                    last_used: now,
                },
                now,
            );
        }

        fn insert_entry(&mut self, k: (String, u16), e: Entry, now: SimTime) {
            if self.entries.len() >= self.capacity && !self.entries.contains_key(&k) {
                self.entries.retain(|_, e| e.expires > now);
                if self.entries.len() >= self.capacity {
                    let victim = self
                        .entries
                        .iter()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| k.clone());
                    if let Some(v) = victim {
                        self.entries.remove(&v);
                    }
                }
            }
            self.entries.insert(k, e);
        }

        /// Looks up an answer, decaying TTLs and removing expired
        /// entries — including entries inside their final second, which
        /// would otherwise be served with an uncacheable TTL of 0.
        pub fn get(
            &mut self,
            name: &Name,
            qtype: RrType,
            now: SimTime,
        ) -> Option<(Vec<Record>, Rcode)> {
            let k = key(name, qtype);
            match self.entries.get_mut(&k) {
                Some(e)
                    if e.expires.as_nanos().saturating_sub(now.as_nanos())
                        >= super::NANOS_PER_SEC =>
                {
                    e.last_used = now;
                    let remaining_secs =
                        (e.expires.as_nanos() - now.as_nanos()) / super::NANOS_PER_SEC;
                    let records: Vec<Record> = e
                        .records
                        .iter()
                        .map(|r| {
                            let mut r = r.clone();
                            r.ttl = r.ttl.min(remaining_secs as u32);
                            r
                        })
                        .collect();
                    let rcode = e.rcode;
                    self.hits += 1;
                    Some((records, rcode))
                }
                Some(_) => {
                    self.entries.remove(&k);
                    self.misses += 1;
                    None
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{RData, RrClass};
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn a_record(name: &str, ttl: u32) -> Record {
        Record::new(n(name), RrClass::In, ttl, RData::A(Ipv4Addr::new(1, 2, 3, 4)))
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    /// A hit as the serializer sees it: decayed records plus the rcode —
    /// the shape the string-keyed reference cache returns.
    fn served(hit: Option<CacheHit>) -> Option<(Vec<Record>, Rcode)> {
        hit.map(|h| (h.decayed_records().collect(), h.rcode))
    }

    #[test]
    fn hit_before_expiry_miss_after() {
        let mut c = DnsCache::new(16);
        c.insert(&n("a.test"), RrType::A, vec![a_record("a.test", 30)], at(0));
        assert!(c.get(&n("a.test"), RrType::A, at(29)).is_some());
        assert!(c.get(&n("a.test"), RrType::A, at(31)).is_none());
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn ttl_decays_while_cached() {
        let mut c = DnsCache::new(16);
        c.insert(&n("a.test"), RrType::A, vec![a_record("a.test", 30)], at(0));
        let (recs, _) = served(c.get(&n("a.test"), RrType::A, at(10))).unwrap();
        assert_eq!(recs[0].ttl, 20);
    }

    #[test]
    fn shared_hit_keeps_original_ttls_and_decays_on_demand() {
        let mut c = DnsCache::new(16);
        c.insert(&n("a.test"), RrType::A, vec![a_record("a.test", 30)], at(0));
        let hit = c.get(&n("a.test"), RrType::A, at(10)).unwrap();
        assert_eq!(hit.records[0].ttl, 30, "shared set keeps the stored TTL");
        assert_eq!(hit.remaining_ttl, 20);
        let decayed: Vec<Record> = hit.decayed_records().collect();
        assert_eq!(decayed[0].ttl, 20);
        // A second hit shares the same allocation.
        let again = c.get(&n("a.test"), RrType::A, at(11)).unwrap();
        assert!(Arc::ptr_eq(&hit.records, &again.records));
    }

    #[test]
    fn entry_ttl_is_minimum_of_records() {
        let mut c = DnsCache::new(16);
        c.insert(
            &n("a.test"),
            RrType::A,
            vec![a_record("a.test", 30), a_record("a.test", 5)],
            at(0),
        );
        assert!(c.get(&n("a.test"), RrType::A, at(4)).is_some());
        assert!(c.get(&n("a.test"), RrType::A, at(6)).is_none());
    }

    #[test]
    fn boundary_hit_with_exactly_one_second_left_miss_past_it() {
        let mut c = DnsCache::new(16);
        c.insert(&n("a.test"), RrType::A, vec![a_record("a.test", 30)], at(0));
        // Exactly one second of life left: the last instant the entry is
        // servable — and it goes out with TTL 1, never 0.
        let (recs, _) = served(c.get(&n("a.test"), RrType::A, at(29)))
            .expect("a whole second of life left is still a hit");
        assert_eq!(recs[0].ttl, 1);
        // One nanosecond later the remainder is sub-second: the entry
        // expires rather than being served as uncacheable.
        let inside_final_second = at(29) + SimDuration::from_nanos(1);
        assert!(
            c.get(&n("a.test"), RrType::A, inside_final_second).is_none(),
            "sub-second remainder must expire, not serve TTL 0"
        );
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn final_subsecond_expires_instead_of_serving_ttl_zero() {
        let mut c = DnsCache::new(16);
        c.insert(&n("a.test"), RrType::A, vec![a_record("a.test", 5)], at(0));
        let half_sec_left = at(4) + SimDuration::from_millis(500);
        assert!(
            c.get(&n("a.test"), RrType::A, half_sec_left).is_none(),
            "an answer that would carry TTL 0 must not be served"
        );
        assert!(c.is_empty(), "the dying entry is removed by the lookup");
        // The last whole second still serves, with remaining_ttl 1.
        c.insert(&n("a.test"), RrType::A, vec![a_record("a.test", 5)], at(10));
        let hit = c.get(&n("a.test"), RrType::A, at(14)).unwrap();
        assert_eq!(hit.remaining_ttl, 1, "remaining_ttl is never 0 on a hit");
        assert!(c
            .get(&n("a.test"), RrType::A, at(14) + SimDuration::from_millis(1))
            .is_none());
    }

    #[test]
    fn zero_ttl_is_never_cached() {
        let mut c = DnsCache::new(16);
        c.insert(&n("a.test"), RrType::A, vec![a_record("a.test", 0)], at(0));
        assert!(c.get(&n("a.test"), RrType::A, at(0)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn negative_caching() {
        let mut c = DnsCache::new(16);
        c.insert_negative(&n("no.test"), RrType::A, Rcode::NxDomain, 10, at(0));
        let (recs, rcode) = served(c.get(&n("no.test"), RrType::A, at(5))).unwrap();
        assert!(recs.is_empty());
        assert_eq!(rcode, Rcode::NxDomain);
        assert!(c.get(&n("no.test"), RrType::A, at(11)).is_none());
    }

    #[test]
    fn negative_entry_ttl_decays_to_boundary() {
        let mut c = DnsCache::new(16);
        c.insert_negative(&n("no.test"), RrType::A, Rcode::NxDomain, 10, at(0));
        // Still a hit with exactly one second of lifetime left...
        let (recs, rcode) = served(c.get(&n("no.test"), RrType::A, at(9))).unwrap();
        assert!(recs.is_empty());
        assert_eq!(rcode, Rcode::NxDomain);
        // ...and a miss once the remainder is sub-second: negative
        // entries honour the same serve-≥1 s boundary as positive ones.
        let inside_final_second = at(9) + SimDuration::from_nanos(1);
        assert!(c.get(&n("no.test"), RrType::A, inside_final_second).is_none());
        assert!(c.is_empty(), "expired negative entry must be removed");
    }

    #[test]
    fn case_insensitive_keys() {
        let mut c = DnsCache::new(16);
        c.insert(&n("A.Test"), RrType::A, vec![a_record("a.test", 30)], at(0));
        assert!(c.get(&n("a.TEST"), RrType::A, at(1)).is_some());
    }

    #[test]
    fn type_is_part_of_the_key() {
        let mut c = DnsCache::new(16);
        c.insert(&n("a.test"), RrType::A, vec![a_record("a.test", 30)], at(0));
        assert!(c.get(&n("a.test"), RrType::Aaaa, at(1)).is_none());
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut c = DnsCache::new(2);
        c.insert(&n("a.test"), RrType::A, vec![a_record("a.test", 300)], at(0));
        c.insert(&n("b.test"), RrType::A, vec![a_record("b.test", 300)], at(1));
        // Touch `a` so `b` becomes the LRU victim on same expiry basis.
        assert!(c.get(&n("a.test"), RrType::A, at(2)).is_some());
        c.insert(&n("c.test"), RrType::A, vec![a_record("c.test", 100)], at(3));
        assert_eq!(c.len(), 2);
        // Neither entry has expired, so recency decides: `b` is older.
        assert!(c.get(&n("b.test"), RrType::A, at(4)).is_none());
        assert!(c.get(&n("a.test"), RrType::A, at(4)).is_some());
        assert!(c.get(&n("c.test"), RrType::A, at(4)).is_some());
    }

    #[test]
    fn all_expired_entries_are_purged_before_any_live_eviction() {
        let mut c = DnsCache::new(3);
        // Two entries that expire at t=10, one long-lived entry that is
        // the LRU by last use.
        c.insert(&n("dead1.test"), RrType::A, vec![a_record("dead1.test", 10)], at(0));
        c.insert(&n("dead2.test"), RrType::A, vec![a_record("dead2.test", 10)], at(1));
        c.insert(&n("live.test"), RrType::A, vec![a_record("live.test", 300)], at(2));
        // At t=20 both dead entries have expired. Inserting at capacity
        // must purge them *both* rather than evicting one dead entry now
        // and the live LRU entry on the next insert.
        c.insert(&n("new1.test"), RrType::A, vec![a_record("new1.test", 300)], at(20));
        c.insert(&n("new2.test"), RrType::A, vec![a_record("new2.test", 300)], at(21));
        assert_eq!(c.len(), 3);
        assert!(
            c.get(&n("live.test"), RrType::A, at(22)).is_some(),
            "live entry was evicted while expired entries occupied the cache"
        );
        assert!(c.get(&n("new1.test"), RrType::A, at(22)).is_some());
        assert!(c.get(&n("new2.test"), RrType::A, at(22)).is_some());
    }

    #[test]
    fn live_lru_eviction_only_once_no_entry_is_expired() {
        let mut c = DnsCache::new(2);
        c.insert(&n("old.test"), RrType::A, vec![a_record("old.test", 5)], at(0));
        c.insert(&n("fresh.test"), RrType::A, vec![a_record("fresh.test", 300)], at(1));
        // `old` is expired at t=10: it must be the one to go even though
        // a plain LRU would also have picked it here; the point is the
        // cache never holds an expired entry past a capacity insert.
        c.insert(&n("new.test"), RrType::A, vec![a_record("new.test", 300)], at(10));
        assert!(c.get(&n("fresh.test"), RrType::A, at(11)).is_some());
        assert!(c.get(&n("new.test"), RrType::A, at(11)).is_some());
        assert!(c.get(&n("old.test"), RrType::A, at(11)).is_none());
    }

    #[test]
    fn reinsert_refreshes_entry_and_recency() {
        let mut c = DnsCache::new(2);
        c.insert(&n("a.test"), RrType::A, vec![a_record("a.test", 10)], at(0));
        c.insert(&n("b.test"), RrType::A, vec![a_record("b.test", 300)], at(1));
        // Re-inserting `a` must refresh its expiry and make `b` the LRU.
        c.insert(&n("a.test"), RrType::A, vec![a_record("a.test", 300)], at(2));
        c.insert(&n("c.test"), RrType::A, vec![a_record("c.test", 300)], at(3));
        assert!(c.get(&n("a.test"), RrType::A, at(50)).is_some());
        assert!(c.get(&n("b.test"), RrType::A, at(50)).is_none());
    }

    #[test]
    fn lru_churn_keeps_the_expiry_heap_bounded() {
        let cap = 8;
        let mut c = DnsCache::new(cap);
        for i in 0..50 * cap {
            let name = format!("churn{i}.test");
            c.insert(&n(&name), RrType::A, vec![a_record(&name, 30)], at(0));
            assert!(
                c.expiry.len() <= 2 * cap + 1,
                "{} expiry nodes after {} inserts into a {cap}-entry cache",
                c.expiry.len(),
                i + 1
            );
        }
        assert_eq!(c.len(), cap);
        c.purge_expired(at(30));
        assert!(c.is_empty(), "purge must still drop every expired entry");
        assert!(c.expiry.is_empty());
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = DnsCache::new(4);
        c.insert(&n("a.test"), RrType::A, vec![a_record("a.test", 30)], at(0));
        c.clear();
        assert!(c.is_empty());
        // Reusable after clear.
        c.insert(&n("b.test"), RrType::A, vec![a_record("b.test", 30)], at(0));
        assert!(c.get(&n("b.test"), RrType::A, at(1)).is_some());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        DnsCache::new(0);
    }

    /// Satellite: the old O(n) cache and the new intrusive-list cache,
    /// driven with the same randomized insert/get/expiry schedule, must
    /// produce identical hit/miss/eviction sequences. Times are strictly
    /// increasing (simulation time is monotone; equal-timestamp LRU
    /// tie-breaking was never defined in the old map-scan version).
    #[test]
    fn randomized_schedule_matches_naive_cache() {
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        let names: Vec<Name> = [
            "a.mycdn.ciab.test",
            "b.mycdn.ciab.test",
            "c.mycdn.ciab.test",
            "Video.Demo1.MyCdn.ciab.test",
            "video.demo1.mycdn.ciab.test",
            "cache-1.mycdn.ciab.test",
            "q-cf.bstatic.com",
            "static.tacdn.com",
            "a0.muscache.com",
            "www.example.com",
            "mail.example.com",
            "example.com",
        ]
        .iter()
        .map(|s| Name::parse(s).unwrap())
        .collect();

        for seed in 0..8u64 {
            let mut rng = seed.wrapping_mul(0x5851_F42D_4C95_7F2D) + 99;
            let mut old = naive::DnsCache::new(4);
            let mut new = DnsCache::new(4);
            let mut now_ns: u64 = 0;
            for step in 0..600 {
                // Strictly increasing virtual time, 1..=7 s plus jitter.
                now_ns += 1_000_000_000 * (1 + splitmix64(&mut rng) % 7)
                    + splitmix64(&mut rng) % 1_000_000_000;
                let now = SimTime::ZERO + SimDuration::from_nanos(now_ns);
                let name = &names[(splitmix64(&mut rng) % names.len() as u64) as usize];
                match splitmix64(&mut rng) % 10 {
                    0..=3 => {
                        let ttl = 1 + (splitmix64(&mut rng) % 40) as u32;
                        let rec =
                            Record::new(name.clone(), RrClass::In, ttl, RData::A(Ipv4Addr::LOCALHOST));
                        old.insert(name, RrType::A, vec![rec.clone()], now);
                        new.insert(name, RrType::A, vec![rec], now);
                    }
                    4 => {
                        let ttl = 1 + (splitmix64(&mut rng) % 20) as u32;
                        old.insert_negative(name, RrType::A, Rcode::NxDomain, ttl, now);
                        new.insert_negative(name, RrType::A, Rcode::NxDomain, ttl, now);
                    }
                    _ => {
                        let a = old.get(name, RrType::A, now);
                        let b = served(new.get(name, RrType::A, now));
                        assert_eq!(a, b, "seed {seed} step {step}: lookup diverged");
                    }
                }
                assert_eq!(old.len(), new.len(), "seed {seed} step {step}: size diverged");
                assert_eq!(old.hits, new.hits, "seed {seed} step {step}: hits diverged");
                assert_eq!(
                    old.misses, new.misses,
                    "seed {seed} step {step}: misses diverged"
                );
            }
            // Final membership must agree entry by entry.
            let end = SimTime::ZERO + SimDuration::from_nanos(now_ns);
            for name in &names {
                assert_eq!(
                    old.get(name, RrType::A, end),
                    served(new.get(name, RrType::A, end)),
                    "seed {seed}: final membership diverged for {name}"
                );
            }
        }
    }

    /// The new cache churns at least 3× as fast as the string-keyed
    /// reference. The working set (1 024 names) is twice the capacity
    /// (512), so every insert past warm-up evicts: the reference pays an
    /// O(capacity) victim scan plus a full-map expiry sweep per insert,
    /// the new cache pops the LRU tail. Both caches run the same
    /// schedule in one process, so the bound holds on any host; it is
    /// timed only in release builds (`cargo test --release timing_gate`).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
    fn timing_gate_cache_churn() {
        use std::hint::black_box;
        use std::time::Instant;

        let names: Vec<Name> = (0..1024)
            .map(|i| n(&format!("host-{i}.pool.mycdn.ciab.test")))
            .collect();
        let record = |name: &Name| {
            vec![Record::new(name.clone(), RrClass::In, 2, RData::A(Ipv4Addr::new(10, 0, 0, 1)))]
        };
        // Two rounds over the working set, an insert and a get per name.
        macro_rules! churn {
            ($cache:ty) => {
                || {
                    let mut cache = <$cache>::new(512);
                    for (t, name) in (1u64..).zip(names.iter().chain(&names)) {
                        let now = SimTime::ZERO + SimDuration::from_millis(t);
                        cache.insert(name, RrType::A, record(name), now);
                        cache.get(name, RrType::A, now + SimDuration::from_millis(1));
                    }
                    black_box(cache.hits + cache.misses);
                }
            };
        }
        // Nanoseconds per call over 5 calls, after one warm-up call.
        fn ns_per_call(mut f: impl FnMut()) -> f64 {
            f();
            let t0 = Instant::now();
            for _ in 0..5 {
                f();
            }
            t0.elapsed().as_nanos() as f64 / 5.0
        }
        let new = ns_per_call(churn!(DnsCache));
        let naive = ns_per_call(churn!(naive::DnsCache));
        eprintln!("cache churn: {new:.0} ns new, {naive:.0} ns naive ({:.2}x)", naive / new);
        assert!(
            naive / new >= 3.0,
            "cache churn speedup {:.2}x below the 3x floor ({new:.0} vs {naive:.0} ns per run)",
            naive / new
        );
    }
}
