//! Memory stays bounded under a random-qname flood, and the served
//! path and the simulator allocate exactly as often as pinned here.
//!
//! The paper's §3 MEC resolver "ignores queries not related to
//! MEC-CDN"; ignoring one must not cost memory that is never freed. This
//! binary installs a global allocator that counts, per thread, the
//! allocations made and the live heap bytes, so each test reads only
//! its own thread's figures.
//!
//! Both halves of a flood are covered: names outside every zone, which
//! the chain turns away, and unique names under the hosted zone, which
//! are forwarded to the C-DNS and churn the L-DNS cache. No stub opens a
//! trace here, so neither leaves a breadcrumb behind.
//!
//! The allocation counts are pinned exactly, so they can only go down:
//! a change that lowers one updates its pin. Counts do not depend on
//! the build profile.

use cdn_sim::{MultiCdnRouter, PoolChoice, ServeTopology};
use dns_server::{DnsCache, Plugin, PluginDecision, QueryCtx};
use dns_wire::{Message, Name, Opt, RData, Record, RrClass, RrType};
use mec_cdn::{city_experiment, CityConfig};
use netsim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr};

/// Delegates to the system allocator, counting per thread.
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn record(bytes: i64, allocs: u64) {
    // `try_with`: the slots have no destructor, but an allocation made
    // while a thread is torn down must still never panic.
    let _ = LIVE.try_with(|l| l.set(l.get() + bytes));
    let _ = ALLOCS.try_with(|a| a.set(a.get() + allocs));
}

// SAFETY: pure pass-through to `System` — the counter update never
// affects allocation, so `System`'s `GlobalAlloc` contract (alignment,
// uniqueness, live-pointer rules) carries over to every method below.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: caller upholds the `GlobalAlloc::alloc` contract
    // (non-zero-sized `layout`); we forward it verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64, 1);
        // SAFETY: same `layout` the caller gave us, passed to the
        // allocator that will also see the matching dealloc.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: caller guarantees `ptr` came from this allocator with
    // this `layout`; since alloc forwards to `System`, so does dealloc.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as i64), 0);
        // SAFETY: `ptr`/`layout` pair originates from `System.alloc`
        // above, per the caller's `GlobalAlloc` obligations.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: caller guarantees `ptr`/`layout` describe a live
    // `System` allocation and `new_size` is non-zero.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as i64 - layout.size() as i64, 1);
        // SAFETY: forwarded verbatim; `System.realloc` sees exactly the
        // pointer, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const CLIENT_V4: Ipv4Addr = Ipv4Addr::LOCALHOST;
const CLIENT: IpAddr = IpAddr::V4(CLIENT_V4);

fn flood_name(i: usize) -> Name {
    Name::parse(&format!("r{i}.flood.example.org")).expect("flood name parses")
}

/// Serves `warmup` unique names through the default topology's engine,
/// then `flood` more, and asserts that the second batch grew the live
/// heap by less than one byte per name.
fn assert_flood_leaves_the_live_heap_flat(
    warmup: usize,
    flood: usize,
    name: impl Fn(usize) -> Name,
) {
    let mut engine = ServeTopology::default().engine();
    let mut serve = |i: usize| {
        let query = Message::query(i as u16, name(i), RrType::A);
        if let Some(response) = engine.resolve(SimTime::ZERO, CLIENT, 5000, &query) {
            response.encode_bounded(1232).expect("response encodes");
        }
    };
    for i in 0..warmup {
        serve(i);
    }
    let before = live_bytes();
    for i in warmup..warmup + flood {
        serve(i);
    }
    let grown = live_bytes() - before;
    let per_name = grown as f64 / flood as f64;
    assert!(
        per_name < 1.0,
        "live heap grew {grown} B over {flood} unique names ({per_name:.1} B/name)"
    );
}

#[test]
fn out_of_zone_flood_leaves_the_live_heap_flat() {
    assert_flood_leaves_the_live_heap_flat(1_000, 40_000, flood_name);
}

/// Unique names under the hosted zone: each misses the L-DNS cache, is
/// answered by the C-DNS and evicts an older entry. The warm-up passes
/// both the cache capacity and the 16-bit transaction-id space, where
/// one-time table growth settles; the flood is twice as long, so a
/// `Vec` doubling cannot hide inside it.
#[test]
fn in_zone_flood_leaves_the_live_heap_flat() {
    let topo = ServeTopology::default();
    assert_flood_leaves_the_live_heap_flat(70_000, 140_000, |i| topo.content_name(i));
}

#[test]
fn never_seen_names_are_turned_away_without_allocating() {
    let known = Name::parse("q-cf.bstatic.com").expect("name parses");
    let mut cache = DnsCache::new(64);
    let record = Record::new(known.clone(), RrClass::In, 300, RData::A(CLIENT_V4));
    cache.insert(&known, RrType::A, vec![record], SimTime::ZERO);
    let mut router = MultiCdnRouter::new();
    router.set_default(
        &known,
        vec![PoolChoice::new("CloudFront", "13.249.0.0/16", 1.0)],
    );
    let ctx = QueryCtx {
        now: SimTime::ZERO,
        client: CLIENT,
        client_port: 5000,
        telemetry: netsim::Telemetry::default(),
    };
    let names: Vec<Name> = (0..100).map(flood_name).collect();
    let queries: Vec<Message> = names
        .iter()
        .map(|n| Message::query(1, n.clone(), RrType::A))
        .collect();

    let before = allocs();
    for (name, query) in names.iter().zip(&queries) {
        assert!(cache.get(name, RrType::A, SimTime::ZERO).is_none());
        assert!(matches!(
            router.on_query(&ctx, query),
            PluginDecision::Continue
        ));
    }
    assert_eq!(
        allocs() - before,
        0,
        "a miss on a never-seen name allocated"
    );
}

/// Allocations `f` makes on this thread, with its result.
///
/// A pin holds only while no measured call is the process's first to
/// free a cache slot: that call also allocates the cache's shared empty
/// record set, once per process, on whichever thread gets there first.
/// None of the calls pinned here frees a slot.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs();
    let out = f();
    (out, allocs() - before)
}

/// The query a stub sends for the `k`-th content name: EDNS on, as
/// perfbench's serving workloads send it.
fn content_query(topo: &ServeTopology, id: u16, k: usize) -> Vec<u8> {
    let mut query = Message::query(id, topo.content_name(k), RrType::A);
    query.edns = Some(Opt::default());
    query.encode().expect("a content query encodes")
}

/// Decode, resolve and `encode_bounded(1232)` allocations of one query
/// through `engine`.
fn served_allocs(engine: &mut dns_server::ServeEngine, bytes: &[u8]) -> (u64, u64, u64) {
    let (query, decode) = allocs_in(|| Message::decode(bytes).expect("query decodes"));
    let (response, resolve) = allocs_in(|| engine.resolve(SimTime::ZERO, CLIENT, 5353, &query));
    let response = response.expect("the engine answers a content query");
    let (_, encode) = allocs_in(|| response.encode_bounded(1232).expect("response encodes"));
    (decode, resolve, encode)
}

#[test]
fn a_served_cached_hit_allocates_2_4_6() {
    let topo = ServeTopology::default();
    let mut engine = topo.engine();
    let bytes = content_query(&topo, 7, 0);
    served_allocs(&mut engine, &bytes);
    assert_eq!(
        served_allocs(&mut engine, &bytes),
        (2, 4, 6),
        "decode / resolve / encode allocations of a cached hit"
    );
}

#[test]
fn a_miss_resolve_allocates_13_after_the_first_23() {
    let topo = ServeTopology::default();
    let mut engine = topo.engine();
    let (_, first, _) = served_allocs(&mut engine, &content_query(&topo, 1, 0));
    let (_, later, _) = served_allocs(&mut engine, &content_query(&topo, 2, 1));
    assert_eq!((first, later), (23, 13), "resolve allocations of a miss");
}

#[test]
fn a_warm_cache_get_allocates_nothing() {
    let names: Vec<Name> = (0..1000)
        .map(|i| Name::parse(&format!("host-{i}.pool.mycdn.ciab.test")).expect("name parses"))
        .collect();
    let mut cache = DnsCache::new(2048);
    for name in &names {
        let record = Record::new(name.clone(), RrClass::In, 300, RData::A(CLIENT_V4));
        cache.insert(name, RrType::A, vec![record], SimTime::ZERO);
    }
    let now = SimTime::ZERO + SimDuration::from_secs(10);
    let (hits, allocs) = allocs_in(|| {
        names
            .iter()
            .filter(|name| cache.get(name, RrType::A, now).is_some())
            .count()
    });
    assert_eq!(hits, names.len());
    assert_eq!(allocs, 0, "a warm DnsCache::get allocated");
}

/// The city unit tests' small world: 400 UEs behind 4 eNBs.
fn tiny_city() -> CityConfig {
    CityConfig {
        ues: 400,
        enbs: 4,
        catalog: 200,
        alpha: 1.0,
        peak_interarrival: SimDuration::from_millis(800),
        window: SimDuration::from_secs(4),
        cache_entries: 256,
    }
}

#[test]
fn a_tiny_city_run_allocates_76_311_times_over_19_136_events() {
    let (report, allocs) = allocs_in(|| city_experiment(2020, &tiny_city()));
    let events: u64 = report.deployments.iter().map(|d| d.sim_events).sum();
    assert_eq!((allocs, events), (76_311, 19_136), "(allocations, events)");
}
