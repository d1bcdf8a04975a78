//! Memory stays bounded under a random-qname flood.
//!
//! The paper's §3 MEC resolver "ignores queries not related to
//! MEC-CDN"; ignoring one must not cost memory that is never freed. This
//! binary installs a global allocator that counts, per thread, the
//! allocations made and the live heap bytes, so each test reads only
//! its own thread's figures.
//!
//! Only out-of-zone names are sent: a name under the hosted zone also
//! leaves a telemetry breadcrumb per query, which is bounded separately.

use cdn_sim::{MultiCdnRouter, PoolChoice, ServeTopology};
use dns_server::{DnsCache, Plugin, PluginDecision, QueryCtx};
use dns_wire::{Message, Name, RData, Record, RrClass, RrType};
use netsim::SimTime;
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
const WARMUP: usize = 1_000;
const FLOOD: usize = 40_000;

fn flood_name(i: usize) -> Name {
    Name::parse(&format!("r{i}.flood.example.org")).expect("flood name parses")
}

#[test]
fn out_of_zone_flood_leaves_the_live_heap_flat() {
    let mut engine = ServeTopology::default().engine();
    let mut serve = |i: usize| {
        let query = Message::query(i as u16, flood_name(i), RrType::A);
        if let Some(response) = engine.resolve(SimTime::ZERO, CLIENT, 5000, &query) {
            response.encode_bounded(1232).expect("response encodes");
        }
    };
    for i in 0..WARMUP {
        serve(i);
    }
    let before = live_bytes();
    for i in WARMUP..WARMUP + FLOOD {
        serve(i);
    }
    let grown = live_bytes() - before;
    let per_name = grown as f64 / FLOOD as f64;
    assert!(
        per_name < 1.0,
        "live heap grew {grown} B over {FLOOD} unique names ({per_name:.1} B/name)"
    );
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
