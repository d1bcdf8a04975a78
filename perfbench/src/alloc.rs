//! Counting global allocator with per-thread attribution.
//!
//! Every allocation is charged to the [`Role`] of the thread that makes
//! it. Threads the benchmark never tags — the `mecdnsd` shard threads
//! and anything the library spawns — count as [`Role::Program`]; the
//! load generator tags itself [`Role::Client`], so its buffers and
//! latency samples never count against the server. Per role the ledger
//! keeps live bytes and peak live bytes.
//! A free is charged to the freeing thread's role, which only matters
//! for memory that crosses threads (the server's report, handed to the
//! client thread at shutdown).
//!
//! Each thread also keeps its own allocation and byte counts, so a probe
//! can count exactly what one call on one thread allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

/// Who an allocation is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The code under test (the default for untagged threads).
    Program = 0,
    /// The benchmark's own load generator and checker.
    Client = 1,
}

struct Ledger {
    live: AtomicI64,
    peak: AtomicI64,
}

impl Ledger {
    const fn new() -> Self {
        Ledger {
            live: AtomicI64::new(0),
            peak: AtomicI64::new(0),
        }
    }
}

static PROGRAM: Ledger = Ledger::new();
static CLIENT: Ledger = Ledger::new();

fn ledger(role: Role) -> &'static Ledger {
    match role {
        Role::Program => &PROGRAM,
        Role::Client => &CLIENT,
    }
}

thread_local! {
    static ROLE: Cell<Role> = const { Cell::new(Role::Program) };
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Charges every later allocation of the calling thread to `role`.
pub fn set_role(role: Role) {
    ROLE.with(|r| r.set(role));
}

/// Allocations and bytes requested by the calling thread so far.
pub fn thread_counts() -> (u64, u64) {
    (THREAD_ALLOCS.with(Cell::get), THREAD_BYTES.with(Cell::get))
}

/// Bytes currently live for `role`.
pub fn live_bytes(role: Role) -> i64 {
    ledger(role).live.load(Ordering::Relaxed)
}

/// Highest live-byte count `role` reached since the last
/// [`reset_peak`].
pub fn peak_bytes(role: Role) -> i64 {
    ledger(role).peak.load(Ordering::Relaxed)
}

/// Restarts peak tracking for `role` from its current live bytes.
pub fn reset_peak(role: Role) {
    let ledger = ledger(role);
    ledger
        .peak
        .store(ledger.live.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The calling thread's role. `try_with` and the const-initialised,
/// drop-free thread locals make this safe to call from inside the
/// allocator, even while a thread is being torn down.
fn current_role() -> Role {
    ROLE.try_with(Cell::get).unwrap_or(Role::Program)
}

fn count_allocation(size: usize, delta_live: i64) {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + size as u64));
    let ledger = ledger(current_role());
    let live = ledger.live.fetch_add(delta_live, Ordering::Relaxed) + delta_live;
    // A plain load first: new peaks are rare, the locked update is not.
    if live > ledger.peak.load(Ordering::Relaxed) {
        ledger.peak.fetch_max(live, Ordering::Relaxed);
    }
}

fn count_free(size: usize) {
    ledger(current_role())
        .live
        .fetch_sub(size as i64, Ordering::Relaxed);
}

/// Delegates to the system allocator, counting as described above.
pub struct Counting;

// The bookkeeping only touches atomics and drop-free thread locals and
// never allocates.
// SAFETY: a pure pass-through to `System`, so its `GlobalAlloc` contract
// (alignment, uniqueness, live-pointer rules) carries over to every method.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds the `GlobalAlloc::alloc` contract
    // (non-zero-sized `layout`); it is forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size(), layout.size() as i64);
        // SAFETY: the same `layout` the caller gave, passed to the
        // allocator that will also see the matching dealloc.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // this `layout`; alloc forwards to `System`, so dealloc does too.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        // SAFETY: the `ptr`/`layout` pair came from `System.alloc` above,
        // per the caller's `GlobalAlloc` obligations.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller guarantees `ptr`/`layout` describe a live
    // `System` allocation and `new_size` is non-zero.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded verbatim; `System.realloc` sees exactly the
        // arguments the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_counts_its_own_allocations() {
        let (a0, b0) = thread_counts();
        let v: Vec<u64> = Vec::with_capacity(16);
        std::hint::black_box(&v);
        let (a1, b1) = thread_counts();
        assert_eq!(a1 - a0, 1);
        assert_eq!(b1 - b0, 128);
    }

    #[test]
    fn client_allocations_are_not_charged_to_the_program() {
        // A spawned thread of its own, so no other test shares the role.
        std::thread::spawn(|| {
            set_role(Role::Client);
            let before = live_bytes(Role::Client);
            let v = vec![0u8; 4096];
            std::hint::black_box(&v);
            assert_eq!(live_bytes(Role::Client) - before, 4096);
            drop(v);
            assert_eq!(live_bytes(Role::Client), before);
        })
        .join()
        .expect("client thread");
    }
}
