//! Hot-path baseline: wall time **and allocation counts** for the
//! resolution hot path, emitted as `BENCH_hotpath.json` and committed at
//! the repo root.
//!
//! A counting global allocator (in this binary only — the library crates
//! are untouched) counts every `alloc`/`realloc` inside the measured
//! region, which is how the headline claim is enforced: **zero
//! allocations per cached-hit query**.
//!
//! ```text
//! bench_hotpath [--quick] [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--quick` — reduced iteration counts, for CI.
//! * `--out PATH` — where to write the JSON (default `BENCH_hotpath.json`).
//! * `--check BASELINE` — compare against a committed baseline and exit
//!   non-zero when the cached-hit path allocates, when the end-to-end
//!   resolve wall time regresses by more than 20%, or when the churn
//!   speedup over the naive cache falls below 3×.

use bench_suite::hotpath;
use dns_wire::RrType;
use netsim::{SimDuration, SimTime};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Delegates to the system allocator, counting each allocation.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` — the counter increment never
// affects allocation, so `System`'s `GlobalAlloc` contract (alignment,
// uniqueness, live-pointer rules) carries over to every method below.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the `GlobalAlloc::alloc` contract
    // (non-zero-sized `layout`); we forward it verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same `layout` the caller gave us, passed to the
        // allocator that will also see the matching dealloc.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: caller guarantees `ptr` came from this allocator with
    // this `layout`; since alloc forwards to `System`, so does dealloc.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` pair originates from `System.alloc`
        // above, per the caller's `GlobalAlloc` obligations.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: caller guarantees `ptr`/`layout` describe a live
    // `System` allocation and `new_size` is non-zero.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `System.realloc` sees exactly the
        // arguments the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `f` `iters` times, returning (ns per op, allocations per op).
fn measure<F: FnMut()>(iters: u64, mut f: F) -> (f64, f64) {
    // Warm up once so lazy state (free lists, map capacity) settles.
    f();
    let a0 = allocs_now();
    // detlint: allow(wall-clock) — this binary *measures* wall time;
    // the timed region contains no simulation logic.
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let wall = t0.elapsed();
    let allocs = allocs_now() - a0;
    (
        wall.as_nanos() as f64 / iters as f64,
        allocs as f64 / iters as f64,
    )
}

#[derive(Serialize)]
struct Section {
    ns_per_op: f64,
    allocs_per_op: f64,
}

#[derive(Serialize)]
struct Churn {
    new_ns_per_op: f64,
    naive_ns_per_op: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Resolve {
    ns_per_query: f64,
    queries: u64,
}

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    quick: bool,
    cached_hit: Section,
    cache_churn: Churn,
    resolve_end_to_end: Resolve,
}

fn run(quick: bool) -> Report {
    // The resolve world always runs the same query count: per-query cost
    // includes the amortized world setup, so shrinking the count in
    // quick mode would inflate it against the committed baseline.
    let (hit_iters, churn_iters, queries) = if quick {
        (50_000u64, 5u64, 1_000u64)
    } else {
        (500_000, 40, 1_000)
    };

    // The gated path: warm cache, shared-record get. Each measured op is
    // one query; the gate requires allocs_per_op == 0.
    let names = hotpath::name_pool(1000);
    let mut warm = hotpath::warm_cache(&names, 2048);
    let t = SimTime::ZERO + SimDuration::from_secs(10);
    let mut i = 0usize;
    let (hit_ns, hit_allocs) = measure(hit_iters, || {
        i = (i + 1) % names.len();
        black_box(warm.get(black_box(&names[i]), RrType::A, t));
    });
    let cached_hit = Section {
        ns_per_op: hit_ns,
        allocs_per_op: hit_allocs,
    };

    // Churn far above capacity, new cache vs the naive reference. The
    // working set (1024 names) is 2x capacity (512), so every insert
    // past warm-up evicts: the naive cache pays an O(capacity) victim
    // scan plus a full-map expiry sweep per insert, the new cache pops
    // the LRU tail.
    let churn_names = hotpath::name_pool(1024);
    let (new_ns, _) = measure(churn_iters, || {
        black_box(hotpath::churn_new(black_box(&churn_names), 512, 2));
    });
    let (naive_ns, _) = measure(churn_iters, || {
        black_box(hotpath::churn_naive(black_box(&churn_names), 512, 2));
    });
    let cache_churn = Churn {
        new_ns_per_op: new_ns,
        naive_ns_per_op: naive_ns,
        speedup: naive_ns / new_ns,
    };

    // Full simulated resolve world; repeats after the first hit the
    // L-DNS cache, so this is the end-to-end cached path.
    let reps = if quick { 1 } else { 3 };
    // detlint: allow(wall-clock) — this binary *measures* wall time;
    // the timed region contains no simulation logic.
    let t0 = Instant::now();
    for _ in 0..reps {
        let answered = hotpath::run_resolution(queries);
        assert_eq!(answered as u64, queries, "resolve world dropped queries");
    }
    let resolve_end_to_end = Resolve {
        ns_per_query: t0.elapsed().as_nanos() as f64 / (reps * queries) as f64,
        queries,
    };

    Report {
        schema: "bench-hotpath/v1",
        quick,
        cached_hit,
        cache_churn,
        resolve_end_to_end,
    }
}

/// Pulls a nested f64 out of a parsed baseline, e.g. `["cached_hit",
/// "allocs_per_op"]`.
fn field(v: &serde_json::Value, path: [&str; 2]) -> Option<f64> {
    use serde_json::Value;
    let mut cur = v;
    for key in path {
        let Value::Object(members) = cur else {
            return None;
        };
        cur = &members.iter().find(|(k, _)| k == key)?.1;
    }
    match cur {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn check(report: &Report, baseline_path: &str) -> Result<(), String> {
    if report.cached_hit.allocs_per_op != 0.0 {
        return Err(format!(
            "cached-hit path allocates: {} allocs/query (must be 0)",
            report.cached_hit.allocs_per_op
        ));
    }
    if report.cache_churn.speedup < 3.0 {
        return Err(format!(
            "cache churn speedup {:.2}x below the 3x floor",
            report.cache_churn.speedup
        ));
    }
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let base =
        serde_json::parse_value(&text).map_err(|e| format!("bad baseline JSON: {e}"))?;
    if let Some(base_ns) = field(&base, ["resolve_end_to_end", "ns_per_query"]) {
        let limit = base_ns * 1.2;
        if report.resolve_end_to_end.ns_per_query > limit {
            return Err(format!(
                "resolve_end_to_end regressed: {:.0} ns/query > 1.2 x baseline {:.0}",
                report.resolve_end_to_end.ns_per_query, base_ns
            ));
        }
    }
    Ok(())
}

fn main() {
    // detlint: allow(env-read) — CLI of a measurement harness, outside
    // any simulation.
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    let baseline = flag_value("--check");

    let report = run(quick);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    eprintln!("{json}");

    if let Some(path) = baseline {
        if let Err(msg) = check(&report, &path) {
            eprintln!("bench_hotpath: FAIL: {msg}");
            std::process::exit(1);
        }
        eprintln!("bench_hotpath: OK (allocs=0, speedup {:.1}x)", report.cache_churn.speedup);
        return;
    }

    std::fs::write(&out, json + "\n").expect("write report");
    eprintln!("wrote {out}");
}
