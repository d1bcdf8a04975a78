//! The `city` workload — `city_experiment_with` between the quick and
//! full sizes, both deployments — and the netsim layer metrics.

use crate::alloc::{self, Role};
use crate::stream::SplitMix;
use crate::{median, percentile, Metrics, Outcome};
use dns_server::Zone;
use dns_wire::Name;
use mec_cdn::{city_experiment_with, CityConfig, CityReport, Runner};
use netsim::{SimDuration, SimTime, TimerWheel};
use std::net::Ipv4Addr;
use std::time::Instant;
use workload::{DiurnalCurve, UeConfig, UeFleet};

/// Calls made in every run, however short `--seconds` is.
const MIN_CALLS: usize = 3;
/// Times the set-up mirror is built per run.
const SETUP_REPEATS: usize = 5;
/// Pop+push pairs the timing-wheel probe times.
const CHURN_OPS: usize = 200_000;

/// The benchmark's city: 2.5× the quick city's UEs and 4× its
/// catalogue, about a second of wall time per call on a 2-vCPU host.
pub fn bench_config() -> CityConfig {
    CityConfig {
        ues: 50_000,
        enbs: 16,
        catalog: 20_000,
        alpha: 1.0,
        peak_interarrival: SimDuration::from_secs(10),
        window: SimDuration::from_secs(10),
        cache_entries: 16_384,
    }
}

/// One verified call and what it cost.
struct Call {
    report: CityReport,
    wall_s: f64,
    peak: i64,
    allocs: u64,
    bytes: u64,
}

/// A single-threaded runner: one thread was steady on a 2-vCPU host,
/// two were not.
fn call(seed: u64, cfg: &CityConfig) -> Call {
    alloc::reset_peak(Role::Program);
    let (a0, b0) = alloc::thread_counts();
    let t0 = Instant::now();
    let report = city_experiment_with(seed, &Runner::new(1), cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    let (a1, b1) = alloc::thread_counts();
    Call {
        report,
        wall_s,
        peak: alloc::peak_bytes(Role::Program),
        allocs: a1 - a0,
        bytes: b1 - b0,
    }
}

/// Queries the city issued and how many of them failed: every query
/// must be answered NOERROR (the city itself asserts that answered,
/// SERVFAIL and lost queries add up to those sent).
fn tally(report: &CityReport) -> (u64, u64) {
    report.deployments.iter().fold((0, 0), |(q, f), d| {
        (q + d.queries, f + d.queries.saturating_sub(d.answered))
    })
}

/// The set-up `city_experiment_with` performs before it simulates —
/// the catalogue names, the authoritative zone and the UE fleet — built
/// from the crates' public types. Returns seconds.
fn setup_mirror(seed: u64, cfg: &CityConfig) -> f64 {
    let t0 = Instant::now();
    let names: Vec<Name> = (0..cfg.catalog)
        .map(|i| Name::parse(&format!("c{i}.cdn.city.test")).expect("catalogue name parses"))
        .collect();
    let mut zone = Zone::new(Name::parse("cdn.city.test").expect("apex parses"));
    for (i, name) in names.iter().enumerate() {
        zone.add_a(
            name.clone(),
            Ipv4Addr::new(198, 18, (i >> 8) as u8, i as u8),
            300,
        );
    }
    let fleet = UeFleet::new(
        UeConfig {
            ues: cfg.ues,
            catalog: cfg.catalog,
            alpha: cfg.alpha,
            peak_interarrival: cfg.peak_interarrival,
            window: cfg.window,
            curve: DiurnalCurve::metro_day(cfg.window),
        },
        seed,
    );
    std::hint::black_box((&zone, &fleet));
    t0.elapsed().as_secs_f64()
}

/// Runs `city` for at least `seconds`.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    alloc::set_role(Role::Program);
    let cfg = bench_config();
    let mut setup: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| setup_mirror(seed, &cfg))
        .collect();

    let t0 = Instant::now();
    let mut calls = Vec::new();
    while calls.len() < MIN_CALLS || t0.elapsed().as_secs_f64() < seconds as f64 {
        calls.push(call(seed, &cfg));
    }
    let total_s = t0.elapsed().as_secs_f64();

    let (mut attempted, mut failed) = (0, 0);
    for c in &calls {
        let (q, f) = tally(&c.report);
        attempted += q;
        failed += f;
    }
    // The simulation is deterministic: every call must agree.
    let same = calls.iter().all(|c| c.report == calls[0].report);
    let queries = tally(&calls[0].report).0 as f64;

    let mut wall: Vec<f64> = calls.iter().map(|c| c.wall_s).collect();
    let mut peak: Vec<f64> = calls.iter().map(|c| c.peak as f64 / 1e6).collect();
    let mut e2e = Metrics::default();
    let wall_s = median(&mut wall);
    e2e.push("qps", queries * calls.len() as f64 / total_s);
    e2e.push("p50_us", wall_s * 1e6);
    e2e.push("p90_us", percentile(&mut wall, 0.9) * 1e6);
    e2e.push("wall_s", wall_s);
    e2e.push("heap_peak_mb", median(&mut peak));
    e2e.push("setup_s", median(&mut setup));

    let mut layers = Metrics::default();
    if trace {
        // The last call: warm, like every call but the first.
        sched_layers(&calls[calls.len() - 1], wall_s, &mut layers);
    }
    Outcome {
        correct: same && failed == 0,
        attempted,
        failed,
        e2e,
        layers,
        notes: vec![format!(
            "\"calls\":\"{:?}\"",
            calls
                .iter()
                .map(|c| (c.wall_s * 1e3) as u64)
                .collect::<Vec<_>>()
        )],
    }
}

/// The netsim layer on one city call, for traced runs of workloads
/// that do not simulate one. Returns `(attempted, failed)`.
pub fn default_layers(seed: u64, layers: &mut Metrics) -> (u64, u64) {
    alloc::set_role(Role::Program);
    let c = call(seed, &bench_config());
    sched_layers(&c, c.wall_s, layers);
    tally(&c.report)
}

/// The netsim metrics of `c`; `wall_s` is the call time to charge per
/// event (the run's median call on the `city` workload).
fn sched_layers(c: &Call, wall_s: f64, layers: &mut Metrics) {
    let d = &c.report.deployments;
    let events = d.iter().map(|d| d.sim_events).sum::<u64>() as f64;
    let queries = d.iter().map(|d| d.queries).sum::<u64>() as f64;
    let max_pending = d.iter().map(|d| d.max_pending_events).max().unwrap_or(0);
    layers.push("sched.events", events);
    layers.push("sched.events_per_query", events / queries.max(1.0));
    layers.push("sched.ns_per_event", wall_s * 1e9 / events.max(1.0));
    layers.push("sched.max_pending", max_pending as f64);
    layers.push(
        "sched.cascades",
        d.iter().map(|d| d.wheel_cascades).sum::<u64>() as f64,
    );
    layers.push("sim.allocs_per_event", c.allocs as f64 / events.max(1.0));
    layers.push("sim.bytes_per_query", c.bytes as f64 / queries.max(1.0));
    layers.push("wheel.churn_ns", wheel_churn_ns(max_pending as usize));
}

/// ns per pop+push on a `TimerWheel` holding `pending` timers, with
/// delays from radio-scale to arrival-timer scale as in the city.
fn wheel_churn_ns(pending: usize) -> f64 {
    let mut rng = SplitMix::new(2020 ^ pending as u64);
    let mut delay = move || {
        let r = rng.next_u64();
        SimDuration::from_nanos(match r % 8 {
            0 => 1_000 + r % 1_000_000,
            1..=5 => 1_000_000 + r % 100_000_000,
            _ => 100_000_000 + r % 4_000_000_000,
        })
    };
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut now = SimTime::ZERO;
    for i in 0..pending.max(1) as u64 {
        wheel.schedule(now + delay(), i);
    }
    let t0 = Instant::now();
    for _ in 0..CHURN_OPS {
        let (t, v) = wheel.pop().expect("the wheel stays full");
        now = t;
        wheel.schedule(now + delay(), v);
    }
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(wheel.len());
    ns / CHURN_OPS as f64
}
