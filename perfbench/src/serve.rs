//! The `serve-hit` and `serve-miss` workloads: `mecdnsd` on loopback,
//! driven by a closed loop from this thread, plus the probes that time
//! the served path's layers from outside.
//!
//! Sizing for a small host: one server shard, one load-generator thread
//! (the main thread) and one query in flight — the client waits for
//! each answer, as a UE's stub does. An open loop from one thread ran
//! milliseconds late here, which made its tail latency unsteady.

use crate::affinity;
use crate::alloc::{self, Role};
use crate::check::{Checker, Fault};
use crate::stream::{self, Mix, QueryTemplate};
use crate::{median, percentile, Metrics, Outcome};
use cdn_sim::ServeTopology;
use dns_server::plugins::CachePlugin;
use dns_server::{PluginDecision, QueryCtx};
use dns_wire::Message;
use mecdnsd::serve::{self, ServeConfig, ServeReport};
use netsim::{SimTime, Telemetry};
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// Queries per `--seconds` of a run. The count is fixed by the
/// arguments, not by the clock, so that memory metrics do not move with
/// speed; at this rate a run lasts about `--seconds` on a 2-vCPU host.
pub const QUERIES_PER_SECOND: usize = 20_000;
/// Index into the allowed CPUs of the server shard's CPU.
const SERVER_CPU: usize = 1;
/// Slices the stream is timed in.
const CHUNKS: usize = 20;
/// Fresh servers started before each slice to time set-up.
const SETUP_PER_CHUNK: usize = 2;
/// Queries in the served run of a traced `city` or `paper` run.
const DEFAULT_SERVED_QUERIES: usize = 20_000;
/// Queries each layer probe times.
const PROBE_QUERIES: usize = 4_096;
/// A reply later than this is a failed query.
const TIMEOUT: Duration = Duration::from_secs(1);
/// The EDNS budget the queries advertise (`Opt::default()`).
const PAYLOAD_BUDGET: usize = 1232;

/// What the closed loop saw.
#[derive(Default)]
pub struct LoopOutcome {
    /// Queries sent.
    pub attempted: u64,
    /// Queries that failed a check or timed out.
    pub failed: u64,
    /// Failures by kind, in the order first seen.
    pub faults: Vec<(Fault, u64)>,
    /// Round trip of every query that passed, in nanoseconds.
    pub latencies_ns: Vec<u64>,
}

impl LoopOutcome {
    fn fault(&mut self, fault: Fault, count: u64) {
        self.failed += count;
        match self.faults.iter_mut().find(|(f, _)| *f == fault) {
            Some((_, n)) => *n += count,
            None => self.faults.push((fault, count)),
        }
    }

    fn merge(&mut self, other: LoopOutcome) {
        self.attempted += other.attempted;
        for (fault, n) in other.faults {
            self.fault(fault, n);
        }
        self.latencies_ns.extend(other.latencies_ns);
    }
}

/// Sends one query per rank over `sock` (connected to the server), one
/// in flight, and checks every reply. A reply with another id is a
/// failure of the query waiting for it; the loop keeps waiting for the
/// right reply so later queries stay in step.
pub fn closed_loop(
    sock: &UdpSocket,
    ranks: &[u64],
    template: &QueryTemplate,
    checker: &mut Checker,
) -> io::Result<LoopOutcome> {
    let mut outcome = LoopOutcome {
        latencies_ns: Vec::with_capacity(ranks.len()),
        ..LoopOutcome::default()
    };
    let mut query = Vec::with_capacity(128);
    let mut reply = vec![0u8; 65_535];
    for (i, &k) in ranks.iter().enumerate() {
        template.write(i as u16, k, &mut query);
        let question_len = template.question_len(k);
        outcome.attempted += 1;
        let t0 = Instant::now();
        sock.send(&query)?;
        let mut fault = None;
        loop {
            match sock.recv(&mut reply) {
                Ok(len) => {
                    let rtt = t0.elapsed().as_nanos() as u64;
                    match checker.check(k, &query, question_len, &reply[..len]) {
                        Ok(()) => {
                            if fault.is_none() {
                                outcome.latencies_ns.push(rtt);
                            }
                            break;
                        }
                        Err(Fault::IdMismatch) => fault = Some(Fault::IdMismatch),
                        Err(f) => {
                            fault = Some(f);
                            break;
                        }
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    fault = Some(fault.unwrap_or(Fault::Timeout));
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        if let Some(f) = fault {
            outcome.fault(f, 1);
        }
    }
    Ok(outcome)
}

fn client_for(target: SocketAddr) -> io::Result<UdpSocket> {
    let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    sock.connect(target)?;
    sock.set_read_timeout(Some(TIMEOUT))?;
    Ok(sock)
}

/// Spawns a one-shard server on the second allowed CPU and leaves the
/// calling (client) thread on the first.
fn spawn_server(topo: &ServeTopology) -> io::Result<serve::ServerHandle> {
    let cpus = affinity::allowed();
    if let Some(&cpu) = cpus.get(SERVER_CPU).or(cpus.first()) {
        affinity::pin(cpu);
    }
    let handle = serve::spawn(ServeConfig {
        shards: 1,
        topology: topo.clone(),
        ..ServeConfig::default()
    });
    if let Some(&cpu) = cpus.first() {
        affinity::pin(cpu);
    }
    handle
}

/// The server-side invariants of a clean run: every query decoded and
/// answered NOERROR, untruncated, and no shard died.
fn server_clean(report: &ServeReport, sent: u64) -> bool {
    report.queries == sent
        && report.responses == sent
        && report.rcodes.noerror == sent
        && report.decode_errors == 0
        && report.encode_errors == 0
        && report.truncated == 0
        && report.crashed_shards == 0
}

/// One served run: a fresh server, the whole stream, the server's
/// report and the memory it held.
pub struct Served {
    /// What the client saw.
    pub outcome: LoopOutcome,
    /// The stream in [`CHUNKS`] consecutive slices: wall time (checks
    /// included) and round trips of the queries that passed.
    pub chunks: Vec<(Duration, Vec<u64>)>,
    /// The server's merged report.
    pub report: ServeReport,
    /// Whether the server-side invariants held.
    pub clean: bool,
    /// Peak live bytes of the server threads.
    pub heap_peak: i64,
    /// Server live bytes gained over the loop.
    pub heap_growth: i64,
}

/// Set-up samples: fresh servers timed from spawn to first verified
/// answer.
#[derive(Default)]
struct Setup {
    seconds: Vec<f64>,
    outcome: LoopOutcome,
    /// Servers whose report broke an invariant.
    unclean: u64,
}

impl Setup {
    fn cycle(
        &mut self,
        topo: &ServeTopology,
        template: &QueryTemplate,
        rank: u64,
    ) -> io::Result<()> {
        let mut checker = Checker::new(topo.caches.clone());
        let t0 = Instant::now();
        let handle = spawn_server(topo)?;
        let sock = client_for(handle.local_addrs()[0])?;
        let first = closed_loop(&sock, &[rank], template, &mut checker)?;
        self.seconds.push(t0.elapsed().as_secs_f64());
        self.unclean += u64::from(!server_clean(&handle.stop(), first.attempted));
        self.outcome.merge(first);
        Ok(())
    }
}

/// Serves `ranks` from one fresh server in [`CHUNKS`] slices, calling
/// `between` (with the slice index) before each slice.
fn served_run(
    topo: &ServeTopology,
    template: &QueryTemplate,
    ranks: &[u64],
    between: &mut dyn FnMut(usize) -> io::Result<()>,
) -> io::Result<Served> {
    let mut checker = Checker::new(topo.caches.clone());
    let handle = spawn_server(topo)?;
    let sock = client_for(handle.local_addrs()[0])?;
    alloc::reset_peak(Role::Program);
    let live0 = alloc::live_bytes(Role::Program);
    let mut outcome = LoopOutcome::default();
    let mut chunks = Vec::with_capacity(CHUNKS);
    for (i, slice) in ranks.chunks(ranks.len().div_ceil(CHUNKS)).enumerate() {
        between(i)?;
        let t0 = Instant::now();
        let mut part = closed_loop(&sock, slice, template, &mut checker)?;
        chunks.push((t0.elapsed(), std::mem::take(&mut part.latencies_ns)));
        outcome.merge(part);
    }
    let heap_growth = alloc::live_bytes(Role::Program) - live0;
    let report = handle.stop();
    Ok(Served {
        clean: server_clean(&report, outcome.attempted),
        heap_peak: alloc::peak_bytes(Role::Program),
        heap_growth,
        outcome,
        chunks,
        report,
    })
}

/// Runs `serve-hit` or `serve-miss`.
pub fn run(mix: Mix, seed: u64, seconds: u64, trace: bool) -> io::Result<Outcome> {
    alloc::set_role(Role::Client);
    let topo = ServeTopology::default();
    let template = QueryTemplate::new(&topo);
    let n = (seconds as usize).max(1) * QUERIES_PER_SECOND;
    let ranks = stream::ranks(mix, seed, n);

    // Set-up cycles run between the slices, so that they sample the
    // host over the whole run as the other figures do.
    let mut setup = Setup::default();
    let served = served_run(&topo, &template, &ranks, &mut |i| {
        for j in 0..SETUP_PER_CHUNK {
            setup.cycle(&topo, &template, ranks[i * SETUP_PER_CHUNK + j])?;
        }
        Ok(())
    })?;
    // Medians over the chunks, so that a stall of the host during a
    // few of them does not move the run's figures.
    let over_chunks = |f: &dyn Fn(&Duration, &[u64]) -> f64| {
        let mut v: Vec<f64> = served
            .chunks
            .iter()
            .map(|(wall, lat)| f(wall, lat))
            .collect();
        median(&mut v)
    };
    let quantile_us = |lat: &[u64], p: f64| {
        let mut us: Vec<f64> = lat.iter().map(|&ns| ns as f64 / 1e3).collect();
        percentile(&mut us, p)
    };
    let mut e2e = Metrics::default();
    e2e.push("qps", over_chunks(&chunk_qps));
    e2e.push("p50_us", over_chunks(&|_, lat| quantile_us(lat, 0.50)));
    e2e.push("p90_us", over_chunks(&|_, lat| quantile_us(lat, 0.90)));
    e2e.push(
        "wall_s",
        over_chunks(&|wall, _| wall.as_secs_f64()) * served.chunks.len() as f64,
    );
    e2e.push("heap_peak_mb", served.heap_peak as f64 / 1e6);
    e2e.push("setup_s", median(&mut setup.seconds));

    let mut layers = Metrics::default();
    if trace {
        served_layers(&served, &mut layers);
        probe_layers(&topo, &template, &ranks, &mut layers)?;
    }
    let faults = served.outcome.faults.clone();
    let clean = served.clean && setup.unclean == 0;
    let mut all = served.outcome;
    all.merge(setup.outcome);
    Ok(Outcome {
        correct: clean && all.failed == 0,
        attempted: all.attempted,
        failed: all.failed,
        e2e,
        layers,
        notes: vec![
            format!("\"faults\":\"{faults:?}\""),
            format!(
                "\"chunk_qps\":[{}]",
                served
                    .chunks
                    .iter()
                    .map(|(wall, lat)| format!("{:.0}", chunk_qps(wall, lat)))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ],
    })
}

/// Queries that passed per second of a slice.
fn chunk_qps(wall: &Duration, latencies: &[u64]) -> f64 {
    latencies.len() as f64 / wall.as_secs_f64()
}

/// The served-path layers on the `serve-hit` stream, for traced runs of
/// workloads that do not serve. Returns `(attempted, failed)`.
pub fn default_layers(seed: u64, layers: &mut Metrics) -> io::Result<(u64, u64)> {
    alloc::set_role(Role::Client);
    let topo = ServeTopology::default();
    let template = QueryTemplate::new(&topo);
    let ranks = stream::ranks(Mix::Hit, seed, DEFAULT_SERVED_QUERIES);
    let served = served_run(&topo, &template, &ranks, &mut |_| Ok(()))?;
    served_layers(&served, layers);
    probe_layers(&topo, &template, &ranks, layers)?;
    alloc::set_role(Role::Program);
    let failed = served.outcome.failed + u64::from(!served.clean);
    Ok((served.outcome.attempted, failed))
}

/// Layer metrics read off the served run itself.
fn served_layers(served: &Served, layers: &mut Metrics) {
    let r = &served.report;
    let queries = r.queries.max(1) as f64;
    layers.push(
        "serve.service_p50_us",
        r.latency_percentile_ns(0.5).unwrap_or(0) as f64 / 1e3,
    );
    layers.push("serve.io_errors", r.io_errors as f64);
    layers.push(
        "serve.heap_bytes_per_query",
        served.heap_growth as f64 / queries,
    );
    let hits = r.metrics.counter("dns.cache.hit") as f64;
    let misses = r.metrics.counter("dns.cache.miss") as f64;
    layers.push("cache.hit_ratio", hits / (hits + misses).max(1.0));
    let routed = r.metrics.counter("cdns.answered") + r.metrics.counter("cdns.referred");
    layers.push("cdns.routes_per_query", routed as f64 / queries);
}

/// Per-call samples of one probe: nanoseconds and allocations.
#[derive(Default)]
struct Calls {
    ns: Vec<f64>,
    allocs: Vec<f64>,
}

impl Calls {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (a0, _) = alloc::thread_counts();
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as f64;
        let (a1, _) = alloc::thread_counts();
        self.ns.push(ns);
        self.allocs.push((a1 - a0) as f64);
        out
    }

    fn report(mut self, layers: &mut Metrics, ns: &'static str, allocs: Option<&'static str>) {
        layers.push(ns, median(&mut self.ns));
        if let Some(name) = allocs {
            let mean = self.allocs.iter().sum::<f64>() / self.allocs.len().max(1) as f64;
            layers.push(name, mean);
        }
    }
}

/// Times the served path's layers in-process, on the first
/// [`PROBE_QUERIES`] queries of the workload's stream: sockets as in
/// the serve loop, wire decode and encode, the engine split into cache
/// hits and misses, and the C-DNS chain.
fn probe_layers(
    topo: &ServeTopology,
    template: &QueryTemplate,
    ranks: &[u64],
    layers: &mut Metrics,
) -> io::Result<()> {
    // Probes run on this thread; charge them to the program.
    alloc::set_role(Role::Program);
    let ranks = &ranks[..ranks.len().min(PROBE_QUERIES)];
    let queries: Vec<Vec<u8>> = ranks
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let mut q = Vec::new();
            template.write(i as u16, k, &mut q);
            q
        })
        .collect();
    let client = IpAddr::V4(Ipv4Addr::LOCALHOST);

    // Two passes over the same names on one engine: the first sees the
    // workload's own hit/miss mix, the second hits whatever the first
    // cached, so both halves get samples on both workloads.
    let mut engine = topo.engine();
    let (mut decode, mut encode) = (Calls::default(), Calls::default());
    let (mut hit, mut miss) = (Calls::default(), Calls::default());
    let cache_hits = |e: &dns_server::ServeEngine| {
        e.front_plugin::<CachePlugin>(0)
            .map_or(0, CachePlugin::hits)
    };
    for _ in 0..2 {
        for bytes in &queries {
            let msg = decode
                .time(|| Message::decode(std::hint::black_box(bytes)))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let before = cache_hits(&engine);
            let mut calls = Calls::default();
            let resp = calls.time(|| engine.resolve(SimTime::ZERO, client, 5353, &msg));
            let into = if cache_hits(&engine) > before {
                &mut hit
            } else {
                &mut miss
            };
            into.ns.extend(calls.ns);
            into.allocs.extend(calls.allocs);
            let resp = resp.ok_or_else(|| io::Error::other("engine ignored a query"))?;
            let bytes = encode.time(|| resp.encode_bounded(PAYLOAD_BUDGET));
            std::hint::black_box(bytes.map_err(|e| io::Error::other(e.to_string()))?);
        }
    }
    decode.report(layers, "wire.decode_ns", Some("wire.decode_allocs"));
    encode.report(layers, "wire.encode_ns", Some("wire.encode_allocs"));
    hit.report(
        layers,
        "engine.resolve_hit_ns",
        Some("engine.resolve_hit_allocs"),
    );
    miss.report(
        layers,
        "engine.resolve_miss_ns",
        Some("engine.resolve_miss_allocs"),
    );

    // The C-DNS chain's routing decision, on every query.
    let mut chain = topo.cdns_chain();
    let ctx = QueryCtx {
        now: SimTime::ZERO,
        client,
        client_port: 5353,
        telemetry: Telemetry::default(),
    };
    let mut route = Calls::default();
    for bytes in &queries {
        let msg = Message::decode(bytes).map_err(|e| io::Error::other(e.to_string()))?;
        route.time(|| {
            for p in chain.iter_mut() {
                let decision = p.on_query(&ctx, &msg);
                if !matches!(decision, PluginDecision::Continue) {
                    return Some(decision);
                }
            }
            None
        });
    }
    route.report(layers, "cdns.route_ns", None);

    // Socket calls as the serve loop makes them: the datagram is already
    // queued when the server receives, so this is syscall cost without
    // the wake-up.
    let server = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    let sock = client_for(server.local_addr()?)?;
    let mut engine = topo.engine();
    let (mut recv, mut send) = (Calls::default(), Calls::default());
    let mut buf = vec![0u8; 65_535];
    let mut back = vec![0u8; 65_535];
    for bytes in &queries {
        sock.send(bytes)?;
        let (len, peer) = recv.time(|| server.recv_from(&mut buf))?;
        let msg = Message::decode(&buf[..len]).map_err(|e| io::Error::other(e.to_string()))?;
        let resp = engine
            .resolve(SimTime::ZERO, peer.ip(), peer.port(), &msg)
            .ok_or_else(|| io::Error::other("engine ignored a query"))?;
        let out = resp
            .encode_bounded(PAYLOAD_BUDGET)
            .map_err(|e| io::Error::other(e.to_string()))?;
        send.time(|| server.send_to(&out, peer))?;
        sock.recv(&mut back)?;
    }
    recv.report(layers, "sock.recv_ns", None);
    send.report(layers, "sock.send_ns", None);
    alloc::set_role(Role::Client);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server that answers through the real engine, then corrupts
    /// every `nth` reply with `corrupt`.
    fn faulty_server(
        nth: usize,
        corrupt: fn(&mut Vec<u8>),
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let addr = sock.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut engine = ServeTopology::default().engine();
            let mut buf = vec![0u8; 65_535];
            let mut served = 0;
            while let Ok((len, peer)) = sock.recv_from(&mut buf) {
                let msg = Message::decode(&buf[..len]).unwrap();
                let resp = engine
                    .resolve(SimTime::ZERO, peer.ip(), peer.port(), &msg)
                    .unwrap();
                let mut out = resp.encode().unwrap();
                served += 1;
                if served % nth == 0 {
                    corrupt(&mut out);
                }
                sock.send_to(&out, peer).unwrap();
            }
        });
        (addr, handle)
    }

    fn drive(nth: usize, corrupt: fn(&mut Vec<u8>)) -> LoopOutcome {
        let topo = ServeTopology::default();
        let template = QueryTemplate::new(&topo);
        let (addr, server) = faulty_server(nth, corrupt);
        let sock = client_for(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut checker = Checker::new(topo.caches.clone());
        let ranks = stream::ranks(Mix::Hit, 3, 40);
        let outcome = closed_loop(&sock, &ranks, &template, &mut checker).unwrap();
        server.join().unwrap();
        outcome
    }

    #[test]
    fn a_clean_server_passes_every_query() {
        let outcome = drive(usize::MAX, |_| {});
        assert_eq!((outcome.attempted, outcome.failed), (40, 0));
        assert_eq!(outcome.latencies_ns.len(), 40);
    }

    #[test]
    fn a_mismatched_id_is_a_failed_query() {
        let outcome = drive(4, |out| out[0] ^= 0x80);
        assert_eq!((outcome.attempted, outcome.failed), (40, 10));
        assert_eq!(outcome.faults, vec![(Fault::IdMismatch, 10)]);
        assert_eq!(outcome.latencies_ns.len(), 30, "failures carry no latency");
    }

    #[test]
    fn a_wrong_answer_is_a_failed_query() {
        // SERVFAIL in place of the answer.
        let outcome = drive(5, |out| out[3] = (out[3] & 0xF0) | 2);
        assert_eq!((outcome.attempted, outcome.failed), (40, 8));
        assert_eq!(outcome.faults, vec![(Fault::Rcode, 8)]);
    }

    #[test]
    fn a_real_server_run_is_clean() {
        let topo = ServeTopology::default();
        let template = QueryTemplate::new(&topo);
        let ranks = stream::ranks(Mix::Miss, 5, 300);
        let served = served_run(&topo, &template, &ranks, &mut |_| Ok(())).unwrap();
        assert!(served.clean);
        assert_eq!((served.outcome.attempted, served.outcome.failed), (300, 0));
    }
}
