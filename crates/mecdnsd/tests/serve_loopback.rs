//! End-to-end: the sharded UDP fleet under the closed-loop load
//! generator, over loopback.

use cdn_sim::ServeTopology;
use dns_wire::{Message, Opt, RrType};
use mecdnsd::{loadgen, serve, LoadReport, LoadgenConfig, ServeConfig, WallClock};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn drive(shards: usize, shared_socket: bool, queries: u64) -> LoadReport {
    let handle = serve::spawn(ServeConfig {
        shards,
        shared_socket,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let load = LoadgenConfig {
        targets: handle.local_addrs().to_vec(),
        queries,
        clients: 4,
        names: 64,
        ..LoadgenConfig::default()
    };
    let client = loadgen::run(&load).expect("loadgen run");
    let elapsed_ns = handle.elapsed_ns();
    let server = handle.stop();

    assert_eq!(client.sent, queries, "closed loop must issue its quota");
    assert_eq!(client.decode_errors, 0, "every response must parse");
    assert_eq!(client.mismatches, 0, "ids must round-trip");
    assert_eq!(
        client.received + client.timeouts,
        client.sent,
        "every query resolves to a response or a timeout"
    );
    assert!(
        client.received > queries / 2,
        "loopback should answer most queries (got {}/{queries})",
        client.received
    );
    assert!(client.qps() > 0.0);

    assert_eq!(server.decode_errors, 0);
    assert_eq!(server.crashed_shards, 0);
    assert_eq!(server.queries, queries, "server must accept every query");
    assert_eq!(server.rcodes.total(), server.queries);
    assert_eq!(
        server.rcodes.noerror, server.queries,
        "hosted-content queries all resolve"
    );
    assert_eq!(server.truncated, 0, "single-answer responses never truncate");
    assert!(server.latency_percentile_ns(0.99).unwrap() > 0);
    assert!(!server.stats_line(elapsed_ns).is_empty());
    client
}

#[test]
fn per_shard_socket_fleet_serves_a_zipf_load() {
    drive(2, false, 2_000);
}

#[test]
fn shared_socket_fleet_serves_a_zipf_load() {
    drive(2, true, 2_000);
}

#[test]
fn oversubscribed_fleets_never_time_out() {
    // Four shards plus four clients outnumber the CPUs of a small host.
    // Per-shard sockets spin, so a busy shard must yield, not starve the
    // clients; shared-socket shards block, but four of them contend for
    // one socket.
    for shared_socket in [false, true] {
        let client = drive(4, shared_socket, 2_000);
        assert_eq!(client.timeouts, 0, "shared={shared_socket}: {client:?}");
    }
}

fn query_bytes(id: u16, topo: &ServeTopology) -> Vec<u8> {
    let mut q = Message::query(id, topo.content_name(usize::from(id)), RrType::A);
    q.edns = Some(Opt::default());
    q.encode().unwrap()
}

#[test]
fn a_queued_burst_is_answered_in_order() {
    let topo = ServeTopology::default();
    let handle = serve::spawn(ServeConfig::default()).expect("bind");
    let target = handle.local_addrs()[0];
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Queue the whole burst before reading a single answer.
    for id in 0..64u16 {
        sock.send_to(&query_bytes(id, &topo), target).unwrap();
    }
    let mut buf = [0u8; 4096];
    for id in 0..64u16 {
        let (len, _) = sock.recv_from(&mut buf).expect("answer");
        let resp = Message::decode(&buf[..len]).unwrap();
        assert_eq!(resp.header.id, id, "answers arrive in send order");
    }
    let report = handle.stop();
    assert_eq!(report.responses, 64);
    assert_eq!(report.crashed_shards, 0);
}

#[test]
fn stop_returns_promptly_under_load() {
    let topo = ServeTopology::default();
    let handle = serve::spawn(ServeConfig::default()).expect("bind");
    let target = handle.local_addrs()[0];
    let sending = Arc::new(AtomicBool::new(true));
    let flood = {
        let sending = Arc::clone(&sending);
        let query = query_bytes(1, &topo);
        std::thread::spawn(move || {
            let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
            let mut sent = 0u64;
            while sending.load(Ordering::Acquire) {
                if sock.send_to(&query, target).is_ok() {
                    sent += 1;
                }
            }
            sent
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    let clock = WallClock::start();
    let report = handle.stop();
    let stop_ns = clock.elapsed_ns();
    sending.store(false, Ordering::Release);
    let sent = flood.join().unwrap();
    assert!(sent > 0);
    assert!(report.responses > 0, "the shard served under load");
    assert_eq!(report.crashed_shards, 0);
    assert!(
        stop_ns < 1_000_000_000,
        "stop took {stop_ns} ns under back-to-back queries"
    );
}

#[test]
fn loadgen_streams_are_deterministic_in_content() {
    // Two runs with the same seed must issue the same query mix: the
    // server-side cache behaviour (first-query miss per distinct name)
    // pins that down without needing a packet tap.
    let topo = ServeTopology::default();
    for _ in 0..2 {
        let handle = serve::spawn(ServeConfig {
            topology: topo.clone(),
            ..ServeConfig::default()
        })
        .expect("bind");
        let load = LoadgenConfig {
            targets: handle.local_addrs().to_vec(),
            queries: 400,
            clients: 1,
            names: 32,
            seed: 11,
            ..LoadgenConfig::default()
        };
        let client = loadgen::run(&load).expect("run");
        let server = handle.stop();
        assert_eq!(client.sent, 400);
        // Misses = distinct names the single client actually drew; with
        // a fixed seed this is a fixed number ≤ 32, and every other
        // query is a cache hit.
        let misses = server.metrics.counter("dns.cache.miss");
        assert!(misses <= 32, "at most one miss per name, got {misses}");
        assert_eq!(
            server.metrics.counter("dns.cache.hit") + misses,
            server.queries
        );
    }
}
