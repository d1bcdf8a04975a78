//! `mecdnsd` binary: serve the MEC resolver on UDP, drive it with a
//! closed-loop load generator, or run both as a self-contained smoke
//! test.
//!
//! ```text
//! mecdnsd serve   [--bind IP] [--port N] [--shards N] [--shared-socket]
//!                 [--duration SECS] [--stats]
//! mecdnsd loadgen --target ADDR [--target ADDR ...] [--queries N]
//!                 [--clients N] [--names N] [--alpha F] [--seed N]
//!                 [--timeout-ms N] [--json]
//! mecdnsd smoke   [--queries N] [--shards N] [--clients N]
//! ```

use mecdnsd::{loadgen, serve, LoadgenConfig, ServeConfig};
use std::net::SocketAddr;
use std::time::Duration;

const USAGE: &str = "usage: mecdnsd <serve|loadgen|smoke> [options]
  serve    --bind IP --port N --shards N [--shared-socket]
           [--duration SECS] [--stats]
  loadgen  --target ADDR [--target ADDR ...] [--queries N] [--clients N]
           [--names N] [--alpha F] [--seed N] [--timeout-ms N] [--json]
  smoke    [--queries N] [--shards N] [--clients N]";

fn main() {
    // detlint: allow(env-read) — CLI argument intake; the process
    // boundary is the one place ambient input is allowed in.
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("smoke") => cmd_smoke(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    }
}

/// Pulls the value after `flag` out of `args`, parsed; `None` when the
/// flag is absent, `Err` message when present but unparseable.
fn opt_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let Some(raw) = args.get(pos + 1) else {
        return Err(format!("{flag} needs a value"));
    };
    raw.parse::<T>()
        .map(Some)
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn cmd_serve(args: &[String]) -> i32 {
    let mut config = ServeConfig::default();
    let duration_secs = match (|| -> Result<u64, String> {
        if let Some(bind) = opt_value(args, "--bind")? {
            config.bind = bind;
        }
        if let Some(port) = opt_value(args, "--port")? {
            config.port = port;
        }
        if let Some(shards) = opt_value(args, "--shards")? {
            config.shards = shards;
        }
        config.shared_socket = has_flag(args, "--shared-socket");
        Ok(opt_value(args, "--duration")?.unwrap_or(0))
    })() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("mecdnsd serve: {e}");
            return 2;
        }
    };
    let handle = match serve::spawn(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("mecdnsd serve: bind failed: {e}");
            return 1;
        }
    };
    for addr in handle.local_addrs() {
        println!("listening on {addr}");
    }
    if duration_secs == 0 {
        // Serve until the process is killed; park forever.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(duration_secs));
    let elapsed_ns = handle.elapsed_ns();
    let report = handle.stop();
    if has_flag(args, "--stats") {
        println!("{}", report.stats_line(elapsed_ns));
    }
    i32::from(report.crashed_shards > 0)
}

fn cmd_loadgen(args: &[String]) -> i32 {
    let mut config = LoadgenConfig::default();
    for (i, arg) in args.iter().enumerate() {
        if arg == "--target" {
            match args.get(i + 1).map(|v| v.parse::<SocketAddr>()) {
                Some(Ok(addr)) => config.targets.push(addr),
                _ => {
                    eprintln!("mecdnsd loadgen: --target needs host:port");
                    return 2;
                }
            }
        }
    }
    if let Err(e) = (|| -> Result<(), String> {
        if let Some(v) = opt_value(args, "--queries")? {
            config.queries = v;
        }
        if let Some(v) = opt_value(args, "--clients")? {
            config.clients = v;
        }
        if let Some(v) = opt_value(args, "--names")? {
            config.names = v;
        }
        if let Some(v) = opt_value(args, "--alpha")? {
            config.alpha = v;
        }
        if let Some(v) = opt_value(args, "--seed")? {
            config.seed = v;
        }
        if let Some(v) = opt_value(args, "--timeout-ms")? {
            config.timeout_ms = v;
        }
        Ok(())
    })() {
        eprintln!("mecdnsd loadgen: {e}");
        return 2;
    }
    let report = match loadgen::run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mecdnsd loadgen: {e}");
            return 1;
        }
    };
    if has_flag(args, "--json") {
        println!("{}", loadgen_json(&report));
    } else {
        println!(
            "sent {} received {} ({:.0} qps), rtt p50 {:.1}us p99 {:.1}us, \
             timeouts={} decode_errors={} mismatches={} truncated={}",
            report.sent,
            report.received,
            report.qps(),
            report.percentile_ns(0.50).unwrap_or(0) as f64 / 1e3,
            report.percentile_ns(0.99).unwrap_or(0) as f64 / 1e3,
            report.timeouts,
            report.decode_errors,
            report.mismatches,
            report.truncated,
        );
    }
    i32::from(report.received == 0)
}

/// Hand-rolled JSON so the binary needs no serializer dependency.
fn loadgen_json(report: &mecdnsd::LoadReport) -> String {
    format!(
        "{{\"sent\":{},\"received\":{},\"timeouts\":{},\"decode_errors\":{},\
         \"mismatches\":{},\"truncated\":{},\"qps\":{:.2},\"p50_us\":{:.1},\"p99_us\":{:.1}}}",
        report.sent,
        report.received,
        report.timeouts,
        report.decode_errors,
        report.mismatches,
        report.truncated,
        report.qps(),
        report.percentile_ns(0.50).unwrap_or(0) as f64 / 1e3,
        report.percentile_ns(0.99).unwrap_or(0) as f64 / 1e3,
    )
}

/// In-process server + load generator over loopback, with hard
/// assertions that hold on any host: the CI smoke gate. Every datagram
/// parses, every query is answered NOERROR, nothing truncates, and
/// throughput is nonzero.
fn cmd_smoke(args: &[String]) -> i32 {
    let queries = match opt_value(args, "--queries") {
        Ok(v) => v.unwrap_or(10_000),
        Err(e) => {
            eprintln!("mecdnsd smoke: {e}");
            return 2;
        }
    };
    let shards = match opt_value(args, "--shards") {
        Ok(v) => v.unwrap_or(2),
        Err(e) => {
            eprintln!("mecdnsd smoke: {e}");
            return 2;
        }
    };
    let clients = match opt_value(args, "--clients") {
        Ok(v) => v.unwrap_or(8),
        Err(e) => {
            eprintln!("mecdnsd smoke: {e}");
            return 2;
        }
    };
    let handle = match serve::spawn(ServeConfig {
        shards,
        ..ServeConfig::default()
    }) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("mecdnsd smoke: bind failed: {e}");
            return 1;
        }
    };
    let load = LoadgenConfig {
        targets: handle.local_addrs().to_vec(),
        queries,
        clients,
        ..LoadgenConfig::default()
    };
    let client_report = match loadgen::run(&load) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mecdnsd smoke: loadgen failed: {e}");
            handle.stop();
            return 1;
        }
    };
    let elapsed_ns = handle.elapsed_ns();
    let server_report = handle.stop();
    println!("server: {}", server_report.stats_line(elapsed_ns));
    println!(
        "client: sent {} received {} ({:.0} qps), rtt p50 {:.1}us p99 {:.1}us",
        client_report.sent,
        client_report.received,
        client_report.qps(),
        client_report.percentile_ns(0.50).unwrap_or(0) as f64 / 1e3,
        client_report.percentile_ns(0.99).unwrap_or(0) as f64 / 1e3,
    );
    let mut failures = Vec::new();
    if server_report.decode_errors != 0 {
        failures.push(format!(
            "server saw {} decode errors",
            server_report.decode_errors
        ));
    }
    if client_report.decode_errors != 0 {
        failures.push(format!(
            "clients saw {} decode errors",
            client_report.decode_errors
        ));
    }
    if server_report.rcodes.noerror != server_report.queries {
        failures.push(format!(
            "{} NOERROR answers for {} queries",
            server_report.rcodes.noerror, server_report.queries
        ));
    }
    if server_report.truncated != 0 {
        failures.push(format!(
            "{} responses truncated under single-answer load",
            server_report.truncated
        ));
    }
    if client_report.received == 0 || client_report.qps() <= 0.0 {
        failures.push("no throughput: zero responses received".to_string());
    }
    if server_report.crashed_shards != 0 {
        failures.push(format!("{} shards crashed", server_report.crashed_shards));
    }
    if failures.is_empty() {
        println!("smoke: OK");
        0
    } else {
        for f in &failures {
            eprintln!("smoke: FAIL: {f}");
        }
        1
    }
}
