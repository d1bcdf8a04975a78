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
use std::time::Duration;

const USAGE: &str = "usage: mecdnsd <serve|loadgen|smoke> [options]
  serve    [--bind IP] [--port N] [--shards N] [--shared-socket]
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

/// Parses the whole command line before anything binds: an unknown
/// subcommand or flag, a stray argument, or a missing or malformed flag
/// value exits 2 with the usage on stderr.
fn run(args: &[String]) -> i32 {
    let Some((cmd, args)) = args.split_first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let outcome = match cmd.as_str() {
        "serve" => serve_args(args).map(|(config, secs, stats)| cmd_serve(config, secs, stats)),
        "loadgen" => loadgen_args(args).map(|(config, json)| cmd_loadgen(&config, json)),
        "smoke" => smoke_args(args).map(|(serve, load)| cmd_smoke(serve, load)),
        _ => Err(format!("unknown subcommand {cmd:?}")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("mecdnsd {cmd}: {e}");
        eprintln!("{USAGE}");
        2
    })
}

/// One subcommand's flags, in command-line order; a switch has no value.
struct Flags<'a>(Vec<(&'a str, Option<&'a str>)>);

impl<'a> Flags<'a> {
    /// Reads `args` against the subcommand's value flags and switches.
    fn parse(args: &'a [String], values: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            if switches.contains(&arg) {
                flags.push((arg, None));
            } else if values.contains(&arg) {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.push((arg, Some(value)));
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}"));
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(Flags(flags))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|&(f, _)| f == flag)
    }

    /// Every value given for `flag`, parsed.
    fn all<T: std::str::FromStr>(&self, flag: &str) -> Result<Vec<T>, String> {
        let raws = self.0.iter().filter(|&&(f, _)| f == flag).filter_map(|&(_, v)| v);
        raws.map(|raw| raw.parse().map_err(|_| format!("{flag}: cannot parse {raw:?}")))
            .collect()
    }

    /// The first value given for `flag`, parsed; `default` when absent.
    fn value<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.all(flag)?.into_iter().next().unwrap_or(default))
    }
}

/// `serve`'s configuration, run time in seconds (0 = forever) and
/// whether to print stats at the end.
fn serve_args(args: &[String]) -> Result<(ServeConfig, u64, bool), String> {
    let flags = Flags::parse(
        args,
        &["--bind", "--port", "--shards", "--duration"],
        &["--shared-socket", "--stats"],
    )?;
    let d = ServeConfig::default();
    let config = ServeConfig {
        bind: flags.value("--bind", d.bind)?,
        port: flags.value("--port", d.port)?,
        shards: flags.value("--shards", d.shards)?,
        shared_socket: flags.has("--shared-socket"),
        ..d
    };
    Ok((config, flags.value("--duration", 0)?, flags.has("--stats")))
}

fn cmd_serve(config: ServeConfig, duration_secs: u64, stats: bool) -> i32 {
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
    if stats {
        println!("{}", report.stats_line(elapsed_ns));
    }
    i32::from(report.crashed_shards > 0)
}

/// `loadgen`'s configuration and whether to print JSON.
fn loadgen_args(args: &[String]) -> Result<(LoadgenConfig, bool), String> {
    let flags = Flags::parse(
        args,
        &[
            "--target",
            "--queries",
            "--clients",
            "--names",
            "--alpha",
            "--seed",
            "--timeout-ms",
        ],
        &["--json"],
    )?;
    let d = LoadgenConfig::default();
    let config = LoadgenConfig {
        targets: flags.all("--target")?,
        queries: flags.value("--queries", d.queries)?,
        clients: flags.value("--clients", d.clients)?,
        names: flags.value("--names", d.names)?,
        alpha: flags.value("--alpha", d.alpha)?,
        seed: flags.value("--seed", d.seed)?,
        timeout_ms: flags.value("--timeout-ms", d.timeout_ms)?,
        ..d
    };
    Ok((config, flags.has("--json")))
}

fn cmd_loadgen(config: &LoadgenConfig, json: bool) -> i32 {
    let report = match loadgen::run(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mecdnsd loadgen: {e}");
            return 1;
        }
    };
    if json {
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

/// `smoke`'s fleet (2 shards by default) and load (10 000 queries from
/// 8 clients by default); the targets are filled in once it binds.
fn smoke_args(args: &[String]) -> Result<(ServeConfig, LoadgenConfig), String> {
    let flags = Flags::parse(args, &["--queries", "--shards", "--clients"], &[])?;
    let serve = ServeConfig {
        shards: flags.value("--shards", 2)?,
        ..ServeConfig::default()
    };
    let load = LoadgenConfig {
        queries: flags.value("--queries", 10_000)?,
        clients: flags.value("--clients", 8)?,
        ..LoadgenConfig::default()
    };
    Ok((serve, load))
}

/// In-process server + load generator over loopback, with hard
/// assertions that hold on any host: the CI smoke gate. Every datagram
/// parses, every query is answered NOERROR, nothing truncates, and
/// throughput is nonzero.
fn cmd_smoke(serve: ServeConfig, load: LoadgenConfig) -> i32 {
    let handle = match serve::spawn(serve) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("mecdnsd smoke: bind failed: {e}");
            return 1;
        }
    };
    let load = LoadgenConfig {
        targets: handle.local_addrs().to_vec(),
        ..load
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
