//! `perfbench` — the repository's benchmark: `mecdnsd` latency apart
//! from simulator throughput, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a host record, then as its last line one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones, plus the traced run's own
//! `wall_s` and `p50_us` as `traced.*` to show the tracing overhead.
//! Each workload's inputs come from `--seed` alone. See `README.md` for
//! what each workload and metric is for.

mod affinity;
mod alloc;
mod check;
mod host;
mod paper;
mod serve;
mod sha256;
mod sim;
mod stream;

use stream::Mix;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workloads `BENCHMARK.json` gates, each with the reason it exists.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "serve-hit",
        "mecdnsd on loopback, Zipf 1.1 over 512 names: ~99% L-DNS cache hits, so nearly all work is the cached served path",
    ),
    (
        "serve-miss",
        "mecdnsd on loopback, names from 2^26: <5% hits, so cache inserts, evictions, the C-DNS router and interner growth show",
    ),
];

/// Workloads the command runs but `BENCHMARK.json` does not gate: on a
/// shared 2-vCPU host the simulator's wall time moved 20-35% between
/// runs, for minutes at a time, which no bound can absorb. Their layers
/// are measured in every traced run of the gated workloads.
pub const UNGATED: [(&str, &str); 2] = [
    (
        "city",
        "city_experiment_with at 50k UEs, both deployments: timing wheel, simulated resolver, wire codec per datagram, UE fleet",
    ),
    (
        "paper",
        "every repro all experiment at one thread, output digest checked: the only workload running ran-sim, mec-orch and load",
    ),
];

/// End-to-end metrics: name, unit. Every workload reports all of them;
/// the unit of work is one DNS query for `serve-*` and one verified
/// call for `city` and `paper` (see `README.md`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("qps", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("wall_s", "s"),
    ("heap_peak_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name, unit, and the end-to-end metric each should
/// move, on which workload.
pub const PER_LAYER: [(&str, &str, &str); 31] = [
    (
        "serve.service_p50_us",
        "us",
        "p50_us and qps on both serve-*; nothing on city, paper",
    ),
    ("serve.io_errors", "count", "failed on serve-*"),
    (
        "sock.recv_ns",
        "ns",
        "p50_us and qps on both serve-* equally",
    ),
    (
        "sock.send_ns",
        "ns",
        "p50_us and qps on both serve-* equally",
    ),
    (
        "serve.heap_bytes_per_query",
        "B",
        "heap_peak_mb on serve-miss; ~8 B on serve-hit",
    ),
    (
        "wire.decode_ns",
        "ns",
        "p50_us on serve-hit most; wall_s on city less",
    ),
    (
        "wire.decode_allocs",
        "count",
        "p50_us on serve-hit most; wall_s on city less",
    ),
    (
        "wire.encode_ns",
        "ns",
        "p50_us on serve-hit most; wall_s on city less",
    ),
    (
        "wire.encode_allocs",
        "count",
        "p50_us on serve-hit most; wall_s on city less",
    ),
    ("engine.resolve_hit_ns", "ns", "p50_us on serve-hit"),
    ("engine.resolve_hit_allocs", "count", "p50_us on serve-hit"),
    ("engine.resolve_miss_ns", "ns", "p50_us on serve-miss"),
    (
        "engine.resolve_miss_allocs",
        "count",
        "p50_us on serve-miss",
    ),
    (
        "cache.hit_ratio",
        "ratio",
        ">= 0.95 on serve-hit, <= 0.05 on serve-miss",
    ),
    (
        "cdns.route_ns",
        "ns",
        "p50_us on serve-miss only; no change on serve-hit",
    ),
    (
        "cdns.routes_per_query",
        "ratio",
        "~1 on serve-miss, ~0 on serve-hit",
    ),
    (
        "sched.events",
        "count",
        "wall_s on city; no change on serve-*",
    ),
    (
        "sched.events_per_query",
        "ratio",
        "wall_s on city; no change on serve-*",
    ),
    (
        "sched.ns_per_event",
        "ns",
        "wall_s on city; no change on serve-*",
    ),
    ("sched.max_pending", "count", "heap_peak_mb on city"),
    ("sched.cascades", "count", "wall_s on city"),
    ("sim.allocs_per_event", "count", "wall_s on city"),
    (
        "sim.bytes_per_query",
        "B",
        "wall_s and heap_peak_mb on city",
    ),
    (
        "wheel.churn_ns",
        "ns",
        "wall_s on city; no change on serve-*",
    ),
    ("paper.fig2_s", "s", "wall_s on paper"),
    ("paper.fig5_s", "s", "wall_s on paper"),
    ("paper.load_s", "s", "wall_s on paper (the largest share)"),
    ("paper.dos_s", "s", "wall_s on paper"),
    ("paper.rest_s", "s", "wall_s on paper"),
    (
        "traced.wall_s",
        "s",
        "tracing overhead: compare with wall_s",
    ),
    (
        "traced.p50_us",
        "us",
        "tracing overhead: compare with p50_us",
    ),
];

/// Named metric values, in the order pushed.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `value` under `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Whether every output checked out.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Extra `"key":value` pairs for the detail line.
    pub notes: Vec<String>,
}

/// Sorts `v` and returns its median (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Sorts `v` and returns the nearest-rank `p` quantile (0 when empty).
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
    v[rank]
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS
        .iter()
        .chain(&UNGATED)
        .any(|(w, _)| *w == workload)
    {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> std::io::Result<Outcome> {
    let mut outcome = match args.workload.as_str() {
        "serve-hit" => serve::run(Mix::Hit, args.seed, args.seconds, args.trace)?,
        "serve-miss" => serve::run(Mix::Miss, args.seed, args.seconds, args.trace)?,
        "city" => sim::run(args.seed, args.seconds, args.trace),
        _ => paper::run(args.seed, args.seconds, args.trace),
    };
    if args.trace {
        // Layers this workload does not exercise are measured on their
        // default inputs, so every traced run reports every layer.
        let layers = &mut outcome.layers;
        let mut extra = Vec::new();
        if layers.get("serve.service_p50_us").is_none() {
            extra.push(serve::default_layers(args.seed, layers)?);
        }
        if layers.get("sched.events").is_none() {
            extra.push(sim::default_layers(args.seed, layers));
        }
        if layers.get("paper.fig2_s").is_none() {
            extra.push(paper::default_layers(args.seed, layers));
        }
        for (attempted, failed) in extra {
            outcome.attempted += attempted;
            outcome.failed += failed;
            outcome.correct &= failed == 0;
        }
        for (name, traced) in [("wall_s", "traced.wall_s"), ("p50_us", "traced.p50_us")] {
            let v = outcome.e2e.get(name).unwrap_or(0.0);
            outcome.layers.push(traced, v);
        }
    }
    Ok(outcome)
}

/// The result line. Fails if a metric is missing, duplicated or not a
/// finite number, so the output always matches `BENCHMARK.json`.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let (metrics, table): (&Metrics, Vec<(&str, &str)>) = if trace {
        (
            &outcome.layers,
            PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect(),
        )
    } else {
        (&outcome.e2e, END_TO_END.to_vec())
    };
    if metrics.0.len() != table.len() {
        return Err(format!(
            "{} metrics reported, {} expected",
            metrics.0.len(),
            table.len()
        ));
    }
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} missing"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "{}:{{\"value\":{value:?},\"unit\":{}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!("usage: perfbench --workload <serve-hit|serve-miss|city|paper> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let line = match result_line(&outcome, args.trace) {
        Ok(line) => line,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(1);
        }
    };
    let mut notes = outcome.notes.clone();
    notes.push(format!("\"host\":{}", host::fingerprint_json()));
    println!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},{}}}",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        notes.join(",")
    );
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn the_metric_tables_match_benchmark_json() {
        for (name, unit) in END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "BENCHMARK.json lacks {entry}"
            );
        }
        for (name, why) in WORKLOADS {
            let entry = format!("\"name\": \"{name}\", \"why\": \"{why}\"");
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "BENCHMARK.json lacks {entry}"
            );
        }
        assert_eq!(BENCHMARK_JSON.matches("\"why\"").count(), WORKLOADS.len());
        assert_eq!(
            BENCHMARK_JSON.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv("--workload city --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("city", 3, 2, true)
        );
        for bad in [
            "--workload town --seed 3 --seconds 2 --trace 1",
            "--workload city --seed x --seconds 2 --trace 1",
            "--workload city --seed 3 --seconds 0 --trace 1",
            "--workload city --seed 3 --seconds 2 --trace 2",
            "--workload city --seed 3 --seconds 2",
            "--workload city --seed 3 --seconds 2 --trace 1 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(percentile(&mut v, 1.0), 5.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }
}
