//! Turn-key reproductions of every table and figure in the paper.
//!
//! Each function builds the relevant world, runs it, and returns
//! serializable figure data (see `workload::figures`). The `repro`
//! binary prints these; integration tests assert their shape;
//! perfbench's `paper` workload times them.

use crate::deployments::{Deployment, DeploymentKind, TestbedConfig};
use crate::dos::{DirectedClient, DosPolicy, ResolverDirective};
use crate::ecosystem::{Ecosystem, Role};
use crate::fallback::P1Policy;
use crate::measurement::{PlannedQuery, QueryClient};
use crate::runner::Runner;
use crate::telemetry::{TelemetryReport, TrialTelemetry};
use cdn_sim::MultiCdnRouter;
use dns_server::plugins::{AuthoritativePlugin, CachePlugin, ScopePlugin};
use dns_server::{DnsServer, SendStrategy, ServerConfig, Zone};
use dns_wire::Name;
use netsim::{Latency, LinkProfile, Network, NodeId, Samples, SimDuration};
use ran_sim::AccessKind;
use std::collections::{BTreeMap, HashMap};
use std::net::{IpAddr, Ipv4Addr};
use workload::figures::{Bar, DistributionFigure, Figure, StackedBar};
use workload::sites::{PoolWeight, Site, MEC_CDN_ZONE, SITES};

/// Renders Table 1.
pub fn table1() -> String {
    let mut out = String::from("== Table 1 — tested CDN domains ==\n");
    for s in SITES {
        out.push_str(&format!("{:<14} {}\n", s.name, s.domain));
    }
    out
}

/// Renders Table 2. Serial wrapper around [`table2_with`].
pub fn table2() -> String {
    table2_with(&Runner::default())
}

/// [`table2`] with the role rows rendered as runner trials (merged in
/// role order — the table reads identically at any thread count).
pub fn table2_with(runner: &Runner) -> String {
    let roles = Role::all();
    let rows = runner.run(roles.len(), |i| {
        let r = roles[i];
        format!("{:<18} {}\n", r.to_string(), r.responsibility())
    });
    let mut out = String::from("== Table 2 — entities and roles in MEC-CDN ==\n");
    for row in rows {
        out.push_str(&row);
    }
    let eco = Ecosystem::mec_cdn_proposal();
    out.push_str("proposal: ");
    for e in &eco.entities {
        out.push_str(&format!(
            "[{}: {}] ",
            e.name,
            e.roles
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join("+")
        ));
    }
    out.push('\n');
    out
}

/// The Figure 2/3 world for one access network: client → gateway →
/// L-DNS (cache+forward) → commercial C-DNS, with a crowd keeping the
/// L-DNS cache warm so the measured client sees the cached-A-record
/// behaviour §2 describes.
struct AccessWorld {
    net: Network,
    client: NodeId,
}

/// Queries per (site, access network) for Figures 2/3.
pub const FIG2_QUERIES_PER_SITE: usize = 25;

fn build_access_world(kind: AccessKind, seed: u64) -> AccessWorld {
    let mut net = Network::new(seed);
    // Commercial C-DNS far in the cloud, configured with the Figure 3
    // per-resolver weights.
    let ldns_ip: IpAddr = match kind {
        AccessKind::WiredCampus => "10.10.0.53",
        AccessKind::HomeWifi => "10.20.0.53",
        AccessKind::CellularMobile => "10.30.0.53",
    }
    .parse()
    .unwrap();
    let net_idx = match kind {
        AccessKind::WiredCampus => 0,
        AccessKind::HomeWifi => 1,
        AccessKind::CellularMobile => 2,
    };
    let mut router = MultiCdnRouter::new();
    for site in SITES {
        let name = Name::parse(site.domain).unwrap();
        let pools = site
            .pools
            .iter()
            .map(|p| cdn_sim::PoolChoice::new(p.provider, p.pool, p.weights[net_idx]))
            .collect();
        router.set_policy(&name, ldns_ip, pools);
    }
    let cdns_ip: IpAddr = "192.0.2.53".parse().unwrap();
    let cdns = net.add_node(
        "commercial-cdns",
        [cdns_ip],
        DnsServer::new(
            ServerConfig {
                processing: Latency::skewed(1.0, 2.0, 0.8),
                ..ServerConfig::default()
            },
            vec![Box::new(router)],
        ),
    );

    // The L-DNS for this access network.
    let ldns = net.add_node(
        "ldns",
        [ldns_ip],
        DnsServer::new(
            ServerConfig {
                processing: Latency::skewed(0.5, 1.2, 0.5),
                ..ServerConfig::default()
            },
            vec![
                Box::new(CachePlugin::new(4096)),
                Box::new(dns_server::plugins::ForwardPlugin::new(cdns_ip)),
            ],
        ),
    );
    // L-DNS ↔ commercial C-DNS: a real WAN distance.
    net.connect(ldns, cdns, LinkProfile::with_latency(Latency::skewed(20.0, 26.0, 5.0)));
    net.add_default_route(cdns, ldns);

    // Gateway between the device and the resolver network.
    let gw = net.add_node(
        "gateway",
        [match kind {
            AccessKind::WiredCampus => "10.10.0.1",
            AccessKind::HomeWifi => "10.20.0.1",
            AccessKind::CellularMobile => "10.30.0.1",
        }
        .parse::<IpAddr>()
        .unwrap()],
        Nop,
    );
    net.connect(gw, ldns, kind.ldns_link());
    net.add_default_route(ldns, gw);

    // The crowd: a busy population behind the same L-DNS that keeps the
    // popular domains' A records warm (why "the A records TTL never
    // expires at L-DNS" in §2).
    let crowd_plan: Vec<PlannedQuery> = (0..360)
        .flat_map(|round| {
            SITES.iter().enumerate().map(move |(i, site)| PlannedQuery {
                // One crowd query per site per second (staggered): an
                // expired entry is re-fetched within ~1 s, so the
                // measured client almost always sees a warm cache —
                // §2's "the cached A records are used for lookup".
                at: SimDuration::from_millis(1_000 * round + 200 * i as u64),
                name: Name::parse(site.domain).unwrap(),
                strategy: SendStrategy::Unicast(ldns_ip),
                ecs: None,
            })
        })
        .collect();
    let crowd = net.add_node(
        "crowd",
        ["10.99.0.7".parse::<IpAddr>().unwrap()],
        QueryClient::new(crowd_plan),
    );
    net.connect(crowd, ldns, LinkProfile::with_latency(Latency::UniformMs(0.5, 1.5)));

    // The measured device, behind its access link.
    let plan: Vec<PlannedQuery> = (0..FIG2_QUERIES_PER_SITE)
        .flat_map(|round| {
            SITES.iter().enumerate().map(move |(i, site)| PlannedQuery {
                at: SimDuration::from_millis(500 + 13_000 * round as u64 + 2_000 * i as u64),
                name: Name::parse(site.domain).unwrap(),
                strategy: SendStrategy::Unicast(ldns_ip),
                ecs: None,
            })
        })
        .collect();
    let client_ip: IpAddr = "172.16.0.10".parse().unwrap();
    let client = net.add_node("device", [client_ip], QueryClient::new(plan));
    net.connect(client, gw, kind.access_link());
    net.add_default_route(client, gw);
    net.add_default_route(gw, ldns);
    net.add_route(gw, netsim::Cidr::host(client_ip), client);

    AccessWorld { net, client }
}

struct Nop;
impl netsim::NodeBehavior for Nop {}

/// Runs the Figure 2 measurement. Returns one [`Figure`] whose bars are
/// `<site> / <access network>` — the fifteen bars of Figure 2 — plus
/// the per-answer data needed by Figure 3. Serial wrapper around
/// [`fig2_fig3_with`].
pub fn fig2_fig3(seed: u64) -> (Figure, Vec<DistributionFigure>) {
    fig2_fig3_with(seed, &Runner::default())
}

/// Per-site results of one access-network trial, in `SITES` order.
struct AccessTrial {
    /// `Bar` per site with at least one answered query.
    bars: Vec<Bar>,
    /// `(site name, pool label → percent)` per site.
    pools: Vec<(&'static str, Vec<(String, f64)>)>,
}

/// [`fig2_fig3`] with the access-network campaigns fanned out on
/// `runner` — one trial per [`AccessKind`], each on its own derived
/// seed, merged in access-kind order.
pub fn fig2_fig3_with(seed: u64, runner: &Runner) -> (Figure, Vec<DistributionFigure>) {
    let kinds = AccessKind::all();
    let trials = runner.run_seeded(kinds.len(), seed, |idx, trial_seed| {
        let kind = kinds[idx];
        let mut world = build_access_world(kind, trial_seed);
        world.net.run();
        let measured = world.net.behavior::<QueryClient>(world.client).measured.clone();
        let mut trial = AccessTrial {
            bars: Vec::new(),
            pools: Vec::new(),
        };
        for site in SITES {
            let name = Name::parse(site.domain).unwrap();
            let mut samples = Samples::new();
            // Ordered map: its iteration order reaches the report bytes.
            let mut pool_counts: BTreeMap<String, u64> = BTreeMap::new();
            let mut answered = 0u64;
            for m in measured.iter().filter(|m| m.outcome.name == name) {
                if m.outcome.timed_out {
                    continue;
                }
                samples.record(m.outcome.rtt);
                answered += 1;
                if let Some(addr) = m.outcome.addrs.first() {
                    let label = classify_pool(site, *addr);
                    *pool_counts.entry(label).or_insert(0) += 1;
                }
            }
            if let Some(summary) = samples.summarize() {
                trial.bars.push(Bar::from_summary(
                    format!("{} / {}", site.name, kind.label()),
                    &summary,
                ));
            }
            let pcts: Vec<(String, f64)> = pool_counts
                .into_iter()
                .map(|(k, v)| (k, 100.0 * v as f64 / answered.max(1) as f64))
                .collect();
            trial.pools.push((site.name, pcts));
        }
        trial
    });

    // Index-ordered merge: bars and distributions appear exactly as the
    // old serial loop emitted them.
    let mut fig2 = Figure::new(
        "fig2",
        "DNS lookup latency for CDN domains over three access networks",
    );
    // site → (access label, pool label → percent)
    type PoolPercents = Vec<(String, f64)>;
    let mut dist: HashMap<&'static str, Vec<(String, PoolPercents)>> = HashMap::new();
    for (kind, trial) in kinds.iter().zip(trials) {
        fig2.bars.extend(trial.bars);
        for (site_name, pcts) in trial.pools {
            dist.entry(site_name)
                .or_default()
                .push((kind.label().to_string(), pcts));
        }
    }

    let fig3: Vec<DistributionFigure> = SITES
        .iter()
        .map(|site| DistributionFigure {
            id: format!("fig3-{}", site.name.to_lowercase().replace('.', "")),
            title: format!("{} — answer distribution across cache pools", site.name),
            bars: dist.remove(site.name).unwrap_or_default(),
        })
        .collect();
    (fig2, fig3)
}

/// Classifies an answered address into the site's Figure 3 pool label
/// (most specific pool wins), or `"other"`.
pub fn classify_pool(site: &Site, addr: Ipv4Addr) -> String {
    let mut best: Option<&PoolWeight> = None;
    for p in site.pools {
        let cidr: netsim::Cidr = p.pool.parse().expect("valid pool");
        if cidr.contains(IpAddr::V4(addr)) {
            let better = match best {
                None => true,
                Some(b) => {
                    let bc: netsim::Cidr = b.pool.parse().unwrap();
                    cidr.prefix_len() > bc.prefix_len()
                }
            };
            if better {
                best = Some(p);
            }
        }
    }
    match best {
        Some(p) => format!("{} {}", p.provider, p.pool),
        None => "other".to_string(),
    }
}

/// Runs Figure 5: the six deployments, each split into wireless and
/// resolver components. Serial wrapper around [`fig5_with`].
pub fn fig5(cfg: &TestbedConfig) -> Figure {
    fig5_with(cfg, &Runner::default())
}

/// [`fig5`] with the six deployment campaigns fanned out on `runner` —
/// one trial per [`DeploymentKind`], each testbed seeded by
/// [`crate::derive_seed`] from `cfg.seed` and the deployment index,
/// merged in deployment order.
pub fn fig5_with(cfg: &TestbedConfig, runner: &Runner) -> Figure {
    fig5_telemetry_with(cfg, runner).0
}

/// [`fig5_with`] plus the per-trial telemetry artifact, computed in the
/// same single pass over the six deployment worlds. Trials run on
/// derived seeds and merge in deployment order, so both the figure and
/// the report are bit-identical at any thread count.
pub fn fig5_telemetry_with(cfg: &TestbedConfig, runner: &Runner) -> (Figure, TelemetryReport) {
    let kinds = DeploymentKind::all();
    let trials = runner.run_seeded(kinds.len(), cfg.seed, |idx, trial_seed| {
        let kind = kinds[idx];
        let trial_cfg = TestbedConfig {
            seed: trial_seed,
            ..cfg.clone()
        };
        let mut d = Deployment::build(kind, &trial_cfg);
        let (measured, split) = d.run_measure();
        let telemetry = TrialTelemetry::harvest(&d, trial_seed, &measured);
        let mut total = Samples::new();
        let mut wireless = Samples::new();
        for s in &split {
            total.record(s.total);
            wireless.record(s.wireless);
        }
        let t = total.summarize().expect("deployment produced samples");
        let w = wireless.summarize().expect("deployment produced samples");
        let bar = StackedBar {
            label: kind.label().to_string(),
            total_ms: t.trimmed_mean_ms,
            wireless_ms: w.trimmed_mean_ms,
            resolver_ms: t.trimmed_mean_ms - w.trimmed_mean_ms,
            min_ms: t.min_ms,
            max_ms: t.max_ms,
            samples: t.samples,
        };
        (bar, telemetry)
    });
    let mut bars = Vec::new();
    let mut report = TelemetryReport {
        seed: cfg.seed,
        trials: Vec::new(),
    };
    for (bar, telemetry) in trials {
        bars.push(bar);
        report.trials.push(telemetry);
    }
    let mut fig = Figure::new(
        "fig5",
        "DNS lookup latency on the LTE testbed for six resolver deployments",
    );
    fig.stacked = bars;
    let get = |label: &str| {
        fig.stacked
            .iter()
            .find(|b| b.label == label)
            .map(|b| b.total_ms)
            .unwrap_or(f64::NAN)
    };
    let mec = get("MEC L-DNS w/ MEC C-DNS");
    fig.notes.push((
        "speedup_vs_worst".to_string(),
        get("Cloudflare DNS") / mec,
    ));
    fig.notes.push((
        "gap_vs_lan_cdns_ms".to_string(),
        get("MEC L-DNS w/ LAN C-DNS") - mec,
    ));
    (fig, report)
}

/// §4's ECS experiment: ratio of mean lookup latency with ECS to
/// without, for the first three deployments. Paper: ×1.01, ×1.08,
/// ×0.95.
pub fn ecs_experiment(seed: u64) -> Figure {
    let mut fig = Figure::new("ecs", "Effect of EDNS Client Subnet on lookup latency");
    for kind in [
        DeploymentKind::MecLdnsMecCdns,
        DeploymentKind::MecLdnsLanCdns,
        DeploymentKind::MecLdnsWanCdns,
    ] {
        let mean = |ecs: bool| {
            let cfg = TestbedConfig {
                seed,
                ecs,
                ..TestbedConfig::default()
            };
            let mut d = Deployment::build(kind, &cfg);
            let (_, split) = d.run_measure();
            let mut s = Samples::new();
            for x in &split {
                s.record(x.total);
            }
            s.summarize().expect("samples").trimmed_mean_ms
        };
        let plain = mean(false);
        let with_ecs = mean(true);
        fig.bars.push(Bar {
            label: format!("{} (no ECS)", kind.label()),
            mean_ms: plain,
            min_ms: 0.0,
            max_ms: 0.0,
            samples: 0,
        });
        fig.bars.push(Bar {
            label: format!("{} (ECS)", kind.label()),
            mean_ms: with_ecs,
            min_ms: 0.0,
            max_ms: 0.0,
            samples: 0,
        });
        fig.notes
            .push((format!("ecs_factor[{}]", kind.label()), with_ecs / plain));
    }
    fig
}

/// The §3 P1-fallback ablation: mixed MEC and non-MEC queries under the
/// three client policies. Returns bars `<policy> / <domain class>` with
/// an availability note per policy.
pub fn fallback_experiment(seed: u64) -> Figure {
    let mut fig = Figure::new(
        "fallback",
        "P1 workarounds: multicast and timeout fallback for non-MEC names",
    );
    let mec_name = Name::parse(workload::sites::MEC_CDN_DOMAIN).unwrap();
    let other_name = Name::parse("www.example.com").unwrap();

    for policy in [
        P1Policy::MecOnly,
        P1Policy::MulticastBoth,
        P1Policy::FallbackAfter(SimDuration::from_millis(60)),
    ] {
        let mut net = Network::new(seed);
        // MEC DNS: answers the CDN zone, ignores everything else.
        let mut mec_zone = Zone::new(Name::parse(MEC_CDN_ZONE).unwrap());
        mec_zone.add_a(mec_name.clone(), Ipv4Addr::new(10, 96, 0, 20), 0);
        let mec_ip: IpAddr = "10.96.0.10".parse().unwrap();
        let mec = net.add_node(
            "mec-dns",
            [mec_ip],
            DnsServer::new(
                ServerConfig {
                    processing: Latency::skewed(1.6, 2.6, 0.9),
                    ..ServerConfig::default()
                },
                vec![
                    Box::new(ScopePlugin::new(vec![Name::parse(MEC_CDN_ZONE).unwrap()])),
                    Box::new(AuthoritativePlugin::new(vec![mec_zone])),
                ],
            ),
        );
        // Provider L-DNS: resolves everything, but sits farther away.
        let mut provider_zone = Zone::new(Name::parse("example.com").unwrap());
        provider_zone.add_a(other_name.clone(), Ipv4Addr::new(93, 184, 216, 34), 0);
        let mut provider_cdn_zone = Zone::new(Name::parse(MEC_CDN_ZONE).unwrap());
        provider_cdn_zone.add_a(mec_name.clone(), Ipv4Addr::new(10, 96, 0, 20), 0);
        let provider_ip: IpAddr = "10.44.9.1".parse().unwrap();
        let provider = net.add_node(
            "provider-ldns",
            [provider_ip],
            DnsServer::new(
                ServerConfig {
                    processing: Latency::skewed(2.0, 3.5, 1.5),
                    ..ServerConfig::default()
                },
                vec![Box::new(AuthoritativePlugin::new(vec![
                    provider_zone,
                    provider_cdn_zone,
                ]))],
            ),
        );
        // The client, one hop from both (MEC near, provider far).
        let plan: Vec<PlannedQuery> = (0..30)
            .map(|i| {
                let name = if i % 2 == 0 {
                    mec_name.clone()
                } else {
                    other_name.clone()
                };
                PlannedQuery {
                    at: SimDuration::from_millis(200 * i as u64),
                    name,
                    strategy: policy.strategy(mec_ip, provider_ip),
                    ecs: None,
                }
            })
            .collect();
        let mut qc = QueryClient::new(plan);
        qc.engine_mut().query_timeout = SimDuration::from_millis(500);
        qc.engine_mut().retries = 0;
        let client = net.add_node("ue", ["172.16.0.9".parse::<IpAddr>().unwrap()], qc);
        net.connect(client, mec, LinkProfile::with_latency(Latency::UniformMs(1.0, 2.0)));
        net.connect(
            client,
            provider,
            LinkProfile::with_latency(Latency::UniformMs(12.0, 16.0)),
        );
        net.run();

        let measured = &net.behavior::<QueryClient>(client).measured;
        for (class, name) in [("mec", &mec_name), ("non-mec", &other_name)] {
            let mut s = Samples::new();
            let mut ok = 0usize;
            let mut all = 0usize;
            for m in measured.iter().filter(|m| &m.outcome.name == name) {
                all += 1;
                if !m.outcome.timed_out && m.outcome.rcode.is_ok() {
                    ok += 1;
                    s.record(m.outcome.rtt);
                }
            }
            if let Some(sum) = s.summarize() {
                fig.bars
                    .push(Bar::from_summary(format!("{} / {class}", policy.label()), &sum));
            }
            fig.notes.push((
                format!("availability[{} / {class}]", policy.label()),
                if all == 0 { 0.0 } else { ok as f64 / all as f64 },
            ));
        }
    }
    fig
}

/// §2 observation 2, quantified: *"this also leads to disaggregation of
/// requests and may increase the cache miss rate."*
///
/// One client population fetches a Zipf-popular catalog through three
/// equal caches. Under **aggregated** routing (consistent hash by
/// object, what a single stable C-DNS assignment gives) each object
/// lives on one cache; under **disaggregated** routing (the per-query
/// rotation Figure 3 shows commercial CDNs doing) the same object is
/// fetched through different caches, so it occupies capacity on all of
/// them and every first touch per cache is a miss.
#[derive(Debug, Clone)]
pub struct DisaggregationReport {
    /// Hit rate with stable object → cache assignment.
    pub aggregated_hit_rate: f64,
    /// Hit rate when requests rotate across caches.
    pub disaggregated_hit_rate: f64,
    /// Origin fetches in the aggregated scenario.
    pub aggregated_origin_fetches: u64,
    /// Origin fetches in the disaggregated scenario.
    pub disaggregated_origin_fetches: u64,
    /// Requests per scenario.
    pub requests: usize,
}

/// Runs the disaggregation experiment.
pub fn disaggregation_experiment(seed: u64) -> DisaggregationReport {
    use cdn_sim::protocol::{CdnMsg, CONTENT_PORT};
    use cdn_sim::{CacheServer, Catalog, Origin};
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    const OBJECTS: usize = 120;
    const REQUESTS: usize = 900;
    const OBJ_SIZE: u32 = 50_000;
    // Each cache holds a third of the catalog: the aggregated scenario
    // fits the popular head comfortably, the disaggregated one wastes
    // capacity on duplicates.
    const CACHE_BYTES: u64 = (OBJECTS as u64 / 3) * OBJ_SIZE as u64;

    struct Driver {
        caches: Vec<IpAddr>,
        schedule: Vec<String>,
        disaggregate: bool,
        next: usize,
        rr: usize,
        hits_by_latency: Vec<SimDuration>,
    }
    impl Driver {
        fn target_for(&mut self, key: &str) -> IpAddr {
            if self.disaggregate {
                self.rr += 1;
                self.caches[self.rr % self.caches.len()]
            } else {
                let mut h = DefaultHasher::new();
                key.hash(&mut h);
                self.caches[(h.finish() as usize) % self.caches.len()]
            }
        }
        fn issue_next(&mut self, ctx: &mut netsim::NodeContext<'_>) {
            if self.next >= self.schedule.len() {
                return;
            }
            let key = self.schedule[self.next].clone();
            self.next += 1;
            let target = self.target_for(&key);
            ctx.send(target, CONTENT_PORT, CdnMsg::Get { key }.encode());
        }
    }
    impl netsim::NodeBehavior for Driver {
        fn on_start(&mut self, ctx: &mut netsim::NodeContext<'_>) {
            // Closed loop: issue the next request when the previous one
            // finishes, so ordering is deterministic.
            self.issue_next(ctx);
        }
        fn on_datagram(&mut self, ctx: &mut netsim::NodeContext<'_>, dgram: netsim::Datagram) {
            if CdnMsg::decode(&dgram.payload).is_some() {
                self.hits_by_latency.push(SimDuration::ZERO);
                self.issue_next(ctx);
            }
        }
    }

    let run = |disaggregate: bool| -> (f64, u64) {
        let mut net = Network::new(seed);
        let catalog = Catalog::new();
        let keys: Vec<String> = (0..OBJECTS).map(|i| format!("vod/obj-{i:03}")).collect();
        for k in &keys {
            catalog.add(k, OBJ_SIZE);
        }
        let origin_ip: IpAddr = "198.51.100.80".parse().unwrap();
        let origin = net.add_node("origin", [origin_ip], Origin::new(catalog));
        let mut caches = Vec::new();
        for i in 0..3 {
            let ip: IpAddr = format!("10.96.0.{}", 20 + i).parse().unwrap();
            let node = net.add_node(
                &format!("cache-{i}"),
                [ip],
                CacheServer::new(ip, CACHE_BYTES, Some(origin_ip)),
            );
            net.connect(node, origin, LinkProfile::wan());
            net.add_default_route(node, origin);
            caches.push((ip, node));
        }
        // Zipf schedule shared by both scenarios (same seed → same
        // request sequence, so only the routing differs).
        let mut gen = workload::gen::RequestSchedule::new(seed);
        let schedule: Vec<String> = gen
            .poisson_zipf(REQUESTS, 100.0, &keys, 1.0)
            .into_iter()
            .map(|r| r.key)
            .collect();
        let client = net.add_node(
            "population",
            ["172.16.0.9".parse::<IpAddr>().unwrap()],
            Driver {
                caches: caches.iter().map(|&(ip, _)| ip).collect(),
                schedule,
                disaggregate,
                next: 0,
                rr: 0,
                hits_by_latency: Vec::new(),
            },
        );
        for &(_, node) in &caches {
            net.connect(client, node, LinkProfile::lan());
        }
        net.run();
        let mut hits = 0u64;
        let mut misses = 0u64;
        for &(_, node) in &caches {
            let c = net.behavior::<cdn_sim::CacheServer>(node);
            hits += c.hits;
            misses += c.misses;
        }
        let origin_served = net.behavior::<Origin>(origin).served;
        (hits as f64 / (hits + misses) as f64, origin_served)
    };

    let (aggregated_hit_rate, aggregated_origin_fetches) = run(false);
    let (disaggregated_hit_rate, disaggregated_origin_fetches) = run(true);
    DisaggregationReport {
        aggregated_hit_rate,
        disaggregated_hit_rate,
        aggregated_origin_fetches,
        disaggregated_origin_fetches,
        requests: REQUESTS,
    }
}

/// The stub-domain vs full-recursion ablation (DESIGN.md decision 3).
#[derive(Debug, Clone)]
pub struct RecursionAblation {
    /// Mean cold-lookup latency with the stub-domain redirect (the
    /// prototype's wiring), ms.
    pub stub_cold_ms: f64,
    /// Mean cold-lookup latency when the MEC L-DNS instead recurses
    /// from cloud-hosted root hints, ms.
    pub recursive_cold_ms: f64,
    /// Mean warm (cached at L-DNS) latency for the recursive
    /// configuration, ms.
    pub recursive_warm_ms: f64,
}

/// Runs the ablation: the same MEC topology, with the CDN zone reached
/// either through the stub-domain redirect to the collocated C-DNS, or
/// through full iterative resolution (root -> TLD -> A-DNS, all in the
/// cloud). The stub keeps every lookup inside the MEC; recursion pays
/// the "hierarchical lookup delays" S3 eliminates on every cache-cold
/// query.
pub fn recursion_ablation(seed: u64) -> RecursionAblation {
    use dns_server::plugins::{ForwardPlugin, RecursePlugin, StubDomainPlugin};

    let mec_name = Name::parse(workload::sites::MEC_CDN_DOMAIN).unwrap();
    let cache = Ipv4Addr::new(10, 96, 0, 20);

    // Queries spaced under the 30 s TTL measure warm lookups, over it
    // cold ones.
    let run = |recursive: bool, spacing_ms: u64| -> f64 {
        let mut net = Network::new(seed);
        // The collocated C-DNS (answers the CDN zone with TTL 30).
        let mut zone = Zone::new(Name::parse(MEC_CDN_ZONE).unwrap());
        zone.add_a(mec_name.clone(), cache, 30);
        let cdns_ip: IpAddr = "10.96.0.9".parse().unwrap();
        let cdns = net.add_node(
            "cdns",
            [cdns_ip],
            DnsServer::new(
                ServerConfig {
                    processing: Latency::skewed(2.0, 3.3, 1.0),
                    ..ServerConfig::default()
                },
                vec![Box::new(AuthoritativePlugin::new(vec![zone.clone()]))],
            ),
        );
        // The cloud hierarchy: root delegates "test", "test" delegates
        // the CDN zone to a cloud A-DNS (same records, farther away).
        let mut root_zone = Zone::new(Name::root());
        root_zone.delegate(
            Name::parse("test").unwrap(),
            Name::parse("ns.test").unwrap(),
            Ipv4Addr::new(198, 51, 100, 2),
            86400,
        );
        let mut tld_zone = Zone::new(Name::parse("test").unwrap());
        tld_zone.delegate(
            Name::parse(MEC_CDN_ZONE).unwrap(),
            Name::parse(&format!("ns1.{MEC_CDN_ZONE}")).unwrap(),
            Ipv4Addr::new(198, 51, 100, 3),
            3600,
        );
        let cloud_cfg = || ServerConfig {
            processing: Latency::skewed(1.0, 2.0, 0.8),
            ..ServerConfig::default()
        };
        let root = net.add_node(
            "root",
            ["198.51.100.1".parse::<IpAddr>().unwrap()],
            DnsServer::new(cloud_cfg(), vec![Box::new(AuthoritativePlugin::new(vec![root_zone]))]),
        );
        let tld = net.add_node(
            "tld",
            ["198.51.100.2".parse::<IpAddr>().unwrap()],
            DnsServer::new(cloud_cfg(), vec![Box::new(AuthoritativePlugin::new(vec![tld_zone]))]),
        );
        let adns = net.add_node(
            "adns",
            ["198.51.100.3".parse::<IpAddr>().unwrap()],
            DnsServer::new(cloud_cfg(), vec![Box::new(AuthoritativePlugin::new(vec![zone]))]),
        );
        // The MEC L-DNS: cache + either stub redirect or full recursion.
        let ldns_ip: IpAddr = "10.96.0.10".parse().unwrap();
        let chain: Vec<Box<dyn dns_server::Plugin>> = if recursive {
            vec![
                Box::new(CachePlugin::new(1024)),
                Box::new(RecursePlugin::new(vec!["198.51.100.1".parse().unwrap()])),
            ]
        } else {
            vec![
                Box::new(CachePlugin::new(1024)),
                Box::new(StubDomainPlugin::new(vec![(
                    Name::parse(MEC_CDN_ZONE).unwrap(),
                    cdns_ip,
                )])),
                Box::new(ForwardPlugin::new("198.51.100.1".parse().unwrap())),
            ]
        };
        let ldns = net.add_node(
            "mec-ldns",
            [ldns_ip],
            DnsServer::new(
                ServerConfig {
                    processing: Latency::skewed(2.0, 3.3, 1.0),
                    ..ServerConfig::default()
                },
                chain,
            ),
        );
        // Topology: L-DNS and C-DNS collocated (intra-MEC); the
        // hierarchy is 40+ ms away in the cloud.
        net.connect(ldns, cdns, LinkProfile::with_latency(Latency::UniformMs(0.2, 0.5)));
        for node in [root, tld, adns] {
            net.connect(ldns, node, LinkProfile::with_latency(Latency::UniformMs(40.0, 44.0)));
            net.add_default_route(node, ldns);
        }
        net.add_default_route(cdns, ldns);
        // A local client (the wireless leg is common to both arms, so
        // this ablation measures only the resolution side).
        let plan: Vec<PlannedQuery> = (0..12)
            .map(|i| PlannedQuery {
                at: SimDuration::from_millis(spacing_ms * i as u64),
                name: mec_name.clone(),
                strategy: SendStrategy::Unicast(ldns_ip),
                ecs: None,
            })
            .collect();
        let client = net.add_node(
            "client",
            ["172.16.0.9".parse::<IpAddr>().unwrap()],
            QueryClient::new(plan),
        );
        net.connect(client, ldns, LinkProfile::with_latency(Latency::UniformMs(0.5, 1.0)));
        net.run();
        let mut s = Samples::new();
        for m in &net.behavior::<QueryClient>(client).measured {
            assert!(!m.outcome.timed_out, "ablation query lost");
            assert_eq!(m.outcome.addrs, vec![cache], "wrong answer in ablation");
            s.record(m.outcome.rtt);
        }
        s.summarize().expect("samples").trimmed_mean_ms
    };

    RecursionAblation {
        stub_cold_ms: run(false, 35_000),
        recursive_cold_ms: run(true, 35_000),
        recursive_warm_ms: run(true, 1_000),
    }
}

/// One row of the load/scale experiment.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Concurrent UEs.
    pub ues: usize,
    /// MEC DNS replicas behind the (unchanged) ClusterIP.
    pub replicas: usize,
    /// Mean resolution latency, ms.
    pub mean_ms: f64,
    /// 92nd percentile latency, ms.
    pub p92_ms: f64,
    /// Fraction of queries answered.
    pub answered: f64,
}

/// Load and horizontal scaling: many UEs share one MEC DNS ClusterIP;
/// each replica is a single-worker pod ("for scalability reasons,
/// [cache server instances] are co-running at a MEC location" — the
/// same applies to the DNS pods). Queueing delay appears as load grows
/// and disappears again as the deployment scales out, with the
/// ClusterIP unchanged throughout.
pub fn load_experiment(seed: u64) -> Vec<LoadPoint> {
    use dns_server::plugins::AuthoritativePlugin;

    let mec_name = Name::parse(workload::sites::MEC_CDN_DOMAIN).unwrap();
    let configs: [(usize, usize); 5] = [(1, 1), (16, 1), (64, 1), (64, 2), (64, 4)];
    let mut out = Vec::new();
    for (ues, replicas) in configs {
        let mut net = Network::new(seed);
        let mut cluster =
            mec_orch::Cluster::new(&mut net, "mec", mec_orch::ClusterConfig::default());
        cluster.add_namespace("cdn", mec_orch::Visibility::Public);
        let make_dns = |_ordinal: usize| {
            let mut zone = Zone::new(Name::parse(MEC_CDN_ZONE).unwrap());
            zone.add_a(
                Name::parse(workload::sites::MEC_CDN_DOMAIN).unwrap(),
                Ipv4Addr::new(10, 96, 0, 20),
                0,
            );
            DnsServer::new(
                ServerConfig {
                    processing: Latency::skewed(2.0, 3.3, 1.0),
                    single_worker: true,
                    ..ServerConfig::default()
                },
                vec![Box::new(AuthoritativePlugin::new(vec![zone]))],
            )
        };
        let deployment = cluster.create_deployment(&mut net, "cdn", "mecdns", replicas, make_dns);
        let svc = cluster.create_service(&mut net, "cdn", "dns", &deployment.pods);
        let gw = net.add_node("gw", ["10.44.0.9".parse::<IpAddr>().unwrap()], Nop);
        cluster.attach_external(
            &mut net,
            gw,
            LinkProfile::with_latency(Latency::UniformMs(0.3, 0.6)),
        );

        // Each UE digs every 50 ms for 10 s, staggered by index.
        let mut clients = Vec::new();
        for u in 0..ues {
            let plan: Vec<PlannedQuery> = (0..200)
                .map(|i| PlannedQuery {
                    at: SimDuration::from_micros(50_000 * i + 781 * u as u64),
                    name: mec_name.clone(),
                    strategy: SendStrategy::Unicast(svc.cluster_ip),
                    ecs: None,
                })
                .collect();
            let node = net.add_node(
                &format!("ue-{u}"),
                [format!("172.16.{}.{}", u / 200, 10 + u % 200)
                    .parse::<IpAddr>()
                    .unwrap()],
                QueryClient::new(plan),
            );
            net.connect(
                node,
                gw,
                LinkProfile::with_latency(Latency::UniformMs(1.0, 2.0)),
            );
            net.add_default_route(node, gw);
            clients.push(node);
        }
        net.run();
        let mut samples = Samples::new();
        let mut answered = 0usize;
        let mut total = 0usize;
        for &c in &clients {
            for m in &net.behavior::<QueryClient>(c).measured {
                total += 1;
                if !m.outcome.timed_out {
                    answered += 1;
                    samples.record(m.outcome.rtt);
                }
            }
        }
        let sum = samples.summarize().expect("load run produced samples");
        out.push(LoadPoint {
            ues,
            replicas,
            mean_ms: sum.trimmed_mean_ms,
            p92_ms: sum.p92_ms,
            answered: answered as f64 / total.max(1) as f64,
        });
    }
    out
}

/// End-to-end content access: the abstract's claim that faster DNS
/// yields "drastic reductions in the access latency for content cached
/// in MEC-CDNs".
#[derive(Debug, Clone)]
pub struct ContentAccessReport {
    /// MEC-CDN: DNS resolution mean, ms.
    pub mec_dns_ms: f64,
    /// MEC-CDN: warm content fetch mean, ms.
    pub mec_fetch_ms: f64,
    /// Classic deployment: DNS resolution mean, ms.
    pub classic_dns_ms: f64,
    /// Classic deployment: content fetch mean (cache in the cloud), ms.
    pub classic_fetch_ms: f64,
}

impl ContentAccessReport {
    /// Total MEC-CDN access latency (DNS + fetch).
    pub fn mec_total_ms(&self) -> f64 {
        self.mec_dns_ms + self.mec_fetch_ms
    }

    /// Total classic access latency.
    pub fn classic_total_ms(&self) -> f64 {
        self.classic_dns_ms + self.classic_fetch_ms
    }

    /// End-to-end speedup of MEC-CDN over the classic deployment.
    pub fn speedup(&self) -> f64 {
        self.classic_total_ms() / self.mec_total_ms()
    }
}

/// Runs the content-access comparison: a UE on the LTE testbed resolves
/// and then fetches a 200 kB object, against (a) the MEC-CDN deployment
/// (edge L-DNS + C-DNS + edge cache) and (b) the classic deployment
/// (LAN L-DNS, far C-DNS, cache in the cloud).
pub fn content_access_experiment(seed: u64) -> ContentAccessReport {
    use cdn_sim::protocol::{CdnMsg, CONTENT_PORT};
    use cdn_sim::{CacheServer, Catalog, Origin};
    use dns_server::{SendStrategy, StubEngine};
    use ran_sim::{EpcConfig, RadioProfile, Ran};

    const OBJ: &str = "video.demo1.mycdn.ciab.test./seg-0";
    const ROUNDS: usize = 15;

    /// Resolve, then GET, repeatedly; record both phases.
    struct AccessClient {
        resolver: IpAddr,
        dns_ms: Vec<f64>,
        fetch_ms: Vec<f64>,
        engine: StubEngine,
        fetch_started: Option<netsim::SimTime>,
        rounds_left: usize,
    }
    impl netsim::NodeBehavior for AccessClient {
        fn on_start(&mut self, ctx: &mut netsim::NodeContext<'_>) {
            ctx.set_timer(SimDuration::from_millis(200), 1);
        }
        fn on_timer(
            &mut self,
            ctx: &mut netsim::NodeContext<'_>,
            _t: netsim::TimerToken,
            data: u64,
        ) {
            if StubEngine::owns_timer(data) {
                self.engine.on_timer(ctx, data);
                return;
            }
            self.engine.issue(
                ctx,
                Name::parse(workload::sites::MEC_CDN_DOMAIN).unwrap(),
                dns_wire::RrType::A,
                SendStrategy::Unicast(self.resolver),
                None,
                0,
            );
        }
        fn on_datagram(&mut self, ctx: &mut netsim::NodeContext<'_>, dgram: netsim::Datagram) {
            if let Some(outcome) = self.engine.on_datagram(ctx, &dgram) {
                self.dns_ms.push(outcome.rtt.as_millis_f64());
                let cache = IpAddr::V4(outcome.addrs[0]);
                self.fetch_started = Some(ctx.now());
                ctx.send(cache, CONTENT_PORT, CdnMsg::Get { key: OBJ.into() }.encode());
                return;
            }
            if let Some(CdnMsg::Data { .. }) = CdnMsg::decode(&dgram.payload) {
                let started = self.fetch_started.take().expect("fetch in flight");
                self.fetch_ms.push((ctx.now() - started).as_millis_f64());
                self.rounds_left -= 1;
                if self.rounds_left > 0 {
                    // Next round after the C-DNS TTL has lapsed.
                    ctx.set_timer(SimDuration::from_secs(35), 1);
                }
            }
        }
    }

    let run = |mec: bool| -> (f64, f64) {
        let mut net = Network::new(seed);
        let mut ran = Ran::build(&mut net, EpcConfig::default());
        ran.add_enb(&mut net);
        let pgw = ran.epc.pgw;

        let catalog = Catalog::new();
        catalog.add(OBJ, 200_000);
        let origin_ip: IpAddr = "198.51.100.80".parse().unwrap();
        let origin = net.add_node("origin", [origin_ip], Origin::new(catalog));
        net.connect(
            pgw,
            origin,
            LinkProfile::with_latency(Latency::UniformMs(40.0, 44.0))
                .with_bandwidth_bps(100_000_000),
        );
        net.add_default_route(origin, pgw);

        // The cache: at the MEC (0.4 ms) or in the cloud next to the
        // origin (classic CDN point of presence).
        let cache_ip: IpAddr = "10.96.0.20".parse().unwrap();
        let cache = net.add_node(
            "cache",
            [cache_ip],
            CacheServer::new(cache_ip, 1 << 22, Some(origin_ip)),
        );
        let cache_link = if mec {
            LinkProfile::with_latency(Latency::UniformMs(0.3, 0.6))
                .with_bandwidth_bps(10_000_000_000)
        } else {
            LinkProfile::with_latency(Latency::UniformMs(38.0, 42.0))
                .with_bandwidth_bps(100_000_000)
        };
        net.connect(pgw, cache, cache_link);
        net.add_default_route(cache, pgw);

        // The C-DNS answering with that cache.
        let mut router = cdn_sim::TrafficRouterPlugin::new(
            Name::parse(MEC_CDN_ZONE).unwrap(),
            vec![Name::parse(workload::sites::MEC_CDN_DOMAIN).unwrap()],
            vec![Ipv4Addr::new(10, 96, 0, 20)],
            cdn_sim::Selection::ConsistentHash,
        );
        router.ttl = 30;
        let cdns_ip: IpAddr = "192.0.2.40".parse().unwrap();
        let cdns = net.add_node(
            "cdns",
            [cdns_ip],
            DnsServer::new(
                ServerConfig {
                    processing: Latency::skewed(2.0, 3.3, 1.0),
                    ..ServerConfig::default()
                },
                vec![Box::new(router)],
            ),
        );
        let cdns_link = if mec {
            LinkProfile::with_latency(Latency::UniformMs(0.3, 0.6))
        } else {
            LinkProfile::with_latency(Latency::UniformMs(40.0, 44.0))
        };
        net.connect(pgw, cdns, cdns_link);
        net.add_default_route(cdns, pgw);

        // The L-DNS the UE queries.
        let ldns_ip: IpAddr = "10.44.9.10".parse().unwrap();
        let ldns = net.add_node(
            "ldns",
            [ldns_ip],
            DnsServer::new(
                ServerConfig {
                    processing: Latency::skewed(2.0, 3.3, 1.0),
                    ..ServerConfig::default()
                },
                vec![
                    Box::new(CachePlugin::new(1024)),
                    Box::new(dns_server::plugins::StubDomainPlugin::new(vec![(
                        Name::parse(MEC_CDN_ZONE).unwrap(),
                        cdns_ip,
                    )])),
                ],
            ),
        );
        let ldns_link = if mec {
            LinkProfile::with_latency(Latency::UniformMs(0.3, 0.6))
        } else {
            LinkProfile::with_latency(Latency::UniformMs(1.0, 1.6))
        };
        net.connect(pgw, ldns, ldns_link);
        net.add_default_route(ldns, pgw);

        let ue = ran.attach_ue(
            &mut net,
            "ue",
            AccessClient {
                resolver: ldns_ip,
                dns_ms: vec![],
                fetch_ms: vec![],
                engine: StubEngine::new(),
                fetch_started: None,
                rounds_left: ROUNDS,
            },
            0,
            RadioProfile::Lte,
        );
        net.run();
        let c = net.behavior::<AccessClient>(ue.node);
        assert_eq!(c.fetch_ms.len(), ROUNDS, "all rounds completed");
        // Drop the first (cold-cache) round from the fetch mean: the
        // abstract's claim is about content *cached* in MEC-CDN.
        let dns = c.dns_ms.iter().sum::<f64>() / c.dns_ms.len() as f64;
        let warm = &c.fetch_ms[1..];
        let fetch = warm.iter().sum::<f64>() / warm.len() as f64;
        (dns, fetch)
    };

    let (mec_dns_ms, mec_fetch_ms) = run(true);
    let (classic_dns_ms, classic_fetch_ms) = run(false);
    ContentAccessReport {
        mec_dns_ms,
        mec_fetch_ms,
        classic_dns_ms,
        classic_fetch_ms,
    }
}

/// The §3 mobility experiment's result: a UE roams between two MEC
/// sites, its DNS target switching with the handoff.
#[derive(Debug, Clone)]
pub struct MobilityReport {
    /// When the handoff (and DNS-target switch) happened.
    pub handoff_at_ms: f64,
    /// Queries answered by the correct (serving) site's cache.
    pub correct_site_answers: usize,
    /// Queries answered by the wrong site's cache.
    pub wrong_site_answers: usize,
    /// Queries that timed out around the handoff gap.
    pub lost: usize,
    /// Mean resolution latency while on site A, ms.
    pub mean_before_ms: f64,
    /// Mean resolution latency after settling on site B, ms.
    pub mean_after_ms: f64,
    /// Site A's cache address.
    pub cache_a: Ipv4Addr,
    /// Site B's cache address.
    pub cache_b: Ipv4Addr,
}

/// Runs the mobility experiment: two eNBs, each with its own MEC DNS at
/// the base station serving the same CDN domain from its own local
/// cache ("presenting different content from different edge locations
/// based on context", §1). The UE's DNS target is switched as part of
/// the handoff, per §3.
pub fn mobility_experiment(seed: u64) -> MobilityReport {
    use crate::dos::{DirectedClient, ResolverDirective};
    use ran_sim::{EpcConfig, RadioProfile, Ran};

    let mut net = Network::new(seed);
    let mut ran = Ran::build(&mut net, EpcConfig::default());
    let enb_a = ran.add_enb(&mut net);
    let enb_b = ran.add_enb(&mut net);

    let mec_name = Name::parse(workload::sites::MEC_CDN_DOMAIN).unwrap();
    let cache_a = Ipv4Addr::new(10, 100, 0, 20);
    let cache_b = Ipv4Addr::new(10, 101, 0, 20);

    // One MEC DNS per base station, answering with its local cache.
    let build_site = |net: &mut Network, enb: usize, ldns_ip: &str, cache: Ipv4Addr| {
        let mut zone = Zone::new(Name::parse(MEC_CDN_ZONE).unwrap());
        zone.add_a(mec_name.clone(), cache, 0);
        let addr: IpAddr = ldns_ip.parse().unwrap();
        let node = net.add_node(
            &format!("mec-dns-{enb}"),
            [addr],
            DnsServer::new(
                ServerConfig {
                    processing: Latency::skewed(1.6, 2.6, 0.9),
                    ..ServerConfig::default()
                },
                vec![Box::new(AuthoritativePlugin::new(vec![zone]))],
            ),
        );
        net.connect(
            ran.enb(enb),
            node,
            LinkProfile::with_latency(Latency::UniformMs(0.2, 0.5)),
        );
        net.add_default_route(node, ran.enb(enb));
        addr
    };
    let mec_a = build_site(&mut net, enb_a, "10.100.0.10", cache_a);
    let mec_b = build_site(&mut net, enb_b, "10.101.0.10", cache_b);

    // The UE: queries every 100 ms at whichever MEC DNS the directive
    // names; the directive flips with the handoff.
    let directive = ResolverDirective::new(mec_a);
    let ue = ran.attach_ue(
        &mut net,
        "ue",
        DirectedClient::new(
            directive.clone(),
            mec_name,
            SimDuration::from_millis(100),
            60,
        ),
        enb_a,
        RadioProfile::Lte,
    );

    // Roam at t = 3 s: radio handoff + DNS-target switch together.
    let handoff_at = netsim::SimTime::ZERO + SimDuration::from_secs(3);
    net.run_until(handoff_at);
    ran.handoff(&mut net, ue, enb_b, RadioProfile::Lte);
    directive.set(mec_b);
    net.run();

    let client = net.behavior::<DirectedClient>(ue.node);
    let mut correct = 0;
    let mut wrong = 0;
    let mut lost = 0;
    let mut before = Samples::new();
    let mut after = Samples::new();
    for o in client.outcomes() {
        let (issued_at, resolver) = client.issued_to[o.tag as usize];
        if o.timed_out {
            lost += 1;
            continue;
        }
        let expected = if resolver == mec_a { cache_a } else { cache_b };
        if o.addrs == vec![expected] {
            correct += 1;
        } else {
            wrong += 1;
        }
        if resolver == mec_a {
            before.record(o.rtt);
        } else if issued_at > handoff_at + SimDuration::from_millis(200) {
            // Settled on site B (skip the retry-inflated gap queries).
            after.record(o.rtt);
        }
    }
    MobilityReport {
        handoff_at_ms: handoff_at.as_millis_f64(),
        correct_site_answers: correct,
        wrong_site_answers: wrong,
        lost,
        mean_before_ms: before.summarize().map(|s| s.trimmed_mean_ms).unwrap_or(f64::NAN),
        mean_after_ms: after.summarize().map(|s| s.trimmed_mean_ms).unwrap_or(f64::NAN),
        cache_a,
        cache_b,
    }
}

/// The DoS-switch experiment: an attack floods the MEC DNS; the
/// orchestrator switches clients to the provider L-DNS and recovers
/// afterwards.
pub struct DosReport {
    /// Activations and recoveries of the mitigation.
    pub activations: u64,
    /// Recoveries back to the MEC DNS.
    pub recoveries: u64,
    /// Resolver used by the client over time (issue time ms, resolver).
    pub resolver_timeline: Vec<(f64, IpAddr)>,
    /// Fraction of client queries answered.
    pub availability: f64,
    /// The MEC DNS address.
    pub mec_dns: IpAddr,
    /// The provider address.
    pub provider: IpAddr,
}

/// Runs the DoS-switch experiment.
pub fn dos_experiment(seed: u64) -> DosReport {
    let mut net = Network::new(seed);
    let mut cluster = mec_orch::Cluster::new(&mut net, "mec", mec_orch::ClusterConfig::default());
    cluster.add_namespace("cdn", mec_orch::Visibility::Public);

    let mec_name = Name::parse(workload::sites::MEC_CDN_DOMAIN).unwrap();
    let mut zone = Zone::new(Name::parse(MEC_CDN_ZONE).unwrap());
    zone.add_a(mec_name.clone(), Ipv4Addr::new(10, 96, 0, 20), 0);
    let dns_pod = cluster.launch_pod(
        &mut net,
        "cdn",
        "mecdns",
        DnsServer::new(
            ServerConfig::default(),
            vec![Box::new(AuthoritativePlugin::new(vec![zone.clone()]))],
        ),
    );
    let svc = cluster.create_service(&mut net, "cdn", "dns", &[dns_pod]);
    let mec_dns = svc.cluster_ip;

    // Provider L-DNS outside the cluster.
    let provider: IpAddr = "10.44.9.1".parse().unwrap();
    let provider_node = net.add_node(
        "provider",
        [provider],
        DnsServer::new(
            ServerConfig::default(),
            vec![Box::new(AuthoritativePlugin::new(vec![zone]))],
        ),
    );

    // A gateway standing in for the P-GW.
    let gw = net.add_node("gw", ["10.44.0.9".parse::<IpAddr>().unwrap()], Nop);
    cluster.attach_external(&mut net, gw, LinkProfile::with_latency(Latency::UniformMs(0.3, 0.6)));
    net.connect(gw, provider_node, LinkProfile::with_latency(Latency::UniformMs(8.0, 12.0)));
    net.add_default_route(provider_node, gw);

    // The orchestrator's policy controller.
    let directive = ResolverDirective::new(mec_dns);
    let policy = DosPolicy::new(
        cluster.monitor(),
        "cdn/dns",
        directive.clone(),
        mec_dns,
        provider,
        200.0,
    );
    let controller = net.add_node("dos-guard", ["10.44.0.99".parse::<IpAddr>().unwrap()], policy);

    // The legitimate client, querying every 100 ms for 30 s.
    let client = net.add_node(
        "ue",
        ["172.16.0.9".parse::<IpAddr>().unwrap()],
        DirectedClient::new(directive, mec_name, SimDuration::from_millis(100), 300),
    );
    net.connect(client, gw, LinkProfile::with_latency(Latency::UniformMs(1.0, 2.0)));
    net.add_default_route(client, gw);

    // The attack: from t=5 s to t=15 s, a flood of 1000 qps at the MEC
    // DNS ClusterIP from a botnet node.
    struct Flood {
        target: IpAddr,
        until: SimDuration,
    }
    impl netsim::NodeBehavior for Flood {
        fn on_start(&mut self, ctx: &mut netsim::NodeContext<'_>) {
            ctx.set_timer(SimDuration::from_secs(5), 0);
        }
        fn on_timer(
            &mut self,
            ctx: &mut netsim::NodeContext<'_>,
            _t: netsim::TimerToken,
            _d: u64,
        ) {
            if ctx.now().as_millis_f64() > self.until.as_millis_f64() {
                return;
            }
            let q = dns_wire::Message::query(
                9999,
                Name::parse("flood.mycdn.ciab.test").unwrap(),
                dns_wire::RrType::A,
            );
            ctx.send(self.target, 53, q.encode().unwrap());
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
    let attacker = net.add_node(
        "botnet",
        ["172.16.0.66".parse::<IpAddr>().unwrap()],
        Flood {
            target: mec_dns,
            until: SimDuration::from_secs(15),
        },
    );
    net.connect(attacker, gw, LinkProfile::with_latency(Latency::UniformMs(1.0, 2.0)));
    net.add_default_route(attacker, gw);

    // The policy controller re-arms its sampling timer forever (it is a
    // long-running control loop), so bound the run instead of draining.
    net.run_until(netsim::SimTime::ZERO + SimDuration::from_secs(40));

    let client_beh = net.behavior::<DirectedClient>(client);
    let timeline: Vec<(f64, IpAddr)> = client_beh
        .issued_to
        .iter()
        .map(|(t, r)| (t.as_millis_f64(), *r))
        .collect();
    let answered = client_beh
        .outcomes()
        .iter()
        .filter(|o| !o.timed_out && o.rcode.is_ok())
        .count();
    let total = client_beh.outcomes().len();
    let policy = net.behavior::<DosPolicy>(controller);
    DosReport {
        activations: policy.activations,
        recoveries: policy.recoveries,
        resolver_timeline: timeline,
        availability: if total == 0 {
            0.0
        } else {
            answered as f64 / total as f64
        },
        mec_dns,
        provider,
    }
}

/// Shape of the chaos run: how long the client queries and when the
/// faults land. All times are off the client's 200 ms query grid so the
/// fault/query interleaving is unambiguous.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Queries per policy, one every 200 ms, alternating MEC and
    /// non-MEC names.
    pub queries: usize,
    /// When the MEC DNS node crashes (in-memory state lost).
    pub crash_at: SimDuration,
    /// When it restarts cold.
    pub restart_at: SimDuration,
    /// Window during which the client ↔ MEC DNS link is degraded
    /// (extra loss + latency + jitter); the provider path stays clean.
    pub degrade: (SimDuration, SimDuration),
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            queries: 60,
            crash_at: SimDuration::from_millis(3_900),
            restart_at: SimDuration::from_millis(7_900),
            degrade: (SimDuration::from_millis(1_050), SimDuration::from_millis(2_550)),
        }
    }
}

impl ChaosConfig {
    /// A shortened run for CI smoke tests: same fault shapes, ~5 s of
    /// virtual time instead of ~12 s.
    pub fn quick() -> Self {
        ChaosConfig {
            queries: 24,
            crash_at: SimDuration::from_millis(1_300),
            restart_at: SimDuration::from_millis(2_700),
            degrade: (SimDuration::from_millis(450), SimDuration::from_millis(950)),
        }
    }
}

/// One client deployment's (P1 policy's) behaviour under the fault
/// schedule.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChaosDeployment {
    /// Policy label (see [`P1Policy::label`]).
    pub policy: String,
    /// Queries issued.
    pub total: usize,
    /// Queries answered with a usable rcode.
    pub answered: usize,
    /// `answered / total`.
    pub availability: f64,
    /// Availability over the MEC-served name only.
    pub mec_availability: f64,
    /// Availability over the non-MEC name only.
    pub non_mec_availability: f64,
    /// 99th-percentile resolution latency over answered queries, ms.
    pub p99_ms: Option<f64>,
    /// Answers served by the provider L-DNS while the MEC DNS was down.
    pub degraded_during_outage: usize,
    /// Answers served by the MEC DNS while it was down (must be 0 —
    /// a crashed node answering would be a simulator bug).
    pub mec_served_during_outage: usize,
    /// Time from the MEC DNS restart to its first answer, ms. `None`
    /// when the policy never got one (e.g. too few post-restart
    /// queries).
    pub recovery_ms: Option<f64>,
    /// `stub.query` counter — must equal `total`.
    pub queries_sent: u64,
    /// `stub.timeout` counter — must equal `total - answered`.
    pub timeouts: u64,
    /// `stub.fallback` counter (timer-based fallback engagements).
    pub fallback_engaged: u64,
    /// Answers that actually came from the fallback resolver.
    pub used_fallback: usize,
}

/// The chaos experiment's result.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChaosReport {
    /// Root seed the per-policy trials were derived from.
    pub seed: u64,
    /// MEC DNS crash time, ms.
    pub crash_at_ms: f64,
    /// MEC DNS restart time, ms.
    pub restart_at_ms: f64,
    /// Degraded-link window, ms.
    pub degrade_window_ms: (f64, f64),
    /// One entry per P1 policy, in [`P1Policy`] declaration order.
    pub deployments: Vec<ChaosDeployment>,
}

impl ChaosReport {
    /// Plain-text rendering for `repro chaos`.
    pub fn render(&self) -> String {
        let mut out = String::from("== chaos — resolution under link faults and a MEC DNS crash ==\n");
        out.push_str(&format!(
            "MEC DNS down {:.1}s..{:.1}s; client<->MEC link degraded {:.2}s..{:.2}s\n",
            self.crash_at_ms / 1000.0,
            self.restart_at_ms / 1000.0,
            self.degrade_window_ms.0 / 1000.0,
            self.degrade_window_ms.1 / 1000.0,
        ));
        out.push_str(&format!(
            "{:<20} {:>6} {:>9} {:>9} {:>9} {:>9} {:>10}\n",
            "policy", "avail", "mec", "non-mec", "p99(ms)", "degraded", "recov(ms)"
        ));
        for d in &self.deployments {
            out.push_str(&format!(
                "{:<20} {:>6.3} {:>9.3} {:>9.3} {:>9} {:>9} {:>10}\n",
                d.policy,
                d.availability,
                d.mec_availability,
                d.non_mec_availability,
                d.p99_ms.map_or("-".to_string(), |v| format!("{v:.1}")),
                d.degraded_during_outage,
                d.recovery_ms.map_or("-".to_string(), |v| format!("{v:.1}")),
            ));
        }
        out
    }
}

/// Runs the chaos experiment serially. See [`chaos_experiment_with`].
pub fn chaos_experiment(seed: u64) -> ChaosReport {
    chaos_experiment_with(seed, &Runner::default(), &ChaosConfig::default())
}

/// The robustness capstone: the [`fallback_experiment`] world put under
/// a deterministic fault schedule — a degraded client ↔ MEC link
/// window, then a hard MEC DNS crash with a cold restart — one trial
/// per [`P1Policy`], fanned out on `runner` with [`derive_seed`]-derived
/// seeds and merged in policy order (byte-identical at any thread
/// count).
///
/// Every per-policy count is cross-validated against the stub engine's
/// telemetry counters before the report is returned: a divergence
/// between what the client measured and what the telemetry traced
/// panics rather than producing a report that silently disagrees with
/// itself.
pub fn chaos_experiment_with(seed: u64, runner: &Runner, cfg: &ChaosConfig) -> ChaosReport {
    let mec_name = Name::parse(workload::sites::MEC_CDN_DOMAIN).unwrap();
    let other_name = Name::parse("www.example.com").unwrap();
    let policies = [
        P1Policy::MecOnly,
        P1Policy::MulticastBoth,
        P1Policy::FallbackAfter(SimDuration::from_millis(60)),
    ];

    let deployments = runner.run_seeded(policies.len(), seed, |idx, trial_seed| {
        let policy = policies[idx];
        let mut net = Network::new(trial_seed);
        // Same cast as the fallback experiment: a scoped MEC DNS that
        // ignores non-MEC names, and a farther provider L-DNS that
        // answers everything.
        let mut mec_zone = Zone::new(Name::parse(MEC_CDN_ZONE).unwrap());
        mec_zone.add_a(mec_name.clone(), Ipv4Addr::new(10, 96, 0, 20), 0);
        let mec_ip: IpAddr = "10.96.0.10".parse().unwrap();
        let mec = net.add_node(
            "mec-dns",
            [mec_ip],
            DnsServer::new(
                ServerConfig {
                    processing: Latency::skewed(1.6, 2.6, 0.9),
                    ..ServerConfig::default()
                },
                vec![
                    Box::new(ScopePlugin::new(vec![Name::parse(MEC_CDN_ZONE).unwrap()])),
                    Box::new(AuthoritativePlugin::new(vec![mec_zone])),
                ],
            ),
        );
        let mut provider_zone = Zone::new(Name::parse("example.com").unwrap());
        provider_zone.add_a(other_name.clone(), Ipv4Addr::new(93, 184, 216, 34), 0);
        let mut provider_cdn_zone = Zone::new(Name::parse(MEC_CDN_ZONE).unwrap());
        provider_cdn_zone.add_a(mec_name.clone(), Ipv4Addr::new(10, 96, 0, 20), 0);
        let provider_ip: IpAddr = "10.44.9.1".parse().unwrap();
        let provider = net.add_node(
            "provider-ldns",
            [provider_ip],
            DnsServer::new(
                ServerConfig {
                    processing: Latency::skewed(2.0, 3.5, 1.5),
                    ..ServerConfig::default()
                },
                vec![Box::new(AuthoritativePlugin::new(vec![
                    provider_zone,
                    provider_cdn_zone,
                ]))],
            ),
        );

        let plan: Vec<PlannedQuery> = (0..cfg.queries)
            .map(|i| {
                let name = if i % 2 == 0 {
                    mec_name.clone()
                } else {
                    other_name.clone()
                };
                PlannedQuery {
                    at: SimDuration::from_millis(200 * i as u64),
                    name,
                    strategy: policy.strategy(mec_ip, provider_ip),
                    ecs: None,
                }
            })
            .collect();
        let mut qc = QueryClient::new(plan);
        qc.engine_mut().query_timeout = SimDuration::from_millis(500);
        qc.engine_mut().retries = 0;
        let telemetry = netsim::Telemetry::new();
        qc.engine_mut().set_telemetry(telemetry.clone());
        let client = net.add_node("ue", ["172.16.0.9".parse::<IpAddr>().unwrap()], qc);
        let mec_link =
            net.connect(client, mec, LinkProfile::with_latency(Latency::UniformMs(1.0, 2.0)));
        net.connect(
            client,
            provider,
            LinkProfile::with_latency(Latency::UniformMs(12.0, 16.0)),
        );

        // The fault plane: degrade the MEC-side access for a while, then
        // kill the MEC DNS outright and bring it back cold.
        netsim::FaultSchedule::new()
            .degrade_link(mec_link, cfg.degrade.0..cfg.degrade.1, 0.25, 3.0, 2.0)
            .crash_node(mec, cfg.crash_at, Some(cfg.restart_at))
            .install(&mut net);
        net.run();

        let crash = netsim::SimTime::ZERO + cfg.crash_at;
        let restart = netsim::SimTime::ZERO + cfg.restart_at;
        let measured = &net.behavior::<QueryClient>(client).measured;
        let mut samples = Samples::new();
        let (mut answered, mut timed_out) = (0usize, 0usize);
        // `is-mec-name` → (answered, total).
        let mut per_class: HashMap<bool, (usize, usize)> = HashMap::new();
        let (mut degraded_during_outage, mut mec_served_during_outage) = (0usize, 0usize);
        let mut used_fallback = 0usize;
        let mut recovery_ms: Option<f64> = None;
        for m in measured {
            let class = per_class.entry(m.outcome.name == mec_name).or_insert((0, 0));
            class.1 += 1;
            if m.outcome.timed_out {
                timed_out += 1;
            }
            if m.outcome.timed_out || !m.outcome.rcode.is_ok() {
                continue;
            }
            answered += 1;
            class.0 += 1;
            samples.record(m.outcome.rtt);
            if m.outcome.used_fallback {
                used_fallback += 1;
            }
            // During the outage the crashed node must be silent; any
            // answer in that window has to come from the provider.
            if m.finished >= crash && m.finished < restart {
                match m.outcome.responder {
                    Some(r) if r == mec_ip => mec_served_during_outage += 1,
                    Some(r) if r == provider_ip => degraded_during_outage += 1,
                    _ => {}
                }
            }
            if m.outcome.responder == Some(mec_ip) && m.finished >= restart {
                let since = (m.finished - restart).as_millis_f64();
                recovery_ms = Some(recovery_ms.map_or(since, |r: f64| r.min(since)));
            }
        }
        let total = measured.len();
        // Cross-validate the client's measurements against the stub
        // engine's telemetry trace of the same exchanges.
        assert_eq!(
            telemetry.counter("stub.query"),
            cfg.queries as u64,
            "telemetry lost issued queries ({})",
            policy.label()
        );
        assert_eq!(total, cfg.queries, "client lost outcomes ({})", policy.label());
        assert_eq!(
            telemetry.counter("stub.timeout") as usize,
            timed_out,
            "telemetry timeouts disagree with measured outcomes ({})",
            policy.label()
        );
        let fallback_engaged = telemetry.counter("stub.fallback");
        assert!(
            used_fallback as u64 <= fallback_engaged + telemetry.counter("stub.servfail"),
            "more fallback answers than engagements ({})",
            policy.label()
        );
        let avail = |class: Option<&(usize, usize)>| {
            class.map_or(0.0, |&(ok, all)| if all == 0 { 0.0 } else { ok as f64 / all as f64 })
        };
        ChaosDeployment {
            policy: policy.label().to_string(),
            total,
            answered,
            availability: if total == 0 { 0.0 } else { answered as f64 / total as f64 },
            mec_availability: avail(per_class.get(&true)),
            non_mec_availability: avail(per_class.get(&false)),
            p99_ms: samples.percentile(99.0),
            degraded_during_outage,
            mec_served_during_outage,
            recovery_ms,
            queries_sent: telemetry.counter("stub.query"),
            timeouts: telemetry.counter("stub.timeout"),
            fallback_engaged,
            used_fallback,
        }
    });

    ChaosReport {
        seed,
        crash_at_ms: cfg.crash_at.as_millis_f64(),
        restart_at_ms: cfg.restart_at.as_millis_f64(),
        degrade_window_ms: (cfg.degrade.0.as_millis_f64(), cfg.degrade.1.as_millis_f64()),
        deployments,
    }
}
