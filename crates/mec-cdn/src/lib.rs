#![warn(missing_docs)]

//! `mec-cdn` — the paper's contribution: DNS re-architected for CDNs at
//! the mobile edge.
//!
//! *"DNS Does Not Suffice for MEC-CDN"* (HotNets '20) argues that a CDN
//! deployed at the mobile edge can only meet the sub-20 ms latency
//! envelope if **both** halves of its DNS path move into the MEC: the
//! local resolver (P1 — *finding a cache quickly*) and the CDN's routing
//! DNS (P2 — *finding the right cache*). This crate assembles the
//! substrates of the workspace into that design and into every
//! comparison point of the paper's evaluation:
//!
//! * [`ecosystem`] — Table 2's entities and roles, as types deployments
//!   are described with.
//! * [`deployments`] — builders for the six Figure 5 scenarios, from
//!   "MEC L-DNS w/ MEC C-DNS" (the proposal) to Cloudflare DNS, all on
//!   the same simulated LTE testbed.
//! * [`measurement`] — the `dig`+`tcpdump` methodology: query clients
//!   with RTT accounting plus a P-GW tap that splits every lookup into
//!   its wireless and resolver components.
//! * [`fallback`] — §3's P1 workarounds (ignore + multicast + timeout
//!   fallback) so non-MEC names degrade instead of failing.
//! * [`dos`] — the orchestrator's ingress-threshold switch protecting
//!   the MEC DNS.
//! * [`ip_reuse`] — §5's public-IP point: many CDN customer domains
//!   behind one MEC address.
//! * [`experiments`] — turn-key reproductions of every table and figure,
//!   returning serializable [`workload::Figure`] data.
//! * [`city`] — the metro-scale capstone: a million flow-level UEs
//!   multiplexed through eNB ingress nodes against MEC vs cloud
//!   resolution, exercising the timing-wheel scheduler at depth.
//! * [`runner`] — the parallel trial runner the campaigns fan out on:
//!   per-trial derived seeds and index-ordered merges keep results
//!   bit-identical at any thread count.
//! * [`telemetry`] — serializable per-trial artifacts harvested from the
//!   shared `netsim::Telemetry` store: counters, histograms and the
//!   trace-vs-tap wireless-split cross-check.
//!
//! The crate's `repro` binary (`src/bin/repro.rs`) prints every table
//! and figure from these modules.

pub mod city;
pub mod deployments;
pub mod dos;
pub mod ecosystem;
pub mod experiments;
pub mod fallback;
pub mod federation;
pub mod ip_reuse;
pub mod measurement;
pub mod runner;
pub mod telemetry;

pub use city::{city_experiment, city_experiment_with, CityConfig, CityDeployment, CityReport};
pub use deployments::{Deployment, DeploymentKind, TestbedConfig};
pub use dos::{DosPolicy, ResolverDirective};
pub use ecosystem::{Entity, Role};
pub use federation::{
    federation_experiment, federation_experiment_with, FederationConfig, FederationDeployment,
    FederationReport,
};
pub use measurement::{MeasuredQuery, QueryClient};
pub use runner::{derive_seed, Runner};
pub use telemetry::{TelemetryReport, TrialTelemetry};
