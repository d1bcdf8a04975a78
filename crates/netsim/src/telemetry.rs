//! Query-path telemetry: counters, latency histograms and per-query
//! resolution traces.
//!
//! The paper's Figure 5 methodology observes every lookup from two
//! vantage points at once — `dig` at the UE and `tcpdump` at the P-GW —
//! and derives the wireless/resolver split from their agreement. This
//! module is the in-simulator analogue of that discipline: components
//! along the query path (stub engines, DNS servers and their plugins,
//! the P-GW NAT, the RAN) share one [`Telemetry`] handle and record
//!
//! * **counters** — monotonically increasing event counts keyed by
//!   static names (`"dns.cache.hit"`, `"stub.retry"`, …);
//! * **histograms** — collections of [`SimDuration`] observations keyed
//!   the same way (`"stub.rtt"`, `"pgw.behind_gw"`);
//! * **traces** — a span-like [`ResolutionTrace`] per DNS transaction
//!   id the stub opened: timestamped [`Breadcrumb`]s dropped at each
//!   hop, from which a latency decomposition can be re-derived
//!   *independently* of the packet tap and cross-checked against it. A
//!   mark on an id nobody opened is dropped unformatted.
//!
//! Everything is keyed by [`BTreeMap`], so iteration order — and any
//! serialization built on it — is deterministic. The handle is an
//! `Rc<RefCell<…>>`: a simulated world runs on one thread, and parallel
//! experiment campaigns give every trial its own world (and therefore
//! its own `Telemetry`), so no cross-thread state is ever shared.

use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Counter and histogram store keyed by static metric names.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Vec<SimDuration>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments `name` by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increments `name` by `delta`.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Appends one duration observation to the `name` histogram.
    pub fn observe(&mut self, name: &'static str, value: SimDuration) {
        self.histograms.entry(name).or_default().push(value);
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Observations recorded under `name` (empty when never observed).
    pub fn histogram(&self, name: &str) -> &[SimDuration] {
        self.histograms.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &[SimDuration])> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// Folds another registry into this one (counters add, histogram
    /// observations append in `other`'s order).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in other.counters() {
            self.add(name, value);
        }
        for (name, values) in other.histograms() {
            self.histograms.entry(name).or_default().extend_from_slice(values);
        }
    }
}

/// One timestamped event on a query's path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breadcrumb {
    /// Virtual time the event happened.
    pub at: SimTime,
    /// Where on the path (`"stub.issue"`, `"pgw.uplink"`, …).
    pub point: &'static str,
    /// Free-form context (upstream address, chosen cache, …).
    pub detail: String,
}

/// The span-like record of one DNS transaction: every breadcrumb
/// components dropped for its id, in recording order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolutionTrace {
    /// The DNS transaction id the crumbs were recorded under.
    pub id: u64,
    /// Breadcrumbs in the order they were recorded (which, under a
    /// deterministic simulator, is also timestamp order per point).
    pub crumbs: Vec<Breadcrumb>,
}

impl ResolutionTrace {
    /// Timestamps of every crumb at `point`, optionally restricted to a
    /// `[from, to]` window.
    pub fn times_at<'a>(
        &'a self,
        point: &'a str,
        window: Option<(SimTime, SimTime)>,
    ) -> impl Iterator<Item = SimTime> + 'a {
        self.crumbs
            .iter()
            .filter(move |c| c.point == point)
            .map(|c| c.at)
            .filter(move |&t| match window {
                Some((from, to)) => t >= from && t <= to,
                None => true,
            })
    }

    /// Earliest crumb at `point` within the optional window.
    pub fn first_at(&self, point: &str, window: Option<(SimTime, SimTime)>) -> Option<SimTime> {
        self.times_at(point, window).min()
    }

    /// Latest crumb at `point` within the optional window.
    pub fn last_at(&self, point: &str, window: Option<(SimTime, SimTime)>) -> Option<SimTime> {
        self.times_at(point, window).max()
    }
}

#[derive(Debug, Default)]
struct TelemetryInner {
    metrics: MetricsRegistry,
    traces: BTreeMap<u64, ResolutionTrace>,
}

/// The shared telemetry handle components along one query path hold.
///
/// Cloning is cheap (reference-counted) and every clone records into the
/// same registry and trace store. A default handle is a fresh, private
/// store, so instrumented components work unchanged when nobody asked
/// for telemetry.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Rc<RefCell<TelemetryInner>>,
}

impl Telemetry {
    /// A fresh, empty telemetry store.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Increments counter `name` by one.
    pub fn incr(&self, name: &'static str) {
        self.inner.borrow_mut().metrics.incr(name);
    }

    /// Increments counter `name` by `delta`.
    pub fn add(&self, name: &'static str, delta: u64) {
        self.inner.borrow_mut().metrics.add(name, delta);
    }

    /// Records one duration observation under `name`.
    pub fn observe(&self, name: &'static str, value: SimDuration) {
        self.inner.borrow_mut().metrics.observe(name, value);
    }

    /// Current value of counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().metrics.counter(name)
    }

    /// Opens the trace for transaction `id` — or continues it, when an
    /// earlier transaction under the same id left one — and drops the
    /// first breadcrumb. Only a transaction's originator opens.
    pub fn open(&self, id: u64, at: SimTime, point: &'static str, detail: impl fmt::Display) {
        let fresh = ResolutionTrace { id, crumbs: Vec::new() };
        self.inner.borrow_mut().traces.entry(id).or_insert(fresh);
        self.mark(id, at, point, detail);
    }

    /// Drops a breadcrumb on the trace for transaction `id` if one is
    /// open; otherwise does nothing, and `detail` is never formatted.
    pub fn mark(&self, id: u64, at: SimTime, point: &'static str, detail: impl fmt::Display) {
        if let Some(trace) = self.inner.borrow_mut().traces.get_mut(&id) {
            let detail = detail.to_string();
            trace.crumbs.push(Breadcrumb { at, point, detail });
        }
    }

    /// Runs `f` against the metrics registry (read-only harvest).
    pub fn with_metrics<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> R {
        f(&self.inner.borrow().metrics)
    }

    /// The trace opened for transaction `id`, if any.
    pub fn trace(&self, id: u64) -> Option<ResolutionTrace> {
        self.inner.borrow().traces.get(&id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let t = Telemetry::new();
        assert_eq!(t.counter("dns.cache.hit"), 0);
        t.incr("dns.cache.hit");
        t.add("dns.cache.hit", 2);
        assert_eq!(t.counter("dns.cache.hit"), 3);
    }

    #[test]
    fn clones_share_one_store() {
        let t = Telemetry::new();
        let c = t.clone();
        c.incr("x");
        assert_eq!(t.counter("x"), 1);
    }

    #[test]
    fn registry_iteration_is_name_ordered() {
        let mut m = MetricsRegistry::new();
        m.incr("zebra");
        m.incr("alpha");
        m.incr("middle");
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "middle", "zebra"]);
    }

    #[test]
    fn registry_merge_adds_counters_and_appends_histograms() {
        let mut a = MetricsRegistry::new();
        a.add("n", 2);
        a.observe("h", SimDuration::from_millis(1));
        let mut b = MetricsRegistry::new();
        b.add("n", 3);
        b.observe("h", SimDuration::from_millis(2));
        a.merge(&b);
        assert_eq!(a.counter("n"), 5);
        assert_eq!(
            a.histogram("h"),
            &[SimDuration::from_millis(1), SimDuration::from_millis(2)]
        );
    }

    #[test]
    fn trace_marks_and_window_queries() {
        let t = Telemetry::new();
        t.open(7, at(10), "pgw.uplink", "");
        t.mark(7, at(30), "pgw.uplink", "retry");
        t.mark(7, at(50), "pgw.downlink", "");
        let trace = t.trace(7).unwrap();
        assert_eq!(trace.id, 7);
        assert_eq!(trace.crumbs.len(), 3);
        assert_eq!(trace.first_at("pgw.uplink", None), Some(at(10)));
        assert_eq!(trace.last_at("pgw.uplink", None), Some(at(30)));
        assert_eq!(
            trace.first_at("pgw.uplink", Some((at(20), at(60)))),
            Some(at(30)),
            "window must exclude the early crumb"
        );
        assert_eq!(trace.first_at("missing", None), None);
        assert!(t.trace(8).is_none());
    }

    /// Counts how often it is formatted.
    struct Counted<'a>(&'a Cell<u32>);

    impl fmt::Display for Counted<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.set(self.0.get() + 1);
            f.write_str("counted")
        }
    }

    #[test]
    fn a_mark_on_an_unopened_id_is_dropped_unformatted() {
        let t = Telemetry::new();
        let formatted = Cell::new(0);
        t.mark(3, at(1), "cache.hit", Counted(&formatted));
        assert!(t.trace(3).is_none());
        assert_eq!(formatted.get(), 0, "a dropped crumb must not be formatted");
        t.open(3, at(2), "stub.issue", "");
        t.mark(3, at(3), "cache.hit", Counted(&formatted));
        assert_eq!(formatted.get(), 1);
        assert_eq!(t.trace(3).unwrap().crumbs[1].detail, "counted");
    }

    #[test]
    fn reopening_an_id_continues_its_trace() {
        let t = Telemetry::new();
        t.open(5, at(1), "stub.issue", "first");
        t.mark(5, at(2), "stub.answer", "");
        t.open(5, at(3), "stub.issue", "second");
        let points: Vec<(&str, String)> = t
            .trace(5)
            .unwrap()
            .crumbs
            .into_iter()
            .map(|c| (c.point, c.detail))
            .collect();
        assert_eq!(
            points,
            vec![
                ("stub.issue", "first".to_string()),
                ("stub.answer", String::new()),
                ("stub.issue", "second".to_string()),
            ]
        );
    }
}
