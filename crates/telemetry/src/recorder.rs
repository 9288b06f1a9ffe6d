//! The [`Recorder`] trait, the exporting [`Registry`], and the free
//! [`NoopRecorder`].
//!
//! Instrumented code asks a recorder for named handles **once, at
//! startup** (or on the first sight of a label value), then updates the
//! handles on the hot path; registration may lock and allocate, updates
//! never do. A [`NoopRecorder`]'s handles compile down to a branch on a
//! `None`, so a component handed one pays nothing and reads back
//! zeros.

use std::sync::Mutex;

use crate::metrics::{Counter, Gauge, Histogram};

/// Label pairs attached to one metric series (e.g. `worker` → `"0"`).
/// Registration-time only, so owned strings are fine.
pub type Labels = Vec<(String, String)>;

/// Convenience for the common single-label case.
pub fn label(key: &str, value: impl ToString) -> Labels {
    vec![(key.to_string(), value.to_string())]
}

/// Issues metric handles. Implementations decide whether the handles
/// record ([`Registry`]) or vanish ([`NoopRecorder`]).
///
/// Re-registering the same `(name, labels)` must return a handle to
/// the same underlying series. A component that reads its own figures
/// back from its handles (a `cs-serve` server does) therefore needs a
/// registry of its own; sequential components that should add up (one
/// server per sweep point) each take a fresh [`Registry`] and
/// [`Registry::merge`] it into the shared one when done.
pub trait Recorder: Send + Sync {
    /// A monotonically increasing counter.
    fn counter(&self, name: &'static str, help: &'static str, labels: Labels) -> Counter;

    /// An instantaneous level with a high-water mark.
    fn gauge(&self, name: &'static str, help: &'static str, labels: Labels) -> Gauge;

    /// A fixed-bucket histogram with the given upper bounds.
    fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Labels,
        bounds: &[u64],
    ) -> Histogram;

    /// Prometheus text-format dump of everything recorded, if this
    /// recorder retains state (`None` for no-op recorders). Lets
    /// holders of a `dyn Recorder` (e.g. a server handle) serve a
    /// `/metrics`-style page without knowing the concrete type.
    fn prometheus_text(&self) -> Option<String> {
        None
    }

    /// JSONL dump (one metric series per line), if this recorder
    /// retains state.
    fn jsonl(&self) -> Option<String> {
        None
    }
}

/// A recorder whose handles discard every update.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter(&self, _: &'static str, _: &'static str, _: Labels) -> Counter {
        Counter::noop()
    }

    fn gauge(&self, _: &'static str, _: &'static str, _: Labels) -> Gauge {
        Gauge::noop()
    }

    fn histogram(&self, _: &'static str, _: &'static str, _: Labels, _: &[u64]) -> Histogram {
        Histogram::noop()
    }
}

/// One live handle inside a [`Registry`].
#[derive(Debug, Clone)]
pub(crate) enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

/// One labeled series of a metric family.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    pub(crate) labels: Labels,
    pub(crate) handle: Handle,
}

/// All series sharing a metric name.
#[derive(Debug, Clone)]
pub(crate) struct Family {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    pub(crate) series: Vec<Series>,
}

/// A recorder that retains every registered metric for export.
///
/// Handles stay live after registration, so updates are lock-free; the
/// registry itself locks only while registering or exporting.
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or re-resolves) a series and returns its handle. A
    /// `(name, labels)` pair already registered with a *different*
    /// metric kind is a programming error and yields a no-op handle so
    /// the caller degrades instead of panicking.
    fn resolve(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Labels,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut families = self
            .families
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                families.push(Family {
                    name,
                    help,
                    series: Vec::new(),
                });
                families
                    .last_mut()
                    .unwrap_or_else(|| unreachable!("family was just pushed"))
            }
        };
        if let Some(s) = family.series.iter().find(|s| s.labels == labels) {
            return s.handle.clone();
        }
        let handle = make();
        if let Some(existing) = family.series.first() {
            if existing.handle.kind() != handle.kind() {
                debug_assert!(false, "metric {name} re-registered as a different kind");
                return match handle {
                    Handle::Counter(_) => Handle::Counter(Counter::noop()),
                    Handle::Gauge(_) => Handle::Gauge(Gauge::noop()),
                    Handle::Histogram(_) => Handle::Histogram(Histogram::noop()),
                };
            }
        }
        family.series.push(Series {
            labels,
            handle: handle.clone(),
        });
        handle
    }

    /// Snapshot of the families for export, sorted by name and labels
    /// so renderings are stable regardless of registration order.
    pub(crate) fn sorted_families(&self) -> Vec<Family> {
        let mut families = self
            .families
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        families.sort_by_key(|f| f.name);
        for f in &mut families {
            f.series.sort_by(|a, b| a.labels.cmp(&b.labels));
        }
        families
    }

    /// Looks up an already-registered counter by name and labels.
    pub fn find_counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<Counter> {
        match self.find(name, labels)? {
            Handle::Counter(c) => Some(c),
            _ => None,
        }
    }

    /// Looks up an already-registered gauge by name and labels.
    pub fn find_gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<Gauge> {
        match self.find(name, labels)? {
            Handle::Gauge(g) => Some(g),
            _ => None,
        }
    }

    /// Looks up an already-registered histogram by name and labels.
    pub fn find_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        match self.find(name, labels)? {
            Handle::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Folds every series of `other`, a later component's registry,
    /// into this one, registering the ones missing here: counters and
    /// histogram buckets add; a gauge takes `other`'s level and the
    /// larger high-water mark. A histogram already registered here with
    /// other bounds is left as it is.
    pub fn merge(&self, other: &Registry) {
        for family in other.sorted_families() {
            let (name, help) = (family.name, family.help);
            for Series { labels, handle } in family.series {
                match handle {
                    Handle::Counter(c) => self.counter(name, help, labels).add(c.get()),
                    Handle::Gauge(g) => self.gauge(name, help, labels).merge(&g),
                    Handle::Histogram(h) => {
                        if let Some(snap) = h.snapshot() {
                            self.histogram(name, help, labels, &snap.bounds).merge(&h);
                        }
                    }
                }
            }
        }
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<Handle> {
        let families = self
            .families
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let family = families.iter().find(|f| f.name == name)?;
        family
            .series
            .iter()
            .find(|s| {
                s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .map(|s| s.handle.clone())
    }
}

impl Recorder for Registry {
    fn counter(&self, name: &'static str, help: &'static str, labels: Labels) -> Counter {
        match self.resolve(name, help, labels, || Handle::Counter(Counter::live())) {
            Handle::Counter(c) => c,
            _ => Counter::noop(),
        }
    }

    fn gauge(&self, name: &'static str, help: &'static str, labels: Labels) -> Gauge {
        match self.resolve(name, help, labels, || Handle::Gauge(Gauge::live())) {
            Handle::Gauge(g) => g,
            _ => Gauge::noop(),
        }
    }

    fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Labels,
        bounds: &[u64],
    ) -> Histogram {
        match self.resolve(name, help, labels, || {
            Handle::Histogram(Histogram::live(bounds))
        }) {
            Handle::Histogram(h) => h,
            _ => Histogram::noop(),
        }
    }

    fn prometheus_text(&self) -> Option<String> {
        Some(crate::export::render_prometheus(self))
    }

    fn jsonl(&self) -> Option<String> {
        Some(crate::export::render_jsonl(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reregistration_returns_the_same_series() {
        let r = Registry::new();
        let a = r.counter("x_total", "help", Labels::new());
        let b = r.counter("x_total", "help", Labels::new());
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles hit one series");
        let lane0 = r.counter("x_total", "help", label("lane", 0));
        lane0.inc();
        assert_eq!(a.get(), 3, "labeled series is distinct");
        assert_eq!(
            r.find_counter("x_total", &[("lane", "0")]).unwrap().get(),
            1
        );
        assert!(r.find_counter("x_total", &[("lane", "9")]).is_none());
        assert!(r.find_counter("missing", &[]).is_none());
    }

    #[test]
    fn noop_recorder_handles_vanish() {
        let r = NoopRecorder;
        let c = r.counter("a", "h", Labels::new());
        c.inc();
        assert_eq!(c.get(), 0);
        let h = r.histogram("b", "h", Labels::new(), &[1, 2]);
        h.observe(5);
        assert_eq!(h.count(), 0);
        assert!(r.prometheus_text().is_none());
        assert!(r.jsonl().is_none());
    }

    #[test]
    fn merge_folds_a_later_registry_in() {
        let into = Registry::new();
        into.counter("done_total", "h", Labels::new()).add(3);
        into.gauge("depth", "h", Labels::new()).add(4);
        let from = Registry::new();
        from.counter("done_total", "h", Labels::new()).add(2);
        from.counter("lane_total", "h", label("lane", 1)).inc();
        let depth = from.gauge("depth", "h", Labels::new());
        depth.add(9);
        depth.sub(8);
        let wait = from.histogram("wait_us", "h", Labels::new(), &[10, 100]);
        wait.observe(5);
        wait.observe(50);
        into.merge(&from);
        into.merge(&from);
        assert_eq!(
            into.find_counter("done_total", &[]).unwrap().get(),
            3 + 2 * 2
        );
        assert_eq!(
            into.find_counter("lane_total", &[("lane", "1")])
                .unwrap()
                .get(),
            2
        );
        let depth = into.find_gauge("depth", &[]).unwrap();
        assert_eq!((depth.get(), depth.max()), (1, 9));
        let wait = into
            .find_histogram("wait_us", &[])
            .unwrap()
            .snapshot()
            .unwrap();
        assert_eq!((wait.count, wait.sum, wait.counts), (4, 110, vec![2, 2, 0]));
    }

    #[test]
    fn lookup_distinguishes_kinds() {
        let r = Registry::new();
        let _ = r.gauge("depth", "h", Labels::new());
        assert!(r.find_gauge("depth", &[]).is_some());
        assert!(r.find_counter("depth", &[]).is_none());
        assert!(r.find_histogram("depth", &[]).is_none());
    }
}
