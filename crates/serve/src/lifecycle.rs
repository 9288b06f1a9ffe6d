//! Live model lifecycle: versioned residency, hot load/evict with
//! per-model drain latches, and canary state.
//!
//! `LiveRegistry` generalizes the startup-time
//! [`crate::model::ModelRegistry`] into a runtime structure: models are
//! keyed by name and each name holds one or more resident *versions*,
//! one of which is primary. Loading a new version either promotes it
//! immediately (`canary_pct == 0`) or routes `canary_pct`% of that
//! model's traffic to it while every routed request is shadow-compared
//! against the primary under the differential rule (bit equality with
//! NaN identified — see [`outputs_equivalent`]); crossing the
//! divergence threshold auto-demotes the canary.
//!
//! Eviction under a memory budget removes least-recently-used versions
//! that are neither primary nor an active canary, then waits on each
//! victim's in-flight latch *outside* the registry lock — a request
//! always completes, bit-identically, on the version it was admitted
//! against, and serving never stalls behind a drain.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use cs_accel::exec::{Accelerator, CompiledNetwork};
use cs_compress::gate::GateStats;
use cs_sim::SimStats;
use cs_telemetry::{buckets, Counter, Histogram, Recorder, Span};

use crate::clock::Clock;
use crate::error::ServeError;
use crate::model::{CompiledLane, KernelObserver, LaneArena, ServableModel};
use crate::server::ExecBackend;
use crate::stats::ServeStats;

/// The canary comparator: bit-for-bit equality with NaN identified —
/// the same first-divergence rule the conformance differential harness
/// applies between execution lanes.
pub fn outputs_equivalent(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// Counts requests in flight against one loaded model version;
/// eviction and unload block on it so a drain never strands a request.
#[derive(Debug, Default)]
pub(crate) struct InflightLatch {
    count: Mutex<u64>,
    zero: Condvar,
}

impl InflightLatch {
    /// Registers one in-flight request; the guard releases on drop.
    pub(crate) fn acquire(self: &Arc<Self>) -> InflightGuard {
        let mut n = self.count.lock().unwrap_or_else(|p| p.into_inner());
        *n += 1;
        drop(n);
        InflightGuard(Arc::clone(self))
    }

    /// Requests currently holding a guard.
    pub(crate) fn in_flight(&self) -> u64 {
        *self.count.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Blocks until no request holds a guard.
    pub(crate) fn wait_idle(&self) {
        let mut n = self.count.lock().unwrap_or_else(|p| p.into_inner());
        while *n > 0 {
            n = self.zero.wait(n).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// RAII in-flight registration; dropping it (after the reply is sent,
/// or when a job is abandoned mid-shutdown) releases the latch.
#[derive(Debug)]
pub(crate) struct InflightGuard(Arc<InflightLatch>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        let mut n = self.0.count.lock().unwrap_or_else(|p| p.into_inner());
        *n = n.saturating_sub(1);
        if *n == 0 {
            self.0.zero.notify_all();
        }
    }
}

/// Per-layer telemetry handles an engine-backed lane records into: the
/// kernel-time span plus the activation-gate block counters (no-op
/// handles on ungated layers).
pub(crate) struct LayerTelemetry {
    pub(crate) kernel_us: Histogram,
    pub(crate) gate_hits: Counter,
    pub(crate) gate_skips: Counter,
}

/// Times each layer's kernel over the whole batch into its histogram
/// and feeds the gate counters: one span per (batch, layer), the gate
/// counts summed over the batch's columns.
struct KernelSpans<'a> {
    telemetry: &'a [LayerTelemetry],
    clock: &'a Arc<dyn Clock>,
    open: Option<Span>,
}

impl KernelObserver for KernelSpans<'_> {
    fn kernel_start(&mut self, layer: usize) {
        let hist = self.telemetry[layer].kernel_us.clone();
        self.open = Some(Span::start(Arc::clone(self.clock), hist));
    }

    fn kernel_end(&mut self, layer: usize, gate: &[GateStats]) {
        if let Some(span) = self.open.take() {
            span.finish();
        }
        let tele = &self.telemetry[layer];
        for stats in gate {
            tele.gate_hits.add(stats.occupied_blocks() as u64);
            tele.gate_skips.add(stats.zero_blocks as u64);
        }
    }
}

/// How a loaded version executes requests, built once at load time.
pub(crate) enum ModelExec {
    /// The shared-index bridge view, validated and compiled for the
    /// cycle-accurate simulator.
    Sim(CompiledNetwork),
    /// Engine lane (sparse or gated kernels) with per-layer telemetry
    /// handles.
    Lane(CompiledLane, Vec<LayerTelemetry>),
}

/// What one batch produced, borrowed from the worker's arena.
pub(crate) struct BatchRun<'a> {
    /// Every column's outputs, back to back (`B × n_out`).
    pub(crate) outputs: &'a [f32],
    /// Each column's simulated hardware counters; empty on engine lanes,
    /// which model no hardware.
    pub(crate) hw: &'a [SimStats],
}

impl ModelExec {
    /// Runs one closed batch (`inputs` holds the requests' input vectors
    /// back to back) through the worker's `arena`. The simulator runs
    /// the compiled network column by column on `accel`; an engine lane
    /// walks its layers once for the whole batch. With `spans`, every
    /// engine layer's batched kernel is timed on that clock into its
    /// histogram (activation stays outside the span: the histograms
    /// time the kernels alone, and the element-wise epilogue is the
    /// same on every lane); shadow runs pass `None` so they do not
    /// pollute the primary's series.
    pub(crate) fn forward_batch<'a>(
        &self,
        inputs: &'a [f32],
        accel: &Accelerator,
        arena: &'a mut LaneArena,
        spans: Option<&Arc<dyn Clock>>,
    ) -> Result<BatchRun<'a>, ServeError> {
        match self {
            ModelExec::Sim(net) => {
                let (outputs, hw, scratch) = arena.sim_buffers();
                outputs.clear();
                hw.clear();
                for x in inputs.chunks_exact(net.n_in().max(1)) {
                    let (out, stats) = accel.run_compiled(net, x, scratch)?;
                    outputs.extend_from_slice(out);
                    hw.push(stats);
                }
                Ok(BatchRun { outputs, hw })
            }
            ModelExec::Lane(lane, telemetry) => {
                let outputs = match spans {
                    Some(clock) => {
                        let mut spans = KernelSpans {
                            telemetry,
                            clock,
                            open: None,
                        };
                        lane.forward_batch(inputs, arena, &mut spans)?
                    }
                    None => lane.forward_batch(inputs, arena, &mut ())?,
                };
                Ok(BatchRun { outputs, hw: &[] })
            }
        }
    }
}

/// One resident `(model, version)` with everything the request path
/// needs: the compiled executor, the in-flight drain latch, and the
/// LRU/accounting state the eviction policy reads.
pub(crate) struct LoadedModel {
    pub(crate) model: Arc<ServableModel>,
    pub(crate) version: u32,
    /// Monotonic per-load id; batches are keyed on it, so two
    /// loads — even of the same `(name, version)` across an evict and
    /// re-load — never share a batch.
    pub(crate) slot: usize,
    pub(crate) exec: ModelExec,
    pub(crate) inflight: Arc<InflightLatch>,
    /// Compact weight bytes this version holds resident (the figure
    /// the memory budget counts).
    pub(crate) resident_bytes: u64,
    /// Clock reading of the last admission against this version.
    pub(crate) last_used_us: AtomicU64,
    /// `serve_model_requests_total{model, version}`.
    pub(crate) requests: Counter,
}

/// Shared canary-routing state for one model name.
pub(crate) struct CanaryState {
    pub(crate) version: u32,
    pub(crate) pct: u8,
    /// Divergences at which the canary auto-demotes.
    pub(crate) threshold: u64,
    /// Routing ticket: request `t` goes to the canary iff
    /// `t % 100 < pct`.
    ticket: AtomicU64,
    pub(crate) routed: AtomicU64,
    /// Divergences in this experiment (the demotion trigger).
    pub(crate) divergences: AtomicU64,
    /// `serve_canary_divergences_total{model}`: every experiment on
    /// this model name scores into it.
    pub(crate) diverged: Counter,
    pub(crate) demoted: AtomicBool,
}

impl CanaryState {
    fn new(version: u32, pct: u8, name: &str, ctx: &LoadContext<'_>) -> Self {
        CanaryState {
            version,
            pct,
            threshold: ctx.canary_threshold,
            ticket: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            divergences: AtomicU64::new(0),
            diverged: ctx.stats.canary_divergences(name),
            demoted: AtomicBool::new(false),
        }
    }
}

/// One resident `(model, version)` pair as reported by
/// [`crate::Server::list_models`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStatus {
    /// Model name.
    pub name: String,
    /// Resident version.
    pub version: u32,
    /// Whether this version is the one non-canary traffic runs on.
    pub primary: bool,
    /// Canary routing percentage when this version is its model's
    /// canary (`None` otherwise, including after demotion cleared it).
    pub canary_pct: Option<u8>,
    /// True when this version is a canary that auto-demoted.
    pub demoted: bool,
    /// Compact weight bytes this version holds resident.
    pub resident_bytes: u64,
    /// Requests currently in flight against this version.
    pub in_flight: u64,
}

/// Canary progress for one model name, as reported by
/// [`crate::Server::canary_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanaryReport {
    /// The canary version.
    pub version: u32,
    /// Traffic percentage routed to it.
    pub pct: u8,
    /// Requests routed to the canary so far.
    pub routed: u64,
    /// Shadow comparisons that diverged from the primary.
    pub divergences: u64,
    /// Whether the divergence threshold demoted it.
    pub demoted: bool,
}

struct ModelEntry {
    versions: Vec<Arc<LoadedModel>>,
    primary: u32,
    canary: Option<Arc<CanaryState>>,
}

impl ModelEntry {
    fn version(&self, v: u32) -> Option<&Arc<LoadedModel>> {
        self.versions.iter().find(|m| m.version == v)
    }
}

/// The admission-time routing decision for one request.
pub(crate) struct Resolved {
    /// The version this request executes on.
    pub(crate) target: Arc<LoadedModel>,
    /// When the target is a canary: the primary to shadow-compare
    /// against and the shared canary state to score into.
    pub(crate) shadow: Option<(Arc<LoadedModel>, Arc<CanaryState>)>,
}

/// Everything a load needs from the server: which backend to compile
/// for (and, for the simulator, the accelerator the workers run, so the
/// programs are tiled for it), where to register telemetry, and the
/// stats sink for eviction/load accounting.
pub(crate) struct LoadContext<'a> {
    pub(crate) backend: ExecBackend,
    pub(crate) accel: Accelerator,
    pub(crate) recorder: &'a dyn Recorder,
    pub(crate) stats: &'a ServeStats,
    pub(crate) canary_threshold: u64,
}

/// The runtime model table: name → resident versions + canary state.
pub(crate) struct LiveRegistry {
    entries: RwLock<HashMap<String, ModelEntry>>,
    next_slot: AtomicUsize,
    /// Resident-bytes budget; `0` disables eviction.
    budget_bytes: u64,
}

impl LiveRegistry {
    pub(crate) fn new(budget_bytes: u64) -> Self {
        LiveRegistry {
            entries: RwLock::new(HashMap::new()),
            next_slot: AtomicUsize::new(0),
            budget_bytes,
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, ModelEntry>> {
        self.entries.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, ModelEntry>> {
        self.entries.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Routes one admission: the primary, or the canary for its slice
    /// of the ticket space while the experiment is live.
    pub(crate) fn resolve(&self, name: &str) -> Option<Resolved> {
        let entries = self.read();
        let entry = entries.get(name)?;
        let primary = Arc::clone(entry.version(entry.primary)?);
        if let Some(canary) = &entry.canary {
            if !canary.demoted.load(Ordering::SeqCst) {
                if let Some(target) = entry.version(canary.version) {
                    let t = canary.ticket.fetch_add(1, Ordering::SeqCst);
                    if t % 100 < u64::from(canary.pct) {
                        canary.routed.fetch_add(1, Ordering::SeqCst);
                        return Some(Resolved {
                            target: Arc::clone(target),
                            shadow: Some((primary, Arc::clone(canary))),
                        });
                    }
                }
            }
        }
        Some(Resolved {
            target: primary,
            shadow: None,
        })
    }

    /// The primary version's model, for shape probes.
    pub(crate) fn lookup(&self, name: &str) -> Option<Arc<ServableModel>> {
        let entries = self.read();
        let e = entries.get(name)?;
        e.version(e.primary).map(|m| Arc::clone(&m.model))
    }

    /// Sorted resident model names.
    pub(crate) fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Loads `model` as `version`. With `canary_pct == 0` the version
    /// becomes (or is promoted to) primary; otherwise it becomes the
    /// canary for its name. Re-loading an already-resident version only
    /// repoints routing — nothing is rebuilt. Evicts LRU versions past
    /// the budget after the insert, draining each victim outside the
    /// registry lock.
    pub(crate) fn load(
        &self,
        model: ServableModel,
        version: u32,
        canary_pct: u8,
        ctx: &LoadContext<'_>,
    ) -> Result<(), ServeError> {
        if canary_pct > 100 {
            return Err(ServeError::InvalidConfig(format!(
                "canary_pct must be 0..=100, got {canary_pct}"
            )));
        }
        model.validate()?;
        let name = model.name.clone();
        let now = ctx.stats.now_us();
        // Compile outside the lock: loads are control-plane, but the
        // admission path takes the read lock on every request and must
        // not stall behind kernel compilation.
        let built = Arc::new(self.build(model, version, ctx, now)?);

        let mut entries = self.write();
        let victims;
        if entries
            .get(&name)
            .is_some_and(|e| e.version(version).is_some())
        {
            // Already resident: promote or (re-)canary, discard the
            // freshly built copy.
            let Some(entry) = entries.get_mut(&name) else {
                return Err(ServeError::ModelNotFound {
                    model: name,
                    version,
                });
            };
            if canary_pct == 0 {
                entry.primary = version;
                // A promote concludes any canary experiment.
                entry.canary = None;
            } else {
                if entry.primary == version {
                    return Err(ServeError::VersionMismatch {
                        model: name,
                        version,
                        detail: "is the primary; a canary needs a distinct version".to_string(),
                    });
                }
                entry.canary = Some(Arc::new(CanaryState::new(version, canary_pct, &name, ctx)));
            }
            victims = self.sweep_locked(&mut entries);
        } else {
            if let Some(entry) = entries.get(&name) {
                if let Some(primary) = entry.version(entry.primary) {
                    if primary.model.n_in != built.model.n_in
                        || primary.model.n_out != built.model.n_out
                    {
                        return Err(ServeError::VersionMismatch {
                            model: name,
                            version,
                            detail: format!(
                                "shape {}x{} differs from resident {}x{}",
                                built.model.n_in,
                                built.model.n_out,
                                primary.model.n_in,
                                primary.model.n_out
                            ),
                        });
                    }
                }
            } else if canary_pct > 0 {
                return Err(ServeError::InvalidConfig(format!(
                    "canary load of {name:?} needs a resident primary"
                )));
            }
            // Feasibility before mutating: versions that stay pinned
            // after this load (primaries elsewhere, this entry's
            // primary if the load is a canary, live canaries elsewhere,
            // and the new version itself) must fit the budget.
            if self.budget_bytes > 0 {
                let mut floor = built.resident_bytes;
                for (n, e) in entries.iter() {
                    let keeps_primary = n != &name || canary_pct > 0;
                    if keeps_primary {
                        if let Some(p) = e.version(e.primary) {
                            floor += p.resident_bytes;
                        }
                    }
                    if n != &name {
                        if let Some(c) = &e.canary {
                            if !c.demoted.load(Ordering::SeqCst) && c.version != e.primary {
                                if let Some(cv) = e.version(c.version) {
                                    floor += cv.resident_bytes;
                                }
                            }
                        }
                    }
                }
                if floor > self.budget_bytes {
                    return Err(ServeError::RegistryFull {
                        model: name,
                        needed_bytes: built.resident_bytes,
                        budget_bytes: self.budget_bytes,
                    });
                }
            }
            let entry = entries.entry(name.clone()).or_insert_with(|| ModelEntry {
                versions: Vec::new(),
                primary: version,
                canary: None,
            });
            entry.versions.push(Arc::clone(&built));
            if canary_pct > 0 {
                entry.canary = Some(Arc::new(CanaryState::new(version, canary_pct, &name, ctx)));
            } else {
                entry.primary = version;
                entry.canary = None;
            }
            ctx.stats.record_load(built.resident_bytes);
            victims = self.sweep_locked(&mut entries);
        }
        drop(entries);

        // Drain victims outside the lock: in-flight requests hold Arcs
        // to their version and complete on it; only then is the
        // eviction counted and its memory considered reclaimed.
        for v in victims {
            v.inflight.wait_idle();
            ctx.stats.record_eviction(v.resident_bytes);
        }
        Ok(())
    }

    /// Evicts LRU versions (never a primary, never a live canary) until
    /// resident bytes fit the budget. Caller drains the victims.
    fn sweep_locked(&self, entries: &mut HashMap<String, ModelEntry>) -> Vec<Arc<LoadedModel>> {
        let mut victims = Vec::new();
        if self.budget_bytes == 0 {
            return victims;
        }
        loop {
            let resident: u64 = entries
                .values()
                .flat_map(|e| &e.versions)
                .map(|m| m.resident_bytes)
                .sum();
            if resident <= self.budget_bytes {
                break;
            }
            let mut victim: Option<(String, u32, u64)> = None;
            for (n, e) in entries.iter() {
                for m in &e.versions {
                    if m.version == e.primary {
                        continue;
                    }
                    if e.canary.as_ref().is_some_and(|c| {
                        c.version == m.version && !c.demoted.load(Ordering::SeqCst)
                    }) {
                        continue;
                    }
                    let used = m.last_used_us.load(Ordering::SeqCst);
                    if victim.as_ref().is_none_or(|(_, _, u)| used < *u) {
                        victim = Some((n.clone(), m.version, used));
                    }
                }
            }
            let Some((n, v, _)) = victim else {
                // Nothing evictable remains; primaries and live
                // canaries may legitimately exceed the budget.
                break;
            };
            if let Some(e) = entries.get_mut(&n) {
                if let Some(pos) = e.versions.iter().position(|m| m.version == v) {
                    victims.push(e.versions.remove(pos));
                }
                if e.canary.as_ref().is_some_and(|c| c.version == v) {
                    e.canary = None;
                }
                if e.versions.is_empty() {
                    entries.remove(&n);
                }
            }
        }
        victims
    }

    /// Removes one resident version after its in-flight requests drain.
    pub(crate) fn unload(
        &self,
        name: &str,
        version: u32,
        stats: &ServeStats,
    ) -> Result<(), ServeError> {
        let mut entries = self.write();
        let Some(entry) = entries.get_mut(name) else {
            return Err(ServeError::ModelNotFound {
                model: name.to_string(),
                version,
            });
        };
        let Some(pos) = entry.versions.iter().position(|m| m.version == version) else {
            return Err(ServeError::ModelNotFound {
                model: name.to_string(),
                version,
            });
        };
        if version == entry.primary && entry.versions.len() > 1 {
            return Err(ServeError::VersionMismatch {
                model: name.to_string(),
                version,
                detail: "is the primary; promote another version before unloading it".to_string(),
            });
        }
        let removed = entry.versions.remove(pos);
        if entry.canary.as_ref().is_some_and(|c| c.version == version) {
            entry.canary = None;
        }
        if entry.versions.is_empty() {
            entries.remove(name);
        }
        drop(entries);
        removed.inflight.wait_idle();
        stats.record_unload(removed.resident_bytes);
        Ok(())
    }

    /// Every resident version, sorted by name then version.
    pub(crate) fn list(&self) -> Vec<ModelStatus> {
        let entries = self.read();
        let mut out = Vec::new();
        for (name, e) in entries.iter() {
            for m in &e.versions {
                let canary = e.canary.as_ref().filter(|c| c.version == m.version);
                out.push(ModelStatus {
                    name: name.clone(),
                    version: m.version,
                    primary: m.version == e.primary,
                    canary_pct: canary
                        .filter(|c| !c.demoted.load(Ordering::SeqCst))
                        .map(|c| c.pct),
                    demoted: canary.is_some_and(|c| c.demoted.load(Ordering::SeqCst)),
                    resident_bytes: m.resident_bytes,
                    in_flight: m.inflight.in_flight(),
                });
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name).then(a.version.cmp(&b.version)));
        out
    }

    /// Canary progress for `name`, if an experiment exists (live or
    /// demoted).
    pub(crate) fn canary_report(&self, name: &str) -> Option<CanaryReport> {
        let entries = self.read();
        let c = entries.get(name)?.canary.as_ref()?;
        Some(CanaryReport {
            version: c.version,
            pct: c.pct,
            routed: c.routed.load(Ordering::SeqCst),
            divergences: c.divergences.load(Ordering::SeqCst),
            demoted: c.demoted.load(Ordering::SeqCst),
        })
    }

    fn build(
        &self,
        model: ServableModel,
        version: u32,
        ctx: &LoadContext<'_>,
        now_us: u64,
    ) -> Result<LoadedModel, ServeError> {
        let model = Arc::new(model);
        let resident_bytes: u64 = model
            .layers
            .iter()
            .map(|(f, _)| f.weight_bytes() as u64)
            .sum();
        let exec = match ctx.backend {
            ExecBackend::Simulator => {
                ModelExec::Sim(ctx.accel.compile_network(model.shared_layers())?)
            }
            backend => {
                let lane = match backend {
                    ExecBackend::Gated => model.gated_lane(),
                    _ => model.sparse_lane(),
                };
                let telemetry = lane_telemetry(&model.name, &lane, ctx.recorder);
                ModelExec::Lane(lane, telemetry)
            }
        };
        let requests = ctx.recorder.counter(
            "serve_model_requests_total",
            "Requests admitted, by model and version",
            vec![
                ("model".to_string(), model.name.clone()),
                ("version".to_string(), version.to_string()),
            ],
        );
        Ok(LoadedModel {
            model,
            version,
            slot: self.next_slot.fetch_add(1, Ordering::SeqCst),
            exec,
            inflight: Arc::new(InflightLatch::default()),
            resident_bytes,
            last_used_us: AtomicU64::new(now_us),
            requests,
        })
    }
}

/// Registers the per-layer kernel histogram and gate counters for one
/// engine lane (identical to what registration at worker spawn used to
/// produce; now it happens once per load).
fn lane_telemetry(
    model_name: &str,
    lane: &CompiledLane,
    recorder: &dyn Recorder,
) -> Vec<LayerTelemetry> {
    let bounds = buckets::duration_us();
    lane.layers
        .iter()
        .map(|layer| {
            let kernel_us = recorder.histogram(
                "serve_layer_kernel_us",
                "Per-layer kernel time on engine-backed worker lanes (µs)",
                vec![
                    ("model".to_string(), model_name.to_string()),
                    ("layer".to_string(), layer.name.clone()),
                    ("kernel".to_string(), layer.kernel.kind().to_string()),
                ],
                &bounds,
            );
            // Gate counters exist only where a gate runs; ungated
            // layers get no-op handles so the series never appear for
            // them.
            let gate_counter = |outcome: &str| {
                recorder.counter(
                    "serve_gate_blocks_total",
                    "Inputs the activation gate prescanned, by outcome \
                     (`hit` = active, `skip` = bit-exact +0.0, whose weight \
                     rows an active-input walk skips)",
                    vec![
                        ("model".to_string(), model_name.to_string()),
                        ("layer".to_string(), layer.name.clone()),
                        ("outcome".to_string(), outcome.to_string()),
                    ],
                )
            };
            let (gate_hits, gate_skips) = if layer.kernel.gated() {
                (gate_counter("hit"), gate_counter("skip"))
            } else {
                (Counter::noop(), Counter::noop())
            };
            LayerTelemetry {
                kernel_us,
                gate_hits,
                gate_skips,
            }
        })
        .collect()
}
