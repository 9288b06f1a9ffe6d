//! One workload run: set-up, then either the untraced phases that give
//! the end-to-end metrics (`trace = false`) or the traced and direct
//! measurements that give the per-layer ones (`trace = true`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::estimate::{
    calib_reading, calibrate, median, normalise, supported_percentile, time_call, time_pair,
    Quartiles,
};
use crate::gen::{third_zero_input, SplitMix64};
use crate::host::{cores, cpu_seconds, peak_rss_mb, steal_ticks};
use crate::load::{closed_loop, paced, Observed, Paced, Pool, Tally};
use crate::metrics::{Workload, PER_LAYER};
use crate::sut::{self, Backend, BuildTimes, Codec, Model, Rx, Sut, Telemetry, Tx};
use crate::trace::{check_nesting, Span};

/// The model is part of the benchmark, not of the seeded input: every
/// run serves the same weights.
const MODEL_SEED: u64 = 7;

/// Paced latencies are grouped into windows of this many seconds and
/// the median of the windows' p50s is reported.
const PACED_WINDOW_S: f64 = 0.5;

/// Saturation load run and discarded before the first measured segment.
const WARM_UP: Duration = Duration::from_millis(1500);

/// Requests whose spans are kept for the trace file.
const TRACE_FILE_REQUESTS: usize = 5_000;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny run for tests: shrunk models, 2 segments of 200 requests,
    /// no time budget.
    pub smoke: bool,
}

/// Metric values by name.
pub type Metrics = Vec<(&'static str, f64)>;

pub struct Outcome {
    pub tally: Tally,
    pub correct: bool,
    /// Every metric of the run's kind, in table order.
    pub metrics: Metrics,
    pub spans: Vec<Span>,
    pub first_error: Option<String>,
}

fn make_pool(w: &Workload, model: &Model, opt: &Options) -> Result<Pool, String> {
    let n = if opt.smoke { 8 } else { w.pool };
    let mut rng = SplitMix64::new(opt.seed);
    let inputs: Vec<Vec<f32>> = (0..n as u64)
        .map(|i| {
            if w.spikes {
                sut::spike_input(model.n_in(), opt.seed.wrapping_add(i))
            } else {
                third_zero_input(model.n_in(), &mut rng)
            }
        })
        .collect();
    let expected = model.expected(w.backend, &inputs)?;
    Ok(Pool { inputs, expected })
}

struct Ready {
    model: Model,
    times: BuildTimes,
    sut: Sut,
    pool: Pool,
    /// Median over the set-ups of build + CSMR round trip + server
    /// start to first correct reply.
    setup_s: f64,
    /// The server-start share of that.
    start_s: f64,
}

/// Sets the workload up `repeats` times (stopping each server but the
/// last) and keeps the last. The reference answers are computed between
/// the two timed parts, outside both.
fn set_up(
    w: &Workload,
    opt: &Options,
    repeats: usize,
    seen: &mut Observed,
) -> Result<Ready, String> {
    let shrink = if opt.smoke { 8 } else { 1 };
    let (mut setups, mut starts) = (Vec::new(), Vec::new());
    let mut pool = None;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        if let Some((_, _, sut)) = last.take() {
            Sut::shutdown(sut);
        }
        let t = Instant::now();
        let (model, times) = sut::build_model(w.net, MODEL_SEED, shrink)?;
        let build_s = t.elapsed().as_secs_f64();
        if pool.is_none() {
            pool = Some(make_pool(w, &model, opt)?);
        }
        let pool = pool.as_ref().expect("just filled");
        let t = Instant::now();
        let sut = Sut::start(&model, w.backend, w.over_socket, true)?;
        let first = {
            let (mut tx, mut rx) = sut.connect(false)?;
            closed_loop(&mut tx, &mut rx, pool, 0, 1, false, None)
        };
        let start_s = t.elapsed().as_secs_f64();
        seen.merge(first);
        setups.push(build_s + start_s);
        starts.push(start_s);
        last = Some((model, times, sut));
    }
    let (model, times, sut) = last.expect("at least one set-up ran");
    Ok(Ready {
        model,
        times,
        sut,
        pool: pool.expect("at least one set-up ran"),
        setup_s: median(&setups),
        start_s: median(&starts),
    })
}

/// How much a saturation arm records per request.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Record {
    /// Tally and sums only.
    Counts,
    /// Plus each reply's latencies.
    Latencies,
    /// Plus spans around every call, with the allocator counting.
    Spans,
}

/// One side of an alternating saturation comparison: its own client
/// connections and what it records.
struct Arm<'a> {
    conns: Vec<(Tx<'a>, Rx)>,
    record: Record,
}

impl<'a> Arm<'a> {
    fn open(sut: &'a Sut, record: Record) -> Result<Arm<'a>, String> {
        let conns = (0..cores().min(2))
            .map(|_| sut.connect(false))
            .collect::<Result<_, _>>()?;
        Ok(Arm { conns, record })
    }
}

/// What an arm's segments measured.
#[derive(Default)]
struct Series {
    steal: Vec<f64>,
    raw_rps: Vec<f64>,
    /// One calibration reading after each segment.
    calib_ms: Vec<f64>,
    seen: Observed,
    allocs: u64,
    alloc_bytes: u64,
    /// Spans of the arm's first traced segment.
    spans: Vec<Span>,
}

/// What one saturation segment measured.
struct Segment {
    seconds: f64,
    seen: Observed,
    steal_ticks: f64,
    allocs: u64,
    alloc_bytes: u64,
    spans: Vec<Span>,
}

/// One closed-loop segment: `requests` split evenly over the arm's
/// connections, one client thread each.
fn run_segment(arm: &mut Arm<'_>, pool: &Pool, requests: u64, next_id: &mut u64) -> Segment {
    let per_conn = requests / arm.conns.len() as u64;
    let traced = arm.record == Record::Spans;
    let sample = arm.record != Record::Counts;
    let mut spans: Vec<Vec<Span>> = arm
        .conns
        .iter()
        .map(|_| Vec::with_capacity(if traced { per_conn as usize * 5 } else { 0 }))
        .collect();
    let first_id = *next_id;
    *next_id += requests;
    let (allocs_before, bytes_before) = alloc::totals();
    alloc::set_counting(traced);
    let steal_before = steal_ticks();
    let t = Instant::now();
    let clients: Vec<Observed> = std::thread::scope(|s| {
        let clients: Vec<_> = arm
            .conns
            .iter_mut()
            .zip(&mut spans)
            .enumerate()
            .map(|(i, ((tx, rx), spans))| {
                let first = first_id + i as u64 * per_conn;
                s.spawn(move || {
                    let spans = traced.then_some(spans);
                    closed_loop(tx, rx, pool, first, per_conn, sample, spans)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread does not panic"))
            .collect()
    });
    let seconds = t.elapsed().as_secs_f64();
    let steal_ticks = steal_ticks() - steal_before;
    alloc::set_counting(false);
    let (allocs_after, bytes_after) = alloc::totals();
    let mut seen = Observed::new(sample, 0);
    clients.into_iter().for_each(|c| seen.merge(c));
    Segment {
        seconds,
        seen,
        steal_ticks,
        allocs: allocs_after - allocs_before,
        alloc_bytes: bytes_after - bytes_before,
        spans: spans.into_iter().flatten().collect(),
    }
}

impl Series {
    /// Median rate of the segments the host left alone.
    fn raw_undisturbed(&self) -> f64 {
        undisturbed_median(&self.raw_rps, &self.steal)
    }

    /// That rate scaled by the run's calibration reading: the
    /// `throughput_rps` of the run.
    fn throughput(&self) -> f64 {
        normalise(self.raw_undisturbed(), calib_reading(&self.calib_ms))
    }
}

/// Closed-loop saturation: runs fixed-size segments, one arm after the
/// other in rotation, for `budget_share` of the run's seconds (at least
/// two rounds). The calibration loop runs after every segment.
fn saturate(
    arms: &mut [Arm<'_>],
    pool: &Pool,
    w: &Workload,
    opt: &Options,
    budget_share: f64,
    next_id: &mut u64,
) -> Vec<Series> {
    let (requests, budget) = (segment_requests(w, opt), phase(opt, budget_share));
    let cores = cores();
    let mut series: Vec<Series> = arms
        .iter()
        .map(|arm| Series {
            seen: Observed::new(arm.record != Record::Counts, 0),
            ..Series::default()
        })
        .collect();
    // Unmeasured warm-up: caches fill, and the host needs about a
    // second of load on every vCPU before it gives the guest its cores
    // (see `load::keep_host_awake`).
    let started = Instant::now();
    while !budget.is_zero() && started.elapsed() < WARM_UP {
        for (arm, out) in arms.iter_mut().zip(&mut series) {
            out.seen
                .merge(run_segment(arm, pool, requests, next_id).seen);
        }
    }
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || started.elapsed() < budget {
        for (arm, out) in arms.iter_mut().zip(&mut series) {
            let segment = run_segment(arm, pool, requests, next_id);
            out.raw_rps
                .push(segment.seen.correct() as f64 / segment.seconds);
            out.calib_ms.push(calibrate(cores, opt.smoke));
            out.steal.push(segment.steal_ticks);
            out.allocs += segment.allocs;
            out.alloc_bytes += segment.alloc_bytes;
            out.seen.merge(segment.seen);
            if out.spans.is_empty() {
                out.spans = segment.spans;
            }
        }
        rounds += 1;
    }
    series
}

/// Steal ticks (10 ms of a vCPU each) above which a segment or window
/// is left out of the reported median: the hypervisor ran someone else
/// for part of it, and what it measured is the neighbour.
const STEAL_LIMIT_TICKS: f64 = 2.0;

/// Median of the `values` measured without the host interfering
/// (`steal` is parallel to `values`); of all of them when fewer than a
/// quarter qualify, so a run on a badly oversold host still reports.
fn undisturbed_median(values: &[f64], steal: &[f64]) -> f64 {
    let clean: Vec<f64> = values
        .iter()
        .zip(steal)
        .filter(|(_, s)| **s < STEAL_LIMIT_TICKS)
        .map(|(v, _)| *v)
        .collect();
    if clean.len() * 4 < values.len() {
        median(values)
    } else {
        median(&clean)
    }
}

/// p50 of each window of a paced run.
fn window_p50s(run: &Paced) -> Vec<f64> {
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); run.window_steal.len()];
    for (lat, w) in run.seen.latency_us.iter().zip(&run.window) {
        windows[*w as usize].push(*lat);
    }
    windows.iter().map(|w| median(w)).collect()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn telemetry_delta(after: Telemetry, before: Telemetry) -> Telemetry {
    Telemetry {
        queue_wait_us_sum: after.queue_wait_us_sum - before.queue_wait_us_sum,
        queue_wait_count: after.queue_wait_count - before.queue_wait_count,
        batch_wait_us_sum: after.batch_wait_us_sum - before.batch_wait_us_sum,
        batch_wait_count: after.batch_wait_count - before.batch_wait_count,
        worker_busy_us: after.worker_busy_us - before.worker_busy_us,
        worker_idle_us: after.worker_idle_us - before.worker_idle_us,
        rejected: after.rejected - before.rejected,
    }
}

pub fn run(w: &Workload, opt: &Options) -> Result<Outcome, String> {
    let mut seen = Observed::default();
    let repeats = match (opt.trace, opt.smoke) {
        (false, false) => w.setup_repeats,
        _ => 1,
    };
    let ready = set_up(w, opt, repeats, &mut seen)?;
    let (metrics, spans) = if opt.trace {
        per_layer(w, opt, &ready, &mut seen)?
    } else {
        (end_to_end(w, opt, &ready, &mut seen)?, Vec::new())
    };
    Sut::shutdown(ready.sut);
    let nested = check_nesting(&spans);
    let first_error = seen.first_error.take().or(nested.clone().err());
    Ok(Outcome {
        tally: seen.tally,
        correct: seen.tally.failed() == 0 && nested.is_ok(),
        metrics,
        spans,
        first_error,
    })
}

fn segment_requests(w: &Workload, opt: &Options) -> u64 {
    if opt.smoke {
        200
    } else {
        w.segment_requests
    }
}

fn paced_count(w: &Workload, opt: &Options, seconds: f64) -> u64 {
    if opt.smoke {
        200
    } else {
        (w.paced_rps * seconds) as u64
    }
}

fn end_to_end(
    w: &Workload,
    opt: &Options,
    ready: &Ready,
    seen: &mut Observed,
) -> Result<Metrics, String> {
    let mut next_id = 1;
    let mut arms = [Arm::open(&ready.sut, Record::Counts)?];
    let mut sat = saturate(&mut arms, &ready.pool, w, opt, 0.55, &mut next_id).remove(0);
    let (mut tx, mut rx) = ready.sut.connect(false)?;
    let run = paced(
        &mut tx,
        &mut rx,
        &ready.pool,
        w.paced_rps,
        paced_count(w, opt, opt.seconds * 0.45),
        paced_count(w, opt, PACED_WINDOW_S),
    );
    let metrics = vec![
        ("throughput_rps", sat.throughput()),
        (
            "latency_p50_us",
            undisturbed_median(&window_p50s(&run), &run.window_steal),
        ),
        ("setup_s", ready.setup_s),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    seen.merge(std::mem::take(&mut sat.seen));
    seen.merge(run.seen);
    Ok(metrics)
}

/// The per-layer metrics gathered so far, by name.
#[derive(Default)]
struct Layers(Metrics);

impl Layers {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Table order, with 0 for what does not apply to this workload.
    fn in_table_order(&self) -> Metrics {
        PER_LAYER
            .iter()
            .map(|(name, _unit)| {
                let value = self.0.iter().find(|(n, _)| n == name);
                (*name, value.map_or(0.0, |(_, v)| *v))
            })
            .collect()
    }
}

/// What later phases need from the saturation phase.
struct Saturated {
    raw_rps: f64,
    submit_ns: f64,
    spans: Vec<Span>,
}

/// Saturation with untraced and traced segments in alternation: the
/// client-side, host and serve-side figures of a busy server.
fn traced_saturation(
    w: &Workload,
    opt: &Options,
    ready: &Ready,
    next_id: &mut u64,
    seen: &mut Observed,
    m: &mut Layers,
) -> Result<Saturated, String> {
    let sut = &ready.sut;
    let before = sut.telemetry();
    let cpu_before = cpu_seconds();
    let mut arms = [
        Arm::open(sut, Record::Latencies)?,
        Arm::open(sut, Record::Spans)?,
    ];
    let mut sat = saturate(&mut arms, &ready.pool, w, opt, 0.30, next_id);
    drop(arms);
    let cpu_s = cpu_seconds() - cpu_before;
    let tel = telemetry_delta(sut.telemetry(), before);
    let (traced, plain) = (sat.remove(1), sat.remove(0));
    let requests = (plain.seen.tally.attempted + traced.seen.tally.attempted) as f64;
    let raw_rps = plain.raw_undisturbed();
    let readings = [&plain.calib_ms[..], &traced.calib_ms[..]].concat();
    m.push("client.raw_throughput_rps", raw_rps);
    m.push(
        "client.throughput_iqr_pct",
        Quartiles::of(&plain.raw_rps).iqr_pct(),
    );
    m.push("client.sat_latency_p50_us", median(&plain.seen.latency_us));
    m.push(
        "client.trace_overhead_pct",
        ratio(raw_rps - traced.raw_undisturbed(), raw_rps) * 100.0,
    );
    m.push("host.calib_ms", calib_reading(&readings));
    m.push("host.calib_iqr_pct", Quartiles::of(&readings).iqr_pct());
    m.push("host.cpu_us_per_req", ratio(cpu_s * 1e6, requests));
    let delivery: Vec<f64> = plain
        .seen
        .latency_us
        .iter()
        .zip(&plain.seen.server_latency_us)
        .map(|(client, server)| client - server)
        .collect();
    m.push("serve.reply_delivery_us", median(&delivery));
    m.push(
        "serve.batch_size_mean",
        ratio(plain.seen.batch_sum as f64, plain.seen.correct() as f64),
    );
    m.push(
        "serve.worker_busy_share",
        ratio(
            tel.worker_busy_us as f64,
            (tel.worker_busy_us + tel.worker_idle_us) as f64,
        ),
    );
    let traced_requests = traced.seen.tally.attempted as f64;
    m.push(
        "serve.allocs_per_req",
        ratio(traced.allocs as f64, traced_requests),
    );
    m.push(
        "serve.alloc_bytes_per_req",
        ratio(traced.alloc_bytes as f64, traced_requests),
    );
    let submit_ns: Vec<f64> = traced
        .spans
        .iter()
        .filter(|s| s.name == "submit")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    let submit_ns = median(&submit_ns);
    m.push("serve.submit_ns", submit_ns);
    seen.merge(plain.seen);
    seen.merge(traced.seen);
    Ok(Saturated {
        raw_rps,
        submit_ns,
        spans: traced.spans,
    })
}

/// The paced phase of a traced run; returns what of its p50 the measured
/// stages explain and the p50 itself. Behind a socket, windows alternate
/// between the socket and a direct `Server::submit` on the same server,
/// and the difference of their p50s is what the network path adds.
fn traced_paced(
    w: &Workload,
    opt: &Options,
    ready: &Ready,
    submit_ns: f64,
    seen: &mut Observed,
    m: &mut Layers,
) -> Result<(), String> {
    let (sut, pool) = (&ready.sut, &ready.pool);
    let before = sut.telemetry();
    let budget = phase(opt, 0.25).as_secs_f64();
    let (run, added_latency_us) = if sut.is_net() {
        let (mut socket, mut direct) = (sut.connect(false)?, sut.connect(true)?);
        let per_window = paced_count(w, opt, PACED_WINDOW_S);
        let window = |conn: &mut (Tx<'_>, Rx)| {
            paced(
                &mut conn.0,
                &mut conn.1,
                pool,
                w.paced_rps,
                per_window,
                per_window,
            )
        };
        let mut all = Paced {
            seen: Observed::new(true, 0),
            ..Paced::default()
        };
        let (mut via_socket, mut via_direct) = (vec![], vec![]);
        let started = Instant::now();
        while via_socket.len() < 2 || started.elapsed().as_secs_f64() < budget {
            let d = window(&mut direct);
            via_direct.push(median(&d.seen.latency_us));
            seen.merge(d.seen);
            let s = window(&mut socket);
            via_socket.push(median(&s.seen.latency_us));
            all.seen.merge(s.seen);
            all.lag_us.extend(s.lag_us);
        }
        (all, median(&via_socket) - median(&via_direct))
    } else {
        let (mut tx, mut rx) = sut.connect(false)?;
        let count = paced_count(w, opt, budget);
        let run = paced(&mut tx, &mut rx, pool, w.paced_rps, count, count);
        (run, 0.0)
    };
    let tel = telemetry_delta(sut.telemetry(), before);
    let latency = sorted(&run.seen.latency_us);
    let lag = sorted(&run.lag_us);
    let server_p50 = median(&run.seen.server_latency_us);
    m.push(
        "client.latency_p95_us",
        supported_percentile(&latency, 0.95).1,
    );
    m.push(
        "client.latency_p99_us",
        supported_percentile(&latency, 0.99).1,
    );
    m.push("client.gen_lag_p99_us", supported_percentile(&lag, 0.99).1);
    m.push("serve.server_latency_p50_us", server_p50);
    m.push(
        "serve.queue_wait_mean_us",
        ratio(tel.queue_wait_us_sum as f64, tel.queue_wait_count as f64),
    );
    m.push(
        "serve.batch_wait_mean_us",
        ratio(tel.batch_wait_us_sum as f64, tel.batch_wait_count as f64),
    );
    if sut.is_net() {
        m.push("net.added_latency_us", added_latency_us);
    }
    // What the measured stages leave unexplained of the paced p50, all
    // of them medians: how late the sender ran, the submit call, the
    // server's own latency (queue, batch deadline, the batch executing)
    // and what the network path adds. The remainder is the way back:
    // reply channel, client wake-up.
    let explained = median(&lag) + submit_ns / 1e3 + server_p50 + added_latency_us;
    m.push("client.residual_us", median(&latency) - explained);
    seen.merge(run.seen);
    Ok(())
}

/// Telemetry cost: the same model on a second server with the no-op
/// recorder, alternating saturation segments with the recording one.
fn recorder_cost_pct(
    w: &Workload,
    opt: &Options,
    ready: &Ready,
    next_id: &mut u64,
    seen: &mut Observed,
) -> Result<f64, String> {
    let quiet = Sut::start(&ready.model, w.backend, false, false)?;
    let mut arms = [
        Arm::open(&ready.sut, Record::Counts)?,
        Arm::open(&quiet, Record::Counts)?,
    ];
    let mut both = saturate(&mut arms, &ready.pool, w, opt, 0.15, next_id);
    drop(arms);
    let (noop, recording) = (both.remove(1), both.remove(0));
    let noop_rps = noop.raw_undisturbed();
    let cost = ratio(noop_rps - recording.raw_undisturbed(), noop_rps) * 100.0;
    seen.merge(noop.seen);
    seen.merge(recording.seen);
    Sut::shutdown(quiet);
    Ok(cost)
}

/// Direct single-thread timings of the compress, accel and set-up
/// layers on the workload's own inputs; returns the microseconds one
/// request costs a worker on this workload's backend.
fn direct_timings(
    w: &Workload,
    opt: &Options,
    ready: &Ready,
    energy_pj: f64,
    m: &mut Layers,
) -> f64 {
    let (model, pool) = (&ready.model, &ready.pool);
    let budget = phase(opt, 0.01);
    let mut turn = 0usize;
    let mut next_input = || {
        turn += 1;
        &pool.inputs[turn % pool.inputs.len()]
    };
    let lanes = model.lanes();
    let lane_us = time_call(30, budget, || drop(black_box(lanes.sparse(next_input())))) / 1e3;
    // Sparse against its dense twin on the same input, in alternation.
    let (_, dense_ns, speedup) = time_pair(
        30,
        budget * 4,
        || drop(black_box(lanes.sparse(&pool.inputs[0]))),
        || drop(black_box(lanes.dense(&pool.inputs[0]))),
    );
    let gated_us = time_call(30, budget, || drop(black_box(lanes.gated(next_input())))) / 1e3;
    let layer_inputs = lanes.layer_inputs(&pool.inputs[0]);
    for (i, name) in [
        "compress.kernel_us.l0",
        "compress.kernel_us.l1",
        "compress.kernel_us.l2",
    ]
    .into_iter()
    .enumerate()
    {
        if let Some(x) = layer_inputs.get(i) {
            let ns = time_call(30, budget, || drop(black_box(lanes.sparse_layer(i, x))));
            m.push(name, ns / 1e3);
        }
    }
    let probe = &pool.inputs[..pool.inputs.len().min(16)];
    let mean_over =
        |f: &dyn Fn(&[f32]) -> f64| probe.iter().map(|x| f(x)).sum::<f64>() / probe.len() as f64;
    m.push("serve.lane_us_per_req", lane_us);
    m.push("serve.lane_compile_s", lanes.compile_s);
    m.push("serve.start_s", ready.start_s);
    m.push("compress.dense_lane_us_per_req", dense_ns / 1e3);
    m.push("compress.speedup_vs_dense", speedup);
    m.push("compress.macs_per_req", model.macs() as f64);
    m.push("compress.weight_bytes_per_req", model.weight_bytes() as f64);
    m.push(
        "compress.gmacs_per_s",
        ratio(model.macs() as f64, lane_us * 1e3),
    );
    m.push(
        "compress.input_zero_block_share",
        mean_over(&|x| sut::zero_block_share(x)),
    );
    m.push(
        "compress.gate_skip_fraction",
        mean_over(&|x| lanes.gate_skip_fraction(x)),
    );
    m.push("compress.gated_lane_us_per_req", gated_us);
    m.push("compress.encode_s", ready.times.encode_s);
    m.push("nn.materialize_s", ready.times.materialize_s);
    m.push("sparsity.prune_s", ready.times.prune_s);
    m.push("registry.encode_s", ready.times.registry_encode_s);
    m.push("registry.decode_s", ready.times.registry_decode_s);
    m.push("registry.artifact_bytes", ready.times.artifact_bytes as f64);
    match w.backend {
        Backend::Sparse => lane_us,
        Backend::Gated => gated_us,
        Backend::Simulator => {
            let sim = model.simulator();
            let run_us = time_call(30, budget, || drop(black_box(sim.run(next_input())))) / 1e3;
            let cycles: u64 = pool.expected.iter().map(|e| e.cycles).sum();
            let stalls: u64 = pool.expected.iter().map(|e| e.dram_stall_cycles).sum();
            let cycles_per_req = cycles as f64 / pool.expected.len() as f64;
            m.push("accel.run_network_us", run_us);
            m.push("accel.sim_cycles_per_req", cycles_per_req);
            m.push("accel.sim_energy_pj_per_req", energy_pj);
            m.push(
                "accel.host_ns_per_sim_cycle",
                ratio(run_us * 1e3, cycles_per_req),
            );
            m.push(
                "accel.dram_stall_cycle_share",
                ratio(stalls as f64, cycles as f64),
            );
            run_us
        }
    }
}

/// The wire codec without a socket, and the socket without a model.
fn wire_timings(opt: &Options, ready: &Ready, m: &mut Layers) -> Result<(), String> {
    let pool = &ready.pool;
    let reply = sut::Reply {
        outputs: pool.expected[0]
            .output_bits
            .iter()
            .map(|b| f32::from_bits(*b))
            .collect(),
        latency_us: 300,
        batch_size: 8,
        cycles: 0,
        energy_pj: 0.0,
    };
    let codec = Codec::new(&pool.inputs[0], &reply);
    let ns = |f: &dyn Fn() -> u64| {
        time_call(30, phase(opt, 0.01), || {
            black_box(f());
        })
    };
    m.push(
        "net.encode_request_ns",
        ns(&|| codec.encode_request() as u64),
    );
    m.push("net.decode_request_ns", ns(&|| codec.decode_request()));
    m.push(
        "net.encode_response_ns",
        ns(&|| codec.encode_response() as u64),
    );
    m.push("net.decode_response_ns", ns(&|| codec.decode_response()));
    m.push(
        "net.assembler_ns_per_frame",
        ns(&|| codec.assemble_stream() as u64) / sut::CODEC_STREAM_FRAMES as f64,
    );
    m.push("net.wire_bytes_per_req", codec.wire_bytes() as f64);
    m.push("net.ping_rtt_us", median(&ready.sut.ping_rtts_us(200)?));
    Ok(())
}

/// The share of `--seconds` a phase of a traced run may take.
fn phase(opt: &Options, share: f64) -> Duration {
    Duration::from_secs_f64(if opt.smoke { 0.0 } else { opt.seconds * share })
}

fn per_layer(
    w: &Workload,
    opt: &Options,
    ready: &Ready,
    seen: &mut Observed,
) -> Result<(Metrics, Vec<Span>), String> {
    let mut m = Layers::default();
    let mut next_id = 1;

    // Simulated energy per request, exact: one pass over the pool.
    let mut energy_pj = 0.0;
    if w.backend == Backend::Simulator {
        let (mut tx, mut rx) = ready.sut.connect(false)?;
        let requests = ready.pool.inputs.len() as u64;
        let pass = closed_loop(&mut tx, &mut rx, &ready.pool, 0, requests, false, None);
        energy_pj = ratio(pass.energy_pj_sum, pass.correct() as f64);
        seen.merge(pass);
    }

    let sat = traced_saturation(w, opt, ready, &mut next_id, seen, &mut m)?;
    traced_paced(w, opt, ready, sat.submit_ns, seen, &mut m)?;
    if w.recorder_arm {
        let cost = recorder_cost_pct(w, opt, ready, &mut next_id, seen)?;
        m.push("telemetry.recorder_cost_pct", cost);
    }
    m.push(
        "serve.rejected_count",
        ready.sut.telemetry().rejected as f64,
    );
    let exec_us = direct_timings(w, opt, ready, energy_pj, &mut m);
    m.push(
        "serve.worker_kernel_share",
        exec_us * 1e-6 * sat.raw_rps / sut::WORKERS as f64,
    );
    if ready.sut.is_net() {
        wire_timings(opt, ready, &mut m)?;
    }

    let mut spans = sat.spans;
    spans.sort_by_key(|s| (s.trace_id, s.span));
    let keep = spans
        .chunk_by(|a, b| a.trace_id == b.trace_id)
        .take(TRACE_FILE_REQUESTS)
        .map(<[Span]>::len)
        .sum();
    spans.truncate(keep);
    Ok((m.in_table_order(), spans))
}
