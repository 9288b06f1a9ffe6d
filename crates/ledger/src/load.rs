//! The load generator: a closed loop for saturation, an open loop for
//! paced latency. Both verify every reply against the reference and
//! count each request that produced no correct reply as failed.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::time::{Duration, Instant};

use crate::host::{cores, steal_ticks};
use crate::sut::{Expected, Failure, Reply, Rx, Tx};
use crate::trace::{stamp, Span, ROOT};

/// Requests each closed-loop client keeps in flight; with the two
/// clients of a saturation segment the total window is 32.
pub const WINDOW: usize = 16;

/// Most requests the paced sender lets be outstanding. Below the
/// server's queue depth of 256, so a stall delays later sends (and
/// their latency, timed from when they were due, grows) in place of
/// turning them into refusals.
const PACED_OUTSTANDING_CAP: isize = 128;

/// The inputs a run cycles through and what each must produce.
pub struct Pool {
    pub inputs: Vec<Vec<f32>>,
    pub expected: Vec<Expected>,
}

impl Pool {
    fn index(&self, id: u64) -> usize {
        (id % self.inputs.len() as u64) as usize
    }
}

/// Requests attempted and how they failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub refused: u64,
    pub errors: u64,
    pub mismatched: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.refused + self.errors + self.mismatched
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.errors += other.errors;
        self.mismatched += other.mismatched;
    }
}

/// What one client saw: the tally, sums over the correct replies, and
/// — only when `sample` is set, so that an end-to-end run's peak memory
/// is the program's and not this buffer's — each correct reply's
/// client-observed and server-reported latency.
#[derive(Debug, Default)]
pub struct Observed {
    pub tally: Tally,
    sample: bool,
    correct: u64,
    pub latency_us: Vec<f64>,
    pub server_latency_us: Vec<f64>,
    pub batch_sum: u64,
    pub energy_pj_sum: f64,
    pub first_error: Option<String>,
}

impl Observed {
    pub fn new(sample: bool, capacity: usize) -> Observed {
        let capacity = if sample { capacity } else { 0 };
        Observed {
            sample,
            latency_us: Vec::with_capacity(capacity),
            server_latency_us: Vec::with_capacity(capacity),
            ..Observed::default()
        }
    }

    /// Scores one reply; `latency_us` is the client-observed figure.
    fn score(&mut self, reply: Result<Reply, Failure>, want: &Expected, latency_us: f64) {
        self.tally.attempted += 1;
        match reply {
            Ok(r) if r.matches(want) => {
                self.correct += 1;
                if self.sample {
                    self.latency_us.push(latency_us);
                    self.server_latency_us.push(r.latency_us as f64);
                }
                self.batch_sum += u64::from(r.batch_size);
                self.energy_pj_sum += r.energy_pj;
            }
            Ok(_) => self.tally.mismatched += 1,
            Err(Failure::Refused) => self.tally.refused += 1,
            Err(Failure::Error(e)) => {
                self.tally.errors += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }

    pub fn merge(&mut self, other: Observed) {
        self.tally.add(other.tally);
        self.correct += other.correct;
        // A counting-only accumulator (a run's grand total) takes the
        // counts and leaves the samples behind.
        if self.sample {
            self.latency_us.extend(other.latency_us);
            self.server_latency_us.extend(other.server_latency_us);
        }
        self.batch_sum += other.batch_sum;
        self.energy_pj_sum += other.energy_pj_sum;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    pub fn correct(&self) -> u64 {
        self.correct
    }
}

fn push_span(
    spans: &mut Vec<Span>,
    trace_id: u64,
    span: u8,
    what: (&'static str, &'static str),
    start: Instant,
    end: Instant,
) {
    spans.push(Span {
        trace_id,
        span,
        parent: if span == ROOT { 0 } else { ROOT },
        layer: what.0,
        name: what.1,
        start_ns: stamp(start),
        end_ns: stamp(end),
    });
}

/// One closed-loop client: sends requests `first_id..first_id + count`
/// keeping [`WINDOW`] in flight, and waits for every reply. `sample`
/// keeps per-reply latencies; with `spans` set it also records, per
/// request, a root span and one child per call into the layer below.
pub fn closed_loop(
    tx: &mut Tx<'_>,
    rx: &mut Rx,
    pool: &Pool,
    first_id: u64,
    count: u64,
    sample: bool,
    mut spans: Option<&mut Vec<Span>>,
) -> Observed {
    let mut seen = Observed::new(sample, count as usize);
    let mut in_flight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(WINDOW);
    let wait_span = match tx {
        Tx::Net(_) => ("net", "read_frame"),
        Tx::Inproc(..) => ("serve", "wait"),
    };
    let (mut sent, mut done) = (0u64, 0u64);
    while done < count {
        while sent < count && in_flight.len() < WINDOW {
            let id = first_id + sent;
            sent += 1;
            let start = Instant::now();
            match tx.send(id, &pool.inputs[pool.index(id)]) {
                Ok(encoded) => {
                    in_flight.push_back((id, start));
                    if let Some(spans) = spans.as_deref_mut() {
                        let end = Instant::now();
                        match encoded {
                            Some(mid) => {
                                push_span(spans, id, 2, ("net", "encode"), start, mid);
                                push_span(spans, id, 3, ("net", "write"), mid, end);
                            }
                            None => push_span(spans, id, 2, ("serve", "submit"), start, end),
                        }
                    }
                }
                Err(failure) => {
                    seen.score(Err(failure), &pool.expected[0], 0.0);
                    done += 1;
                }
            }
        }
        let Some((id, start)) = in_flight.pop_front() else {
            continue;
        };
        let wait_from = Instant::now();
        let (got_id, reply) = match rx.recv() {
            Some(r) => r,
            None => (id, Err(Failure::Error("connection closed".to_string()))),
        };
        let arrived = Instant::now();
        let reply = match reply {
            Ok(_) if got_id != id => Err(Failure::Error(format!("reply {got_id} for {id}"))),
            other => other,
        };
        let latency_us = arrived.duration_since(start).as_secs_f64() * 1e6;
        seen.score(reply, &pool.expected[pool.index(id)], latency_us);
        done += 1;
        if let Some(spans) = spans.as_deref_mut() {
            let verified = Instant::now();
            push_span(spans, id, 4, wait_span, wait_from, arrived);
            push_span(spans, id, 5, ("client", "verify"), arrived, verified);
            push_span(spans, id, ROOT, ("client", "request"), start, verified);
        }
    }
    seen
}

/// One paced run: what the receiver observed, each correct reply's
/// latency timed from the instant its request was due; `window` is the
/// window (of `per_window` requests, by due order) each of those
/// replies fell in, `window_steal` the steal ticks the host charged
/// during each window, and `lag_us` how late each send happened.
#[derive(Debug, Default)]
pub struct Paced {
    pub seen: Observed,
    pub window: Vec<u32>,
    pub window_steal: Vec<f64>,
    pub lag_us: Vec<f64>,
}

/// Yields in a loop until `on` clears.
///
/// The hypervisor of the gating sandbox runs a guest's two vCPUs on one
/// core until both have been more than half busy for about a second
/// (two busy threads then take 21 ms for what takes them 10 ms after),
/// and a paced phase on its own is too light to cross that line — or,
/// worse, sits on it and flips. So during a paced phase every core has
/// one thread of the benchmark that never sleeps: the sender, which
/// polls the clock, and this. They only ever yield, so a server thread
/// that wakes runs at once.
fn keep_host_awake(on: &AtomicBool) {
    while on.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
}

/// Open loop: request `k` is due `k / rate` seconds after the start
/// whether or not earlier ones were answered. One thread sends on
/// schedule, one receives.
pub fn paced(
    tx: &mut Tx<'_>,
    rx: &mut Rx,
    pool: &Pool,
    rate: f64,
    count: u64,
    per_window: u64,
) -> Paced {
    let per_window = per_window.max(1);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |k: u64| start + Duration::from_secs_f64(k as f64 / rate);
    // Signed: a reply scored for a request whose send failed may be
    // subtracted before it was ever added.
    let outstanding = AtomicIsize::new(0);
    let sending = AtomicBool::new(true);
    let (lag_us, (seen, window, window_steal)) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut lag_us = Vec::with_capacity(count as usize);
            for k in 0..count {
                let due = due(k);
                loop {
                    let now = Instant::now();
                    if now >= due && outstanding.load(Ordering::SeqCst) < PACED_OUTSTANDING_CAP {
                        break;
                    }
                    // Never sleeps: see `keep_host_awake`.
                    std::thread::yield_now();
                }
                lag_us.push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
                outstanding.fetch_add(1, Ordering::SeqCst);
                // A failed send is scored by the receiver, whose read
                // over the same dead socket fails too.
                let _ = tx.send(k, &pool.inputs[pool.index(k)]);
            }
            lag_us
        });
        for _ in 1..cores() {
            s.spawn(|| keep_host_awake(&sending));
        }
        let receiver = s.spawn(|| {
            let mut seen = Observed::new(true, count as usize);
            let mut window = Vec::with_capacity(count as usize);
            let mut window_steal = Vec::new();
            let mut steal_mark = steal_ticks();
            for k in 0..count {
                let (got_id, reply) = match rx.recv() {
                    Some(r) => r,
                    None => (k, Err(Failure::Error("connection closed".to_string()))),
                };
                let arrived = Instant::now();
                outstanding.fetch_sub(1, Ordering::SeqCst);
                let reply = match reply {
                    Ok(_) if got_id != k => Err(Failure::Error(format!("reply {got_id} for {k}"))),
                    other => other,
                };
                let before = seen.correct();
                let latency_us = arrived.saturating_duration_since(due(k)).as_secs_f64() * 1e6;
                seen.score(reply, &pool.expected[pool.index(k)], latency_us);
                if seen.correct() > before {
                    window.push((k / per_window) as u32);
                }
                if (k + 1) % per_window == 0 || k + 1 == count {
                    let now = steal_ticks();
                    window_steal.push(now - steal_mark);
                    steal_mark = now;
                }
            }
            (seen, window, window_steal)
        });
        let received = receiver.join().expect("paced receiver does not panic");
        sending.store(false, Ordering::SeqCst);
        (
            sender.join().expect("paced sender does not panic"),
            received,
        )
    });
    Paced {
        seen,
        window,
        window_steal,
        lag_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_output_bit_is_a_failed_request() {
        let want = Expected {
            output_bits: vec![1.5f32.to_bits(), (-0.25f32).to_bits()],
            cycles: 0,
            dram_stall_cycles: 0,
        };
        let reply = |outputs: Vec<f32>| Reply {
            outputs,
            latency_us: 10,
            batch_size: 4,
            cycles: 0,
            energy_pj: 0.0,
        };
        let mut seen = Observed::new(true, 1);
        seen.score(Ok(reply(vec![1.5, -0.25])), &want, 100.0);
        // The lowest mantissa bit of one output: numerically negligible,
        // still a mismatch.
        let flipped = f32::from_bits(1.5f32.to_bits() ^ 1);
        seen.score(Ok(reply(vec![flipped, -0.25])), &want, 100.0);
        // -0.0 == 0.0 numerically, but not bit for bit.
        let zero = Expected {
            output_bits: vec![0.0f32.to_bits()],
            ..want.clone()
        };
        seen.score(Ok(reply(vec![-0.0])), &zero, 100.0);
        seen.score(Ok(reply(vec![1.5])), &want, 100.0); // wrong length
        seen.score(Err(Failure::Refused), &want, 100.0);
        seen.score(Err(Failure::Error("worker lost".to_string())), &want, 100.0);
        assert_eq!(
            seen.tally,
            Tally {
                attempted: 6,
                refused: 1,
                errors: 1,
                mismatched: 3,
            }
        );
        assert_eq!(seen.tally.failed(), 5);
        assert_eq!((seen.correct(), &seen.latency_us[..]), (1, &[100.0][..]));
        assert_eq!(seen.first_error.as_deref(), Some("worker lost"));
    }
}
