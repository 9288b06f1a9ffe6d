//! Tenant-aware admission queue — and the place batches are made.
//!
//! Each tenant gets its own bounded FIFO lane; pushes reject when the
//! global capacity or the tenant's quota is exhausted, and lanes drain
//! weighted round-robin so one chatty tenant can monopolize neither
//! admission nor execution order.
//!
//! Workers pull: [`AdmissionQueue::pop_batch`] blocks for the first job
//! and takes with it, under the same lock and fair order, every queued
//! job for the same model load up to `max_batch` (a job for another
//! load is peeked, never taken: it closes the batch). A batch is thus
//! composed at the instant a worker can run it — alone on an idle
//! server, full under load, where requests pile up behind busy workers.
//!
//! Idle workers stand in a FIFO line, each parked on its own condvar. A
//! push wakes the head only and a worker that finishes rejoins at the
//! back, so assignment rotates over the workers however the host
//! schedules their threads (with one shared condvar the hot thread wins
//! every race, and simulated-hardware throughput divides by the busiest
//! worker).
//!
//! Each lane also carries its tenant's admission counters
//! (`serve_tenant_{requests,rejected}_total{tenant}`), registered when
//! the tenant is first seen, so per-tenant accounting rides the lookup
//! admission already makes under its one lock.
//!
//! `close()` stops admission; queued items still drain, then poppers
//! observe `None` (graceful shutdown). A worker that exits, cleanly or
//! by unwinding, calls `depart`: survivors keep serving, and the last
//! one out drops what is queued so nothing waits on nobody.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use cs_telemetry::{label, Counter, NoopRecorder, Recorder};

use crate::batch::{Batch, CloseReason};
use crate::clock::Clock;

/// Why admission refused an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// No room: the global queue, or this tenant's quota slice, is full.
    Full {
        /// True when the tenant's own quota rejected the item while the
        /// global queue still had room.
        tenant_quota: bool,
    },
    /// The queue is closed: the server is shutting down, or its last
    /// worker is gone.
    Closed,
}

struct TenantLane<T> {
    items: VecDeque<T>,
    weight: u64,
    credit: u64,
    /// Pushes this tenant had admitted.
    admitted: Counter,
    /// Pushes this tenant had refused as [`AdmitError::Full`].
    rejected: Counter,
}

struct QueueState<T> {
    /// One lane per tenant in first-seen order; the round-robin cursor
    /// walks this ring. Lanes are never removed (bounded by distinct
    /// tenant names).
    lanes: Vec<TenantLane<T>>,
    /// Tenant name → ring position; only admission looks names up.
    index: HashMap<String, usize>,
    cursor: usize,
    /// Items queued in the lanes.
    total: usize,
    closed: bool,
    /// Idle workers in the order they came free; only the head takes.
    line: VecDeque<usize>,
    /// Workers that have not departed.
    live: usize,
    /// Set once every live worker has stood in line at the same time.
    lined_up: bool,
    /// Test valve: while set, the head of the line does not take.
    #[cfg(test)]
    held: bool,
}

impl<T> QueueState<T> {
    /// Weighted round-robin: moves the cursor to the lane that yields
    /// next and returns its ring position without popping. The cursor
    /// lane yields until its credit (replenished to its weight on every
    /// pass) runs out, then the cursor advances. Two passes over the
    /// ring suffice: the first spends remaining credits, the second
    /// visits every lane with fresh credit, so any non-empty lane
    /// yields. Calling it again before a `pop` changes nothing.
    fn advance(&mut self) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let n = self.lanes.len();
        for _ in 0..2 * n {
            let lane = &mut self.lanes[self.cursor];
            if !lane.items.is_empty() && lane.credit > 0 {
                return Some(self.cursor);
            }
            lane.credit = lane.weight;
            self.cursor = (self.cursor + 1) % n;
        }
        None
    }

    /// Pops the front of the lane [`QueueState::advance`] returned.
    fn pop(&mut self, lane: usize) -> Option<T> {
        let lane = &mut self.lanes[lane];
        let item = lane.items.pop_front()?;
        lane.credit -= 1;
        self.total -= 1;
        Some(item)
    }

    /// Moves into `items` every queued job the batch may take — same
    /// key as its first job, fair order, up to `max_batch` — and
    /// reports the rule that closed it: [`CloseReason::Size`] when full
    /// (whatever is next), [`CloseReason::ModelSwitch`] when the next
    /// job is for another load, else [`CloseReason::Deadline`].
    fn fill(
        &mut self,
        items: &mut Vec<T>,
        max_batch: usize,
        key: impl Fn(&T) -> usize,
    ) -> CloseReason {
        while items.len() < max_batch {
            let Some(lane) = self.advance() else {
                return CloseReason::Deadline;
            };
            if let (Some(first), Some(next)) = (items.first(), self.lanes[lane].items.front()) {
                if key(first) != key(next) {
                    return CloseReason::ModelSwitch;
                }
            }
            items.extend(self.pop(lane));
        }
        CloseReason::Size
    }

    /// Whether `worker` takes now: it heads the idle line and a job is
    /// queued, or the queue is closed and it must leave.
    fn takes(&self, worker: usize) -> bool {
        #[cfg(test)]
        if self.held {
            return false;
        }
        self.line.front() == Some(&worker) && (self.total > 0 || self.closed)
    }
}

/// A bounded multi-tenant queue with weighted-fair, batch-at-a-time
/// dequeue.
pub struct AdmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    /// One per worker: where it parks while it stands in line.
    wake: Vec<Condvar>,
    /// Signalled when the line first fills and whenever a worker
    /// departs.
    roster: Condvar,
    capacity: usize,
    tenant_quota: usize,
    weights: HashMap<String, u64>,
    /// Where each new tenant's counters register.
    recorder: Arc<dyn Recorder>,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` items total and (when
    /// `tenant_quota > 0`) at most `tenant_quota` per tenant, drained by
    /// one worker. Tenants named in `weights` dequeue proportionally
    /// more often; unlisted tenants weigh 1. Tenant counters go to a
    /// [`NoopRecorder`] until the server attaches its recorder.
    pub fn new(capacity: usize, tenant_quota: usize, weights: &[(String, u32)]) -> Self {
        AdmissionQueue {
            state: Mutex::new(QueueState {
                lanes: Vec::new(),
                index: HashMap::new(),
                cursor: 0,
                total: 0,
                closed: false,
                line: VecDeque::new(),
                live: 1,
                lined_up: false,
                #[cfg(test)]
                held: false,
            }),
            wake: vec![Condvar::new()],
            roster: Condvar::new(),
            capacity,
            tenant_quota,
            weights: weights
                .iter()
                .map(|(name, w)| (name.clone(), u64::from(*w).max(1)))
                .collect(),
            recorder: Arc::new(NoopRecorder),
        }
    }

    /// The same queue registering each tenant's counters on `recorder`.
    #[must_use]
    pub(crate) fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The same queue drained by `workers` workers, numbered from 0.
    #[must_use]
    pub(crate) fn with_workers(mut self, workers: usize) -> Self {
        self.wake = (0..workers).map(|_| Condvar::new()).collect();
        self.lock().live = workers;
        self
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        // Every update below leaves the state valid before anything
        // that can unwind (the injected clock, the caller's key
        // function) runs, so a poisoned lock is safe to adopt.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn wake_head(&self, s: &QueueState<T>) {
        if let Some(&head) = s.line.front() {
            self.wake[head].notify_one();
        }
    }

    /// Non-blocking admission for `tenant`, counted on the tenant's
    /// lane. A known tenant is looked up by `&str`; only the first push
    /// of a new one allocates (its lane, name and counters).
    ///
    /// # Errors
    ///
    /// [`AdmitError::Full`] when the queue or the tenant's quota has no
    /// room, [`AdmitError::Closed`] once the queue is closed.
    pub fn try_push(&self, tenant: &str, item: T) -> Result<(), AdmitError> {
        let mut s = self.lock();
        if s.closed {
            return Err(AdmitError::Closed);
        }
        let lane = match s.index.get(tenant) {
            Some(&lane) => lane,
            None => {
                let weight = self.weights.get(tenant).copied().unwrap_or(1);
                let counter =
                    |name, help| self.recorder.counter(name, help, label("tenant", tenant));
                s.lanes.push(TenantLane {
                    items: VecDeque::new(),
                    weight,
                    credit: weight,
                    admitted: counter(
                        "serve_tenant_requests_total",
                        "Requests admitted, by tenant",
                    ),
                    rejected: counter(
                        "serve_tenant_rejected_total",
                        "Requests rejected with Overloaded, by tenant",
                    ),
                });
                let lane = s.lanes.len() - 1;
                s.index.insert(tenant.to_string(), lane);
                lane
            }
        };
        let queue_full = s.total >= self.capacity;
        let lane = &mut s.lanes[lane];
        if queue_full || (self.tenant_quota > 0 && lane.items.len() >= self.tenant_quota) {
            lane.rejected.inc();
            return Err(AdmitError::Full {
                tenant_quota: !queue_full,
            });
        }
        lane.admitted.inc();
        lane.items.push_back(item);
        s.total += 1;
        // Wake the head only, and after unlocking so it does not wake
        // into contention. If the head changes in between, whoever left
        // the line saw this item and woke its successor.
        let head = s.line.front().copied();
        drop(s);
        if let Some(head) = head {
            self.wake[head].notify_one();
        }
        Ok(())
    }

    /// Blocks until `worker` (below the worker count; one thread per
    /// number) has a batch to run; `None` once the queue is closed and
    /// drained.
    ///
    /// The worker joins the back of the idle line. At the head, once a
    /// job is queued, it takes the next job under the fair schedule
    /// plus every queued job that follows with the same `key` (the
    /// model load), up to `max_batch`, and leaves with the batch
    /// closed. Nothing in the queue is timed, so an idle worker parks
    /// until a push, a close or a departure wakes it.
    ///
    /// # Panics
    ///
    /// If `worker` is not below the worker count.
    pub fn pop_batch(
        &self,
        worker: usize,
        max_batch: usize,
        clock: &dyn Clock,
        key: impl Fn(&T) -> usize,
    ) -> Option<Batch<T>> {
        let mut s = self.lock();
        s.line.push_back(worker);
        if !s.lined_up && s.line.len() >= s.live {
            s.lined_up = true;
            self.roster.notify_all();
        }
        s = self.wake[worker]
            .wait_while(s, |s| !s.takes(worker))
            .unwrap_or_else(|p| p.into_inner());
        let opened_us = clock.now_us();
        let mut items = Vec::with_capacity(max_batch.min(s.total));
        let reason = s.fill(&mut items, max_batch, &key);
        // Leaving with a batch, or empty-handed because the queue is
        // closed and drained: the next in line takes over what is left.
        s.line.pop_front();
        if s.total > 0 || s.closed {
            self.wake_head(&s);
        }
        let model = key(items.first()?);
        Some(Batch {
            model,
            items,
            opened_us,
            reason,
        })
    }

    /// `(tenant, admitted, rejected)` for every tenant seen, in tenant
    /// order, read from the lanes' counters (zeros under the no-op
    /// recorder).
    pub(crate) fn tenants(&self) -> Vec<(String, u64, u64)> {
        let s = self.lock();
        let mut tenants: Vec<_> = s
            .index
            .iter()
            .map(|(name, &lane)| {
                let lane = &s.lanes[lane];
                (name.clone(), lane.admitted.get(), lane.rejected.get())
            })
            .collect();
        tenants.sort_unstable();
        tenants
    }

    /// Stops admission. Queued items still drain through
    /// [`AdmissionQueue::pop_batch`]; once empty, poppers observe
    /// `None`.
    pub fn close(&self) {
        let mut s = self.lock();
        s.closed = true;
        for &worker in &s.line {
            self.wake[worker].notify_one();
        }
    }

    /// Marks `worker` gone for good. It leaves the line and its
    /// successor is woken; the last worker out closes the queue and
    /// drops whatever is still queued, so no admitted item waits on
    /// workers that do not exist.
    pub(crate) fn depart(&self, worker: usize) {
        let mut s = self.lock();
        s.line.retain(|&w| w != worker);
        s.live = s.live.saturating_sub(1);
        let mut orphans = Vec::new();
        if s.live == 0 {
            s.closed = true;
            s.total = 0;
            orphans.extend(s.lanes.iter_mut().map(|l| std::mem::take(&mut l.items)));
        }
        s.lined_up |= s.line.len() >= s.live;
        self.wake_head(&s);
        self.roster.notify_all();
        // Dropping an item may run arbitrary code (reply channels,
        // in-flight guards): do it outside the lock.
        drop(s);
        drop(orphans);
    }

    /// Blocks until every live worker has stood in line at once, i.e.
    /// until the first push is guaranteed a fair hand-off.
    pub(crate) fn wait_lined_up(&self) {
        drop(self.roster.wait_while(self.lock(), |s| !s.lined_up));
    }

    /// Blocks until every worker has departed.
    pub(crate) fn wait_departed(&self) {
        drop(self.roster.wait_while(self.lock(), |s| s.live > 0));
    }
}

#[cfg(test)]
impl<T> AdmissionQueue<T> {
    /// Workers standing in line right now.
    pub(crate) fn idle_workers(&self) -> usize {
        self.lock().line.len()
    }

    /// Test valve: while held, the head of the line does not take, so
    /// jobs pile up as they would behind busy workers. Releasing it
    /// wakes the head.
    pub(crate) fn hold(&self, held: bool) {
        let mut s = self.lock();
        s.held = held;
        self.wake_head(&s);
    }
}

/// Test barrier: yields until `cond` holds (or fails after 30 s).
#[cfg(test)]
pub(crate) fn spin_until(what: &str, cond: impl Fn() -> bool) {
    let started = std::time::Instant::now();
    while !cond() {
        assert!(started.elapsed().as_secs() < 30, "{what}");
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::sync::{mpsc, Arc};

    enum Popped<T> {
        Item(T),
        Closed,
    }

    impl<T> AdmissionQueue<T> {
        /// One item at a time. The four scheduling tests below predate
        /// `pop_batch` and read the fair order through this; none of
        /// them pops an empty open queue.
        fn pop_one(&self) -> Popped<T> {
            self.pop_batch(0, 1, &ManualClock::new(0), |_| 0)
                .and_then(|batch| batch.items.into_iter().next())
                .map_or(Popped::Closed, Popped::Item)
        }
    }

    fn drain(q: &AdmissionQueue<&'static str>, n: usize) -> Vec<&'static str> {
        (0..n)
            .map(|_| match q.pop_one() {
                Popped::Item(x) => x,
                _ => panic!("expected an item"),
            })
            .collect()
    }

    #[test]
    fn weighted_round_robin_interleaves_by_weight() {
        let q = AdmissionQueue::new(64, 0, &[("a".to_string(), 3), ("b".to_string(), 1)]);
        for _ in 0..4 {
            q.try_push("a", "a").unwrap();
            q.try_push("b", "b").unwrap();
        }
        // Tenant a holds weight 3: the contended prefix dequeues three
        // a's for every b until a lane runs dry.
        assert_eq!(drain(&q, 8), vec!["a", "a", "a", "b", "a", "b", "b", "b"]);
    }

    #[test]
    fn unknown_tenants_weigh_one_and_share_fairly() {
        let q: AdmissionQueue<&str> = AdmissionQueue::new(64, 0, &[]);
        for _ in 0..3 {
            q.try_push("x", "x").unwrap();
            q.try_push("y", "y").unwrap();
        }
        assert_eq!(drain(&q, 6), vec!["x", "y", "x", "y", "x", "y"]);
    }

    #[test]
    fn global_capacity_and_tenant_quota_reject_typed() {
        let q = AdmissionQueue::new(3, 2, &[]);
        q.try_push("a", 1).unwrap();
        q.try_push("a", 2).unwrap();
        assert_eq!(
            q.try_push("a", 3),
            Err(AdmitError::Full { tenant_quota: true })
        );
        q.try_push("b", 4).unwrap();
        assert_eq!(
            q.try_push("b", 5),
            Err(AdmitError::Full {
                tenant_quota: false
            })
        );
    }

    #[test]
    fn close_drains_queued_items_then_reports_closed() {
        let q = AdmissionQueue::new(8, 0, &[]);
        q.try_push("a", 1).unwrap();
        q.try_push("a", 2).unwrap();
        q.close();
        assert_eq!(q.try_push("a", 3), Err(AdmitError::Closed));
        assert!(matches!(q.pop_one(), Popped::Item(1)));
        assert!(matches!(q.pop_one(), Popped::Item(2)));
        assert!(matches!(q.pop_one(), Popped::Closed));
    }

    #[test]
    fn close_wakes_a_parked_popper() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(8, 0, &[]));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(0, 8, &ManualClock::new(0), |_| 0).is_none())
        };
        q.wait_lined_up();
        q.close();
        assert!(popper.join().expect("popper thread"));
    }

    /// Spawns one thread per worker that pops batches until the queue
    /// closes, reporting each as `(worker, items, reason)`.
    fn spawn_poppers(
        q: &Arc<AdmissionQueue<u32>>,
        workers: usize,
        max_batch: usize,
    ) -> mpsc::Receiver<(usize, Vec<u32>, CloseReason)> {
        let (tx, rx) = mpsc::channel();
        for worker in 0..workers {
            let (q, tx) = (Arc::clone(q), tx.clone());
            std::thread::spawn(move || {
                while let Some(batch) = q.pop_batch(worker, max_batch, &ManualClock::new(0), |_| 0)
                {
                    if tx.send((worker, batch.items, batch.reason)).is_err() {
                        break;
                    }
                }
            });
        }
        q.wait_lined_up();
        rx
    }

    #[test]
    fn idle_workers_take_turns_in_the_order_they_came_free() {
        let q = Arc::new(AdmissionQueue::new(8, 0, &[]).with_workers(3));
        let rx = spawn_poppers(&q, 3, 4);
        let mut served_by = Vec::new();
        for i in 0..9 {
            q.try_push("a", i).unwrap();
            let (worker, items, _) = rx.recv().expect("a batch");
            assert_eq!(items, vec![i]);
            served_by.push(worker);
            // The worker that just served rejoins at the back of the
            // line before the next push.
            spin_until("worker rejoined the line", || q.idle_workers() == 3);
        }
        q.close();
        // Whatever order the three first lined up in, it repeats.
        let mut first_round = served_by[..3].to_vec();
        first_round.sort_unstable();
        assert_eq!(first_round, vec![0, 1, 2], "{served_by:?}");
        assert!(
            served_by.iter().zip(&served_by[3..]).all(|(a, b)| a == b),
            "{served_by:?}"
        );
    }

    #[test]
    fn the_last_worker_out_closes_the_queue_and_drops_what_is_queued() {
        let q = AdmissionQueue::new(8, 0, &[]).with_workers(2);
        let item = Arc::new(());
        q.try_push("a", Arc::clone(&item)).unwrap();
        q.depart(0);
        // One worker is left: still open for business.
        q.try_push("b", Arc::clone(&item)).unwrap();
        assert_eq!(Arc::strong_count(&item), 3);
        q.depart(1);
        assert_eq!(Arc::strong_count(&item), 1, "queued items were dropped");
        assert_eq!(q.try_push("a", Arc::clone(&item)), Err(AdmitError::Closed));
        q.wait_departed();
    }
}
