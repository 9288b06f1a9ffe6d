//! What a closed batch holds and why it closed.
//!
//! A batch is composed by the worker that will run it, at the instant
//! that worker is free: [`crate::admission::AdmissionQueue::pop_batch`]
//! takes every queued job for one model load, up to `max_batch`, and
//! the batch closes there. Nothing waits for co-riders: a batch is
//! alone on an idle server and full under load, where requests pile up
//! behind busy workers.
//!
//! A batch holds requests for a single model load (workers execute one
//! compressed model per batch); a queued job for a different load
//! closes it.

/// Why a batch was closed — the batch-formation telemetry splits its
/// histograms by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The batch reached `max_batch` items.
    Size,
    /// Partial: nothing more was queued for its load when the worker
    /// took it.
    Deadline,
    /// The next queued job targets a different model load.
    ModelSwitch,
}

impl CloseReason {
    /// Stable lowercase name, used as a metric label value.
    pub fn as_str(&self) -> &'static str {
        match self {
            CloseReason::Size => "size",
            CloseReason::Deadline => "deadline",
            CloseReason::ModelSwitch => "model_switch",
        }
    }
}

/// A closed batch, handed to the worker that will run it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch<T> {
    /// Key of the model load every item targets.
    pub model: usize,
    /// The batched items in the order the fair schedule yielded them.
    pub items: Vec<T>,
    /// Clock reading when the worker took the batch.
    pub opened_us: u64,
    /// Which rule closed the batch.
    pub reason: CloseReason,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionQueue;
    use crate::clock::ManualClock;
    use crate::server::ServeConfig;

    /// Queues `(tenant, model)` jobs on a one-worker queue; pops on it
    /// never block while something is queued.
    fn queued(jobs: &[(&str, usize)]) -> AdmissionQueue<usize> {
        let q = AdmissionQueue::new(64, 0, &[]);
        for &(tenant, model) in jobs {
            q.try_push(tenant, model).unwrap();
        }
        q
    }

    fn pop(q: &AdmissionQueue<usize>, max_batch: usize) -> (Vec<usize>, CloseReason) {
        let batch = q
            .pop_batch(0, max_batch, &ManualClock::new(0), |&model| model)
            .expect("a queued job");
        (batch.items, batch.reason)
    }

    #[test]
    fn size_close_fires_at_max_batch() {
        let q = queued(&[("a", 0), ("a", 0), ("a", 0), ("a", 1), ("a", 1)]);
        // A full batch closes on size even with another load next.
        assert_eq!(pop(&q, 3), (vec![0, 0, 0], CloseReason::Size));
        // Nothing more queued for its load: the batch is partial.
        assert_eq!(pop(&q, 3), (vec![1, 1], CloseReason::Deadline));
    }

    #[test]
    fn model_switch_closes_the_open_batch() {
        // Fair order a, b, a: the batch stops at the first job for
        // another load, leaving the later same-load job queued.
        let q = queued(&[("a", 0), ("b", 1), ("a", 0)]);
        assert_eq!(pop(&q, 8), (vec![0], CloseReason::ModelSwitch));
        assert_eq!(pop(&q, 8), (vec![1], CloseReason::ModelSwitch));
        assert_eq!(pop(&q, 8), (vec![0], CloseReason::Deadline));
    }

    #[test]
    fn unit_batches_close_on_every_offer() {
        let q = queued(&[("a", 0), ("a", 1), ("b", 0)]);
        for _ in 0..3 {
            let (items, reason) = pop(&q, 1);
            assert_eq!(items.len(), 1);
            assert_eq!(reason, CloseReason::Size, "unit batches are always full");
        }
    }

    #[test]
    fn zero_max_batch_is_rejected() {
        let cfg = |max_batch| ServeConfig {
            max_batch,
            ..ServeConfig::default()
        };
        assert!(cfg(0).validate().is_err());
        assert!(cfg(1).validate().is_ok());
    }
}
