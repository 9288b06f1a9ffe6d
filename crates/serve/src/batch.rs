//! Batch composition policy.
//!
//! A batch is composed by the worker that will run it, at the instant
//! that worker is free: [`crate::admission::AdmissionQueue::pop_batch`]
//! takes every queued job the batch may hold and then asks
//! [`BatchPolicy::close_reason`] whether to close it or linger for
//! more. That decision is a pure function — no lock, no thread, no
//! clock — so the size, model-switch, deadline and flush rules are
//! unit-testable with hand-fed timestamps.
//!
//! A batch holds requests for a single model load (workers execute one
//! compressed model per batch); a queued job for a different load
//! closes the open batch immediately rather than waiting out its
//! deadline.

use crate::error::ServeError;

/// Size- and deadline-based closing rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests per batch; reaching it closes the batch.
    pub max_batch: usize,
    /// Microseconds a non-full batch may linger for more requests
    /// before it is closed anyway; `0` closes it with whatever was
    /// queued when the worker came free.
    pub max_wait_us: u64,
}

/// What an open batch found queued behind it once it had taken every
/// job it may (ignored for a full batch, which closes on size whatever
/// is queued).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backlog {
    /// Nothing is queued; more may still arrive.
    Empty,
    /// The next job under the fair order targets another model load.
    OtherModel,
    /// Nothing is queued and admission has closed (shutdown drain).
    Drained,
}

impl BatchPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Rejects `max_batch == 0`.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be at least 1".to_string(),
            ));
        }
        Ok(())
    }

    /// Whether a batch of `len` jobs opened at `opened_us` closes at
    /// `now_us`, and by which rule. `None` means linger: the batch may
    /// stay open until `opened_us + max_wait_us` at the latest.
    pub fn close_reason(
        &self,
        len: usize,
        backlog: Backlog,
        opened_us: u64,
        now_us: u64,
    ) -> Option<CloseReason> {
        if len >= self.max_batch {
            Some(CloseReason::Size)
        } else if backlog == Backlog::OtherModel {
            Some(CloseReason::ModelSwitch)
        } else if now_us >= opened_us.saturating_add(self.max_wait_us) {
            Some(CloseReason::Deadline)
        } else if backlog == Backlog::Drained {
            Some(CloseReason::Flush)
        } else {
            None
        }
    }
}

/// Why a batch was closed — the batch-formation telemetry splits its
/// histograms by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The batch reached `max_batch` items.
    Size,
    /// The batch's `max_wait_us` deadline expired.
    Deadline,
    /// The next queued job targets a different model load.
    ModelSwitch,
    /// Shutdown drain flushed the partial batch.
    Flush,
}

impl CloseReason {
    /// Stable lowercase name, used as a metric label value.
    pub fn as_str(&self) -> &'static str {
        match self {
            CloseReason::Size => "size",
            CloseReason::Deadline => "deadline",
            CloseReason::ModelSwitch => "model_switch",
            CloseReason::Flush => "flush",
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
    /// Clock reading when the batch was opened.
    pub opened_us: u64,
    /// Which rule closed the batch.
    pub reason: CloseReason,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(max_batch: usize, max_wait_us: u64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            max_wait_us,
        }
    }

    #[test]
    fn size_close_fires_at_max_batch() {
        let p = policy(3, 1_000);
        assert_eq!(p.close_reason(1, Backlog::Empty, 0, 0), None);
        assert_eq!(p.close_reason(2, Backlog::Empty, 0, 10), None);
        // A full batch closes on size whatever is queued behind it and
        // however long it has been open.
        for backlog in [Backlog::Empty, Backlog::OtherModel, Backlog::Drained] {
            assert_eq!(p.close_reason(3, backlog, 0, 20), Some(CloseReason::Size));
            assert_eq!(
                p.close_reason(3, backlog, 0, 5_000),
                Some(CloseReason::Size)
            );
        }
    }

    #[test]
    fn deadline_close_fires_only_after_max_wait() {
        let p = policy(8, 500);
        assert_eq!(p.close_reason(1, Backlog::Empty, 100, 100), None);
        assert_eq!(p.close_reason(1, Backlog::Empty, 100, 599), None);
        assert_eq!(
            p.close_reason(1, Backlog::Empty, 100, 600),
            Some(CloseReason::Deadline)
        );
        // A zero wait closes a partial batch the instant it is opened.
        assert_eq!(
            policy(8, 0).close_reason(1, Backlog::Empty, 100, 100),
            Some(CloseReason::Deadline)
        );
    }

    #[test]
    fn model_switch_closes_the_open_batch() {
        let p = policy(8, 500);
        assert_eq!(
            p.close_reason(2, Backlog::OtherModel, 0, 20),
            Some(CloseReason::ModelSwitch)
        );
        // The blocked job is why the batch stopped growing, so it names
        // the close even once the deadline has passed too.
        assert_eq!(
            p.close_reason(2, Backlog::OtherModel, 0, 900),
            Some(CloseReason::ModelSwitch)
        );
    }

    #[test]
    fn unit_batches_close_on_every_offer() {
        let p = policy(1, 500);
        for backlog in [Backlog::Empty, Backlog::OtherModel, Backlog::Drained] {
            assert_eq!(
                p.close_reason(1, backlog, 0, 0),
                Some(CloseReason::Size),
                "unit batches never stay open"
            );
        }
    }

    #[test]
    fn flush_drains_partial_batches() {
        let p = policy(8, 500);
        assert_eq!(
            p.close_reason(2, Backlog::Drained, 0, 1),
            Some(CloseReason::Flush)
        );
        // Past the deadline the drain is an ordinary deadline close, as
        // a zero-wait server's always are.
        assert_eq!(
            p.close_reason(2, Backlog::Drained, 0, 500),
            Some(CloseReason::Deadline)
        );
    }

    #[test]
    fn zero_max_batch_is_rejected() {
        assert!(policy(0, 10).validate().is_err());
        assert!(policy(1, 0).validate().is_ok());
    }
}
