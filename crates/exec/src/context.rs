//! Per-query lifecycle state: cancellation, deadlines, memory budgets and the
//! unified record limit.
//!
//! A [`QueryContext`] travels with one query through whichever engine runs it
//! (the morsel-driven [`crate::parallel::ParallelEngine`] both backends run, or
//! the scalar oracle [`crate::engine::Engine`]) and is consulted
//! *cooperatively*: at every operator boundary, at every morsel a worker picks
//! up, and periodically inside pipeline breakers' accumulation loops. A
//! violated bound surfaces as [`ExecError::LimitExceeded`] with a
//! [`LimitReason`] that embeds the configured bound — never the observed
//! value — so every engine produces the identical error for the same query.
//!
//! The context is `Arc`-shared and cheap to clone; a concurrent caller (for
//! example a future query-serving frontend) holds a clone and calls
//! [`QueryContext::cancel`] while the engine runs.
//!
//! This module also owns the plumbing that lets pooled worker tasks abort
//! cooperatively: workers unwind with a typed `TaskAbort` payload
//! (via `std::panic::panic_any`) which the engines map back to the matching
//! [`ExecError`] — indistinguishable from a caller-thread check, while a
//! *genuine* worker panic maps to [`ExecError::WorkerPanicked`].

use crate::error::{ExecError, LimitReason};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fail point hit once per operator on the engine's driving thread — the one
/// point every engine passes identically, so equivalence suites stay valid
/// under an armed `err` action.
pub(crate) const FP_OPERATOR: &str = "exec.operator";
/// Fail point hit by every pooled worker task (morsel dispatch).
pub(crate) const FP_MORSEL: &str = "exec.morsel";
/// Fail point hit once per morsel entering an expand stage with more than one
/// partition: where a multi-process deployment would route it.
pub(crate) const FP_EXCHANGE: &str = "exec.exchange";
/// Fail point hit at pipeline-breaker merge points.
pub(crate) const FP_MERGE: &str = "exec.merge";

/// Arm fail points from `GOPT_FAILPOINTS` once per process (engines call this
/// on every execute; only the first call reads the environment).
pub(crate) fn init_failpoints() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        failpoint::init_from_env("GOPT_FAILPOINTS");
    });
}

/// Convert a fired `err`-action fail point into its typed error.
pub(crate) fn injected(f: failpoint::InjectedFail) -> ExecError {
    ExecError::Injected {
        point: f.point,
        msg: f.msg,
    }
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    /// Total successful+failed [`QueryContext::check`] calls so far.
    checks: AtomicU64,
    /// Deterministic cancellation: checks numbered strictly greater than this
    /// fail with `Cancelled`. `u64::MAX` = disabled.
    checks_allowed: u64,
    /// Wall-clock deadline with the configured duration for the error.
    deadline: Option<(Instant, u64)>,
    /// Memory budget in bytes (metered, not measured — see `approx_bytes`).
    budget: Option<u64>,
    bytes: AtomicU64,
    record_limit: Option<u64>,
    records: AtomicU64,
}

/// Cancellation token, wall-clock deadline, memory budget and record limit
/// for one query — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct QueryContext {
    inner: Arc<Inner>,
}

impl Default for QueryContext {
    fn default() -> Self {
        QueryContext::new()
    }
}

impl QueryContext {
    /// An unlimited context: checks always pass, nothing is metered.
    pub fn new() -> Self {
        QueryContext {
            inner: Arc::new(Inner {
                checks_allowed: u64::MAX,
                ..Inner::default()
            }),
        }
    }

    fn inner_mut(&mut self) -> &mut Inner {
        Arc::get_mut(&mut self.inner).expect("configure the context before sharing it")
    }

    /// Abort once total intermediate records exceed `limit` (None = no limit).
    pub fn with_record_limit(mut self, limit: Option<u64>) -> Self {
        self.inner_mut().record_limit = limit;
        self
    }

    /// Abort cooperatively once `millis` of wall-clock time have passed
    /// (measured from this call).
    pub fn with_deadline_millis(mut self, millis: u64) -> Self {
        self.inner_mut().deadline = Some((Instant::now() + Duration::from_millis(millis), millis));
        self
    }

    /// Abort once metered allocations exceed `bytes`.
    pub fn with_budget_bytes(mut self, bytes: u64) -> Self {
        self.inner_mut().budget = Some(bytes);
        self
    }

    /// Deterministic cancellation for tests: the first `n` [`check`]s pass,
    /// every later one fails with [`LimitReason::Cancelled`]. Unlike
    /// [`cancel`] from another thread, this is reproducible for a given
    /// engine and plan (single-threaded) or a given schedule.
    ///
    /// [`check`]: QueryContext::check
    /// [`cancel`]: QueryContext::cancel
    pub fn cancel_after_checks(mut self, n: u64) -> Self {
        self.inner_mut().checks_allowed = n;
        self
    }

    /// Request cancellation: every subsequent [`QueryContext::check`] on any
    /// clone of this context fails with [`LimitReason::Cancelled`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has [`QueryContext::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// One cooperative checkpoint: cancellation first, then the deadline.
    /// Record and budget accounting happen at their charge sites instead.
    #[inline]
    pub fn check(&self) -> Result<(), LimitReason> {
        let seq = self.inner.checks.fetch_add(1, Ordering::Relaxed) + 1;
        if self.inner.cancelled.load(Ordering::Relaxed) || seq > self.inner.checks_allowed {
            return Err(LimitReason::Cancelled);
        }
        if let Some((at, millis)) = self.inner.deadline {
            if Instant::now() >= at {
                return Err(LimitReason::Deadline { millis });
            }
        }
        Ok(())
    }

    /// Account `n` produced intermediate records against the record limit.
    #[inline]
    pub fn add_records(&self, n: u64) -> Result<(), LimitReason> {
        let total = self.inner.records.fetch_add(n, Ordering::Relaxed) + n;
        match self.inner.record_limit {
            Some(limit) if total > limit => Err(LimitReason::Records { limit }),
            _ => Ok(()),
        }
    }

    /// Meter `n` bytes of engine state (batches, group state, sort buffers)
    /// against the budget.
    #[inline]
    pub fn charge_bytes(&self, n: u64) -> Result<(), LimitReason> {
        let total = self.inner.bytes.fetch_add(n, Ordering::Relaxed) + n;
        match self.inner.budget {
            Some(bytes) if total > bytes => Err(LimitReason::Budget { bytes }),
            _ => Ok(()),
        }
    }

    /// Return `n` metered bytes: the state they paid for (a consumed
    /// operator output, a finished breaker's tables) is no longer resident.
    #[inline]
    pub fn release_bytes(&self, n: u64) {
        self.inner.bytes.fetch_sub(n, Ordering::Relaxed);
    }

    /// Time remaining until the configured deadline: `None` when no deadline
    /// is set, `Some(Duration::ZERO)` once it has passed. Admission layers
    /// use this to bound how long a queued query may wait for a pool slot.
    pub fn time_left(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|(at, _)| at.saturating_duration_since(Instant::now()))
    }

    /// Bytes currently metered (charged and not yet released).
    pub fn bytes_charged(&self) -> u64 {
        self.inner.bytes.load(Ordering::Relaxed)
    }

    /// Total cooperative checkpoints hit so far.
    pub fn checks(&self) -> u64 {
        self.inner.checks.load(Ordering::Relaxed)
    }
}

/// Control-flow payload unwound out of pooled worker tasks via
/// `std::panic::panic_any`: a cooperative limit hit or an injected failure
/// detected *inside* a task, carried to the engine thread where it becomes
/// the matching typed [`ExecError`].
#[derive(Debug)]
pub(crate) enum TaskAbort {
    Limit(LimitReason),
    Injected { point: String, msg: String },
}

/// Checkpoint for pooled worker tasks, hit once per morsel: consult the
/// context and the `exec.morsel` fail point, unwinding with a [`TaskAbort`]
/// payload on violation (the pool confines the unwind to this query).
#[inline]
pub(crate) fn worker_checkpoint(ctx: &QueryContext) {
    if let Err(reason) = ctx.check() {
        std::panic::panic_any(TaskAbort::Limit(reason));
    }
    task_failpoint(FP_MORSEL);
}

/// Fail point `point` inside a pooled worker task: an `err` action unwinds
/// with a [`TaskAbort`] payload.
#[inline]
pub(crate) fn task_failpoint(point: &str) {
    if let Err(f) = failpoint::check(point) {
        std::panic::panic_any(TaskAbort::Injected {
            point: f.point,
            msg: f.msg,
        });
    }
}

/// Map a panic payload that unwound out of an operator (on a pooled worker or
/// the engine thread) to its typed error: cooperative [`TaskAbort`]s and
/// injected panics keep their identity, anything else is a genuine bug
/// surfaced as [`ExecError::WorkerPanicked`] scoped to this query.
pub(crate) fn map_panic(payload: Box<dyn std::any::Any + Send>, op: &'static str) -> ExecError {
    match payload.downcast::<TaskAbort>() {
        Ok(abort) => match *abort {
            TaskAbort::Limit(reason) => ExecError::LimitExceeded(reason),
            TaskAbort::Injected { point, msg } => ExecError::Injected { point, msg },
        },
        // everything else — including a `panic` fail-point action, which
        // models a genuine crash — surfaces as a worker panic
        Err(_) => ExecError::WorkerPanicked { op },
    }
}

/// Amortized checkpoint for pipeline breakers' accumulation loops: calls
/// [`QueryContext::check`] every `PERIOD` ticks so tight per-row loops stay
/// cheap while long accumulations remain responsive to cancellation and
/// deadlines.
pub(crate) struct Ticker(u32);

impl Ticker {
    const PERIOD: u32 = 256;

    pub(crate) fn new() -> Ticker {
        Ticker(0)
    }

    #[inline]
    pub(crate) fn tick(&mut self, ctx: &QueryContext) -> Result<(), LimitReason> {
        self.0 += 1;
        if self.0 >= Self::PERIOD {
            self.0 = 0;
            ctx.check()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_context_always_passes() {
        let ctx = QueryContext::new();
        for _ in 0..1000 {
            assert_eq!(ctx.check(), Ok(()));
        }
        assert_eq!(ctx.add_records(u64::MAX / 2), Ok(()));
        assert_eq!(ctx.charge_bytes(u64::MAX / 2), Ok(()));
        assert_eq!(ctx.checks(), 1000);
    }

    #[test]
    fn cancel_flips_every_clone() {
        let ctx = QueryContext::new();
        let other = ctx.clone();
        assert_eq!(other.check(), Ok(()));
        ctx.cancel();
        assert!(ctx.is_cancelled());
        assert_eq!(other.check(), Err(LimitReason::Cancelled));
    }

    #[test]
    fn cancel_after_checks_is_deterministic() {
        let ctx = QueryContext::new().cancel_after_checks(3);
        assert_eq!(ctx.check(), Ok(()));
        assert_eq!(ctx.check(), Ok(()));
        assert_eq!(ctx.check(), Ok(()));
        assert_eq!(ctx.check(), Err(LimitReason::Cancelled));
        assert_eq!(ctx.check(), Err(LimitReason::Cancelled));
        let zero = QueryContext::new().cancel_after_checks(0);
        assert_eq!(zero.check(), Err(LimitReason::Cancelled));
    }

    #[test]
    fn deadline_embeds_the_configured_millis() {
        let ctx = QueryContext::new().with_deadline_millis(0);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(ctx.check(), Err(LimitReason::Deadline { millis: 0 }));
        assert_eq!(ctx.time_left(), Some(Duration::ZERO));
        let far = QueryContext::new().with_deadline_millis(60_000);
        assert_eq!(far.check(), Ok(()));
        assert!(far.time_left().unwrap() > Duration::from_secs(50));
        assert_eq!(QueryContext::new().time_left(), None);
    }

    #[test]
    fn records_and_bytes_accumulate_across_clones() {
        let ctx = QueryContext::new()
            .with_record_limit(Some(10))
            .with_budget_bytes(100);
        let clone = ctx.clone();
        assert_eq!(ctx.add_records(6), Ok(()));
        assert_eq!(
            clone.add_records(5),
            Err(LimitReason::Records { limit: 10 })
        );
        assert_eq!(ctx.charge_bytes(60), Ok(()));
        assert_eq!(
            clone.charge_bytes(41),
            Err(LimitReason::Budget { bytes: 100 })
        );
        assert_eq!(ctx.bytes_charged(), 101);
    }

    #[test]
    fn ticker_checks_periodically() {
        let ctx = QueryContext::new().cancel_after_checks(0);
        let mut t = Ticker::new();
        let mut failed_at = None;
        for i in 0..1000u32 {
            if t.tick(&ctx).is_err() {
                failed_at = Some(i);
                break;
            }
        }
        assert_eq!(failed_at, Some(Ticker::PERIOD - 1));
    }

    #[test]
    fn worker_abort_payloads_map_to_typed_errors() {
        let ctx = QueryContext::new().cancel_after_checks(0);
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker_checkpoint(&ctx)))
                .unwrap_err();
        assert_eq!(
            map_panic(payload, "EdgeExpand"),
            ExecError::LimitExceeded(LimitReason::Cancelled)
        );
        let inj = std::panic::catch_unwind(|| {
            std::panic::panic_any(TaskAbort::Injected {
                point: "exec.morsel".into(),
                msg: "chaos".into(),
            })
        })
        .unwrap_err();
        assert_eq!(
            map_panic(inj, "Scan"),
            ExecError::Injected {
                point: "exec.morsel".into(),
                msg: "chaos".into()
            }
        );
        let plain = std::panic::catch_unwind(|| panic!("bug")).unwrap_err();
        assert_eq!(
            map_panic(plain, "HashGroup"),
            ExecError::WorkerPanicked { op: "HashGroup" }
        );
    }
}
