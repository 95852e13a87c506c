//! Resource governance for enrichment runs: wall-clock deadlines,
//! per-stage soft deadlines, cooperative cancellation, and an
//! approximate allocation budget.
//!
//! The [`Governor`] is created once per [`crate::EnrichmentPipeline`]
//! run from a [`BudgetConfig`] and polled **cooperatively** at
//! deterministic program points: every stage boundary, and before every
//! item of the per-term fan-out (via the stop predicate handed to
//! `boe_par::try_par_map`). Polling never blocks and costs a few atomic
//! loads, so an unbudgeted run (the default) pays essentially nothing.
//!
//! Trips come in two strengths:
//!
//! * **hard** ([`TripKind::Deadline`], [`TripKind::Cancelled`],
//!   [`TripKind::AllocBudget`]) — the run must wind down: remaining work
//!   is truncated and the partial report is returned with the trip
//!   recorded in diagnostics;
//! * **soft** ([`TripKind::StageDeadline`]) — only the current stage is
//!   over budget: the pipeline degrades to a cheaper strategy for the
//!   remaining work and keeps going.
//!
//! The allocation budget is *approximate by design*: it reads a global
//! counter ([`mem`]) fed by a counting allocator that only the `boe`
//! binary installs (library crates forbid `unsafe`). When no tracker is
//! installed the budget simply never trips.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource limits for one enrichment run. All fields default to
/// `None` = unlimited; the zero-cost default means existing callers are
/// unaffected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetConfig {
    /// Hard wall-clock budget for the whole run, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Soft per-stage wall-clock budget, in milliseconds. Tripping it
    /// degrades the current stage instead of ending the run.
    pub stage_deadline_ms: Option<u64>,
    /// Hard budget on memory allocated *beyond the baseline at run
    /// start*, in mebibytes. Requires the counting allocator (the `boe`
    /// binary installs it); otherwise never trips.
    pub max_alloc_mb: Option<u64>,
}

impl BudgetConfig {
    /// Whether any limit is set at all (lets the pipeline skip governor
    /// plumbing entirely on the default config).
    pub fn is_unlimited(&self) -> bool {
        self.deadline_ms.is_none()
            && self.stage_deadline_ms.is_none()
            && self.max_alloc_mb.is_none()
    }
}

/// Which budget a [`Governor`] poll found exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TripKind {
    /// The whole-run wall-clock deadline passed (hard).
    Deadline,
    /// The current stage exceeded its soft deadline (soft).
    StageDeadline,
    /// The run was cancelled through its [`CancelToken`] (hard).
    Cancelled,
    /// Allocations since run start exceeded the budget (hard).
    AllocBudget,
}

impl TripKind {
    /// Stable lower-case name for reports and logs.
    pub fn name(&self) -> &'static str {
        match self {
            TripKind::Deadline => "deadline",
            TripKind::StageDeadline => "stage-deadline",
            TripKind::Cancelled => "cancelled",
            TripKind::AllocBudget => "alloc-budget",
        }
    }

    /// Hard trips end the run (with a truncated report); soft trips only
    /// degrade the current stage.
    pub fn is_hard(&self) -> bool {
        !matches!(self, TripKind::StageDeadline)
    }
}

impl std::fmt::Display for TripKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A cheaply clonable cancellation handle: call [`CancelToken::cancel`]
/// from any thread (e.g. a signal handler) and every governed pipeline
/// holding a clone winds down at its next poll.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent and monotonic: once set it stays
    /// set.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// The per-run budget monitor. See the module docs for the polling
/// contract; construction captures the start instant and the allocation
/// baseline so budgets are relative to the run, not the process.
#[derive(Debug)]
pub struct Governor {
    start: Instant,
    deadline: Option<Duration>,
    stage_deadline: Option<Duration>,
    /// Nanoseconds since `start` at which the current stage began.
    stage_started_ns: AtomicU64,
    max_alloc_bytes: Option<i64>,
    alloc_baseline: i64,
    cancel: CancelToken,
}

impl Governor {
    /// A governor with a fresh [`CancelToken`].
    pub fn new(config: BudgetConfig) -> Self {
        Self::with_token(config, CancelToken::new())
    }

    /// A governor wired to an externally held cancellation token.
    pub fn with_token(config: BudgetConfig, cancel: CancelToken) -> Self {
        Governor {
            start: Instant::now(),
            deadline: config.deadline_ms.map(Duration::from_millis),
            stage_deadline: config.stage_deadline_ms.map(Duration::from_millis),
            stage_started_ns: AtomicU64::new(0),
            max_alloc_bytes: config
                .max_alloc_mb
                .map(|mb| i64::try_from(mb.saturating_mul(1024 * 1024)).unwrap_or(i64::MAX)),
            alloc_baseline: mem::current_bytes(),
            cancel,
        }
    }

    /// A clone of this run's cancellation token, for handing to other
    /// threads.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Mark the start of a new stage: resets the soft stage-deadline
    /// clock. Called at every stage boundary by the pipeline.
    pub fn begin_stage(&self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stage_started_ns.store(ns, Ordering::SeqCst);
    }

    /// Poll only the **hard** budgets, in severity order: cancellation,
    /// allocation budget, then the run deadline. Returns the first trip
    /// found, or `None` when within budget.
    pub fn check_hard(&self) -> Option<TripKind> {
        if self.cancel.is_cancelled() {
            return Some(TripKind::Cancelled);
        }
        if let Some(limit) = self.max_alloc_bytes {
            if mem::tracking_installed() && self.allocated_beyond_baseline() > limit {
                return Some(TripKind::AllocBudget);
            }
        }
        if let Some(d) = self.deadline {
            if self.start.elapsed() > d {
                return Some(TripKind::Deadline);
            }
        }
        None
    }

    /// Poll every budget: the hard ones first, then the soft per-stage
    /// deadline.
    pub fn check(&self) -> Option<TripKind> {
        if let Some(trip) = self.check_hard() {
            return Some(trip);
        }
        if let Some(sd) = self.stage_deadline {
            let started = Duration::from_nanos(self.stage_started_ns.load(Ordering::SeqCst));
            if self.start.elapsed().saturating_sub(started) > sd {
                return Some(TripKind::StageDeadline);
            }
        }
        None
    }

    /// Wall-clock milliseconds since the run started.
    pub fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// The configured run deadline in milliseconds, if any.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
    }

    /// Bytes allocated beyond the baseline captured at construction
    /// (clamped at zero; approximate, see module docs).
    pub fn allocated_beyond_baseline(&self) -> i64 {
        (mem::current_bytes() - self.alloc_baseline).max(0)
    }

    /// Mebibytes allocated beyond the baseline, rounded up.
    pub fn allocated_mb(&self) -> u64 {
        let bytes = self.allocated_beyond_baseline().max(0) as u64;
        bytes.div_ceil(1024 * 1024)
    }

    /// The configured allocation budget in mebibytes, if any.
    pub fn max_alloc_mb(&self) -> Option<u64> {
        self.max_alloc_bytes
            .map(|b| (b.max(0) as u64) / (1024 * 1024))
    }

    /// The configured soft per-stage deadline in milliseconds, if any.
    pub fn stage_deadline_ms(&self) -> Option<u64> {
        self.stage_deadline
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
    }

    /// The measured value and the limit a trip crossed (ms for the clock
    /// budgets, MiB for the allocation budget), for diagnostics and
    /// error payloads.
    pub fn describe(&self, trip: TripKind) -> (u64, u64) {
        match trip {
            TripKind::Deadline => (self.elapsed_ms(), self.deadline_ms().unwrap_or(0)),
            TripKind::StageDeadline => (self.elapsed_ms(), self.stage_deadline_ms().unwrap_or(0)),
            TripKind::Cancelled => (self.elapsed_ms(), 0),
            TripKind::AllocBudget => (self.allocated_mb(), self.max_alloc_mb().unwrap_or(0)),
        }
    }
}

/// Global allocation accounting, fed by a counting [`std::alloc::GlobalAlloc`]
/// shim that only binary crates install (library crates forbid `unsafe`).
/// Everything here is safe: the shim calls [`note_alloc`](mem::note_alloc)/
/// [`note_dealloc`](mem::note_dealloc) and flips
/// [`mark_tracking_installed`](mem::mark_tracking_installed) once at
/// startup.
pub mod mem {
    use super::{AtomicBool, AtomicI64, Ordering};

    /// Net live bytes as seen by the counting allocator. Signed because
    /// a thread can free memory another thread allocated before tracking
    /// started.
    static CURRENT: AtomicI64 = AtomicI64::new(0);

    /// Whether a counting allocator actually feeds [`CURRENT`]. Budgets
    /// are ignored (never trip) while this is false.
    static TRACKING: AtomicBool = AtomicBool::new(false);

    /// Record `n` bytes allocated. Called by the allocator shim on every
    /// successful allocation — keep it to a single atomic op.
    #[inline]
    pub fn note_alloc(n: usize) {
        CURRENT.fetch_add(n as i64, Ordering::Relaxed);
    }

    /// Record `n` bytes freed.
    #[inline]
    pub fn note_dealloc(n: usize) {
        CURRENT.fetch_sub(n as i64, Ordering::Relaxed);
    }

    /// The current net live-byte count (approximate; may be briefly
    /// stale across threads).
    pub fn current_bytes() -> i64 {
        CURRENT.load(Ordering::Relaxed)
    }

    /// Declare that a counting allocator is live, enabling allocation
    /// budgets. Idempotent; never unset.
    pub fn mark_tracking_installed() {
        TRACKING.store(true, Ordering::SeqCst);
    }

    /// Whether allocation budgets can trip at all.
    pub fn tracking_installed() -> bool {
        TRACKING.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_unlimited_and_never_trips() {
        let cfg = BudgetConfig::default();
        assert!(cfg.is_unlimited());
        let gov = Governor::new(cfg);
        assert_eq!(gov.check(), None);
        assert_eq!(gov.check_hard(), None);
    }

    #[test]
    fn zero_deadline_trips_hard() {
        let gov = Governor::new(BudgetConfig {
            deadline_ms: Some(0),
            ..Default::default()
        });
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(gov.check_hard(), Some(TripKind::Deadline));
        assert_eq!(gov.check(), Some(TripKind::Deadline));
        assert!(TripKind::Deadline.is_hard());
    }

    #[test]
    fn stage_deadline_is_soft_and_resets_per_stage() {
        let gov = Governor::new(BudgetConfig {
            stage_deadline_ms: Some(0),
            ..Default::default()
        });
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(gov.check(), Some(TripKind::StageDeadline));
        assert!(!TripKind::StageDeadline.is_hard());
        // Hard check ignores the soft budget.
        assert_eq!(gov.check_hard(), None);
        // A fresh stage resets the clock...
        gov.begin_stage();
        // ...though with a 0ms budget any measurable elapsed time trips
        // again; use a generous budget to observe the reset.
        let gov2 = Governor::new(BudgetConfig {
            stage_deadline_ms: Some(10_000),
            ..Default::default()
        });
        gov2.begin_stage();
        assert_eq!(gov2.check(), None);
    }

    #[test]
    fn cancellation_wins_over_everything() {
        let token = CancelToken::new();
        let gov = Governor::with_token(
            BudgetConfig {
                deadline_ms: Some(0),
                ..Default::default()
            },
            token.clone(),
        );
        std::thread::sleep(Duration::from_millis(1));
        token.cancel();
        assert_eq!(gov.check_hard(), Some(TripKind::Cancelled));
        assert!(token.is_cancelled());
        // Token is shared, not copied: the governor's clone sees it too.
        assert!(gov.cancel_token().is_cancelled());
    }

    #[test]
    fn alloc_budget_requires_tracking_and_uses_baseline() {
        // Simulate the binary's allocator shim.
        mem::mark_tracking_installed();
        let gov = Governor::new(BudgetConfig {
            max_alloc_mb: Some(1),
            ..Default::default()
        });
        assert_eq!(gov.check_hard(), None, "nothing allocated yet");
        mem::note_alloc(2 * 1024 * 1024);
        assert_eq!(gov.check_hard(), Some(TripKind::AllocBudget));
        let (measured, limit) = gov.describe(TripKind::AllocBudget);
        assert_eq!(limit, 1);
        assert!(measured >= 2, "measured {measured} MiB");
        mem::note_dealloc(2 * 1024 * 1024);
        assert_eq!(gov.check_hard(), None, "freed back under budget");
    }

    #[test]
    fn trip_names_are_stable() {
        assert_eq!(TripKind::Deadline.name(), "deadline");
        assert_eq!(TripKind::StageDeadline.name(), "stage-deadline");
        assert_eq!(TripKind::Cancelled.name(), "cancelled");
        assert_eq!(TripKind::AllocBudget.name(), "alloc-budget");
        assert_eq!(format!("{}", TripKind::Cancelled), "cancelled");
    }
}
