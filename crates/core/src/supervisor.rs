//! Supervision layer for per-variate work units.
//!
//! The online pipeline decomposes into many small, independent units of work:
//! one Stage-1 gradient shard, one star's scoring pass, one POT refit. Any of
//! them can panic (a bug tripped by pathological input), wedge (a deadline
//! blown on a loaded host), or fail with a typed error. Before this module a
//! single such failure unwound through the scoped pool and tore down the whole
//! stream; now each unit runs under a [`Supervisor`] that
//!
//! 1. catches panics (`catch_unwind`) and converts them to typed
//!    [`SupervisionError`]s,
//! 2. enforces an optional per-attempt **deadline budget**,
//! 3. retries failed attempts a bounded number of times with **deterministic
//!    exponential backoff** (no jitter — reproducibility beats thundering-herd
//!    avoidance in a single-process pipeline), and
//! 4. trips a per-unit **circuit breaker** after enough *consecutive*
//!    exhausted-retry failures, so a repeat offender is short-circuited
//!    instead of re-panicking every frame. `OnlineAero` maps an open breaker
//!    onto the existing [`StarStatus::Quarantined`](crate::online::StarStatus)
//!    escalation.
//!
//! The supervisor only adds control flow, never data flow: when every attempt
//! succeeds first try, results are bitwise identical to unsupervised
//! execution, which is what lets the crash-recovery suite assert bitwise
//! equality across kill/resume runs (see DESIGN.md §10).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use aero_parallel::panic_message;

use crate::detector::DetectorError;

/// Retry / deadline / circuit-breaker policy for a [`Supervisor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Per-attempt wall-clock budget. An attempt that finishes (even
    /// successfully) after the budget counts as a failure — its result is
    /// discarded, because a frame that arrives late is a frame the stream
    /// already moved past. `None` disables the check (and its `Instant`
    /// reads) entirely.
    pub deadline: Option<Duration>,
    /// Retries after the first attempt (so `max_retries = 2` means at most 3
    /// attempts per `run` call).
    pub max_retries: u32,
    /// Backoff before the first retry; doubled (times [`backoff_factor`
    /// (field)](Self::backoff_factor)) for each further retry.
    pub backoff_base: Duration,
    /// Multiplier applied to the backoff for each subsequent retry.
    pub backoff_factor: u32,
    /// Consecutive exhausted `run` failures on one unit that trip its
    /// circuit breaker. `u32::MAX` disables the breaker.
    pub circuit_threshold: u32,
    /// Half-open recovery: after this many short-circuited calls, an open
    /// breaker admits one unretried **probe** attempt. A successful probe
    /// closes the breaker ([`SupervisorStats::circuits_closed`]); a failed
    /// one re-arms the wait. `u32::MAX` (the default) disables half-open —
    /// an open breaker then stays open until [`Supervisor::reset`], which
    /// preserves the PR 3 behaviour the crash-recovery gates pin down.
    /// The probe schedule counts *calls*, not wall-clock, so it is exactly
    /// reproduced by a WAL replay.
    pub probe_after: u32,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        Self {
            deadline: None,
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_factor: 2,
            circuit_threshold: 3,
            probe_after: u32::MAX,
        }
    }
}

impl SupervisorPolicy {
    /// Deterministic backoff before retry `retry` (0-based):
    /// `backoff_base * backoff_factor^retry`, saturating.
    pub fn backoff_delay(&self, retry: u32) -> Duration {
        let factor = self
            .backoff_factor
            .max(1)
            .saturating_pow(retry.min(16))
            .min(1 << 16);
        self.backoff_base.saturating_mul(factor)
    }
}

/// Why a supervised unit of work was abandoned.
#[derive(Debug, Clone)]
pub enum SupervisionError<E> {
    /// Every attempt returned a typed task error; carries the last one.
    Task {
        /// Unit index the failure belongs to.
        unit: usize,
        /// Attempts made before giving up.
        attempts: u32,
        /// The final attempt's error.
        error: E,
    },
    /// Every attempt panicked; carries the last panic's message.
    Panic {
        /// Unit index the failure belongs to.
        unit: usize,
        /// Attempts made before giving up.
        attempts: u32,
        /// Stringified panic payload of the final attempt.
        message: String,
    },
    /// Every attempt blew its wall-clock budget.
    DeadlineExceeded {
        /// Unit index the failure belongs to.
        unit: usize,
        /// Attempts made before giving up.
        attempts: u32,
        /// Wall-clock time of the final attempt.
        elapsed: Duration,
        /// The configured per-attempt budget.
        budget: Duration,
    },
    /// The unit's circuit breaker is open; the task was not attempted.
    CircuitOpen {
        /// Unit index the failure belongs to.
        unit: usize,
    },
}

impl<E> SupervisionError<E> {
    /// The unit index this failure belongs to.
    pub fn unit(&self) -> usize {
        match self {
            Self::Task { unit, .. }
            | Self::Panic { unit, .. }
            | Self::DeadlineExceeded { unit, .. }
            | Self::CircuitOpen { unit } => *unit,
        }
    }
}

impl<E: fmt::Display> fmt::Display for SupervisionError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Task {
                unit,
                attempts,
                error,
            } => write!(f, "unit {unit} failed after {attempts} attempt(s): {error}"),
            Self::Panic {
                unit,
                attempts,
                message,
            } => write!(
                f,
                "unit {unit} panicked on all of {attempts} attempt(s): {message}"
            ),
            Self::DeadlineExceeded {
                unit,
                attempts,
                elapsed,
                budget,
            } => write!(
                f,
                "unit {unit} blew its {budget:?} deadline on all of {attempts} attempt(s) \
                 (last attempt took {elapsed:?})"
            ),
            Self::CircuitOpen { unit } => {
                write!(f, "unit {unit} short-circuited: circuit breaker is open")
            }
        }
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for SupervisionError<E> {}

impl SupervisionError<DetectorError> {
    /// Flattens into the pipeline's error type: typed task errors pass
    /// through unchanged; panics, blown deadlines, and open breakers become
    /// [`DetectorError::Supervision`].
    pub fn into_detector_error(self) -> DetectorError {
        match self {
            Self::Task { error, .. } => error,
            other => DetectorError::Supervision(other.to_string()),
        }
    }
}

/// Cumulative counters across every `run` call on a [`Supervisor`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct SupervisorStats {
    /// Attempts that panicked (across all units, including retried ones).
    pub panics: usize,
    /// Attempts that finished past their deadline budget.
    pub deadline_misses: usize,
    /// Attempts that returned a typed task error.
    pub task_failures: usize,
    /// Retries performed (attempts beyond each call's first).
    pub retries: usize,
    /// Circuit breakers that transitioned closed → open.
    pub circuits_opened: usize,
    /// `run` calls rejected immediately because the breaker was open.
    pub short_circuits: usize,
    /// Half-open probe attempts admitted through an open breaker.
    pub probes: usize,
    /// Circuit breakers that transitioned open → closed via a successful
    /// half-open probe (manual [`Supervisor::reset`] calls are not counted).
    pub circuits_closed: usize,
}

/// Per-unit circuit-breaker state. All atomic so shards on different pool
/// threads can report failures concurrently.
#[derive(Debug, Default)]
struct UnitBreaker {
    /// Consecutive exhausted `run` failures; reset to 0 on any success.
    consecutive: AtomicU32,
    open: AtomicBool,
    /// Calls short-circuited since the breaker opened (or since the last
    /// failed probe); drives the half-open probe schedule.
    short_circuited: AtomicU32,
}

/// A plain-data snapshot of one unit's circuit breaker, carried by shard
/// snapshots so an installed shard's supervisor continues each star's
/// breaker history (see `crate::snapshot`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerState {
    /// Consecutive exhausted failures so far.
    pub consecutive: u32,
    /// Whether the breaker is open (unit short-circuited).
    pub open: bool,
    /// Short-circuited calls since opening (half-open probe schedule).
    pub short_circuited: u32,
}

/// Runs closures with panic capture, deadline budgets, bounded deterministic
/// retry, and per-unit circuit breaking. See the module docs for the model.
#[derive(Debug)]
pub struct Supervisor {
    policy: SupervisorPolicy,
    units: Vec<UnitBreaker>,
    panics: AtomicUsize,
    deadline_misses: AtomicUsize,
    task_failures: AtomicUsize,
    retries: AtomicUsize,
    circuits_opened: AtomicUsize,
    short_circuits: AtomicUsize,
    probes: AtomicUsize,
    circuits_closed: AtomicUsize,
}

/// Outcome of a single attempt, before retry policy is applied.
enum Attempt<T, E> {
    Ok(T),
    Failed(SupervisionError<E>),
}

impl Supervisor {
    /// A supervisor with `units` independent circuit breakers.
    pub fn new(policy: SupervisorPolicy, units: usize) -> Self {
        let mut breakers = Vec::with_capacity(units);
        breakers.resize_with(units, UnitBreaker::default);
        Self {
            policy,
            units: breakers,
            panics: AtomicUsize::new(0),
            deadline_misses: AtomicUsize::new(0),
            task_failures: AtomicUsize::new(0),
            retries: AtomicUsize::new(0),
            circuits_opened: AtomicUsize::new(0),
            short_circuits: AtomicUsize::new(0),
            probes: AtomicUsize::new(0),
            circuits_closed: AtomicUsize::new(0),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> &SupervisorPolicy {
        &self.policy
    }

    /// Number of supervised units (circuit breakers).
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Whether `unit`'s circuit breaker is open.
    pub fn is_open(&self, unit: usize) -> bool {
        self.units
            .get(unit)
            .is_some_and(|u| u.open.load(Ordering::Relaxed))
    }

    /// Closes `unit`'s breaker and zeroes its consecutive-failure count
    /// (operator override / manual un-quarantine).
    pub fn reset(&self, unit: usize) {
        if let Some(u) = self.units.get(unit) {
            u.consecutive.store(0, Ordering::Relaxed);
            u.open.store(false, Ordering::Relaxed);
            u.short_circuited.store(0, Ordering::Relaxed);
        }
    }

    /// Records a success for `unit` earned outside [`run`](Self::run) — a
    /// batched pass that covered it and several other units: zeroes its
    /// consecutive-failure count, as a first-try `run` success does. Counts
    /// nothing and leaves an open breaker open.
    pub(crate) fn record_success(&self, unit: usize) {
        if let Some(u) = self.units.get(unit) {
            u.consecutive.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot of one unit's breaker (all-default for out-of-range units).
    pub fn unit_state(&self, unit: usize) -> BreakerState {
        self.units.get(unit).map_or_else(BreakerState::default, |u| BreakerState {
            consecutive: u.consecutive.load(Ordering::Relaxed),
            open: u.open.load(Ordering::Relaxed),
            short_circuited: u.short_circuited.load(Ordering::Relaxed),
        })
    }

    /// Installs a previously exported breaker snapshot onto `unit`
    /// (no-op for out-of-range units). Together with
    /// [`install_stats`](Self::install_stats) this lets a rebuilt shard's
    /// supervisor continue exactly where the exported one stopped.
    pub fn install_unit_state(&self, unit: usize, state: BreakerState) {
        if let Some(u) = self.units.get(unit) {
            u.consecutive.store(state.consecutive, Ordering::Relaxed);
            u.open.store(state.open, Ordering::Relaxed);
            u.short_circuited.store(state.short_circuited, Ordering::Relaxed);
        }
    }

    /// Overwrites the cumulative counters with an exported snapshot
    /// (shard snapshot install; see `crate::snapshot`).
    pub fn install_stats(&self, stats: SupervisorStats) {
        self.panics.store(stats.panics, Ordering::Relaxed);
        self.deadline_misses.store(stats.deadline_misses, Ordering::Relaxed);
        self.task_failures.store(stats.task_failures, Ordering::Relaxed);
        self.retries.store(stats.retries, Ordering::Relaxed);
        self.circuits_opened.store(stats.circuits_opened, Ordering::Relaxed);
        self.short_circuits.store(stats.short_circuits, Ordering::Relaxed);
        self.probes.store(stats.probes, Ordering::Relaxed);
        self.circuits_closed.store(stats.circuits_closed, Ordering::Relaxed);
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> SupervisorStats {
        SupervisorStats {
            panics: self.panics.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            task_failures: self.task_failures.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            circuits_opened: self.circuits_opened.load(Ordering::Relaxed),
            short_circuits: self.short_circuits.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            circuits_closed: self.circuits_closed.load(Ordering::Relaxed),
        }
    }

    /// Runs `task` under the full policy: breaker check, panic capture, the
    /// policy deadline, bounded retry with deterministic backoff.
    pub fn run<T, E>(
        &self,
        unit: usize,
        task: impl FnMut() -> Result<T, E>,
    ) -> Result<T, SupervisionError<E>> {
        self.run_with(unit, self.policy.deadline, true, task)
    }

    /// [`run`](Self::run) with an explicit deadline override and the option
    /// to bypass the unit's circuit breaker (`use_breaker = false`): the
    /// POT-refit unit retries forever-hopeful because scores may become
    /// refittable again, and whole-frame scoring has no meaningful
    /// per-attempt budget.
    pub fn run_with<T, E>(
        &self,
        unit: usize,
        deadline: Option<Duration>,
        use_breaker: bool,
        mut task: impl FnMut() -> Result<T, E>,
    ) -> Result<T, SupervisionError<E>> {
        let breaker = self.units.get(unit);
        if use_breaker {
            if let Some(b) = breaker {
                if b.open.load(Ordering::Relaxed) {
                    let waited = b.short_circuited.fetch_add(1, Ordering::Relaxed) + 1;
                    let probe_due =
                        self.policy.probe_after != u32::MAX && waited > self.policy.probe_after;
                    if !probe_due {
                        self.short_circuits.fetch_add(1, Ordering::Relaxed);
                        return Err(SupervisionError::CircuitOpen { unit });
                    }
                    // Half-open: admit exactly one unretried probe. Success
                    // closes the breaker; failure re-arms the wait.
                    self.probes.fetch_add(1, Ordering::Relaxed);
                    return match self.attempt_once(unit, 1, deadline, &mut task) {
                        Attempt::Ok(value) => {
                            b.short_circuited.store(0, Ordering::Relaxed);
                            b.consecutive.store(0, Ordering::Relaxed);
                            b.open.store(false, Ordering::Relaxed);
                            self.circuits_closed.fetch_add(1, Ordering::Relaxed);
                            Ok(value)
                        }
                        Attempt::Failed(failure) => {
                            b.short_circuited.store(0, Ordering::Relaxed);
                            Err(failure)
                        }
                    };
                }
            }
        }
        let attempts_allowed = self.policy.max_retries.saturating_add(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.attempt_once(unit, attempt, deadline, &mut task) {
                Attempt::Ok(value) => {
                    if let Some(b) = breaker {
                        b.consecutive.store(0, Ordering::Relaxed);
                    }
                    return Ok(value);
                }
                Attempt::Failed(failure) => {
                    if attempt < attempts_allowed {
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(self.policy.backoff_delay(attempt - 1));
                        continue;
                    }
                    if use_breaker {
                        if let Some(b) = breaker {
                            let consecutive = b.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
                            if consecutive >= self.policy.circuit_threshold
                                && !b.open.swap(true, Ordering::Relaxed)
                            {
                                self.circuits_opened.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    return Err(failure);
                }
            }
        }
    }

    fn attempt_once<T, E>(
        &self,
        unit: usize,
        attempt: u32,
        deadline: Option<Duration>,
        task: &mut impl FnMut() -> Result<T, E>,
    ) -> Attempt<T, E> {
        let start = deadline.map(|_| Instant::now());
        let outcome = catch_unwind(AssertUnwindSafe(&mut *task));
        match outcome {
            Ok(Ok(value)) => {
                if let (Some(budget), Some(start)) = (deadline, start) {
                    let elapsed = start.elapsed();
                    if elapsed > budget {
                        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
                        return Attempt::Failed(SupervisionError::DeadlineExceeded {
                            unit,
                            attempts: attempt,
                            elapsed,
                            budget,
                        });
                    }
                }
                Attempt::Ok(value)
            }
            Ok(Err(error)) => {
                self.task_failures.fetch_add(1, Ordering::Relaxed);
                Attempt::Failed(SupervisionError::Task {
                    unit,
                    attempts: attempt,
                    error,
                })
            }
            Err(payload) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                Attempt::Failed(SupervisionError::Panic {
                    unit,
                    attempts: attempt,
                    message: panic_message(payload),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32 as Counter;

    fn quiet_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            backoff_base: Duration::from_micros(10),
            ..SupervisorPolicy::default()
        }
    }

    #[test]
    fn success_passes_through() {
        let sup = Supervisor::new(quiet_policy(), 1);
        let out: Result<u32, SupervisionError<DetectorError>> = sup.run(0, || Ok(7));
        assert_eq!(out.unwrap(), 7);
        assert_eq!(sup.stats(), SupervisorStats::default());
    }

    #[test]
    fn transient_panic_is_retried_to_success() {
        let sup = Supervisor::new(quiet_policy(), 1);
        let calls = Counter::new(0);
        let out: Result<u32, SupervisionError<DetectorError>> = sup.run(0, || {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient");
            }
            Ok(42)
        });
        assert_eq!(out.unwrap(), 42);
        let stats = sup.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.retries, 1);
        assert!(!sup.is_open(0), "success must not count toward the breaker");
    }

    #[test]
    fn persistent_panic_exhausts_retries_then_trips_breaker() {
        let policy = SupervisorPolicy {
            max_retries: 1,
            circuit_threshold: 2,
            ..quiet_policy()
        };
        let sup = Supervisor::new(policy, 2);
        for round in 0..2 {
            let out: Result<(), SupervisionError<DetectorError>> =
                sup.run(0, || panic!("always bad"));
            match out.unwrap_err() {
                SupervisionError::Panic {
                    unit,
                    attempts,
                    message,
                } => {
                    assert_eq!(unit, 0);
                    assert_eq!(attempts, 2);
                    assert_eq!(message, "always bad");
                }
                other => panic!("unexpected: {other}"),
            }
            assert_eq!(sup.is_open(0), round == 1);
        }
        // Third call short-circuits without running the task.
        let out: Result<(), SupervisionError<DetectorError>> =
            sup.run(0, || panic!("must not run"));
        assert!(matches!(
            out.unwrap_err(),
            SupervisionError::CircuitOpen { unit: 0 }
        ));
        let stats = sup.stats();
        assert_eq!(stats.panics, 4);
        assert_eq!(stats.circuits_opened, 1);
        assert_eq!(stats.short_circuits, 1);
        assert!(!sup.is_open(1), "breakers are per-unit");
        sup.reset(0);
        assert!(!sup.is_open(0));
        let out: Result<u32, SupervisionError<DetectorError>> = sup.run(0, || Ok(9));
        assert_eq!(out.unwrap(), 9);
    }

    #[test]
    fn task_errors_carry_the_typed_error() {
        let sup = Supervisor::new(quiet_policy(), 1);
        let out: Result<(), SupervisionError<DetectorError>> =
            sup.run(0, || Err(DetectorError::Invalid("bad width".into())));
        let err = out.unwrap_err();
        assert_eq!(err.unit(), 0);
        match err.into_detector_error() {
            DetectorError::Invalid(msg) => assert_eq!(msg, "bad width"),
            other => panic!("unexpected: {other}"),
        }
        assert_eq!(sup.stats().task_failures, 3, "default = 2 retries");
    }

    #[test]
    fn blown_deadline_discards_the_result() {
        let policy = SupervisorPolicy {
            deadline: Some(Duration::from_micros(1)),
            max_retries: 0,
            ..quiet_policy()
        };
        let sup = Supervisor::new(policy, 1);
        let out: Result<u32, SupervisionError<DetectorError>> = sup.run(0, || {
            std::thread::sleep(Duration::from_millis(5));
            Ok(1)
        });
        match out.unwrap_err() {
            SupervisionError::DeadlineExceeded {
                elapsed, budget, ..
            } => {
                assert!(elapsed >= budget);
            }
            other => panic!("unexpected: {other}"),
        }
        assert_eq!(sup.stats().deadline_misses, 1);
    }

    #[test]
    fn backoff_schedule_is_deterministic() {
        let policy = SupervisorPolicy {
            backoff_base: Duration::from_millis(3),
            backoff_factor: 2,
            ..SupervisorPolicy::default()
        };
        assert_eq!(policy.backoff_delay(0), Duration::from_millis(3));
        assert_eq!(policy.backoff_delay(1), Duration::from_millis(6));
        assert_eq!(policy.backoff_delay(2), Duration::from_millis(12));
        assert_eq!(policy.backoff_delay(3), Duration::from_millis(24));
    }

    #[test]
    fn half_open_probe_recovers_breaker() {
        let policy = SupervisorPolicy {
            max_retries: 0,
            circuit_threshold: 1,
            probe_after: 2,
            ..quiet_policy()
        };
        let sup = Supervisor::new(policy, 1);
        let out: Result<(), SupervisionError<DetectorError>> = sup.run(0, || panic!("down"));
        assert!(matches!(out.unwrap_err(), SupervisionError::Panic { .. }));
        assert!(sup.is_open(0));

        // Two calls short-circuit while the breaker waits out `probe_after`.
        for _ in 0..2 {
            let out: Result<(), SupervisionError<DetectorError>> =
                sup.run(0, || panic!("must not run"));
            assert!(matches!(
                out.unwrap_err(),
                SupervisionError::CircuitOpen { unit: 0 }
            ));
        }
        assert_eq!(sup.stats().short_circuits, 2);

        // Third call is the probe; it still fails, so the breaker re-arms.
        let out: Result<(), SupervisionError<DetectorError>> = sup.run(0, || panic!("still down"));
        match out.unwrap_err() {
            SupervisionError::Panic { attempts, .. } => {
                assert_eq!(attempts, 1, "probes are never retried");
            }
            other => panic!("unexpected: {other}"),
        }
        assert!(sup.is_open(0), "failed probe keeps the breaker open");
        assert_eq!(sup.stats().probes, 1);
        assert_eq!(sup.stats().circuits_closed, 0);

        // Re-armed: two more short-circuits, then a probe that succeeds and
        // closes the breaker.
        for _ in 0..2 {
            let out: Result<u32, SupervisionError<DetectorError>> = sup.run(0, || Ok(1));
            assert!(matches!(
                out.unwrap_err(),
                SupervisionError::CircuitOpen { unit: 0 }
            ));
        }
        let out: Result<u32, SupervisionError<DetectorError>> = sup.run(0, || Ok(5));
        assert_eq!(out.unwrap(), 5, "successful probe returns its value");
        assert!(!sup.is_open(0), "successful probe closes the breaker");
        let stats = sup.stats();
        assert_eq!(stats.probes, 2);
        assert_eq!(stats.circuits_closed, 1);
        assert_eq!(stats.short_circuits, 4);
        assert_eq!(stats.retries, 0);

        // Breaker is fully closed again: normal calls run the task.
        let out: Result<u32, SupervisionError<DetectorError>> = sup.run(0, || Ok(6));
        assert_eq!(out.unwrap(), 6);
    }

    #[test]
    fn stats_are_deterministic_across_thread_counts() {
        // The same failing workload, fanned out over the pool at different
        // thread counts, must land on identical cumulative stats — the
        // counters are pure functions of the work, not of the schedule.
        let run_workload = |threads: usize| {
            let saved = aero_parallel::max_threads();
            aero_parallel::set_max_threads(threads);
            let policy = SupervisorPolicy {
                max_retries: 1,
                circuit_threshold: u32::MAX,
                ..quiet_policy()
            };
            let sup = Supervisor::new(policy, 8);
            aero_parallel::parallel_map_range(8, |unit| {
                let out: Result<u32, SupervisionError<DetectorError>> = sup.run(unit, || {
                    if unit % 2 == 0 {
                        Err(DetectorError::Invalid(format!("unit {unit}")))
                    } else {
                        Ok(unit as u32)
                    }
                });
                out.is_ok()
            });
            let stats = sup.stats();
            aero_parallel::set_max_threads(saved);
            stats
        };
        let serial = run_workload(1);
        let parallel = run_workload(4);
        assert_eq!(serial, parallel);
        // 4 even units × 2 attempts each (1 retry), odd units succeed.
        assert_eq!(serial.task_failures, 8);
        assert_eq!(serial.retries, 4);
        assert_eq!(serial.panics, 0);
    }

    #[test]
    fn backoff_schedule_is_deterministic_across_thread_counts() {
        let policy = SupervisorPolicy {
            backoff_base: Duration::from_millis(2),
            backoff_factor: 3,
            ..SupervisorPolicy::default()
        };
        let expected: Vec<Duration> = (0..6).map(|r| policy.backoff_delay(r)).collect();
        for threads in [1usize, 4] {
            let saved = aero_parallel::max_threads();
            aero_parallel::set_max_threads(threads);
            let schedules = aero_parallel::parallel_map_range(4, |_| {
                (0..6).map(|r| policy.backoff_delay(r)).collect::<Vec<_>>()
            });
            aero_parallel::set_max_threads(saved);
            for schedule in schedules {
                assert_eq!(schedule, expected);
            }
        }
        assert_eq!(expected[0], Duration::from_millis(2));
        assert_eq!(expected[1], Duration::from_millis(6));
        assert_eq!(expected[2], Duration::from_millis(18));
    }

    #[test]
    fn run_with_can_bypass_the_breaker() {
        let policy = SupervisorPolicy {
            max_retries: 0,
            circuit_threshold: 1,
            ..quiet_policy()
        };
        let sup = Supervisor::new(policy, 1);
        for _ in 0..3 {
            let out: Result<(), SupervisionError<DetectorError>> =
                sup.run_with(0, None, false, || {
                    Err(DetectorError::Invalid("still failing".into()))
                });
            assert!(matches!(out.unwrap_err(), SupervisionError::Task { .. }));
        }
        assert!(!sup.is_open(0), "bypassed breaker never opens");
        assert_eq!(sup.stats().short_circuits, 0);
    }
}
