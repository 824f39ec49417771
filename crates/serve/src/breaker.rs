//! Per-pass circuit breakers.
//!
//! The transpile stack already quarantines a failing optional pass *within
//! one request*. The breaker registry lifts that signal across requests:
//! when a pass gets quarantined in at least `threshold` of the last
//! `window` requests that ran it, the breaker for that label trips
//! process-wide — every subsequent compile is admitted with the pass
//! pre-disabled, so requests stop paying the checkpoint/rollback cost of a
//! pass that keeps failing. After `cooldown`, the breaker moves to
//! half-open and lets exactly one probe request run the pass again; a
//! clean probe closes the breaker, a failing probe re-opens it for another
//! cooldown.
//!
//! Time is read through [`Clock`], so the whole state machine is testable
//! with an injected [`crate::clock::TestClock`] and zero sleeps. Only
//! labels in [`DISABLEABLE_PASSES`] are tracked — mandatory stages cannot
//! be disabled, so breaking them would be unenforceable.

use crate::clock::Clock;
use qc_transpile::{PassSet, DISABLEABLE_PASSES};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Breaker tuning. The defaults trip after 3 failures among the last 5
/// outcomes and probe again after 30 s.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Sliding window length `N` (outcomes per pass label).
    pub window: usize,
    /// Failures within the window that trip the breaker (`K` of `N`).
    pub threshold: usize,
    /// How long an open breaker blocks the pass before half-opening.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 5,
            threshold: 3,
            cooldown: Duration::from_secs(30),
        }
    }
}

/// Externally visible breaker state for one pass label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the pass runs normally, outcomes fill the window.
    Closed,
    /// Tripped: the pass is pre-disabled for every request.
    Open,
    /// Cooldown elapsed: one probe request runs the pass; everyone else
    /// still sees it disabled until the probe reports back.
    HalfOpen,
}

#[derive(Debug)]
enum State {
    Closed { outcomes: VecDeque<bool> },
    Open { until_nanos: u64 },
    HalfOpen { probe_outstanding: bool },
}

#[derive(Debug)]
struct Breaker {
    state: State,
    trips: u64,
}

/// Process-wide registry of per-pass breakers. All methods take `&self`;
/// the registry is shared by every worker thread of the service.
pub struct BreakerRegistry {
    cfg: BreakerConfig,
    clock: Arc<dyn Clock>,
    inner: Mutex<HashMap<&'static str, Breaker>>,
}

impl BreakerRegistry {
    /// An empty registry (all breakers closed).
    pub fn new(cfg: BreakerConfig, clock: Arc<dyn Clock>) -> Self {
        BreakerRegistry {
            cfg,
            clock,
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// The canonical `&'static str` for a pass label, if it is breakable.
    fn canonical(label: &str) -> Option<&'static str> {
        DISABLEABLE_PASSES.iter().find(|l| **l == label).copied()
    }

    /// The set of passes the next request must run with pre-disabled,
    /// advancing open breakers whose cooldown has elapsed. When a breaker
    /// half-opens, exactly one caller per probe cycle gets the pass
    /// *enabled* (the probe); concurrent callers keep it disabled until
    /// the probe's outcome is recorded.
    pub fn admission_set(&self) -> PassSet {
        let now = self.clock.now_nanos();
        let mut set = PassSet::empty();
        let mut map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for (label, b) in map.iter_mut() {
            match &mut b.state {
                State::Closed { .. } => {}
                State::Open { until_nanos } if now >= *until_nanos => {
                    // Cooldown over: this caller becomes the probe.
                    b.state = State::HalfOpen {
                        probe_outstanding: true,
                    };
                }
                State::Open { .. } => {
                    set.insert(label);
                }
                State::HalfOpen { probe_outstanding } => {
                    if *probe_outstanding {
                        set.insert(label);
                    } else {
                        *probe_outstanding = true;
                    }
                }
            }
        }
        set
    }

    /// Records one request's outcome for `label`: `ok = false` means the
    /// pass was quarantined during the request. Ignores labels that are
    /// not breakable.
    pub fn record(&self, label: &str, ok: bool) {
        let Some(label) = Self::canonical(label) else {
            return;
        };
        let now = self.clock.now_nanos();
        let cooldown = self.cfg.cooldown.as_nanos() as u64;
        let mut map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let b = map.entry(label).or_insert(Breaker {
            state: State::Closed {
                outcomes: VecDeque::new(),
            },
            trips: 0,
        });
        match &mut b.state {
            State::Closed { outcomes } => {
                outcomes.push_back(ok);
                while outcomes.len() > self.cfg.window {
                    outcomes.pop_front();
                }
                let fails = outcomes.iter().filter(|o| !**o).count();
                if fails >= self.cfg.threshold {
                    b.state = State::Open {
                        until_nanos: now.saturating_add(cooldown),
                    };
                    b.trips += 1;
                }
            }
            // An outcome while open belongs to a request admitted before
            // the trip; it carries no new information about the disabled
            // pass, so it is dropped.
            State::Open { .. } => {}
            State::HalfOpen { .. } => {
                if ok {
                    b.state = State::Closed {
                        outcomes: VecDeque::new(),
                    };
                } else {
                    b.state = State::Open {
                        until_nanos: now.saturating_add(cooldown),
                    };
                    b.trips += 1;
                }
            }
        }
    }

    /// Labels whose breaker is open or half-open, sorted — the
    /// `{"op":"breakers"}` report.
    pub fn open_labels(&self) -> Vec<String> {
        self.tripped().into_iter().map(|(label, _)| label).collect()
    }

    /// The current state of `label`'s breaker (read-only: does not advance
    /// cooldowns or claim probes).
    pub fn state(&self, label: &str) -> BreakerState {
        let map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match map.get(label).map(|b| &b.state) {
            None | Some(State::Closed { .. }) => BreakerState::Closed,
            Some(State::Open { until_nanos }) => {
                if self.clock.now_nanos() >= *until_nanos {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
            Some(State::HalfOpen { .. }) => BreakerState::HalfOpen,
        }
    }

    /// Labels whose breaker is currently open or half-open, with trip
    /// counts — the serve response's `breaker_disabled` field and the
    /// drain report's breaker section.
    pub fn tripped(&self) -> Vec<(String, u64)> {
        let map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(String, u64)> = map
            .iter()
            .filter(|(_, b)| !matches!(b.state, State::Closed { .. }))
            .map(|(l, b)| (l.to_string(), b.trips))
            .collect();
        out.sort();
        out
    }

    /// Total trips across all labels since process start.
    pub fn total_trips(&self) -> u64 {
        let map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        map.values().map(|b| b.trips).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;

    const PASS: &str = "Optimize1qGates";

    fn registry(clock: Arc<TestClock>) -> BreakerRegistry {
        BreakerRegistry::new(
            BreakerConfig {
                window: 4,
                threshold: 2,
                cooldown: Duration::from_secs(10),
            },
            clock,
        )
    }

    #[test]
    fn trips_after_threshold_failures_in_window() {
        let clock = Arc::new(TestClock::new());
        let reg = registry(clock);
        reg.record(PASS, false);
        assert_eq!(reg.state(PASS), BreakerState::Closed);
        assert!(reg.admission_set().is_empty());
        reg.record(PASS, false);
        assert_eq!(reg.state(PASS), BreakerState::Open);
        assert!(reg.admission_set().contains(PASS));
        assert_eq!(reg.total_trips(), 1);
    }

    #[test]
    fn old_failures_roll_out_of_the_window() {
        let clock = Arc::new(TestClock::new());
        let reg = registry(clock);
        reg.record(PASS, false);
        for _ in 0..4 {
            reg.record(PASS, true);
        }
        // The lone failure has rolled out; one more cannot reach the
        // threshold of 2.
        reg.record(PASS, false);
        assert_eq!(reg.state(PASS), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_success_closes() {
        let clock = Arc::new(TestClock::new());
        let reg = registry(Arc::clone(&clock));
        reg.record(PASS, false);
        reg.record(PASS, false);
        assert_eq!(reg.state(PASS), BreakerState::Open);

        clock.advance(Duration::from_secs(11));
        // First caller after cooldown is the probe: pass enabled for it...
        assert!(!reg.admission_set().contains(PASS));
        // ...but still disabled for concurrent callers.
        assert!(reg.admission_set().contains(PASS));
        assert_eq!(reg.state(PASS), BreakerState::HalfOpen);

        reg.record(PASS, true);
        assert_eq!(reg.state(PASS), BreakerState::Closed);
        assert!(reg.admission_set().is_empty());
        // The window reset: one failure no longer combines with pre-trip
        // history.
        reg.record(PASS, false);
        assert_eq!(reg.state(PASS), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let clock = Arc::new(TestClock::new());
        let reg = registry(Arc::clone(&clock));
        reg.record(PASS, false);
        reg.record(PASS, false);
        clock.advance(Duration::from_secs(11));
        assert!(!reg.admission_set().contains(PASS)); // probe claimed
        reg.record(PASS, false);
        assert_eq!(reg.state(PASS), BreakerState::Open);
        assert_eq!(reg.total_trips(), 2);
        // A fresh cooldown applies.
        clock.advance(Duration::from_secs(5));
        assert!(reg.admission_set().contains(PASS));
        clock.advance(Duration::from_secs(6));
        assert!(!reg.admission_set().contains(PASS));
    }

    #[test]
    fn unbreakable_labels_are_ignored() {
        let clock = Arc::new(TestClock::new());
        let reg = registry(clock);
        reg.record("Unroller(device)", false);
        reg.record("Unroller(device)", false);
        assert!(reg.admission_set().is_empty());
        assert!(reg.tripped().is_empty());
    }
}
