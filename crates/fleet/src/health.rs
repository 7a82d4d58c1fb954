//! Per-backend health tracking: the ejection / re-admission state
//! machine and the shared fleet view the router and the prober both
//! consult.
//!
//! The state machine per backend:
//!
//! ```text
//!            consecutive failures == eject_after
//!  Healthy ────────────────────────────────────────▶ Ejected
//!     ▲                                                 │
//!     │    readmit() — called only after `readmit_after`│
//!     │    consecutive probe successes AND a registry   │
//!     │    sync from a healthy peer completed           │
//!     └─────────────────────────────────────────────────┘
//! ```
//!
//! Failures are *consecutive*: any success while healthy resets the
//! count, so a transient hiccup under load does not accumulate toward
//! ejection. Re-admission is deliberately two-gated — probes prove the
//! process answers, the sync proves its registry converged — because a
//! replica that serves before it syncs would answer `unknown_model` for
//! artifacts its peers hold.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Thresholds for the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive failures that eject a healthy backend.
    pub eject_after: u32,
    /// Consecutive probe successes that make an ejected backend
    /// eligible for re-admission (the sync gate still applies).
    pub readmit_after: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            eject_after: 3,
            readmit_after: 2,
        }
    }
}

/// Mutable counters behind the per-backend lock.
#[derive(Debug, Default)]
struct Counters {
    consecutive_failures: u32,
    recovery_successes: u32,
    ejections: u64,
}

/// One backend's health record.
#[derive(Debug)]
pub struct BackendHealth {
    /// The backend's address (immutable, lock-free).
    addr: SocketAddr,
    /// Healthy flag, readable without the lock on every routed request.
    healthy: AtomicBool,
    counters: Mutex<Counters>,
}

/// What a recorded probe success means for an ejected backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeVerdict {
    /// The backend is healthy (or still short of the readmit
    /// threshold); nothing to do.
    NoChange,
    /// The readmit threshold is met: sync the backend's registry from a
    /// healthy peer, then call [`FleetState::readmit`].
    ReadyToReadmit,
}

impl BackendHealth {
    fn new(addr: SocketAddr) -> BackendHealth {
        BackendHealth {
            addr,
            healthy: AtomicBool::new(true),
            counters: Mutex::new(Counters::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Counters> {
        self.counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The shared health view over every backend in the fleet.
///
/// Indexed by backend number (the same index the hash ring uses).
/// Updates mirror into `hmdiv-obs`: the `fleet.backends` gauge, the
/// per-backend `fleet.backend.<i>.healthy` gauges, and the
/// `fleet.backend_ejections` / `fleet.health_probe_failures` counters.
#[derive(Debug)]
pub struct FleetState {
    backends: Vec<BackendHealth>,
    policy: HealthPolicy,
}

impl FleetState {
    /// A fleet where every backend starts healthy.
    #[must_use]
    pub fn new(addrs: &[SocketAddr], policy: HealthPolicy) -> FleetState {
        #[allow(clippy::cast_precision_loss)]
        hmdiv_obs::gauge_set("fleet.backends", addrs.len() as f64);
        for i in 0..addrs.len() {
            hmdiv_obs::gauge_set(&format!("fleet.backend.{i}.healthy"), 1.0);
        }
        FleetState {
            backends: addrs.iter().copied().map(BackendHealth::new).collect(),
            policy,
        }
    }

    /// Number of backends (healthy or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Whether the fleet has no backends at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// The backend's address.
    #[must_use]
    pub fn addr(&self, index: usize) -> SocketAddr {
        self.backends[index].addr
    }

    /// Lock-free healthy check (the per-request hot path).
    #[must_use]
    pub fn is_healthy(&self, index: usize) -> bool {
        self.backends[index].healthy.load(Ordering::Acquire)
    }

    /// Healthy backends, lowest index first.
    #[must_use]
    pub fn healthy_indices(&self) -> Vec<usize> {
        (0..self.backends.len())
            .filter(|&i| self.is_healthy(i))
            .collect()
    }

    /// Records a request- or probe-level failure against `index`.
    /// Returns `true` when this failure crossed the threshold and
    /// ejected the backend (the caller should then fail its in-flight
    /// requests and tear down its connections).
    pub fn record_failure(&self, index: usize) -> bool {
        let backend = &self.backends[index];
        let mut c = backend.lock();
        c.recovery_successes = 0;
        if !backend.healthy.load(Ordering::Acquire) {
            return false;
        }
        c.consecutive_failures += 1;
        if c.consecutive_failures < self.policy.eject_after {
            return false;
        }
        self.mark_ejected(index, &mut c);
        true
    }

    /// Ejects a healthy backend at once, whatever its failure streak —
    /// for a backend known to have diverged (a broadcast leg that failed
    /// while its peers succeeded). Re-admission then goes through the
    /// usual probe-and-sync gate. Returns `false` when it was already
    /// ejected.
    pub fn eject(&self, index: usize) -> bool {
        let mut c = self.backends[index].lock();
        if !self.is_healthy(index) {
            return false;
        }
        self.mark_ejected(index, &mut c);
        true
    }

    /// Takes `index` out of the routing set; the caller holds its lock.
    fn mark_ejected(&self, index: usize, c: &mut Counters) {
        c.recovery_successes = 0;
        self.backends[index].healthy.store(false, Ordering::Release);
        c.ejections += 1;
        hmdiv_obs::counter_add("fleet.backend_ejections", 1);
        hmdiv_obs::gauge_set(&format!("fleet.backend.{index}.healthy"), 0.0);
    }

    /// Records a failed health probe: bumps the probe-failure counter,
    /// then counts like any other failure.
    pub fn record_probe_failure(&self, index: usize) -> bool {
        hmdiv_obs::counter_add("fleet.health_probe_failures", 1);
        self.record_failure(index)
    }

    /// Records a successful probe (or served request). For a healthy
    /// backend this clears the failure streak; for an ejected one it
    /// advances the recovery streak and reports when the readmit
    /// threshold is met.
    pub fn record_success(&self, index: usize) -> ProbeVerdict {
        let backend = &self.backends[index];
        let mut c = backend.lock();
        if backend.healthy.load(Ordering::Acquire) {
            c.consecutive_failures = 0;
            return ProbeVerdict::NoChange;
        }
        c.recovery_successes += 1;
        if c.recovery_successes >= self.policy.readmit_after {
            ProbeVerdict::ReadyToReadmit
        } else {
            ProbeVerdict::NoChange
        }
    }

    /// Returns an ejected backend to service. Call only after the
    /// recovery gate ([`ProbeVerdict::ReadyToReadmit`]) *and* a
    /// successful registry sync.
    pub fn readmit(&self, index: usize) {
        let backend = &self.backends[index];
        let mut c = backend.lock();
        c.consecutive_failures = 0;
        c.recovery_successes = 0;
        backend.healthy.store(true, Ordering::Release);
        hmdiv_obs::gauge_set(&format!("fleet.backend.{index}.healthy"), 1.0);
    }

    /// Resets the recovery streak of an ejected backend — called when
    /// the pre-readmission sync failed, so the backend must prove
    /// itself again from scratch.
    pub fn recovery_setback(&self, index: usize) {
        self.backends[index].lock().recovery_successes = 0;
    }

    /// A plain-data snapshot of one backend for the metrics verb.
    #[must_use]
    pub fn snapshot(&self, index: usize) -> BackendSnapshot {
        let backend = &self.backends[index];
        let c = backend.lock();
        BackendSnapshot {
            addr: backend.addr,
            healthy: backend.healthy.load(Ordering::Acquire),
            consecutive_failures: c.consecutive_failures,
            ejections: c.ejections,
        }
    }
}

/// One backend's health, frozen for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendSnapshot {
    /// The backend's address.
    pub addr: SocketAddr,
    /// Whether it is currently in the routing set.
    pub healthy: bool,
    /// Failures since the last success (healthy backends only).
    pub consecutive_failures: u32,
    /// Times this backend has been ejected over the fleet's lifetime.
    pub ejections: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize, policy: HealthPolicy) -> FleetState {
        let addrs: Vec<SocketAddr> = (0..n)
            .map(|i| format!("127.0.0.1:{}", 9000 + i).parse().expect("literal"))
            .collect();
        FleetState::new(&addrs, policy)
    }

    #[test]
    fn ejection_needs_consecutive_failures() {
        let f = fleet(
            2,
            HealthPolicy {
                eject_after: 3,
                readmit_after: 2,
            },
        );
        assert!(!f.record_failure(0));
        assert!(!f.record_failure(0));
        // A success in between resets the streak.
        assert_eq!(f.record_success(0), ProbeVerdict::NoChange);
        assert!(!f.record_failure(0));
        assert!(!f.record_failure(0));
        assert!(f.record_failure(0), "third consecutive failure ejects");
        assert!(!f.is_healthy(0));
        assert!(f.is_healthy(1), "other backends are untouched");
        // Further failures on an ejected backend change nothing.
        assert!(!f.record_failure(0));
        assert_eq!(f.snapshot(0).ejections, 1);
    }

    #[test]
    fn readmission_is_gated_on_probe_streak_and_explicit_readmit() {
        let f = fleet(
            1,
            HealthPolicy {
                eject_after: 1,
                readmit_after: 2,
            },
        );
        assert!(f.record_probe_failure(0));
        assert!(!f.is_healthy(0));
        assert_eq!(f.record_success(0), ProbeVerdict::NoChange);
        // A failure mid-recovery resets the streak.
        assert!(!f.record_failure(0));
        assert_eq!(f.record_success(0), ProbeVerdict::NoChange);
        assert_eq!(f.record_success(0), ProbeVerdict::ReadyToReadmit);
        // The verdict alone does not readmit — the sync gate decides.
        assert!(!f.is_healthy(0));
        f.recovery_setback(0);
        assert_eq!(
            f.record_success(0),
            ProbeVerdict::NoChange,
            "setback restarts the streak"
        );
        assert_eq!(f.record_success(0), ProbeVerdict::ReadyToReadmit);
        f.readmit(0);
        assert!(f.is_healthy(0));
        assert_eq!(f.healthy_indices(), [0]);
        assert_eq!(f.snapshot(0).consecutive_failures, 0);
    }

    #[test]
    fn eject_is_immediate_and_readmission_stays_gated() {
        let f = fleet(2, HealthPolicy::default());
        assert!(f.eject(1));
        assert!(!f.is_healthy(1));
        assert!(f.is_healthy(0));
        assert!(!f.eject(1), "already ejected");
        assert_eq!(f.snapshot(1).ejections, 1);
        assert_eq!(f.record_success(1), ProbeVerdict::NoChange);
        assert_eq!(f.record_success(1), ProbeVerdict::ReadyToReadmit);
        assert!(!f.is_healthy(1), "only readmit() returns it to service");
    }

    #[test]
    fn snapshots_report_addresses_and_state() {
        let f = fleet(3, HealthPolicy::default());
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
        assert_eq!(f.healthy_indices(), [0, 1, 2]);
        let snap = f.snapshot(1);
        assert_eq!(snap.addr, f.addr(1));
        assert!(snap.healthy);
        assert_eq!(snap.ejections, 0);
    }
}
