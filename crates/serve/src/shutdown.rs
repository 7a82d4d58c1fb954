//! A tiny latch for coordinating graceful shutdown across threads.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::reactor::Waker;

/// A one-way "please stop" latch: once requested it stays requested.
///
/// [`request`](ShutdownSignal::request) wakes anything blocked in
/// [`wait_timeout`](ShutdownSignal::wait_timeout) and rings every
/// reactor registered through
/// [`wake_on_request`](ShutdownSignal::wake_on_request), so event loops
/// that sleep in the kernel learn of it at once.
#[derive(Debug, Default)]
pub struct ShutdownSignal {
    state: Mutex<State>,
    bell: Condvar,
}

#[derive(Debug, Default)]
struct State {
    requested: bool,
    wakers: Vec<Waker>,
}

impl ShutdownSignal {
    /// A fresh, un-requested signal.
    #[must_use]
    pub fn new() -> Self {
        ShutdownSignal::default()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // The critical sections below cannot panic, so poisoning can only
        // come from a foreign panic mid-lock; the state is still valid.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Requests shutdown and wakes all waiters. Idempotent.
    pub fn request(&self) {
        let wakers = {
            let mut state = self.lock();
            state.requested = true;
            std::mem::take(&mut state.wakers)
        };
        self.bell.notify_all();
        for waker in wakers {
            waker.wake();
        }
    }

    /// Rings `waker` when shutdown is requested (at once if it already
    /// was).
    pub fn wake_on_request(&self, waker: Waker) {
        let mut state = self.lock();
        if state.requested {
            drop(state);
            waker.wake();
        } else {
            state.wakers.push(waker);
        }
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_requested(&self) -> bool {
        self.lock().requested
    }

    /// Blocks until shutdown is requested or `timeout` elapses; returns
    /// whether shutdown was requested.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let state = self.lock();
        if state.requested {
            return true;
        }
        let (state, _) = self
            .bell
            .wait_timeout(state, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn latch_is_sticky_and_wakes_waiters() {
        let signal = Arc::new(ShutdownSignal::new());
        assert!(!signal.is_requested());
        assert!(!signal.wait_timeout(Duration::from_millis(1)));
        let waiter = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || signal.wait_timeout(Duration::from_secs(30)))
        };
        signal.request();
        signal.request(); // idempotent
        assert!(signal.is_requested());
        assert!(waiter.join().expect("waiter thread panicked"));
        // Already-requested waits return immediately.
        assert!(signal.wait_timeout(Duration::ZERO));
    }

    #[test]
    fn request_rings_registered_reactors() {
        let signal = ShutdownSignal::new();
        let mut early = crate::reactor::Reactor::new().unwrap();
        signal.wake_on_request(early.waker());
        let mut ready = Vec::new();
        assert!(!early.wait(&mut ready, Some(Duration::ZERO)).unwrap());
        signal.request();
        assert!(early.wait(&mut ready, Some(Duration::ZERO)).unwrap());
        // A reactor registered after the request is rung at once.
        let mut late = crate::reactor::Reactor::new().unwrap();
        signal.wake_on_request(late.waker());
        assert!(late.wait(&mut ready, Some(Duration::ZERO)).unwrap());
    }
}
