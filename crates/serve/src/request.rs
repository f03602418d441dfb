//! Request, response, and the in-flight state shared between submitter,
//! worker, and watchdog.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use milo_moe::{CancelToken, FaultMode};
use milo_tensor::Matrix;

use crate::Result;

/// A unit of work submitted to the server.
#[derive(Debug, Clone)]
pub struct Request {
    /// Token ids to run through the model.
    pub tokens: Vec<u32>,
    /// Per-request deadline budget; `None` falls back to the server's
    /// default (which may itself be `None` = no deadline).
    pub deadline: Option<Duration>,
    /// Per-request fault mode; `None` falls back to the server default.
    pub mode: Option<FaultMode>,
}

impl Request {
    /// A request with no per-request overrides.
    pub fn new(tokens: Vec<u32>) -> Self {
        Request { tokens, deadline: None, mode: None }
    }

    /// Sets the deadline budget.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Sets the fault mode for this request only.
    #[must_use]
    pub fn with_mode(mut self, mode: FaultMode) -> Self {
        self.mode = Some(mode);
        self
    }
}

/// A successful forward pass, as delivered to the submitter.
#[derive(Debug, Clone)]
pub struct Response {
    /// Server-assigned request id (admission order).
    pub id: u64,
    /// Final-position logits matrix from the forward pass.
    pub logits: Matrix,
    /// Number of forward attempts (1 = no retries).
    pub attempts: u32,
    /// Wall time from admission to completion.
    pub latency: Duration,
}

/// Lifecycle state of an in-flight request (see [`Inflight::state`]).
pub(crate) const STATE_QUEUED: u8 = 0;
pub(crate) const STATE_RUNNING: u8 = 1;
pub(crate) const STATE_DONE: u8 = 2;

/// Shared per-request state: the queue holds it, a worker executes it,
/// the watchdog inspects it, and the submitter waits on it.
pub(crate) struct Inflight {
    pub(crate) id: u64,
    pub(crate) tokens: Vec<u32>,
    pub(crate) mode: FaultMode,
    pub(crate) admitted: Instant,
    pub(crate) cancel: CancelToken,
    /// `STATE_QUEUED` → `STATE_RUNNING` → `STATE_DONE`; the watchdog may
    /// jump `QUEUED` → `DONE` when it sheds or expires a queued request.
    pub(crate) state: AtomicU8,
    slot: Mutex<Option<Result<Response>>>,
    cond: Condvar,
}

impl Inflight {
    pub(crate) fn new(
        id: u64,
        tokens: Vec<u32>,
        mode: FaultMode,
        deadline: Option<Instant>,
    ) -> Self {
        let cancel = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        Inflight {
            id,
            tokens,
            mode,
            admitted: Instant::now(),
            cancel,
            state: AtomicU8::new(STATE_QUEUED),
            slot: Mutex::new(None),
            cond: Condvar::new(),
        }
    }

    /// Atomically claims the request for execution. Returns `false` if
    /// the watchdog already resolved it (shed / expired while queued).
    pub(crate) fn claim(&self) -> bool {
        self.state
            .compare_exchange(STATE_QUEUED, STATE_RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Atomically resolves a *queued* request (watchdog path). Returns
    /// `false` if a worker claimed it first.
    pub(crate) fn resolve_queued(&self, result: Result<Response>) -> bool {
        if self
            .state
            .compare_exchange(STATE_QUEUED, STATE_DONE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.fill(result);
        true
    }

    /// Resolves a claimed request (worker path).
    pub(crate) fn resolve(&self, result: Result<Response>) {
        self.state.store(STATE_DONE, Ordering::Release);
        self.fill(result);
    }

    fn fill(&self, result: Result<Response>) {
        let mut slot = self.slot.lock().unwrap();
        if slot.is_none() {
            *slot = Some(result);
        }
        drop(slot);
        self.cond.notify_all();
    }

    pub(crate) fn is_done(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_DONE
    }

    pub(crate) fn is_running(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_RUNNING
    }

    pub(crate) fn past_deadline(&self, now: Instant) -> bool {
        self.cancel.deadline().is_some_and(|d| now >= d)
    }

    fn wait(&self) -> Result<Response> {
        let mut slot = self.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.cond.wait(slot).unwrap();
        }
    }

    fn try_wait(&self, timeout: Duration) -> Option<Result<Response>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return Some(result);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timed_out) = self.cond.wait_timeout(slot, deadline - now).unwrap();
            slot = guard;
        }
    }
}

/// Handle returned by [`Server::submit`](crate::Server::submit); waits
/// for the request's terminal outcome.
pub struct Ticket {
    pub(crate) inner: Arc<Inflight>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("id", &self.inner.id).finish()
    }
}

impl Ticket {
    /// The server-assigned request id.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Blocks until the request terminates.
    ///
    /// # Errors
    ///
    /// The request's typed terminal error — see
    /// [`ServeError`](crate::ServeError).
    pub fn wait(self) -> Result<Response> {
        self.inner.wait()
    }

    /// Waits up to `timeout`; `None` means the request is still in
    /// flight (the ticket is consumed either way, mirroring `wait`).
    pub fn wait_timeout(self, timeout: Duration) -> Option<Result<Response>> {
        self.inner.try_wait(timeout)
    }
}
