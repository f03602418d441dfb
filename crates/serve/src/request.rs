//! Request, response, and the in-flight state shared between the
//! server's ledger and the submitter.

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
    /// Logits of every position of the request, `tokens × vocab`: the
    /// forward pass's whole output matrix.
    pub logits: Matrix,
    /// Number of forward attempts (1 = no retries).
    pub attempts: u32,
    /// Wall time from admission to completion.
    pub latency: Duration,
}

/// Shared per-request state: the server's ledger holds it while it is
/// queued or running, and the submitter waits on it.
pub(crate) struct Inflight {
    pub(crate) id: u64,
    pub(crate) tokens: Vec<u32>,
    pub(crate) mode: FaultMode,
    pub(crate) admitted: Instant,
    pub(crate) cancel: CancelToken,
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
            slot: Mutex::new(None),
            cond: Condvar::new(),
        }
    }

    /// Delivers the terminal outcome. Called exactly once, by whoever
    /// took the request out of the server's ledger.
    pub(crate) fn resolve(&self, result: Result<Response>) {
        *self.slot.lock().expect("ticket slot lock") = Some(result);
        self.cond.notify_all();
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
