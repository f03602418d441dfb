//! A bounded MPMC queue with closable semantics and non-blocking removal.
//!
//! Built on `Mutex<VecDeque>` + `Condvar` — the same zero-dependency
//! primitives as `milo_tensor::pool` — rather than a lock-free ring:
//! the queue sits in front of forward passes that cost milliseconds, so
//! lock contention is noise, while the mutex makes the two operations a
//! serving queue needs trivial: *rejection with an observed depth* and
//! *shedding from the front*.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was at capacity; the item is handed back.
    Full(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
///
/// * [`try_push`](Bounded::try_push) never blocks: a full queue is an
///   admission-control signal, not a place to wait.
/// * [`pop`](Bounded::pop) blocks until an item arrives or the queue is
///   closed *and* drained.
/// * [`try_pop`](Bounded::try_pop) takes the front item without
///   blocking — the shedding primitive.
pub struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    cond: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity queue would reject
    /// every request, which is a configuration error, not a policy.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Bounded {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            cond: Condvar::new(),
            capacity,
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (racy by nature; exact under the caller's own
    /// serialization).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to enqueue without blocking. On success returns the
    /// depth *after* the push.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](Bounded::close); both return the item.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.cond.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available (FIFO) or the queue is closed
    /// and empty (`None`).
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.cond.wait(inner).unwrap();
        }
    }

    /// Removes and returns the front (oldest) item without blocking, or
    /// `None` if the queue is empty.
    pub fn try_pop(&self) -> Option<T> {
        self.inner.lock().unwrap().items.pop_front()
    }

    /// Closes the queue: future pushes fail, and [`pop`](Bounded::pop)
    /// returns `None` once drained. Wakes every blocked consumer.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.cond.notify_all();
    }

    /// Drains every queued item immediately (used on shutdown to fail
    /// pending requests with a typed error).
    pub fn drain(&self) -> Vec<T> {
        let mut inner = self.inner.lock().unwrap();
        inner.items.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = Bounded::new(4);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_queue_rejects_with_item_back() {
        let q = Bounded::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_rejects_and_drains() {
        let q = Bounded::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed(2)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(Bounded::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn try_pop_takes_the_front_without_blocking() {
        let q = Bounded::new(8);
        assert_eq!(q.try_pop(), None);
        for v in [5u64, 9, 1] {
            q.try_push(v).unwrap();
        }
        assert_eq!(q.try_pop(), Some(5));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(9));
        q.close();
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn mpmc_all_items_delivered_exactly_once() {
        let q = Arc::new(Bounded::<u32>::new(1024));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        q.try_push(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<_>>());
    }
}
