//! The bounded admission queue between connection threads and workers.
//!
//! Connection threads `try_push` (never block — a full queue is an
//! explicit 429 backpressure signal, not a hidden latency cliff) and
//! worker threads `pop` (block until a job arrives or the queue closes).
//! The queue tracks a latency EWMA so rejections can carry an honest
//! `Retry-After` estimate.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a push was refused.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity; the job is handed back.
    Full(T),
    /// The queue is closed (server draining); the job is handed back.
    Closed(T),
}

struct Inner<T> {
    deque: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue (mutex + condvar; the capacity is small enough
/// that lock contention is noise next to a kernel search).
pub struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    takeable: Condvar,
    capacity: usize,
    /// EWMA of job service latency, nanoseconds (atomic so workers update
    /// it without the queue lock).
    ewma_ns: AtomicU64,
    /// EWMA of admission-queue wait, nanoseconds (same smoothing).
    wait_ewma_ns: AtomicU64,
}

impl<T> JobQueue<T> {
    /// A queue admitting at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                deque: VecDeque::new(),
                closed: false,
            }),
            takeable: Condvar::new(),
            capacity: capacity.max(1),
            ewma_ns: AtomicU64::new(0),
            wait_ewma_ns: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Enqueues without blocking. Returns the queue depth after the push.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`JobQueue::close`] — both return the job to the caller.
    pub fn try_push(&self, job: T) -> Result<usize, PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(job));
        }
        if inner.deque.len() >= self.capacity {
            return Err(PushError::Full(job));
        }
        inner.deque.push_back(job);
        let depth = inner.deque.len();
        drop(inner);
        self.takeable.notify_one();
        Ok(depth)
    }

    /// Blocks until a job is available (FIFO) or the queue is closed and
    /// empty (`None` — the worker should exit).
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(job) = inner.deque.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .takeable
                .wait(inner)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.lock().deque.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Closes the queue: pending jobs still drain, new pushes fail, and
    /// workers wake to observe the close.
    pub fn close(&self) {
        self.lock().closed = true;
        self.takeable.notify_all();
    }

    /// Drops every pending job without running it (the abrupt-kill
    /// path). Returns how many jobs were discarded.
    pub fn clear(&self) -> usize {
        let mut inner = self.lock();
        let dropped = inner.deque.len();
        inner.deque.clear();
        dropped
    }

    /// Folds one observed service latency into the EWMA (α = 1/8, the
    /// classic TCP RTT smoothing constant).
    pub fn record_latency(&self, latency: Duration) {
        let sample = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let prev = self.ewma_ns.load(Ordering::Relaxed);
        let next = if prev == 0 {
            sample
        } else {
            prev - prev / 8 + sample / 8
        };
        self.ewma_ns.store(next, Ordering::Relaxed);
    }

    /// Folds one observed admission-queue wait into its EWMA (α = 1/8).
    pub fn record_queue_wait(&self, wait: Duration) {
        let sample = u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX);
        let prev = self.wait_ewma_ns.load(Ordering::Relaxed);
        let next = if prev == 0 {
            sample
        } else {
            prev - prev / 8 + sample / 8
        };
        self.wait_ewma_ns.store(next, Ordering::Relaxed);
    }

    /// The smoothed admission-queue wait, nanoseconds (0 before any
    /// sample). Exposed through `/healthz` for operators.
    pub fn queue_wait_ewma_ns(&self) -> u64 {
        self.wait_ewma_ns.load(Ordering::Relaxed)
    }

    /// Honest `Retry-After` estimate when the queue is full: the time for
    /// `workers` to drain the current backlog at the observed service
    /// rate, rounded up to at least one second.
    pub fn retry_after_secs(&self, workers: usize) -> u64 {
        let ewma = self.ewma_ns.load(Ordering::Relaxed);
        if ewma == 0 {
            return 1;
        }
        let backlog = self.len() as u64 + 1;
        let workers = workers.max(1) as u64;
        let nanos = ewma.saturating_mul(backlog) / workers;
        (nanos / 1_000_000_000).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_and_capacity() {
        let q = JobQueue::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn close_drains_then_stops_workers() {
        let q = Arc::new(JobQueue::new(4));
        q.try_push(1).unwrap();
        q.close();
        assert!(matches!(q.try_push(2), Err(PushError::Closed(2))));
        assert_eq!(q.pop(), Some(1), "pending jobs still drain after close");
        assert_eq!(q.pop(), None, "then workers are released");
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(JobQueue::new(4));
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(7u32).unwrap();
        assert_eq!(worker.join().unwrap(), Some(7));
    }

    #[test]
    fn retry_after_scales_with_backlog_and_latency() {
        let q = JobQueue::new(8);
        assert_eq!(q.retry_after_secs(2), 1, "no data yet: minimum 1s");
        q.record_latency(Duration::from_secs(4));
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        // 5 jobs (4 queued + the rejected one) at ~4s each over 2 workers.
        let estimate = q.retry_after_secs(2);
        assert!((8..=12).contains(&estimate), "estimate {estimate}");
        // EWMA converges toward faster samples.
        for _ in 0..64 {
            q.record_latency(Duration::from_millis(10));
        }
        assert!(q.retry_after_secs(2) < estimate);
    }

    #[test]
    fn queue_wait_ewma_smooths_samples() {
        let q = JobQueue::<u32>::new(2);
        assert_eq!(q.queue_wait_ewma_ns(), 0, "no samples yet");
        q.record_queue_wait(Duration::from_millis(8));
        assert_eq!(q.queue_wait_ewma_ns(), 8_000_000, "first sample seeds");
        q.record_queue_wait(Duration::from_millis(0));
        let after = q.queue_wait_ewma_ns();
        assert!((6_000_000..8_000_000).contains(&after), "{after}");
    }
}
