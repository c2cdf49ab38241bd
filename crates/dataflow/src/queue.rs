//! Bounded MPMC queues with producer-tracked close semantics.
//!
//! A queue closes automatically when its last registered producer
//! releases, which propagates end-of-stream to every consumer. One lock
//! guards the items, so delivery is globally FIFO and exactly-once under
//! any mix of producers and consumers. Every chunk stream of a plan runs
//! on one: `persona::manifest_server::ManifestServer` wraps a
//! `QueueHandle` of chunk tasks, both for a dataset at rest and for the
//! live edge between two fused stages.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Snapshot of queue counters (for overhead/occupancy analysis).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueStats {
    /// Total items ever enqueued.
    pub pushed: u64,
    /// Total items ever dequeued.
    pub popped: u64,
    /// High-water mark of occupancy.
    pub high_water: usize,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    producers: usize,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    name: String,
    pushed: AtomicU64,
    popped: AtomicU64,
    high_water: AtomicUsize,
}

/// A cloneable handle to a bounded queue.
pub struct QueueHandle<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for QueueHandle<T> {
    fn clone(&self) -> Self {
        QueueHandle { shared: self.shared.clone() }
    }
}

/// A producer registration; dropping it releases one producer, and the
/// queue closes when all producers are released.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock();
        debug_assert!(inner.producers > 0);
        inner.producers -= 1;
        if inner.producers == 0 {
            inner.closed = true;
            drop(inner);
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
        }
    }
}

/// Error returned when pushing into a closed (or cancelled) queue; the
/// rejected value is handed back.
#[derive(Debug)]
pub struct PushError<T>(pub T);

impl<T> QueueHandle<T> {
    /// Creates a queue with the given capacity (min 1).
    pub fn new(name: &str, capacity: usize) -> Self {
        QueueHandle {
            shared: Arc::new(Shared {
                inner: Mutex::new(Inner {
                    items: VecDeque::with_capacity(capacity.max(1)),
                    closed: false,
                    producers: 0,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                capacity: capacity.max(1),
                name: name.to_string(),
                pushed: AtomicU64::new(0),
                popped: AtomicU64::new(0),
                high_water: AtomicUsize::new(0),
            }),
        }
    }

    /// Registers a producer. The queue will not close until every
    /// producer handle has been dropped.
    pub fn producer(&self) -> Producer<T> {
        let mut inner = self.shared.inner.lock();
        inner.producers += 1;
        Producer { shared: self.shared.clone() }
    }

    /// Blocking push. Returns the value back if the queue is closed.
    pub fn push(&self, value: T) -> std::result::Result<(), PushError<T>> {
        let mut inner = self.shared.inner.lock();
        loop {
            if inner.closed {
                return Err(PushError(value));
            }
            if inner.items.len() < self.shared.capacity {
                inner.items.push_back(value);
                let occupancy = inner.items.len();
                drop(inner);
                self.shared.pushed.fetch_add(1, Ordering::Relaxed);
                self.shared.high_water.fetch_max(occupancy, Ordering::Relaxed);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            self.shared.not_full.wait(&mut inner);
        }
    }

    /// Blocking pop; `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.shared.inner.lock();
        loop {
            if let Some(v) = inner.items.pop_front() {
                drop(inner);
                self.shared.popped.fetch_add(1, Ordering::Relaxed);
                self.shared.not_full.notify_one();
                return Some(v);
            }
            if inner.closed {
                return None;
            }
            self.shared.not_empty.wait(&mut inner);
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.shared.inner.lock();
        let v = inner.items.pop_front();
        if v.is_some() {
            drop(inner);
            self.shared.popped.fetch_add(1, Ordering::Relaxed);
            self.shared.not_full.notify_one();
        }
        v
    }

    /// Force-closes the queue (used for cancellation). Blocked pushers
    /// fail; poppers drain the remaining items then see `None`.
    pub fn close(&self) {
        let mut inner = self.shared.inner.lock();
        inner.closed = true;
        drop(inner);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Whether the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.shared.inner.lock().closed
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.shared.inner.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// The queue's name (for reports).
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushed: self.shared.pushed.load(Ordering::Relaxed),
            popped: self.shared.popped.load(Ordering::Relaxed),
            high_water: self.shared.high_water.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_single_thread() {
        let q = QueueHandle::new("t", 8);
        let p = q.producer();
        for i in 0..5 {
            q.push(i).unwrap();
        }
        drop(p);
        let got: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn close_on_last_producer() {
        let q: QueueHandle<u8> = QueueHandle::new("t", 2);
        let p1 = q.producer();
        let p2 = q.producer();
        drop(p1);
        assert!(!q.is_closed());
        drop(p2);
        assert!(q.is_closed());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_fails_after_close() {
        let q = QueueHandle::new("t", 2);
        q.close();
        assert!(q.push(1u8).is_err());
    }

    #[test]
    fn capacity_blocks_and_backpressure_releases() {
        let q = QueueHandle::new("t", 2);
        let _p = q.producer();
        q.push(1).unwrap();
        q.push(2).unwrap();
        let q2 = q.clone();
        let h = thread::spawn(move || q2.push(3).map_err(|_| ()).unwrap());
        thread::sleep(Duration::from_millis(50));
        assert_eq!(q.len(), 2); // Third push is blocked.
        assert_eq!(q.pop(), Some(1));
        h.join().unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn mpmc_all_items_delivered_exactly_once() {
        let q = QueueHandle::new("t", 16);
        let producers: Vec<_> = (0..4).map(|_| q.producer()).collect();
        let mut handles = Vec::new();
        for (t, p) in producers.into_iter().enumerate() {
            let q2 = q.clone();
            handles.push(thread::spawn(move || {
                for i in 0..250u32 {
                    q2.push(t as u32 * 1000 + i).unwrap();
                }
                drop(p);
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q2 = q.clone();
            consumers.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q2.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all: Vec<u32> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort();
        let mut expected: Vec<u32> =
            (0..4).flat_map(|t| (0..250).map(move |i| t * 1000 + i)).collect();
        expected.sort();
        assert_eq!(all, expected);
        let stats = q.stats();
        assert_eq!(stats.pushed, 1000);
        assert_eq!(stats.popped, 1000);
        assert!(stats.high_water <= 16);
    }

    #[test]
    fn close_unblocks_pusher() {
        let q = QueueHandle::new("t", 1);
        let _p = q.producer();
        q.push(1).unwrap();
        let q2 = q.clone();
        let h = thread::spawn(move || q2.push(2));
        thread::sleep(Duration::from_millis(30));
        q.close();
        assert!(h.join().unwrap().is_err());
    }

    #[test]
    fn try_pop_nonblocking() {
        let q: QueueHandle<u8> = QueueHandle::new("t", 4);
        let _p = q.producer();
        assert_eq!(q.try_pop(), None);
        q.push(9).unwrap();
        assert_eq!(q.try_pop(), Some(9));
    }
}
