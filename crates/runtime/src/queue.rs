//! A bounded multi-producer ingest queue with explicit overflow reporting.
//!
//! The serving layer (`lgo-serve`) builds its backpressure on *real*
//! capacity signals: a submission against a full queue is **rejected and
//! reported**, never silently queued into unbounded memory. This module is
//! the primitive behind that contract — a `Mutex<VecDeque>` bounded queue
//! in the same dependency-free style as the pool. Nothing in it blocks: a
//! producer that finds the queue full gets its item back at once.
//!
//! Depth accounting is first-class: [`BoundedQueue::depth`] is the live
//! occupancy and [`SubmitError::Full`] carries both the observed depth and
//! the capacity, so callers can grade their response to pressure (degrade,
//! then shed) instead of discovering overload only by allocation failure.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// Why a submission was not accepted. The rejected item is returned to the
/// caller in both cases — the queue never drops silently.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError<T> {
    /// The queue was at capacity; `depth` is the occupancy observed at the
    /// rejection (equal to `capacity` unless a consumer raced the check).
    Full {
        /// The rejected item, returned to the producer.
        item: T,
        /// Occupancy observed at rejection time.
        depth: usize,
        /// The queue's fixed capacity.
        capacity: usize,
    },
    /// The queue was closed; no further submissions will ever be accepted.
    Closed(T),
}

impl<T> std::fmt::Display for SubmitError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full { depth, capacity, .. } => {
                write!(f, "queue full: depth {depth} of capacity {capacity}")
            }
            SubmitError::Closed(_) => write!(f, "queue closed"),
        }
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer / multi-consumer FIFO queue.
///
/// Every operation takes `&self`, so threads share one queue by reference
/// (or through the `Arc` of its owner). The capacity is fixed at
/// construction — the queue's memory is bounded by `capacity` items for its
/// whole lifetime.
///
/// # Examples
///
/// ```
/// use lgo_runtime::{BoundedQueue, SubmitError};
///
/// let q: BoundedQueue<u32> = BoundedQueue::new(2);
/// q.try_submit(1).unwrap();
/// q.try_submit(2).unwrap();
/// // The third submission overflows: reported, not silently queued.
/// match q.try_submit(3) {
///     Err(SubmitError::Full { item, depth, capacity }) => {
///         assert_eq!((item, depth, capacity), (3, 2, 2));
///     }
///     other => panic!("expected Full, got {other:?}"),
/// }
/// assert_eq!(q.depth(), 2);
/// assert_eq!(q.pop(), Some(1));
/// ```
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — a zero-capacity queue can never accept
    /// a submission, which is a configuration bug, not a runtime state.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "BoundedQueue: capacity must be positive");
        Self {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            capacity,
        }
    }

    /// The fixed capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live occupancy (racy by nature under concurrent producers; exact
    /// when the caller is the only mutator).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue currently holds no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// Closes the queue: every subsequent submission is rejected with
    /// [`SubmitError::Closed`]. Items already queued can still be popped.
    pub fn close(&self) {
        self.lock().closed = true;
    }

    /// Non-blocking bounded submission: accepts the item if there is space,
    /// otherwise reports the overflow (or closure) and hands the item back.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the queue is at capacity,
    /// [`SubmitError::Closed`] after [`close`](Self::close).
    pub fn try_submit(&self, item: T) -> Result<(), SubmitError<T>> {
        let mut st = self.lock();
        if st.closed {
            return Err(SubmitError::Closed(item));
        }
        let depth = st.items.len();
        if depth >= self.capacity {
            lgo_trace::sched("runtime/queue_rejects", 1);
            return Err(SubmitError::Full { item, depth, capacity: self.capacity });
        }
        st.items.push_back(item);
        Ok(())
    }

    /// Pops the oldest item without blocking.
    #[must_use]
    pub fn pop(&self) -> Option<T> {
        self.lock().items.pop_front()
    }

    /// Moves up to `max` items into `out` (oldest first) without blocking;
    /// returns how many were moved. The micro-batching primitive: one lock
    /// round trip per drain instead of one per item.
    pub fn drain_into(&self, max: usize, out: &mut Vec<T>) -> usize {
        if max == 0 {
            return 0;
        }
        let mut st = self.lock();
        let take = max.min(st.items.len());
        out.extend(st.items.drain(..take));
        take
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_is_reported_not_silently_queued() {
        let q: BoundedQueue<usize> = BoundedQueue::new(3);
        for i in 0..3 {
            q.try_submit(i).unwrap();
        }
        // The defining contract of the bounded-submission API: the fourth
        // item is rejected with full accounting, and the queue's memory
        // footprint has not grown.
        match q.try_submit(99) {
            Err(SubmitError::Full { item, depth, capacity }) => {
                assert_eq!(item, 99);
                assert_eq!(depth, 3);
                assert_eq!(capacity, 3);
            }
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.depth(), 3);
        // Freeing one slot re-admits exactly one submission.
        assert_eq!(q.pop(), Some(0));
        q.try_submit(99).unwrap();
        assert!(q.try_submit(100).is_err());
    }

    #[test]
    fn fifo_order_and_depth_accounting() {
        let q: BoundedQueue<u8> = BoundedQueue::new(8);
        assert!(q.is_empty());
        for i in 0..5u8 {
            q.try_submit(i).unwrap();
            assert_eq!(q.depth(), i as usize + 1);
        }
        let popped: Vec<u8> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_into_micro_batches() {
        let q: BoundedQueue<usize> = BoundedQueue::new(16);
        for i in 0..10 {
            q.try_submit(i).unwrap();
        }
        let mut batch = Vec::new();
        assert_eq!(q.drain_into(4, &mut batch), 4);
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert_eq!(q.depth(), 6);
        assert_eq!(q.drain_into(100, &mut batch), 6);
        assert_eq!(batch.len(), 10);
        assert_eq!(q.drain_into(4, &mut batch), 0);
        assert_eq!(q.drain_into(0, &mut batch), 0);
    }

    #[test]
    fn close_rejects_submissions_but_drains() {
        let q: BoundedQueue<u8> = BoundedQueue::new(4);
        q.try_submit(1).unwrap();
        q.close();
        assert_eq!(q.try_submit(2), Err(SubmitError::Closed(2)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    #[test]
    fn rejected_item_is_recoverable() {
        let q: BoundedQueue<String> = BoundedQueue::new(1);
        q.try_submit("a".into()).unwrap();
        let err = q.try_submit("b".into()).unwrap_err();
        assert_eq!(err.to_string(), "queue full: depth 1 of capacity 1");
        assert!(matches!(err, SubmitError::Full { item, .. } if item == "b"));
    }
}
