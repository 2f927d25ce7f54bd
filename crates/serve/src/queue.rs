//! The one bounded queue of the serving stack: `Mutex<VecDeque>` plus two
//! condvars, shared by `ffdl-serve` (one MPMC queue, dynamic batches) and
//! `ffdl-stream` (one queue per sticky worker, `max_batch` 1); the WDRR
//! dispatcher of `ffdl-sched` keeps its own single lock but speaks the
//! same [`Popped`] / [`PushError`] and the same wake protocol.
//!
//! Admission control is reject-based: when the queue holds `capacity`
//! items, [`BoundedQueue::try_push`] fails with [`PushError::Full`]
//! instead of blocking the producer — the paper's target platforms are
//! latency-bound embedded devices, where an unbounded backlog only
//! converts overload into timeout storms. [`BoundedQueue::push_wait`] is
//! the blocking alternative for callers that must not lose the item.
//! Consumers pop *batches* into a buffer they own: the first item is
//! waited for up to an idle timeout, then the batch is topped up until it
//! reaches `max_batch` or the batching window closes.
//!
//! # Wake protocol
//!
//! Every condvar wait is counted in a mutex-protected waiter count, and
//! every notify is gated on it, so an uncontended push or pop never makes
//! a futex syscall for waiters that do not exist (ungated, the notifies
//! cost one syscall per operation — enough to flatten throughput scaling
//! from one worker to two). The count cannot race a park: it is raised
//! under the lock the wait releases.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long an idle worker of any pool waits in one pop before it gets
/// [`Popped::Idle`] back and runs its between-batch checks (model slot,
/// retirement, TTL eviction).
pub const IDLE_WAIT: Duration = Duration::from_millis(2);

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity (backpressure).
    Full,
    /// The queue has been closed.
    Closed,
}

/// What a pop produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped {
    /// The caller's buffer holds at least one item.
    Batch,
    /// Nothing arrived within the idle wait: run between-batch checks
    /// and pop again.
    Idle,
    /// Closed and fully drained: the worker should exit.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers parked on `not_empty`.
    empty_waiters: usize,
    /// Producers parked on `not_full`.
    full_waiters: usize,
}

/// A bounded multi-producer multi-consumer queue with batch pops.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// The waiting half of the wake protocol, for any mutex-protected state
/// `S`: parks on `condvar` until notified or `timeout` passes (`None` =
/// no timeout), counted in the waiter count `waiters` selects so the
/// notifying side — which reads that count under the same mutex and
/// skips its notify at zero — knows a thread is parked.
pub fn park<'a, S>(
    condvar: &Condvar,
    mut state: MutexGuard<'a, S>,
    waiters: fn(&mut S) -> &mut usize,
    timeout: Option<Duration>,
) -> MutexGuard<'a, S> {
    *waiters(&mut state) += 1;
    let mut state = match timeout {
        Some(timeout) => condvar.wait_timeout(state, timeout).expect("parked lock poisoned").0,
        None => condvar.wait(state).expect("parked lock poisoned"),
    };
    *waiters(&mut state) -= 1;
    state
}

impl<T> BoundedQueue<T> {
    /// An empty queue admitting at most `capacity` items.
    ///
    /// # Panics
    ///
    /// When `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                empty_waiters: 0,
                full_waiters: 0,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().expect("queue lock poisoned")
    }

    /// Enqueues under the caller's lock and wakes one parked consumer.
    fn enqueue(&self, mut inner: MutexGuard<'_, Inner<T>>, item: T) {
        inner.items.push_back(item);
        let wake = inner.empty_waiters > 0;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Non-blocking push with admission control: a full queue is a typed
    /// rejection, never a wait.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](Self::close).
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        self.enqueue(inner, item);
        Ok(())
    }

    /// Blocking push: waits for queue space until `deadline` (`None` =
    /// as long as it takes). With a deadline this is bounded-wait
    /// admission — overload converts into a measured delay up to the
    /// caller's own deadline instead of an immediate rejection; without
    /// one it is for control messages that must not be lost to a
    /// momentarily full queue and must stay in FIFO order behind the
    /// items already admitted.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when `deadline` passes with the queue still
    /// full, [`PushError::Closed`] once the queue is closed (parked
    /// producers are woken for it).
    pub fn push_wait(&self, item: T, deadline: Option<Instant>) -> Result<(), PushError> {
        let mut inner = self.lock();
        loop {
            if inner.closed {
                return Err(PushError::Closed);
            }
            if inner.items.len() < self.capacity {
                self.enqueue(inner, item);
                return Ok(());
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return Err(PushError::Full);
            }
            inner = park(&self.not_full, inner, |i| &mut i.full_waiters, left);
        }
    }

    /// Closes the queue: no further pushes are accepted, consumers drain
    /// the remaining items and then get [`Popped::Closed`], and parked
    /// producers wake to [`PushError::Closed`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current depth (diagnostics).
    pub(crate) fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Pops a dynamic batch into `batch` (cleared first): waits up to
    /// `idle` for a first item, then keeps gathering until the batch
    /// holds `max_batch` items, `window` has elapsed since the first
    /// item was seen, or the queue is closed (drain immediately on
    /// shutdown). Items come out in queue order, and
    /// [`Popped::Batch`] always means at least one.
    pub fn pop(
        &self,
        batch: &mut Vec<T>,
        max_batch: usize,
        window: Duration,
        idle: Duration,
    ) -> Popped {
        batch.clear();
        let mut inner = self.lock();
        let (mut idle_until, mut sealed_at) = (None, None);
        loop {
            let empty = inner.items.is_empty();
            if empty && inner.closed {
                return Popped::Closed;
            }
            if !empty && (inner.items.len() >= max_batch || inner.closed) {
                break;
            }
            let now = Instant::now();
            let until = if empty {
                // Also after another consumer took, during this one's
                // window, everything it had seen: back to waiting for a
                // first item.
                sealed_at = None;
                *idle_until.get_or_insert(now + idle)
            } else {
                *sealed_at.get_or_insert(now + window)
            };
            if now >= until {
                if empty {
                    return Popped::Idle;
                }
                break;
            }
            inner = park(&self.not_empty, inner, |i| &mut i.empty_waiters, Some(until - now));
        }
        let take = inner.items.len().min(max_batch);
        batch.extend(inner.items.drain(..take));
        // More work remains — wake another consumer so batches keep
        // flowing while this one runs inference; space freed — wake the
        // producers parked in `push_wait`.
        let wake_consumer = !inner.items.is_empty() && inner.empty_waiters > 0;
        let wake_producers = inner.full_waiters > 0;
        drop(inner);
        if wake_consumer {
            self.not_empty.notify_one();
        }
        if wake_producers {
            self.not_full.notify_all();
        }
        Popped::Batch
    }

    /// Parked-thread counts `(consumers, producers)` — test-only
    /// introspection for the waiter-gated notify protocol.
    #[cfg(test)]
    fn waiters(&self) -> (usize, usize) {
        let inner = self.lock();
        (inner.empty_waiters, inner.full_waiters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// A long idle wait for tests that expect items or a close, never
    /// an idle return.
    const PATIENT: Duration = Duration::from_secs(30);

    /// One pop that must not come back idle; an empty vec means closed
    /// and drained.
    fn pop_batch<T>(q: &BoundedQueue<T>, max_batch: usize, window: Duration) -> Vec<T> {
        let mut batch = Vec::new();
        match q.pop(&mut batch, max_batch, window, PATIENT) {
            Popped::Batch => assert!(!batch.is_empty(), "a batch holds at least one item"),
            Popped::Closed => assert!(batch.is_empty()),
            Popped::Idle => panic!("idle return inside a patient pop"),
        }
        batch
    }

    /// One pop the way `ffdl-stream` takes its steps: alone, in order.
    fn pop_one<T>(q: &BoundedQueue<T>, idle: Duration) -> (Popped, Option<T>) {
        let mut one = Vec::new();
        let popped = q.pop(&mut one, 1, Duration::ZERO, idle);
        assert!(one.len() <= 1);
        (popped, one.pop())
    }

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.try_push(9), Err(PushError::Full));
        assert_eq!(q.len(), 4);
        let batch = pop_batch(&q, 3, Duration::from_millis(1));
        assert_eq!(batch, vec![0, 1, 2]);
        let batch = pop_batch(&q, 3, Duration::from_millis(1));
        assert_eq!(batch, vec![3]);
    }

    #[test]
    fn fifo_bounded_and_typed_rejections() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.len(), 2);
        assert_eq!(pop_one(&q, Duration::from_millis(1)), (Popped::Batch, Some(1)));
        q.try_push(3).unwrap();
        assert_eq!(pop_one(&q, Duration::from_millis(1)), (Popped::Batch, Some(2)));
    }

    #[test]
    fn idle_then_drain_then_closed() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        let start = Instant::now();
        assert_eq!(pop_one(&q, Duration::from_millis(5)), (Popped::Idle, None));
        assert!(start.elapsed() >= Duration::from_millis(5));
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed));
        assert_eq!(pop_one(&q, Duration::from_millis(1)), (Popped::Batch, Some(7)));
        assert_eq!(pop_one(&q, Duration::from_millis(1)), (Popped::Closed, None));
    }

    #[test]
    fn close_rejects_pushes_and_drains() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed));
        assert_eq!(pop_batch(&q, 8, Duration::from_millis(1)), vec![1]);
        let mut batch = vec![99];
        assert_eq!(q.pop(&mut batch, 8, Duration::from_millis(1), PATIENT), Popped::Closed);
        assert!(batch.is_empty(), "a pop clears the caller's buffer first");
    }

    #[test]
    fn batching_window_fills_across_threads() {
        let q = Arc::new(BoundedQueue::new(64));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..8 {
                    q.try_push(i).unwrap();
                    thread::sleep(Duration::from_millis(1));
                }
            })
        };
        // A generous window collects everything the producer sends.
        let mut got = Vec::new();
        while got.len() < 8 {
            got.extend(pop_batch(&q, 8, Duration::from_millis(200)));
        }
        producer.join().unwrap();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn losing_the_window_race_is_not_a_shutdown_signal() {
        // Two consumers top up the same single item; the one whose
        // window closes first takes it. The other then holds nothing:
        // it must go back to waiting for a first item — not hand its
        // worker an empty batch, which reads as "closed and drained".
        let q = Arc::new(BoundedQueue::new(8));
        q.try_push(1).unwrap();
        let consumer = |window_ms| {
            let q = Arc::clone(&q);
            thread::spawn(move || pop_batch(&q, 4, Duration::from_millis(window_ms)))
        };
        let (winner, loser) = (consumer(10), consumer(200));
        assert_eq!(winner.join().unwrap(), vec![1]);
        thread::sleep(Duration::from_millis(250)); // the loser's window closes on an empty queue
        q.try_push(2).unwrap();
        assert_eq!(loser.join().unwrap(), vec![2]);
    }

    #[test]
    fn zero_wait_takes_what_is_there() {
        let q = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let batch = pop_batch(&q, 8, Duration::ZERO);
        assert_eq!(batch, vec![1, 2]);
    }

    #[test]
    fn push_deadline_waits_for_space_then_gives_up() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0).unwrap();
        // Full queue, deadline already passed: immediate Full.
        assert_eq!(q.push_wait(1, Some(Instant::now())), Err(PushError::Full));
        // A consumer frees space while the producer waits.
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(5));
                pop_batch(&q, 1, Duration::ZERO)
            })
        };
        q.push_wait(2, Some(Instant::now() + Duration::from_secs(5)))
            .unwrap();
        assert_eq!(consumer.join().unwrap(), vec![0]);
        assert_eq!(q.len(), 1);
        // Nobody frees space: the wait expires with Full.
        let started = Instant::now();
        assert_eq!(
            q.push_wait(3, Some(Instant::now() + Duration::from_millis(10))),
            Err(PushError::Full)
        );
        assert!(started.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn push_wait_unblocks_when_consumer_drains() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(1u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_wait(2, None))
        };
        // Once the producer is parked on the full queue, drain one item;
        // the waiting push must land behind it.
        while q.waiters().1 == 0 {
            thread::yield_now();
        }
        assert_eq!(pop_one(&q, Duration::from_millis(100)), (Popped::Batch, Some(1)));
        producer.join().unwrap().unwrap();
        assert_eq!(pop_one(&q, Duration::from_millis(100)), (Popped::Batch, Some(2)));
    }

    #[test]
    fn close_wakes_blocked_push() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(1u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_wait(2, None))
        };
        while q.waiters().1 == 0 {
            thread::yield_now();
        }
        q.close();
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed));
    }

    #[test]
    fn close_wakes_parked_push_deadline() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_wait(1, Some(Instant::now() + PATIENT)))
        };
        thread::sleep(Duration::from_millis(5));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed));
    }

    #[test]
    fn waiter_counts_are_balanced_and_notifies_still_wake() {
        // No parked threads: counters sit at zero before and after
        // uncontended operations (the gate that suppresses notifies).
        let q = Arc::new(BoundedQueue::new(2));
        assert_eq!(q.waiters(), (0, 0));
        q.try_push(1).unwrap();
        assert_eq!(q.waiters(), (0, 0));
        assert_eq!(pop_batch(&q, 4, Duration::ZERO), vec![1]);
        assert_eq!(q.waiters(), (0, 0));

        // A consumer that parks and times out idle leaves no count
        // behind.
        assert_eq!(pop_one(&q, Duration::from_millis(2)), (Popped::Idle, None));
        assert_eq!(q.waiters(), (0, 0));

        // A parked consumer is counted, then released by a gated push.
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || pop_batch(&q, 1, Duration::ZERO))
        };
        while q.waiters().0 == 0 {
            thread::yield_now();
        }
        q.try_push(7).unwrap();
        assert_eq!(consumer.join().unwrap(), vec![7]);
        assert_eq!(q.waiters(), (0, 0));

        // A parked producer is counted, then released by a gated pop.
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_wait(3, Some(Instant::now() + PATIENT)))
        };
        while q.waiters().1 == 0 {
            thread::yield_now();
        }
        assert_eq!(pop_batch(&q, 2, Duration::ZERO), vec![1, 2]);
        producer.join().unwrap().unwrap();
        assert_eq!(q.waiters(), (0, 0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _: BoundedQueue<u32> = BoundedQueue::new(0);
    }

    #[test]
    fn capacity_one_queue_alternates_full_and_empty() {
        // The degenerate-but-legal config: every push fills the queue,
        // every pop empties it, and admission control still works.
        let q = BoundedQueue::new(1);
        for i in 0..16 {
            q.try_push(i).unwrap();
            assert_eq!(q.try_push(99), Err(PushError::Full), "iteration {i}");
            assert_eq!(q.len(), 1);
            assert_eq!(pop_batch(&q, 8, Duration::ZERO), vec![i]);
            assert_eq!(q.len(), 0);
        }
        q.close();
        assert_eq!(q.try_push(0), Err(PushError::Closed));
        assert!(pop_batch(&q, 8, Duration::ZERO).is_empty());
    }

    #[test]
    fn close_wakes_blocked_consumers_and_rejects_racing_producers() {
        // Consumers parked in a pop must wake (with whatever was queued,
        // or Closed) when the queue closes; producers racing the close
        // must see Closed (never a hang, never a silent drop).
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || pop_batch(&q, 8, PATIENT))
            })
            .collect();
        let producers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || loop {
                    match q.try_push(7) {
                        Err(PushError::Closed) => return,
                        Ok(()) | Err(PushError::Full) => thread::yield_now(),
                    }
                })
            })
            .collect();
        // Let the threads reach their loops, then close.
        thread::sleep(Duration::from_millis(10));
        q.close();
        for p in producers {
            p.join().unwrap(); // terminates only by observing Closed
        }
        // Every consumer returns; whatever the producers enqueued before
        // the close is drained, then only Closed remains.
        for c in consumers {
            let _batch = c.join().unwrap();
        }
        assert!(pop_batch(&q, 8, Duration::ZERO).is_empty());
    }

    #[test]
    fn queue_full_accounting_is_exact_under_concurrent_producers() {
        // With no consumer, a capacity-C queue accepts exactly C pushes
        // no matter how many producers race: successes + rejections must
        // equal attempts, with successes == C.
        const CAPACITY: usize = 8;
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 50;
        let q = Arc::new(BoundedQueue::<usize>::new(CAPACITY));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let (mut ok, mut full) = (0usize, 0usize);
                    for i in 0..PER_PRODUCER {
                        match q.try_push(p * PER_PRODUCER + i) {
                            Ok(()) => ok += 1,
                            Err(PushError::Full) => full += 1,
                            Err(PushError::Closed) => unreachable!("never closed"),
                        }
                    }
                    (ok, full)
                })
            })
            .collect();
        let (mut ok, mut full) = (0, 0);
        for h in handles {
            let (o, f) = h.join().unwrap();
            ok += o;
            full += f;
        }
        assert_eq!(ok, CAPACITY, "exactly capacity pushes may succeed");
        assert_eq!(ok + full, PRODUCERS * PER_PRODUCER, "no attempt unaccounted");
        assert_eq!(q.len(), CAPACITY);
        // The accepted items are all distinct submissions.
        let drained = pop_batch(&q, CAPACITY * 2, Duration::ZERO);
        assert_eq!(drained.len(), CAPACITY);
        let unique: std::collections::HashSet<_> = drained.iter().collect();
        assert_eq!(unique.len(), CAPACITY);
    }
}
