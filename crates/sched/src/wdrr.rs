//! Weighted-deficit-round-robin dispatch over per-tenant bounded queues.
//!
//! One mutex guards all tenant queues plus the scheduling state; workers
//! [`park`] on a condvar when every queue is empty — the wake protocol of
//! [`ffdl_serve::queue`]: a parked-worker count inside the mutex gates
//! every `notify_one` — and speak its [`Popped`] / [`PushError`].
//! Dispatch picks the batch's tenant in two steps:
//!
//! 1. **Priority preemption** — classes are scanned in strict order
//!    (high → normal → low); the first class with any backlog wins, so
//!    a backlogged high-priority tenant always dispatches before any
//!    normal one.
//! 2. **Deficit round robin within the class** — each tenant holds a
//!    deficit counter. When its turn starts the deficit is charged to
//!    `weight × quantum` requests; each dispatched batch spends deficit,
//!    and the turn (round-robin cursor) only advances when the deficit
//!    is exhausted or the queue empties (emptying also forfeits the
//!    remaining deficit, the classic DRR no-banking rule). Under
//!    sustained backlog this serves same-class tenants in exact
//!    proportion to their weights, independent of arrival order.

use crate::tenant::TenantSpec;
use ffdl_serve::queue::{park, Popped, PushError};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A request parked in a tenant queue: the worker core's request type.
pub(crate) use ffdl_serve::supervise::Request as QueuedRequest;

/// What one [`Dispatcher::pop`] dispatched, in buffers the worker owns
/// and reuses.
#[derive(Default)]
pub(crate) struct Dispatch {
    /// The tenant (index into the spec slice) both buffers belong to.
    pub(crate) tenant: usize,
    /// The live batch to predict.
    pub(crate) batch: Vec<QueuedRequest>,
    /// Requests found already past their deadline at the front of the
    /// queue — drained **without charging the tenant's deficit** (an
    /// expired request consumed no service) and handed back so the
    /// worker records them as typed failures.
    pub(crate) expired: Vec<QueuedRequest>,
}

struct TenantQueue {
    queue: VecDeque<QueuedRequest>,
    depth: usize,
    weight: u64,
    deficit: u64,
}

struct State {
    tenants: Vec<TenantQueue>,
    /// Tenant indices per class rank, scan order = class order.
    classes: Vec<Vec<usize>>,
    /// Round-robin cursor per class: position (within `classes[c]`) of
    /// the tenant currently holding the turn.
    cursors: Vec<usize>,
    total: usize,
    closed: bool,
    /// Workers parked on `available`; `push` notifies only when non-zero.
    parked: usize,
}

pub(crate) struct Dispatcher {
    state: Mutex<State>,
    available: Condvar,
    /// Deficit charged per turn is `weight × quantum` requests.
    quantum: u64,
}

impl Dispatcher {
    pub(crate) fn new(specs: &[TenantSpec], quantum: u64) -> Self {
        let mut classes: Vec<Vec<usize>> = vec![Vec::new(); 3];
        for (i, spec) in specs.iter().enumerate() {
            classes[spec.class.rank()].push(i);
        }
        let tenants = specs
            .iter()
            .map(|s| TenantQueue {
                queue: VecDeque::new(),
                depth: s.queue_depth,
                weight: s.weight,
                deficit: 0,
            })
            .collect();
        Self {
            state: Mutex::new(State {
                tenants,
                classes,
                cursors: vec![0; 3],
                total: 0,
                closed: false,
                parked: 0,
            }),
            available: Condvar::new(),
            quantum: quantum.max(1),
        }
    }

    /// Enqueues onto the tenant's bounded queue.
    pub(crate) fn push(&self, tenant: usize, request: QueuedRequest) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("dispatcher lock poisoned");
        if state.closed {
            return Err(PushError::Closed);
        }
        let q = &mut state.tenants[tenant];
        if q.queue.len() >= q.depth {
            return Err(PushError::Full);
        }
        q.queue.push_back(request);
        state.total += 1;
        let wake = state.parked > 0;
        drop(state);
        if wake {
            self.available.notify_one();
        }
        Ok(())
    }

    /// Dispatches up to `max_batch` requests of one tenant into `out`
    /// (cleared first), waiting up to `wait` for work to arrive.
    pub(crate) fn pop(&self, out: &mut Dispatch, max_batch: usize, wait: Duration) -> Popped {
        out.batch.clear();
        out.expired.clear();
        let mut guard = self.state.lock().expect("dispatcher lock poisoned");
        let mut idle_until = None;
        while guard.total == 0 {
            if guard.closed {
                return Popped::Closed;
            }
            let now = Instant::now();
            let until = *idle_until.get_or_insert(now + wait);
            if now >= until {
                return Popped::Idle;
            }
            guard = park(&self.available, guard, |s| &mut s.parked, Some(until - now));
        }
        let state = &mut *guard;
        // Priority preemption: the first class with backlog dispatches.
        let now = Instant::now();
        for (members, cursor) in state.classes.iter().zip(&mut state.cursors) {
            let (n, first) = (members.len(), *cursor);
            for pos in (0..n).map(|step| (first + step) % n) {
                let idx = members[pos];
                let tq = &mut state.tenants[idx];
                if tq.queue.is_empty() {
                    // No backlog, no banking: an idle tenant forfeits
                    // any leftover deficit.
                    tq.deficit = 0;
                    continue;
                }
                out.tenant = idx;
                // Dead-on-arrival drain: requests already past their
                // deadline at the front of the queue are removed
                // *before* the DRR turn is charged — they will never
                // be predicted, so they must not consume the tenant's
                // weighted share.
                while tq.queue.front().is_some_and(|r| r.expired(now)) {
                    out.expired.push(tq.queue.pop_front().expect("front checked"));
                }
                state.total -= out.expired.len();
                if tq.queue.is_empty() {
                    // The whole backlog was expired: forfeit the
                    // deficit and hand the failures back without
                    // starting a turn.
                    tq.deficit = 0;
                    *cursor = (pos + 1) % n;
                    return Popped::Batch;
                }
                if tq.deficit == 0 {
                    tq.deficit = self.quantum * tq.weight; // a fresh turn starts
                }
                let take = (tq.deficit.min(max_batch as u64) as usize).min(tq.queue.len());
                out.batch.extend(tq.queue.drain(..take));
                tq.deficit -= take as u64;
                if tq.queue.is_empty() {
                    tq.deficit = 0;
                }
                // Deficit spent (or queue emptied): the turn is over and
                // the cursor moves past this tenant. Otherwise deficit
                // and backlog remain: the tenant keeps the turn, so
                // consecutive pops serve it until its weighted share is
                // spent.
                *cursor = if tq.deficit == 0 { (pos + 1) % n } else { pos };
                state.total -= take;
                return Popped::Batch;
            }
        }
        unreachable!("total > 0 but no tenant had backlog");
    }

    /// Total requests currently queued across all tenants.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().expect("dispatcher lock poisoned").total
    }

    /// Requests currently queued for one tenant.
    pub(crate) fn tenant_len(&self, tenant: usize) -> usize {
        self.state.lock().expect("dispatcher lock poisoned").tenants[tenant]
            .queue
            .len()
    }

    /// How long the request at the head of the tenant's queue has been
    /// waiting, or `None` when the queue is empty. This is the CoDel
    /// sojourn signal: a persistently large head sojourn means the
    /// queue is draining slower than it fills.
    pub(crate) fn head_sojourn(&self, tenant: usize) -> Option<Duration> {
        self.state.lock().expect("dispatcher lock poisoned").tenants[tenant]
            .queue
            .front()
            .map(|r| r.enqueued.elapsed())
    }

    /// Closes the dispatcher: pushes fail, pops drain and then report
    /// [`Popped::Closed`].
    pub(crate) fn close(&self) {
        self.state.lock().expect("dispatcher lock poisoned").closed = true;
        self.available.notify_all();
    }

    /// Workers currently parked in [`pop`](Self::pop) — test-only
    /// introspection for the waiter-gated notify.
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.state.lock().expect("dispatcher lock poisoned").parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::PriorityClass;
    use ffdl_tensor::Tensor;

    fn spec(name: &str, weight: u64, class: PriorityClass) -> TenantSpec {
        let mut s = TenantSpec::new(name, "m");
        s.weight = weight;
        s.class = class;
        s
    }

    fn req(id: u64) -> QueuedRequest {
        QueuedRequest::new(id, Tensor::zeros(&[1]), None)
    }

    fn fill(d: &Dispatcher, tenant: usize, n: u64) {
        for i in 0..n {
            assert!(d.push(tenant, req(tenant as u64 * 1000 + i)).is_ok());
        }
    }

    /// Drains everything in dispatch order, returning the tenant index
    /// each dispatched request belonged to.
    fn drain_order(d: &Dispatcher, max_batch: usize) -> Vec<usize> {
        let mut order = Vec::new();
        let mut out = Dispatch::default();
        while d.len() > 0 {
            match d.pop(&mut out, max_batch, Duration::from_millis(10)) {
                Popped::Batch => {
                    assert!(out.expired.is_empty(), "deadline-free requests expired");
                    order.extend(std::iter::repeat_n(out.tenant, out.batch.len()));
                }
                _ => break,
            }
        }
        order
    }

    #[test]
    fn weights_divide_backlogged_capacity_exactly() {
        // Weights 3:1, quantum 4, both backlogged: every 16 dispatched
        // requests split 12:4.
        let d = Dispatcher::new(
            &[
                spec("a", 3, PriorityClass::Normal),
                spec("b", 1, PriorityClass::Normal),
            ],
            4,
        );
        fill(&d, 0, 24);
        fill(&d, 1, 8);
        let order = drain_order(&d, 4);
        // First full round: a's turn spends 12 (3×4) before b's 4.
        assert_eq!(&order[..16], &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1]);
        let a_total = order.iter().filter(|&&t| t == 0).count();
        let b_total = order.iter().filter(|&&t| t == 1).count();
        assert_eq!((a_total, b_total), (24, 8));
    }

    #[test]
    fn high_class_preempts_normal_backlog() {
        let d = Dispatcher::new(
            &[
                spec("bulk", 8, PriorityClass::Normal),
                spec("prio", 1, PriorityClass::High),
            ],
            4,
        );
        fill(&d, 0, 8);
        fill(&d, 1, 8);
        let order = drain_order(&d, 4);
        // All of prio's backlog dispatches before any bulk request,
        // despite bulk's larger weight (weights only matter in-class).
        assert_eq!(&order[..8], &[1; 8]);
        assert_eq!(&order[8..], &[0; 8]);
    }

    #[test]
    fn emptied_queue_forfeits_deficit() {
        // a (weight 4) has only 2 queued: it must not bank the unused
        // deficit for later rounds.
        let d = Dispatcher::new(
            &[
                spec("a", 4, PriorityClass::Normal),
                spec("b", 1, PriorityClass::Normal),
            ],
            4,
        );
        fill(&d, 0, 2);
        fill(&d, 1, 4);
        let order = drain_order(&d, 8);
        assert_eq!(order, vec![0, 0, 1, 1, 1, 1]);
        // Refill both: a gets a fresh 16-deficit turn, not 16 + banked 14.
        fill(&d, 0, 20);
        fill(&d, 1, 4);
        let order = drain_order(&d, 8);
        let first_b = order.iter().position(|&t| t == 1);
        assert_eq!(first_b, Some(16), "a's second turn must be exactly 16");
    }

    #[test]
    fn push_respects_depth_and_close() {
        let mut s = spec("a", 1, PriorityClass::Normal);
        s.queue_depth = 2;
        let d = Dispatcher::new(&[s], 4);
        assert!(d.push(0, req(0)).is_ok());
        assert!(d.push(0, req(1)).is_ok());
        assert_eq!(d.push(0, req(2)), Err(PushError::Full));
        assert_eq!(d.tenant_len(0), 2);
        d.close();
        assert_eq!(d.push(0, req(3)), Err(PushError::Closed));
        // Drains, then reports Closed.
        let mut out = Dispatch::default();
        assert_eq!(d.pop(&mut out, 8, Duration::ZERO), Popped::Batch);
        assert_eq!((out.tenant, out.batch.len()), (0, 2));
        assert_eq!(d.pop(&mut out, 8, Duration::ZERO), Popped::Closed);
        assert!(out.batch.is_empty(), "a pop clears the worker's buffers first");
    }

    #[test]
    fn idle_pop_times_out() {
        let d = Dispatcher::new(&[spec("a", 1, PriorityClass::Normal)], 4);
        let started = Instant::now();
        let mut out = Dispatch::default();
        assert_eq!(d.pop(&mut out, 8, Duration::from_millis(5)), Popped::Idle);
        assert!(started.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn parked_count_is_balanced_and_a_gated_push_still_wakes() {
        let d = std::sync::Arc::new(Dispatcher::new(&[spec("a", 1, PriorityClass::Normal)], 4));
        // A pop that parks and times out leaves no count behind, so the
        // next push skips its notify.
        let mut out = Dispatch::default();
        assert_eq!(d.pop(&mut out, 8, Duration::from_millis(2)), Popped::Idle);
        assert_eq!(d.parked(), 0);
        // A parked worker is counted, and the push it gates wakes it.
        let worker = {
            let d = std::sync::Arc::clone(&d);
            std::thread::spawn(move || {
                let mut out = Dispatch::default();
                let popped = d.pop(&mut out, 8, Duration::from_secs(30));
                (popped, out.tenant, out.batch.len())
            })
        };
        while d.parked() == 0 {
            std::thread::yield_now();
        }
        assert!(d.push(0, req(0)).is_ok());
        assert_eq!(worker.join().unwrap(), (Popped::Batch, 0, 1));
        assert_eq!(d.parked(), 0);
    }

    #[test]
    fn expired_requests_never_charge_the_deficit() {
        // Tenant a's queue front holds 4 already-expired requests ahead
        // of 16 live ones; b holds 4 live. The expired batch must come
        // back in the `expired` slot without starting a's turn, and a's
        // subsequent turn must still be a full 16 (weight 4 × quantum
        // 4) — dead requests consumed none of the weighted share.
        let d = Dispatcher::new(
            &[
                spec("a", 4, PriorityClass::Normal),
                spec("b", 1, PriorityClass::Normal),
            ],
            4,
        );
        let past = Instant::now() - Duration::from_millis(1);
        for i in 0..4 {
            let mut r = req(i);
            r.deadline = Some(past);
            assert!(d.push(0, r).is_ok());
        }
        fill(&d, 0, 16);
        fill(&d, 1, 4);
        // First pop surfaces the dead front plus the head of the live
        // backlog in one dispatch; none of the expired charge deficit.
        let mut out = Dispatch::default();
        assert_eq!(d.pop(&mut out, 8, Duration::ZERO), Popped::Batch);
        assert_eq!(out.tenant, 0, "expected tenant a batch");
        let (live0, dead0) = (out.batch, out.expired);
        assert_eq!(dead0.len(), 4, "expired requests not drained");
        assert!(dead0.iter().all(|r| r.id < 4));
        assert_eq!(live0.len(), 8);
        let order = drain_order(&d, 8);
        // a's turn continues for the remaining 8 of its 16-deficit turn
        // before b dispatches.
        assert_eq!(order, vec![0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn head_sojourn_tracks_front_request_age() {
        let d = Dispatcher::new(&[spec("a", 1, PriorityClass::Normal)], 4);
        assert_eq!(d.head_sojourn(0), None);
        assert!(d.push(0, req(0)).is_ok());
        std::thread::sleep(Duration::from_millis(2));
        let sojourn = d.head_sojourn(0).expect("queued request has a sojourn");
        assert!(sojourn >= Duration::from_millis(2), "sojourn {sojourn:?}");
        let mut out = Dispatch::default();
        assert_eq!(d.pop(&mut out, 8, Duration::ZERO), Popped::Batch);
        assert_eq!(out.tenant, 0);
        assert_eq!(d.head_sojourn(0), None);
    }
}
