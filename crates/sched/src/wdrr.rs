//! Weighted-deficit-round-robin dispatch over per-tenant bounded queues.
//!
//! One mutex guards all tenant queues plus the scheduling state; workers
//! block on a condvar when every queue is empty. Dispatch picks the
//! batch's tenant in two steps:
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
#[allow(unused_imports)] // the inline tests build requests through `super::*`
use ffdl_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A request parked in a tenant queue: the worker core's request type.
pub(crate) use ffdl_serve::supervise::Request as QueuedRequest;

/// Why a push was refused.
pub(crate) enum PushRefused {
    /// The tenant's bounded queue is at its configured depth.
    Full,
    /// The dispatcher is shut down.
    Closed,
}

/// What a worker's pop produced.
pub(crate) enum Popped {
    /// A dispatch for one tenant (index into the spec slice): the live
    /// batch to predict, plus any requests found already past their
    /// deadline at the front of the queue — drained **without charging
    /// the tenant's deficit** (an expired request consumed no service)
    /// and returned so the worker records them as typed failures.
    Batch(usize, Vec<QueuedRequest>, Vec<QueuedRequest>),
    /// Nothing arrived within the wait — the worker should re-check
    /// retirement/shutdown and pop again.
    Idle,
    /// Closed and fully drained: the worker should exit.
    Closed,
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
            }),
            available: Condvar::new(),
            quantum: quantum.max(1),
        }
    }

    /// Enqueues onto the tenant's bounded queue.
    pub(crate) fn push(
        &self,
        tenant: usize,
        request: QueuedRequest,
    ) -> Result<(), PushRefused> {
        let mut state = self.state.lock().expect("dispatcher lock poisoned");
        if state.closed {
            return Err(PushRefused::Closed);
        }
        let q = &mut state.tenants[tenant];
        if q.queue.len() >= q.depth {
            return Err(PushRefused::Full);
        }
        q.queue.push_back(request);
        state.total += 1;
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Dispatches up to `max_batch` requests from one tenant, waiting up
    /// to `wait` for work to arrive.
    pub(crate) fn pop(&self, max_batch: usize, wait: Duration) -> Popped {
        let mut state = self.state.lock().expect("dispatcher lock poisoned");
        let deadline = Instant::now() + wait;
        while state.total == 0 {
            if state.closed {
                return Popped::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Popped::Idle;
            }
            let (next, timeout) = self
                .available
                .wait_timeout(state, deadline - now)
                .expect("dispatcher lock poisoned");
            state = next;
            if timeout.timed_out() && state.total == 0 {
                return if state.closed { Popped::Closed } else { Popped::Idle };
            }
        }
        // Priority preemption: the first class with backlog dispatches.
        let now = Instant::now();
        for class in 0..state.classes.len() {
            let members = state.classes[class].clone();
            if members.is_empty() {
                continue;
            }
            let n = members.len();
            let cursor = state.cursors[class];
            for step in 0..n {
                let pos = (cursor + step) % n;
                let idx = members[pos];
                let quantum = self.quantum * state.tenants[idx].weight;
                let tq = &mut state.tenants[idx];
                if tq.queue.is_empty() {
                    // No backlog, no banking: an idle tenant forfeits
                    // any leftover deficit.
                    tq.deficit = 0;
                    continue;
                }
                // Dead-on-arrival drain: requests already past their
                // deadline at the front of the queue are removed
                // *before* the DRR turn is charged — they will never
                // be predicted, so they must not consume the tenant's
                // weighted share.
                let mut expired = Vec::new();
                while tq
                    .queue
                    .front()
                    .is_some_and(|r| r.deadline.is_some_and(|d| now >= d))
                {
                    expired.push(tq.queue.pop_front().expect("front checked"));
                }
                state.total -= expired.len();
                let tq = &mut state.tenants[idx];
                if tq.queue.is_empty() {
                    // The whole backlog was expired: forfeit the
                    // deficit and hand the failures back without
                    // starting a turn.
                    tq.deficit = 0;
                    state.cursors[class] = (pos + 1) % n;
                    return Popped::Batch(idx, Vec::new(), expired);
                }
                if tq.deficit == 0 {
                    tq.deficit = quantum; // a fresh turn starts
                }
                let take = (tq.deficit.min(max_batch as u64) as usize).min(tq.queue.len());
                let batch: Vec<QueuedRequest> = tq.queue.drain(..take).collect();
                tq.deficit -= take as u64;
                let emptied = tq.queue.is_empty();
                if emptied {
                    tq.deficit = 0;
                }
                if tq.deficit == 0 {
                    // Turn over: the cursor moves past this tenant.
                    state.cursors[class] = (pos + 1) % n;
                } else {
                    // Deficit remains and backlog remains: the tenant
                    // keeps the turn, so consecutive pops serve it until
                    // its weighted share is spent.
                    state.cursors[class] = pos;
                }
                state.total -= take;
                return Popped::Batch(idx, batch, expired);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::PriorityClass;

    fn spec(name: &str, weight: u64, class: PriorityClass) -> TenantSpec {
        let mut s = TenantSpec::new(name, "m");
        s.weight = weight;
        s.class = class;
        s
    }

    fn req(id: u64) -> QueuedRequest {
        QueuedRequest {
            id,
            features: Tensor::zeros(&[1]),
            enqueued: Instant::now(),
            deadline: None,
        }
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
        while d.len() > 0 {
            match d.pop(max_batch, Duration::from_millis(10)) {
                Popped::Batch(t, batch, expired) => {
                    assert!(expired.is_empty(), "deadline-free requests expired");
                    order.extend(std::iter::repeat_n(t, batch.len()));
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
        assert!(matches!(d.push(0, req(2)), Err(PushRefused::Full)));
        assert_eq!(d.tenant_len(0), 2);
        d.close();
        assert!(matches!(d.push(0, req(3)), Err(PushRefused::Closed)));
        // Drains, then reports Closed.
        assert!(matches!(d.pop(8, Duration::ZERO), Popped::Batch(0, _, _)));
        assert!(matches!(d.pop(8, Duration::ZERO), Popped::Closed));
    }

    #[test]
    fn idle_pop_times_out() {
        let d = Dispatcher::new(&[spec("a", 1, PriorityClass::Normal)], 4);
        let started = Instant::now();
        assert!(matches!(d.pop(8, Duration::from_millis(5)), Popped::Idle));
        assert!(started.elapsed() >= Duration::from_millis(5));
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
        let (live0, dead0) = match d.pop(8, Duration::ZERO) {
            Popped::Batch(0, live, dead) => (live, dead),
            _ => panic!("expected tenant a batch"),
        };
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
        assert!(matches!(d.pop(8, Duration::ZERO), Popped::Batch(0, _, _)));
        assert_eq!(d.head_sojourn(0), None);
    }
}
