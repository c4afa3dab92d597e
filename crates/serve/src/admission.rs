//! Admission control and fair-share queuing for the serve daemon.
//!
//! Two independent limits keep the daemon stable under heavy traffic:
//!
//! * **Per-tenant token budgets** — a leaky token bucket per tenant,
//!   charged with the *measured* token usage of each completed request
//!   (`catdb_core::measured_cost`, so cache hits bill zero) and drained
//!   at a configurable refill rate. A tenant whose debt exceeds its
//!   capacity is shed with a retry-after derived from the refill rate —
//!   other tenants are unaffected.
//! * **Bounded in-flight requests** — at most `max_inflight` requests
//!   execute at once. Excess requests wait in a *bounded* fair-share
//!   queue: when a slot frees, the waiting tenant with the least
//!   cumulative charged usage goes first (FIFO within a tenant, arrival
//!   order as the tie-break). Once the queue is full, further arrivals
//!   are shed immediately with a retry-after proportional to the queue
//!   depth — the daemon never queues unboundedly.
//!
//! Time is injected through [`Clock`], so tests drive budgets with a
//! [`ManualClock`] (the `SimClock` style of the resilience layer) and
//! every decision replays deterministically.

use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Seconds-since-start time source for budget refills.
pub trait Clock: Send + Sync {
    fn now_seconds(&self) -> f64;
}

/// Real monotonic time.
pub struct WallClock(Instant);

impl Default for WallClock {
    fn default() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Deterministic manually advanced time (tests).
#[derive(Default)]
pub struct ManualClock {
    seconds: Mutex<f64>,
}

impl ManualClock {
    pub fn advance(&self, seconds: f64) {
        *self.seconds.lock() += seconds.max(0.0);
    }
}

impl Clock for ManualClock {
    fn now_seconds(&self) -> f64 {
        *self.seconds.lock()
    }
}

/// Per-tenant token budget: a bucket of `capacity_tokens` that drains
/// (recovers) at `refill_tokens_per_second`.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetPolicy {
    pub capacity_tokens: f64,
    pub refill_tokens_per_second: f64,
}

/// Admission knobs.
#[derive(Debug, Clone)]
pub struct AdmissionOptions {
    /// Requests executing simultaneously.
    pub max_inflight: usize,
    /// Requests allowed to wait for a slot before arrivals are shed.
    pub max_queued: usize,
    /// Token budget applied to every tenant (`None` = unlimited).
    pub budget: Option<BudgetPolicy>,
    /// Retry-after floor; capacity sheds scale it by queue pressure.
    pub base_retry_after_seconds: f64,
}

impl Default for AdmissionOptions {
    fn default() -> Self {
        AdmissionOptions {
            max_inflight: 32,
            max_queued: 64,
            budget: None,
            base_retry_after_seconds: 1.0,
        }
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// In-flight and queue limits are both exhausted.
    OverCapacity,
    /// The tenant's token debt exceeds its budget capacity.
    OverBudget,
}

impl ShedReason {
    pub fn code(self) -> &'static str {
        match self {
            ShedReason::OverCapacity => "over_capacity",
            ShedReason::OverBudget => "over_budget",
        }
    }
}

/// A structured rejection.
#[derive(Debug, Clone, PartialEq)]
pub struct Shed {
    pub reason: ShedReason,
    pub retry_after_seconds: f64,
}

#[derive(Default)]
struct TenantState {
    /// Outstanding token debt (decays at the refill rate).
    debt_tokens: f64,
    /// When `debt_tokens` was last decayed.
    debt_as_of: f64,
    /// Lifetime charged tokens — the fair-share ordering key.
    charged_total: f64,
}

struct Waiter {
    ticket: u64,
    tenant: String,
}

#[derive(Default)]
struct AdmState {
    inflight: usize,
    next_ticket: u64,
    queue: Vec<Waiter>,
    /// Tickets whose slot has been handed over by a releaser.
    granted: Vec<u64>,
    tenants: BTreeMap<String, TenantState>,
}

/// Counter names the controller reports through `catdb-trace`.
pub const COUNTER_ADMITTED: &str = "serve.admitted";
pub const COUNTER_QUEUED: &str = "serve.queued";
pub const COUNTER_SHED_CAPACITY: &str = "serve.shed_capacity";
pub const COUNTER_SHED_BUDGET: &str = "serve.shed_budget";

/// The daemon-wide admission controller.
pub struct AdmissionController {
    opts: AdmissionOptions,
    clock: Arc<dyn Clock>,
    state: Mutex<AdmState>,
    slot_freed: Condvar,
}

impl AdmissionController {
    pub fn new(opts: AdmissionOptions, clock: Arc<dyn Clock>) -> AdmissionController {
        AdmissionController {
            opts,
            clock,
            state: Mutex::new(AdmState::default()),
            slot_freed: Condvar::new(),
        }
    }

    pub fn options(&self) -> &AdmissionOptions {
        &self.opts
    }

    /// Currently executing requests.
    pub fn inflight(&self) -> usize {
        self.state.lock().inflight
    }

    /// Currently queued requests.
    pub fn queued(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Block until no request holds a slot. A freed slot goes to a queued
    /// waiter first, so this also waits out the queue.
    pub fn wait_idle(&self) {
        let mut s = self.state.lock();
        while s.inflight > 0 {
            self.slot_freed.wait(&mut s);
        }
    }

    /// A tenant's lifetime charged tokens.
    pub fn charged_total(&self, tenant: &str) -> f64 {
        self.state.lock().tenants.get(tenant).map_or(0.0, |t| t.charged_total)
    }

    /// A tenant's current token debt (decayed to now).
    pub fn current_debt(&self, tenant: &str) -> f64 {
        let now = self.clock.now_seconds();
        let mut s = self.state.lock();
        let Some(t) = s.tenants.get_mut(tenant) else { return 0.0 };
        Self::decay(t, now, &self.opts);
        t.debt_tokens
    }

    fn decay(t: &mut TenantState, now: f64, opts: &AdmissionOptions) {
        if let Some(budget) = &opts.budget {
            let dt = (now - t.debt_as_of).max(0.0);
            t.debt_tokens = (t.debt_tokens - dt * budget.refill_tokens_per_second).max(0.0);
        }
        t.debt_as_of = now;
    }

    /// Seconds until the tenant's decayed debt drops below capacity.
    fn budget_retry_after(debt: f64, budget: &BudgetPolicy, floor: f64) -> f64 {
        let excess = (debt - budget.capacity_tokens).max(0.0);
        if budget.refill_tokens_per_second <= 0.0 {
            // No refill: the budget is a hard lifetime cap. Advertise a
            // long, finite backoff rather than an unrepresentable ∞.
            return 3600.0;
        }
        (excess / budget.refill_tokens_per_second).max(floor)
    }

    /// Check the tenant's budget; must be called with the state lock
    /// held. Returns the shed to send when the tenant is over budget.
    fn check_budget(&self, s: &mut AdmState, tenant: &str) -> Option<Shed> {
        let budget = self.opts.budget.as_ref()?;
        let now = self.clock.now_seconds();
        let t = s.tenants.entry(tenant.to_string()).or_default();
        Self::decay(t, now, &self.opts);
        if t.debt_tokens >= budget.capacity_tokens {
            let retry =
                Self::budget_retry_after(t.debt_tokens, budget, self.opts.base_retry_after_seconds);
            return Some(Shed { reason: ShedReason::OverBudget, retry_after_seconds: retry });
        }
        None
    }

    /// Non-blocking admission: a slot now, or a structured shed. Never
    /// queues — the deterministic building block the storm tests drive.
    pub fn try_admit(&self, tenant: &str) -> Result<Permit<'_>, Shed> {
        let mut s = self.state.lock();
        if let Some(shed) = self.check_budget(&mut s, tenant) {
            catdb_trace::add_counter(COUNTER_SHED_BUDGET, 1.0);
            return Err(shed);
        }
        if s.inflight >= self.opts.max_inflight {
            catdb_trace::add_counter(COUNTER_SHED_CAPACITY, 1.0);
            return Err(self.capacity_shed(&s));
        }
        s.inflight += 1;
        catdb_trace::add_counter(COUNTER_ADMITTED, 1.0);
        Ok(Permit { controller: self, tenant: tenant.to_string() })
    }

    /// Blocking admission: a slot now, a bounded fair-share wait for
    /// one, or a structured shed once the queue is full.
    pub fn admit(&self, tenant: &str) -> Result<Permit<'_>, Shed> {
        let mut s = self.state.lock();
        if let Some(shed) = self.check_budget(&mut s, tenant) {
            catdb_trace::add_counter(COUNTER_SHED_BUDGET, 1.0);
            return Err(shed);
        }
        if s.inflight < self.opts.max_inflight && s.queue.is_empty() {
            s.inflight += 1;
            catdb_trace::add_counter(COUNTER_ADMITTED, 1.0);
            return Ok(Permit { controller: self, tenant: tenant.to_string() });
        }
        if s.queue.len() >= self.opts.max_queued {
            catdb_trace::add_counter(COUNTER_SHED_CAPACITY, 1.0);
            return Err(self.capacity_shed(&s));
        }
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        s.queue.push(Waiter { ticket, tenant: tenant.to_string() });
        catdb_trace::add_counter(COUNTER_QUEUED, 1.0);
        loop {
            if let Some(pos) = s.granted.iter().position(|&g| g == ticket) {
                s.granted.swap_remove(pos);
                catdb_trace::add_counter(COUNTER_ADMITTED, 1.0);
                return Ok(Permit { controller: self, tenant: tenant.to_string() });
            }
            self.slot_freed.wait(&mut s);
        }
    }

    fn capacity_shed(&self, s: &AdmState) -> Shed {
        // Back off harder the deeper the queue: 1 + queued/capacity
        // scaling keeps the hint proportional to the actual backlog.
        let pressure = 1.0 + s.queue.len() as f64 / self.opts.max_inflight.max(1) as f64;
        Shed {
            reason: ShedReason::OverCapacity,
            retry_after_seconds: self.opts.base_retry_after_seconds * pressure,
        }
    }

    /// Charge measured usage to a tenant (bumps both the decaying debt
    /// and the lifetime fair-share total).
    pub fn charge(&self, tenant: &str, tokens: f64) {
        let now = self.clock.now_seconds();
        let mut s = self.state.lock();
        let t = s.tenants.entry(tenant.to_string()).or_default();
        Self::decay(t, now, &self.opts);
        t.debt_tokens += tokens.max(0.0);
        t.charged_total += tokens.max(0.0);
    }

    /// Release one slot; hand it to the fairest waiter, if any. Waiters
    /// are woken on a hand-off, and [`wait_idle`](Self::wait_idle) when the
    /// last slot frees.
    fn release(&self) {
        let mut s = self.state.lock();
        debug_assert!(s.inflight > 0, "release without a held permit");
        // Fair share: least lifetime usage first; arrival order breaks
        // ties (and orders waiters within one tenant FIFO, since tickets
        // are monotonic).
        let next = s
            .queue
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let ua = s.tenants.get(&a.tenant).map_or(0.0, |t| t.charged_total);
                let ub = s.tenants.get(&b.tenant).map_or(0.0, |t| t.charged_total);
                ua.total_cmp(&ub).then(a.ticket.cmp(&b.ticket))
            })
            .map(|(i, _)| i);
        match next {
            Some(i) => {
                // The slot transfers directly: inflight stays constant.
                let waiter = s.queue.remove(i);
                s.granted.push(waiter.ticket);
                drop(s);
                self.slot_freed.notify_all();
            }
            None => {
                s.inflight -= 1;
                if s.inflight == 0 {
                    drop(s);
                    self.slot_freed.notify_all();
                }
            }
        }
    }
}

/// An admitted request's slot; released on drop.
pub struct Permit<'a> {
    controller: &'a AdmissionController,
    tenant: String,
}

impl std::fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit").field("tenant", &self.tenant).finish()
    }
}

impl Permit<'_> {
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Charge this request's measured usage to its tenant.
    pub fn charge(&self, tokens: f64) {
        self.controller.charge(&self.tenant, tokens);
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.controller.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn controller(max_inflight: usize, max_queued: usize) -> AdmissionController {
        AdmissionController::new(
            AdmissionOptions { max_inflight, max_queued, ..Default::default() },
            Arc::new(ManualClock::default()),
        )
    }

    fn budgeted(capacity: f64, refill: f64) -> (AdmissionController, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::default());
        let c = AdmissionController::new(
            AdmissionOptions {
                max_inflight: 8,
                max_queued: 8,
                budget: Some(BudgetPolicy {
                    capacity_tokens: capacity,
                    refill_tokens_per_second: refill,
                }),
                ..Default::default()
            },
            clock.clone(),
        );
        (c, clock)
    }

    #[test]
    fn over_budget_tenant_is_shed_while_others_proceed() {
        let (c, clock) = budgeted(100.0, 10.0);
        let a = c.try_admit("a").expect("fresh tenant admitted");
        a.charge(150.0);
        drop(a);

        // Tenant a is over budget: shed with a refill-derived hint.
        let shed = c.try_admit("a").unwrap_err();
        assert_eq!(shed.reason, ShedReason::OverBudget);
        assert!((shed.retry_after_seconds - 5.0).abs() < 1e-9, "{}", shed.retry_after_seconds);

        // Tenant b is untouched by a's debt.
        let b = c.try_admit("b").expect("other tenants proceed");
        drop(b);

        // After the refill window the debt has decayed below capacity.
        clock.advance(6.0);
        assert!(c.current_debt("a") < 100.0);
        assert!(c.try_admit("a").is_ok());
    }

    #[test]
    fn zero_refill_budget_is_a_hard_cap_with_finite_retry_after() {
        let (c, clock) = budgeted(50.0, 0.0);
        c.charge("a", 60.0);
        clock.advance(1e6);
        let shed = c.try_admit("a").unwrap_err();
        assert_eq!(shed.reason, ShedReason::OverBudget);
        assert!(shed.retry_after_seconds.is_finite());
    }

    #[test]
    fn capacity_sheds_when_slots_and_queue_are_full() {
        let c = controller(2, 0);
        let p1 = c.try_admit("a").unwrap();
        let p2 = c.try_admit("b").unwrap();
        let shed = c.try_admit("c").unwrap_err();
        assert_eq!(shed.reason, ShedReason::OverCapacity);
        assert!(shed.retry_after_seconds >= 1.0);
        drop(p1);
        assert!(c.try_admit("c").is_ok());
        drop(p2);
    }

    #[test]
    fn queue_hands_slots_to_least_charged_tenant_first() {
        let c = Arc::new(controller(1, 4));
        c.charge("heavy", 10_000.0);
        c.charge("light", 10.0);
        let first = c.try_admit("owner").unwrap();

        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            // Enqueue heavy before light: fair share must still pick
            // light first when the slot frees.
            for (i, tenant) in ["heavy", "light"].into_iter().enumerate() {
                let ctrl = c.clone();
                let order = order.clone();
                scope.spawn(move || {
                    let permit = ctrl.admit(tenant).unwrap();
                    order.lock().push(tenant);
                    drop(permit);
                });
                // Deterministic enqueue order.
                while c.queued() < i + 1 {
                    std::thread::yield_now();
                }
            }
            drop(first);
        });
        assert_eq!(*order.lock(), vec!["light", "heavy"]);
    }

    #[test]
    fn seeded_storm_sheds_deterministically_and_never_exceeds_capacity() {
        let run = |seed: u64| -> (Vec<String>, usize) {
            let c = controller(4, 0);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut held: Vec<Permit> = Vec::new();
            let mut log = Vec::new();
            let mut max_seen = 0usize;
            for step in 0..200 {
                let release = !held.is_empty() && rng.gen_bool(0.4);
                if release {
                    let idx = rng.gen_range(0..held.len());
                    held.swap_remove(idx);
                    log.push(format!("{step}:release"));
                } else {
                    let tenant = format!("t{}", rng.gen_range(0..3));
                    match c.try_admit(&tenant) {
                        Ok(p) => {
                            held.push(p);
                            log.push(format!("{step}:admit:{tenant}"));
                        }
                        Err(shed) => {
                            log.push(format!(
                                "{step}:shed:{tenant}:{}:{:.3}",
                                shed.reason.code(),
                                shed.retry_after_seconds
                            ));
                        }
                    }
                }
                max_seen = max_seen.max(c.inflight());
                assert!(c.inflight() <= 4, "capacity breached at step {step}");
            }
            (log, max_seen)
        };
        for seed in [1u64, 7, 42] {
            let (a, max_a) = run(seed);
            let (b, max_b) = run(seed);
            assert_eq!(a, b, "seed {seed}: storm decisions must replay identically");
            assert_eq!(max_a, max_b);
            assert_eq!(max_a, 4, "seed {seed}: the storm should saturate capacity");
            assert!(
                a.iter().any(|l| l.contains(":shed:")),
                "seed {seed}: a 200-step storm over capacity 4 must shed"
            );
        }
    }

    #[test]
    fn releasing_the_last_permit_on_another_thread_wakes_wait_idle() {
        let c = Arc::new(controller(2, 0));
        let permit = c.try_admit("a").unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = c.clone();
        std::thread::spawn(move || {
            waiter.wait_idle();
            let _ = tx.send(());
        });
        let held = std::time::Duration::from_millis(50);
        assert!(rx.recv_timeout(held).is_err(), "wait_idle returned while a slot was held");
        std::thread::scope(|scope| {
            scope.spawn(move || drop(permit));
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("releasing the last permit did not wake wait_idle");
        assert_eq!(c.inflight(), 0);
    }

    #[test]
    fn permits_release_slots_on_drop_even_when_queue_is_empty() {
        let c = controller(1, 2);
        for _ in 0..10 {
            let p = c.try_admit("a").unwrap();
            assert_eq!(c.inflight(), 1);
            drop(p);
            assert_eq!(c.inflight(), 0);
        }
    }
}
