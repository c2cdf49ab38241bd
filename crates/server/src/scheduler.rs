//! Weighted fair-share admission: per-tenant bounded queues dispatched
//! by weighted round-robin.
//!
//! The scheduler is deliberately *pure state* — no threads, no clocks —
//! so its fairness properties are unit-testable: `FairScheduler::next`
//! is called under the service lock and returns the next job to
//! dispatch, or `None` when every runnable slot is taken or every
//! eligible tenant is drained.
//!
//! Fairness model:
//!
//! * every tenant has a `weight` and a `max_in_flight` bound;
//! * dispatch cycles tenants round-robin, giving each eligible tenant
//!   up to `weight` dispatches per refill round — a tenant with weight
//!   3 gets ~3× the dispatch slots of a tenant with weight 1, but a
//!   backlog of any depth never prevents another tenant's turn;
//! * within one tenant, higher-[`Priority`] jobs dispatch first, FIFO
//!   within a priority.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use persona_dataflow::Priority;
use persona_telemetry::MetricsRegistry;

use crate::job::Job;
use crate::report::TenantReport;

/// Per-tenant fair-share knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Relative share of dispatch slots (≥1; 0 is clamped to 1).
    pub weight: u32,
    /// Maximum jobs of this tenant running at once (≥1; 0 clamped).
    pub max_in_flight: usize,
    /// When `true`, this tenant's jobs neither consult nor populate the
    /// service's result cache (tenants whose inputs must never share
    /// derived datasets with other workloads).
    pub cache_opt_out: bool,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig { weight: 1, max_in_flight: usize::MAX, cache_opt_out: false }
    }
}

impl TenantConfig {
    fn clamped(self) -> Self {
        TenantConfig {
            weight: self.weight.max(1),
            max_in_flight: self.max_in_flight.max(1),
            cache_opt_out: self.cache_opt_out,
        }
    }
}

/// Queue + accounting for one tenant.
struct TenantState {
    config: TenantConfig,
    /// Pending jobs, one FIFO lane per priority level.
    pending: Vec<VecDeque<Arc<Job>>>,
    /// Jobs of this tenant currently running.
    in_flight: usize,
    /// Dispatches left in the current weighted round.
    credits: u32,
    /// The tenant's totals, kept by the service; the live fields
    /// (`weight`, `queued`, `running`) are filled in by
    /// [`FairScheduler::report`].
    totals: TenantReport,
}

impl TenantState {
    fn new(name: &str, config: TenantConfig) -> Self {
        TenantState {
            config,
            pending: (0..Priority::LEVELS).map(|_| VecDeque::new()).collect(),
            in_flight: 0,
            credits: config.weight,
            totals: TenantReport { tenant: name.to_string(), ..TenantReport::default() },
        }
    }

    fn pending_count(&self) -> usize {
        self.pending.iter().map(|q| q.len()).sum()
    }

    fn eligible(&self) -> bool {
        self.pending_count() > 0 && self.in_flight < self.config.max_in_flight
    }

    fn pop_highest(&mut self) -> Option<Arc<Job>> {
        self.pending.iter_mut().rev().find_map(|q| q.pop_front())
    }
}

/// The admission scheduler. All methods are called under one lock.
pub(crate) struct FairScheduler {
    tenants: HashMap<String, TenantState>,
    /// Tenant round-robin ring, in registration order.
    ring: Vec<String>,
    rr_pos: usize,
    running: usize,
    max_concurrent: usize,
    default_config: TenantConfig,
    /// Dispatched-but-unreleased jobs, id → tenant. Slot release keys
    /// off this map, which makes it idempotent per job: a cancel
    /// racing a completion releases the slot exactly once instead of
    /// silently corrupting the `running`/`in_flight` counters.
    in_flight_jobs: HashMap<u64, String>,
    /// Registry for per-tenant in-flight gauges
    /// (`scheduler.in_flight.<tenant>`). The scheduler stays clock-free,
    /// so the companion `scheduler.admission_wait_ns` histogram is
    /// observed by the service at grant time, not here.
    telemetry: Option<Arc<MetricsRegistry>>,
}

impl FairScheduler {
    pub fn new(max_concurrent: usize, default_config: TenantConfig) -> Self {
        FairScheduler {
            tenants: HashMap::new(),
            ring: Vec::new(),
            rr_pos: 0,
            running: 0,
            max_concurrent: max_concurrent.max(1),
            default_config: default_config.clamped(),
            in_flight_jobs: HashMap::new(),
            telemetry: None,
        }
    }

    /// Publishes per-tenant in-flight gauges into `registry`.
    pub fn set_telemetry(&mut self, registry: Arc<MetricsRegistry>) {
        self.telemetry = Some(registry);
    }

    fn in_flight_gauge(&self, tenant: &str, delta: i64) {
        if let Some(r) = &self.telemetry {
            r.gauge(&format!("scheduler.in_flight.{tenant}")).add(delta);
        }
    }

    /// Registers (or re-configures) a tenant. Unknown tenants are also
    /// auto-registered with the default config on first submit.
    pub fn set_tenant(&mut self, name: &str, config: TenantConfig) {
        let config = config.clamped();
        match self.tenants.get_mut(name) {
            Some(t) => {
                t.config = config;
                t.credits = t.credits.min(config.weight);
            }
            None => {
                self.tenants.insert(name.to_string(), TenantState::new(name, config));
                self.ring.push(name.to_string());
            }
        }
    }

    /// The effective config for `name` — its registered config, or the
    /// default for tenants that never registered.
    pub fn tenant_config(&self, name: &str) -> TenantConfig {
        self.tenants.get(name).map(|t| t.config).unwrap_or(self.default_config)
    }

    fn tenant_mut(&mut self, name: &str) -> &mut TenantState {
        if !self.tenants.contains_key(name) {
            let cfg = self.default_config;
            self.set_tenant(name, cfg);
        }
        self.tenants.get_mut(name).expect("tenant just ensured")
    }

    /// The totals of tenant `name`, registering it at the default config
    /// if it is new, so a tenant is reported once anything is counted for
    /// it.
    pub fn totals(&mut self, name: &str) -> &mut TenantReport {
        &mut self.tenant_mut(name).totals
    }

    /// Admits a job into its tenant's queue.
    pub fn enqueue(&mut self, job: Arc<Job>) {
        let level = job.priority.level();
        self.tenant_mut(&job.tenant.clone()).pending[level].push_back(job);
    }

    /// Picks the next job to dispatch under the fair-share policy, and
    /// accounts it as running. `None` when all slots are busy or no
    /// tenant is eligible.
    pub fn next(&mut self) -> Option<Arc<Job>> {
        if self.running >= self.max_concurrent || self.ring.is_empty() {
            return None;
        }
        // Pass 1: the first eligible tenant (in ring order from the
        // round-robin cursor) that still has credits this round.
        // Pass 2: everyone's credits were spent — refill eligible
        // tenants and take the first.
        for refill in [false, true] {
            if refill {
                if !self.tenants.values().any(|t| t.eligible()) {
                    return None;
                }
                for t in self.tenants.values_mut() {
                    t.credits = t.config.weight;
                }
            }
            let n = self.ring.len();
            for k in 0..n {
                let pos = (self.rr_pos + k) % n;
                let name = self.ring[pos].clone();
                let t = self.tenants.get_mut(&name).expect("ring tenant exists");
                if !t.eligible() || t.credits == 0 {
                    continue;
                }
                let job = t.pop_highest().expect("eligible tenant has pending work");
                t.credits -= 1;
                t.in_flight += 1;
                self.running += 1;
                self.in_flight_jobs.insert(job.id, name.clone());
                if let Some(r) = &self.telemetry {
                    r.gauge(&format!("scheduler.in_flight.{name}")).add(1);
                }
                // Spent the last credit: move on so the next tenant
                // starts the following pick; otherwise keep serving
                // this tenant its remaining weighted share.
                if t.credits == 0 {
                    self.rr_pos = (pos + 1) % n;
                } else {
                    self.rr_pos = pos;
                }
                return Some(job);
            }
        }
        None
    }

    /// Releases a finished (or cancelled-while-running) job's slot.
    /// Idempotent per job: only the first release of a dispatched job
    /// frees its slot; later releases (a cancel racing the runner's
    /// completion) and releases of never-dispatched jobs are no-ops.
    /// Returns whether the slot was actually freed.
    pub fn job_finished(&mut self, job: &Job) -> bool {
        let Some(tenant) = self.in_flight_jobs.remove(&job.id) else {
            return false;
        };
        debug_assert!(self.running > 0, "running-count underflow releasing job {}", job.id);
        self.running = self.running.saturating_sub(1);
        if let Some(t) = self.tenants.get_mut(&tenant) {
            debug_assert!(t.in_flight > 0, "in-flight underflow for {tenant} (job {})", job.id);
            t.in_flight = t.in_flight.saturating_sub(1);
        }
        self.in_flight_gauge(&tenant, -1);
        true
    }

    /// Removes a still-queued job (cancellation); `false` if it had
    /// already been dispatched or finished.
    pub fn remove_queued(&mut self, job: &Job) -> bool {
        let Some(t) = self.tenants.get_mut(&job.tenant) else {
            return false;
        };
        for lane in t.pending.iter_mut() {
            if let Some(at) = lane.iter().position(|j| j.id == job.id) {
                lane.remove(at);
                return true;
            }
        }
        false
    }

    /// Drains every queued job (service shutdown); returns them so the
    /// service can resolve their handles.
    pub fn drain(&mut self) -> Vec<Arc<Job>> {
        let mut out = Vec::new();
        for t in self.tenants.values_mut() {
            for lane in t.pending.iter_mut() {
                out.extend(lane.drain(..));
            }
        }
        out
    }

    /// Every tenant's report, in ring (registration) order.
    pub fn report(&self) -> Vec<TenantReport> {
        self.ring
            .iter()
            .map(|name| {
                let t = &self.tenants[name];
                TenantReport {
                    weight: t.config.weight,
                    queued: t.pending_count(),
                    running: t.in_flight,
                    ..t.totals.clone()
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FairScheduler {
        /// Jobs currently accounted as running.
        fn running(&self) -> usize {
            self.running
        }

        /// Total queued jobs across tenants.
        fn queued(&self) -> usize {
            self.tenants.values().map(|t| t.pending_count()).sum()
        }
    }

    fn sched(slots: usize) -> FairScheduler {
        FairScheduler::new(slots, TenantConfig::default())
    }

    fn job(id: u64, tenant: &str, prio: Priority) -> Arc<Job> {
        Job::new(id, format!("job-{id}"), tenant.to_string(), prio, None)
    }

    fn push(s: &mut FairScheduler, id: u64, tenant: &str, prio: Priority) {
        s.enqueue(job(id, tenant, prio));
    }

    #[test]
    fn round_robin_interleaves_tenants_under_backlog() {
        let mut s = sched(1);
        for i in 0..6 {
            push(&mut s, i, "heavy", Priority::Normal);
        }
        push(&mut s, 100, "light", Priority::Normal);
        // Slot 1: heavy (it registered first). Free it, then the
        // round-robin must hand the next slot to light even though
        // heavy still has five queued jobs.
        let first = s.next().unwrap();
        assert_eq!(first.tenant, "heavy");
        assert!(s.next().is_none(), "single slot is busy");
        assert!(s.job_finished(&first));
        let second = s.next().unwrap();
        assert_eq!(second.tenant, "light", "light tenant must not be starved");
        assert!(s.job_finished(&second));
        assert_eq!(s.next().unwrap().tenant, "heavy");
    }

    #[test]
    fn weights_give_proportional_dispatches() {
        let mut s = sched(1);
        s.set_tenant(
            "big",
            TenantConfig { weight: 3, max_in_flight: usize::MAX, ..TenantConfig::default() },
        );
        s.set_tenant(
            "small",
            TenantConfig { weight: 1, max_in_flight: usize::MAX, ..TenantConfig::default() },
        );
        for i in 0..40 {
            push(&mut s, i, "big", Priority::Normal);
            push(&mut s, 100 + i, "small", Priority::Normal);
        }
        let mut order = Vec::new();
        for _ in 0..16 {
            let j = s.next().unwrap();
            order.push(j.tenant.clone());
            s.job_finished(&j);
        }
        let big = order.iter().filter(|t| *t == "big").count();
        let small = order.iter().filter(|t| *t == "small").count();
        assert_eq!(big, 12, "order {order:?}");
        assert_eq!(small, 4, "order {order:?}");
        // And the shares interleave (3 big, 1 small per round), rather
        // than clumping all of big's share first.
        assert_eq!(&order[..4], &["big", "big", "big", "small"], "order {order:?}");
    }

    #[test]
    fn per_tenant_in_flight_bound_is_enforced() {
        let mut s = sched(8);
        s.set_tenant(
            "capped",
            TenantConfig { weight: 1, max_in_flight: 2, ..TenantConfig::default() },
        );
        for i in 0..5 {
            push(&mut s, i, "capped", Priority::Normal);
        }
        let first = s.next().unwrap();
        assert_eq!(first.tenant, "capped");
        assert_eq!(s.next().unwrap().tenant, "capped");
        assert!(s.next().is_none(), "third dispatch exceeds the tenant cap");
        assert!(s.job_finished(&first));
        assert!(s.next().is_some(), "slot freed, queue drains again");
    }

    #[test]
    fn global_slot_bound_is_enforced() {
        let mut s = sched(2);
        for i in 0..4 {
            push(&mut s, i, format!("t{i}").as_str(), Priority::Normal);
        }
        assert!(s.next().is_some());
        assert!(s.next().is_some());
        assert!(s.next().is_none(), "max_concurrent reached");
        assert_eq!(s.running(), 2);
        assert_eq!(s.queued(), 2);
    }

    #[test]
    fn priority_orders_within_a_tenant() {
        let mut s = sched(4);
        push(&mut s, 1, "t", Priority::Low);
        push(&mut s, 2, "t", Priority::Normal);
        push(&mut s, 3, "t", Priority::High);
        push(&mut s, 4, "t", Priority::High);
        let got: Vec<u64> = std::iter::from_fn(|| s.next()).map(|j| j.id).collect();
        assert_eq!(got, vec![3, 4, 2, 1]);
    }

    #[test]
    fn remove_queued_only_removes_pending_jobs() {
        let mut s = sched(1);
        let a = job(1, "t", Priority::Normal);
        let b = job(2, "t", Priority::Normal);
        s.enqueue(a.clone());
        s.enqueue(b.clone());
        let dispatched = s.next().unwrap();
        assert_eq!(dispatched.id, 1);
        assert!(!s.remove_queued(&a), "already dispatched");
        assert!(s.remove_queued(&b), "still queued");
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn double_release_is_idempotent_per_job() {
        // Regression: a cancel racing the runner's completion used to
        // release the same job's slot twice; `saturating_sub` hid the
        // underflow as a permanently-leaked or phantom slot.
        let mut s = sched(2);
        push(&mut s, 1, "t", Priority::Normal);
        push(&mut s, 2, "t", Priority::Normal);
        let a = s.next().unwrap();
        let b = s.next().unwrap();
        assert_eq!(s.running(), 2);
        assert!(s.job_finished(&a), "first release frees the slot");
        assert!(!s.job_finished(&a), "second release of the same job is a no-op");
        assert_eq!(s.running(), 1, "double release must not free two slots");
        // Releasing a job that was never dispatched is also a no-op.
        let ghost = job(99, "t", Priority::Normal);
        assert!(!s.job_finished(&ghost));
        assert_eq!(s.running(), 1);
        assert!(s.job_finished(&b));
        assert_eq!(s.running(), 0);
        assert_eq!(s.report()[0].running, 0);
    }

    #[test]
    fn drain_returns_all_queued_jobs() {
        let mut s = sched(1);
        for i in 0..3 {
            push(&mut s, i, "a", Priority::Normal);
        }
        push(&mut s, 9, "b", Priority::High);
        let drained = s.drain();
        assert_eq!(drained.len(), 4);
        assert_eq!(s.queued(), 0);
        assert!(s.next().is_none());
    }
}
