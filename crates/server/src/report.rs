//! Service-wide and per-tenant accounting. Each tenant has one record,
//! kept in the scheduler and grown as its jobs are admitted and
//! resolved; a job's busy time is the sum of its stages' busy time,
//! which the plan driver charges as each stage returns.

use std::time::Duration;

/// Accumulated accounting for one tenant.
#[derive(Debug, Clone, Default)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Fair-share weight in force at snapshot time.
    pub weight: u32,
    /// Jobs ever submitted.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished with an error.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs that were actually dispatched (completed, failed, or
    /// cancelled after starting) — the denominator for queue-wait.
    pub dispatched: u64,
    /// Jobs still queued at snapshot time.
    pub queued: usize,
    /// Jobs running at snapshot time.
    pub running: usize,
    /// Reads processed by finished jobs.
    pub reads: u64,
    /// Executor busy time of this tenant's finished dispatched jobs:
    /// the busy time of every stage they ran, failed and cancelled runs
    /// included.
    pub busy: Duration,
    /// Cumulative queue wait of dispatched jobs.
    pub queue_wait: Duration,
    /// Cumulative wall-clock run time of finished jobs.
    pub run_time: Duration,
}

impl TenantReport {
    /// Throughput over the tenant's finished jobs (0.0 when none ran).
    pub fn reads_per_sec(&self) -> f64 {
        persona::pipeline::rate_per_sec(self.reads as f64, self.run_time)
    }

    /// Mean queue wait per dispatched job (cancelled-after-dispatch
    /// jobs waited too, so they count).
    pub fn mean_queue_wait(&self) -> Duration {
        if self.dispatched == 0 {
            Duration::ZERO
        } else {
            self.queue_wait / self.dispatched as u32
        }
    }
}

/// A point-in-time service snapshot.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-tenant accounting, in tenant registration order.
    pub tenants: Vec<TenantReport>,
    /// Service uptime at snapshot.
    pub elapsed: Duration,
    /// Executor worker threads.
    pub workers: usize,
}

impl ServiceReport {
    /// Looks up one tenant's report.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.tenant == name)
    }

    /// A tenant's share of total executor worker time over the
    /// service's lifetime (0.0..=1.0; 0.0 for an instant snapshot).
    pub fn busy_fraction(&self, tenant: &str) -> f64 {
        let Some(t) = self.tenant(tenant) else {
            return 0.0;
        };
        let denom = self.elapsed.as_secs_f64() * self.workers as f64;
        if denom > 0.0 {
            (t.busy.as_secs_f64() / denom).min(1.0)
        } else {
            0.0
        }
    }

    /// Jobs finished across all tenants.
    pub fn jobs_finished(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed + t.failed + t.cancelled).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_guard_zero_windows() {
        let t = TenantReport { tenant: "t".into(), reads: 500, ..TenantReport::default() };
        assert_eq!(t.reads_per_sec(), 0.0, "zero run_time must not divide");
        assert_eq!(t.mean_queue_wait(), Duration::ZERO);
        let report = ServiceReport { tenants: vec![t], elapsed: Duration::ZERO, workers: 4 };
        assert_eq!(report.busy_fraction("t"), 0.0);
        assert_eq!(report.busy_fraction("missing"), 0.0);
    }

    #[test]
    fn rates_compute_when_nonzero() {
        let t = TenantReport {
            tenant: "t".into(),
            reads: 1000,
            completed: 2,
            dispatched: 2,
            busy: Duration::from_secs(2),
            queue_wait: Duration::from_secs(1),
            run_time: Duration::from_secs(4),
            ..TenantReport::default()
        };
        assert!((t.reads_per_sec() - 250.0).abs() < 1e-9);
        assert_eq!(t.mean_queue_wait(), Duration::from_millis(500));
        let report =
            ServiceReport { tenants: vec![t], elapsed: Duration::from_secs(10), workers: 2 };
        assert!((report.busy_fraction("t") - 0.1).abs() < 1e-9);
        assert_eq!(report.jobs_finished(), 2);
    }
}
