//! Persona's observability layer: a metrics registry, per-job trace
//! spans and the clock they run on. It depends on no other workspace
//! crate, so any layer (AGD codecs and the store included) can publish
//! into it.
//!
//! Every subsystem that processes work publishes into one
//! [`MetricsRegistry`] — the executor, the manifest server, the
//! fair-share scheduler, the write-ahead journal and the wire front
//! end — and every service job carries a [`JobTrace`] recording
//! stage/chunk begin–end spans against the virtualizable [`Clock`].
//! Both are inspectable live over the wire protocol (`metrics-request` / `trace-request`; see
//! `docs/PROTOCOL.md`) and from the command line (`persona-cli stats`,
//! `persona-cli trace`). `docs/OBSERVABILITY.md` catalogs the metric
//! names and the span model.
//!
//! Design constraints, in order:
//!
//! 1. **Hot paths stay hot.** Publishing is handle-based: atomics
//!    only, no lock, no allocation, one relaxed flag load when
//!    disabled. The fused bench records telemetry-on and
//!    telemetry-off datapoints to keep this honest.
//! 2. **Deterministic under test clocks.** Traces timestamp through
//!    the `Clock` trait and dump in a canonical order, so a
//!    `ManualClock` run produces byte-identical JSON every time.
//! 3. **Mergeable snapshots.** [`MetricsSnapshot`] values from many
//!    registries (future: many nodes) fold together losslessly —
//!    counters add, histograms add bucket-wise.

pub mod clock;
pub mod metrics;
pub mod trace;

pub use clock::{Clock, ManualClock, RealClock};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{JobTrace, TraceEvent, TracePhase};
