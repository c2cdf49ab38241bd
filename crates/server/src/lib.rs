//! **persona-server** — the multi-tenant job service on top of the
//! Persona runtime.
//!
//! The paper's deployment (§5.2) is a *framework serving many
//! concurrent genomics workloads*: a cluster of servers pulls chunk
//! work from shared manifest queues, and many datasets flow through the
//! same compute at once with ≤1 % framework overhead. This crate is the
//! service layer of that story for one node: clients submit
//! [`JobSpec`]s — an input plus a **composed
//! [`persona::plan::Plan`]** (any valid stage chain, not a fixed
//! pipeline) plus tenant and priority — to a [`PersonaService`] and get
//! a [`JobHandle`] with a `submit / status / wait / cancel` lifecycle,
//! while the service multiplexes every admitted job onto **one shared
//! [`persona::runtime::PersonaRuntime`]** — one executor owns all the
//! cores, and each job's task batches carry its priority and cancel
//! token, and its stage's busy cell. Plans serialize to JSON (`Plan::to_json` /
//! `Plan::from_json`), so a wire front end can ship exactly what
//! `submit` consumes.
//!
//! Fairness is enforced at admission, not in the executor: a
//! `scheduler::FairScheduler` keeps per-tenant FIFO queues (split by
//! priority), bounds each tenant's in-flight jobs, and dispatches by
//! **weighted round-robin** so a tenant with a deep backlog cannot
//! starve a light one. Cancellation is cooperative end to end: the
//! job's [`persona_dataflow::CancelToken`] makes the executor drop the
//! job's still-queued batches and every pipeline stage stop scheduling
//! new ones.
//!
//! The [`wire`] module puts this service on the network: a
//! [`wire::WireServer`] accepts TCP connections speaking the
//! [`persona::wire`] protocol (length-prefixed JSON frames; spec in
//! `docs/PROTOCOL.md`), deserializes plans through the re-validating
//! builder, and runs every admitted job through the same `submit`
//! path — so a `persona::wire::WireClient` across the network and an
//! in-process caller are byte-identical. Clients that disconnect have
//! their unfinished jobs cancelled automatically.
//!
//! ```no_run
//! use std::sync::Arc;
//! use persona::config::PersonaConfig;
//! use persona::plan::Plan;
//! use persona::runtime::PersonaRuntime;
//! use persona_agd::chunk_io::{ChunkStore, MemStore};
//! use persona_dataflow::Priority;
//! use persona_server::{JobInput, JobSpec, PersonaService, ServiceConfig};
//!
//! let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
//! let rt = PersonaRuntime::new(store, PersonaConfig::default()).unwrap();
//! let service = PersonaService::new(rt, ServiceConfig::default());
//! # let (aligner, reference, fastq) = unimplemented!();
//! let handle = service
//!     .submit(JobSpec {
//!         name: "sample-1".into(),
//!         tenant: "lab-a".into(),
//!         priority: Priority::Normal,
//!         plan: Plan::full(), // or any PlanBuilder composition
//!         input: JobInput::Fastq(fastq),
//!         chunk_size: 5_000,
//!         aligner: Some(aligner),
//!         reference,
//!     })
//!     .unwrap();
//! let outcome = handle.wait();
//! ```

pub(crate) mod conn;
pub(crate) mod event_loop;
pub mod job;
pub mod journal;
pub(crate) mod poll;
pub mod report;
pub mod scheduler;
pub mod service;
pub mod wire;

pub use job::{JobHandle, JobInput, JobOutcome, JobOutput, JobSpec, JobStatus};
pub use journal::{FsyncPolicy, Journal, JournalConfig, JournalRecord};
// The plan vocabulary, re-exported so service clients need only this
// crate to compose, serialize and submit plans.
pub use persona::plan::{DataState, Plan, PlanBuilder, PlanError, PlanReport, Stage};
// The result-cache vocabulary, for configuring and inspecting the
// service's plan-aware cache (see `docs/CACHING.md`).
pub use persona_cache::{CacheEntry, CacheKey, CacheStats, Digest, ResultCache};
pub use report::{ServiceReport, TenantReport};
pub use scheduler::TenantConfig;
pub use service::{PersonaService, RecoverOptions, ServiceConfig};
pub use wire::{WireServer, WireServerConfig};
