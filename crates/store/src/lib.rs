//! Storage subsystem models for Persona's I/O experiments.
//!
//! The paper evaluates a single local disk and a 6-disk RAID0 array on
//! one server (§5.3), plus a 7-node Ceph object store reached over
//! 10 GbE (§5.1). Neither disk setup is assumed here; each is modeled
//! *with real bytes* flowing through token-bucket bandwidth meters. A
//! Ceph cluster is not modeled: one box cannot measure it.
//!
//! * [`bandwidth`] — blocking token buckets.
//! * [`clock`] — the time source the buckets meter against: real for
//!   production, manual for deterministic tests without real sleeps.
//! * [`local`] — throttled disk stores, including a writeback-cache
//!   model that reproduces the read/write interference of Fig. 5a
//!   ("the operating system's buffer cache writeback policy competes
//!   with the application-driven data reads").
//! * [`stats`] — byte/op accounting shared by all stores (Table 1's
//!   "Data Read / Data Written" rows).
//!
//! All stores implement [`persona_agd::chunk_io::ChunkStore`], so any
//! AGD dataset can be placed on any modeled subsystem.

pub mod bandwidth;
pub mod clock;
pub mod local;
pub mod stats;

pub use bandwidth::TokenBucket;
pub use clock::{Clock, ManualClock, RealClock};
pub use local::{DiskConfig, ThrottledStore, WritebackDisk};
pub use stats::StoreStats;
