//! A bandwidth-throttled chunk store for I/O experiments.
//!
//! The paper's disks (§5.3: one SATA disk, a 6-disk RAID0) and its Ceph
//! cluster are not modeled: the figures that need them run on a real
//! [`DirStore`](persona_agd::chunk_io::DirStore) instead. What is left
//! throttles any store to a bandwidth the caller names, with real bytes
//! flowing through it.
//!
//! * [`bandwidth`] — blocking token buckets, metered against a
//!   [`persona_telemetry::clock::Clock`]: real for production, manual
//!   for deterministic tests without real sleeps.
//! * [`local`] — [`ThrottledStore`], which meters an inner store's gets
//!   and puts through the buckets.
//!
//! [`ThrottledStore`] implements [`persona_agd::chunk_io::ChunkStore`],
//! so any AGD dataset can be placed behind it.

pub mod bandwidth;
pub mod local;

pub use bandwidth::TokenBucket;
pub use local::ThrottledStore;
