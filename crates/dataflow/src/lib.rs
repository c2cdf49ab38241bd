//! The execution substrate of Persona's pipelines — the from-scratch
//! replacement for the TensorFlow core that the Persona paper builds on
//! (§4).
//!
//! The engine reproduces the execution semantics Persona actually uses:
//!
//! * **A shared executor resource** ([`executor`]) — one executor *owns
//!   all compute threads* and exposes a fine-grain task queue (§4.3,
//!   Fig. 4). Pipeline stages split each chunk into subchunk tasks,
//!   submit them as batches and keep a bounded number of chunks in
//!   flight, decoupling I/O granularity from task granularity so "all
//!   cores in the system are kept running continuously doing meaningful
//!   work". The bound is Persona's flow control (§4.5): "the individual
//!   servers do not have too many AGD chunks in their pipelines".
//! * **Bounded queues** ([`queue`]) — a blocking MPMC queue with
//!   producer-tracked close. Every chunk edge of a plan runs on one (the
//!   manifest server's `Edge` and `EdgeOut` sit directly on it), and the
//!   benchmark reports its hop cost.
//!
//! The executor records each task's run time once into its
//! `executor.task_latency_ns` histogram, whose count and sum are the
//! executor's task and busy totals, and once into the busy cell its
//! batch carries ([`SubmitOpts::busy`]), a stage's busy time.
//!
//! # Examples
//!
//! A chunk fanned out as subchunk tasks, once blocking and once kept in
//! flight while the caller does other work:
//!
//! ```
//! use persona_dataflow::{Executor, SubmitOpts};
//!
//! let executor = Executor::new(2);
//! let squares = executor.map_batch((0..100u64).collect(), None, |_, v| v * v);
//! assert_eq!(squares[9], 81);
//!
//! let pending = executor.spawn_map(vec![1u64, 2, 3], SubmitOpts::default(), |_, v| v + 1);
//! // ... submit more batches, wait on older ones ...
//! assert_eq!(pending.join().unwrap(), Some(vec![2, 3, 4]));
//! ```

pub mod executor;
pub mod queue;

pub use executor::{CancelToken, Executor, MapBatch, Priority, SubmitOpts};
pub use queue::QueueHandle;
