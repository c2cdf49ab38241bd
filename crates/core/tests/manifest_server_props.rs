//! Property tests for the manifest server's `Edge`: streaming semantics
//! must hold for every capacity and producer/consumer mix — exactly-once
//! delivery, `remaining()` consistent with the pushes made,
//! push-after-close failure, and strict FIFO.

use std::sync::Arc;

use persona::manifest_server::{Edge, EdgeChunk, EdgeOut};
use persona_telemetry::MetricsRegistry;
use proptest::prelude::*;

fn task(idx: usize) -> EdgeChunk {
    EdgeChunk { chunk_idx: idx, stem: format!("c-{idx}"), num_records: 1, carried: Vec::new() }
}

fn streaming(capacity: usize) -> (EdgeOut, Edge) {
    Edge::streaming(capacity, &MetricsRegistry::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent feeders and fetchers deliver every task exactly once,
    /// and the counts agree with the pushes made.
    #[test]
    fn streaming_delivers_exactly_once(
        capacity in 1usize..32,
        producers in 1usize..4,
        consumers in 1usize..4,
        per_producer in 0usize..120,
    ) {
        let (feeder, server) = streaming(capacity);
        let collected = std::thread::scope(|s| {
            for p in 0..producers {
                let feeder = feeder.clone();
                s.spawn(move || {
                    for i in 0..per_producer {
                        assert!(feeder.push(task(p * 10_000 + i)).is_ok());
                    }
                });
            }
            let consumers: Vec<_> = (0..consumers)
                .map(|_| {
                    let server = server.clone();
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(t) = server.fetch() {
                            got.push(t.chunk_idx);
                        }
                        got
                    })
                })
                .collect();
            drop(feeder); // Last producer ends the stream.
            let mut all = Vec::new();
            for c in consumers {
                all.extend(c.join().unwrap());
            }
            all
        });
        let mut all = collected;
        all.sort();
        let mut expected: Vec<usize> = (0..producers)
            .flat_map(|p| (0..per_producer).map(move |i| p * 10_000 + i))
            .collect();
        expected.sort();
        prop_assert_eq!(all.len(), producers * per_producer);
        prop_assert_eq!(all, expected);
        prop_assert_eq!(server.remaining(), 0);
        prop_assert_eq!(server.fetch(), None);
    }

    /// One producer racing one consumer: every task arrives exactly
    /// once, `remaining() <= capacity` (the backpressure bound) holds
    /// throughout, and every push is accepted. (Strict FIFO under the same
    /// race is the next property.)
    #[test]
    fn single_stream_delivers_all_and_respects_capacity(
        capacity in 1usize..16,
        n in 0usize..200,
    ) {
        let (feeder, server) = streaming(capacity);
        let consumer = {
            let server = server.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(t) = server.fetch() {
                    got.push(t.chunk_idx);
                }
                got
            })
        };
        let mut pushed = 0;
        for i in 0..n {
            assert!(feeder.push(task(i)).is_ok());
            pushed += 1;
            assert!(server.remaining() <= capacity, "remaining exceeds capacity");
        }
        prop_assert_eq!(pushed, n);
        drop(feeder);
        let mut got = consumer.join().unwrap();
        got.sort();
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    /// The FIFO contract: a stream is strictly FIFO at every capacity
    /// while producer and consumer race, and once pushes are done
    /// before fetching starts (the quiescent/prefilled shape).
    #[test]
    fn fifo_holds_where_promised(
        capacity in 1usize..16,
        n in 0usize..150,
    ) {
        // Live race.
        let (feeder, server) = streaming(capacity);
        let consumer = {
            let server = server.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(t) = server.fetch() {
                    got.push(t.chunk_idx);
                }
                got
            })
        };
        for i in 0..n {
            assert!(feeder.push(task(i)).is_ok());
        }
        drop(feeder);
        prop_assert_eq!(consumer.join().unwrap(), (0..n).collect::<Vec<_>>());

        // Quiescent drain.
        let (feeder, server) = streaming(n.max(1));
        for i in 0..n {
            assert!(feeder.push(task(i)).is_ok());
        }
        drop(feeder);
        let mut got = Vec::new();
        while let Some(t) = server.fetch() {
            got.push(t.chunk_idx);
        }
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    /// After `close`, every push fails and fetchers drain exactly the
    /// tasks that were accepted before the close.
    #[test]
    fn close_rejects_pushes_and_drains_accepted(
        accepted in 0usize..20,
        rejected in 1usize..8,
    ) {
        let (feeder, server) = streaming(64);
        for i in 0..accepted {
            prop_assert!(feeder.push(task(i)).is_ok());
        }
        server.close();
        for i in 0..rejected {
            prop_assert!(feeder.push(task(1000 + i)).is_err(), "push after close must fail");
        }
        prop_assert_eq!(server.remaining(), accepted);
        let mut got = Vec::new();
        while let Some(t) = server.fetch() {
            got.push(t.chunk_idx);
        }
        prop_assert_eq!(got, (0..accepted).collect::<Vec<_>>());
        prop_assert_eq!(server.remaining(), 0);
    }

    /// Many threads racing on a prefilled server still dispense each
    /// chunk exactly once (the multi-pipeline load-balancing path).
    #[test]
    fn prefilled_race_dispenses_exactly_once(
        chunks in 0usize..150,
        workers in 1usize..6,
    ) {
        let mut m = persona_agd::manifest::Manifest::new("p");
        let mut first = 0u64;
        for i in 0..chunks {
            m.records.push(persona_agd::manifest::ChunkEntry {
                path: format!("p-{i}"),
                first_record: first,
                num_records: 3,
            });
            first += 3;
        }
        m.total_records = first;
        let server = Edge::landed(m);
        prop_assert_eq!(server.remaining(), chunks);
        let server = Arc::new(server);
        let mut all: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let server = server.clone();
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(t) = server.fetch() {
                            got.push(t.chunk_idx);
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        all.sort();
        prop_assert_eq!(all, (0..chunks).collect::<Vec<_>>());
        prop_assert_eq!(server.remaining(), 0);
    }
}
