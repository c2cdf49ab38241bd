//! Micro-loops: layers whose cost per operation is too small to
//! bracket inside a run are timed in a loop of their public calls, on
//! the workload's own payloads where they take one. Each loop runs
//! `REPS` times and reports the median.

use std::sync::Arc;
use std::time::Instant;

use persona::wire::{encode_frame, FrameDecoder, Message};
use persona_agd::manifest::Manifest;
use persona_cache::{CacheEntry, CacheKey, Digest, ResultCache};
use persona_dataflow::{Executor, QueueHandle};
use persona_telemetry::MetricsRegistry;

use crate::catalog::Measured;
use crate::stats::median;

const REPS: usize = 5;

/// Median over `REPS` runs of `f`, which returns nanoseconds per unit.
fn median_of_reps(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

fn ns_per(ops: usize, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `Manifest::to_json` + `from_json` of one manifest, in µs.
pub fn manifest_json_us(manifest: &Manifest) -> f64 {
    const N: usize = 50;
    median_of_reps(|| {
        ns_per(N, || {
            for _ in 0..N {
                let json = manifest.to_json().expect("manifest serializes");
                std::hint::black_box(Manifest::from_json(&json).expect("manifest parses"));
            }
        })
    }) / 1e3
}

/// Cost of one empty task through `Executor::map_batch`, in ns.
fn task_overhead_ns(threads: usize) -> f64 {
    const N: usize = 20_000;
    let executor = Executor::new(threads);
    median_of_reps(|| {
        ns_per(N, || {
            std::hint::black_box(executor.map_batch((0..N).collect(), None, |_, x: usize| x));
        })
    })
}

/// One item's push → pop through a bounded queue between two threads.
fn queue_hop_ns() -> f64 {
    const N: usize = 20_000;
    median_of_reps(|| {
        let queue: QueueHandle<usize> = QueueHandle::new("hop", 4);
        ns_per(N, || {
            std::thread::scope(|s| {
                let q = queue.clone();
                s.spawn(move || {
                    let producer = q.producer();
                    for i in 0..N {
                        q.push(i).expect("consumer keeps the queue open");
                    }
                    drop(producer);
                });
                let mut seen = 0usize;
                while queue.pop().is_some() {
                    seen += 1;
                }
                assert_eq!(seen, N);
            });
        })
    })
}

/// One `longest_match` (a miss over three prefixes) plus one `insert`
/// on a full 64-entry cache, in µs.
pub fn cache_lookup_us(manifest: &Manifest) -> f64 {
    const N: usize = 2_000;
    let prefixes: Vec<String> = (0..3).map(|i| format!("{{\"prefix\":{i}}}")).collect();
    let entry = CacheEntry {
        manifest: manifest.clone(),
        state: "aligned".to_string(),
        stages: 2,
        cost_ns: 1,
    };
    median_of_reps(|| {
        let cache = ResultCache::new(64);
        for i in 0..64u64 {
            cache.insert(
                CacheKey::new(Digest::of_bytes(&i.to_le_bytes()), &prefixes[0]),
                entry.clone(),
            );
        }
        ns_per(N, || {
            for i in 0..N as u64 {
                let input = Digest::of_bytes(&(1_000 + i).to_le_bytes());
                std::hint::black_box(cache.longest_match(input, &prefixes).is_some());
                cache.insert(CacheKey::new(input, &prefixes[0]), entry.clone());
            }
        })
    }) / 1e3
}

/// `(encode, decode)` ns per frame byte over the given messages:
/// `encode_frame`, and `FrameDecoder::push` + `next_frame` + typed
/// message decode.
pub fn frame_ns_per_byte(frames: &[(Message, Vec<u8>)]) -> (f64, f64) {
    let total: usize =
        frames.iter().map(|(m, body)| encode_frame(m, body).expect("frame encodes").len()).sum();
    if total == 0 {
        return (0.0, 0.0);
    }
    let encode = median_of_reps(|| {
        ns_per(total, || {
            for (m, body) in frames {
                std::hint::black_box(encode_frame(m, body).expect("frame encodes"));
            }
        })
    });
    let wire: Vec<Vec<u8>> =
        frames.iter().map(|(m, body)| encode_frame(m, body).expect("frame encodes")).collect();
    let decode = median_of_reps(|| {
        ns_per(total, || {
            let mut decoder = FrameDecoder::new();
            for bytes in &wire {
                decoder.push(bytes);
                let frame = decoder.next_frame().expect("frame decodes").expect("whole frame");
                std::hint::black_box(frame.message().expect("typed message"));
            }
        })
    });
    (encode, decode)
}

/// The micro-loops that do not depend on the workload: every traced
/// run reports them.
pub fn report_common(threads: usize, m: &mut Measured) {
    m.single("dataflow.task_overhead_ns", task_overhead_ns(threads), "ns");
    m.single("dataflow.queue_hop_ns", queue_hop_ns(), "ns");
    let (inc, observe) = telemetry_ns();
    m.single("telemetry.counter_inc_ns", inc, "ns");
    m.single("telemetry.histogram_observe_ns", observe, "ns");
}

/// `(Counter::inc, Histogram::observe)` in ns on an enabled registry.
fn telemetry_ns() -> (f64, f64) {
    const N: usize = 200_000;
    let registry = Arc::new(MetricsRegistry::new());
    let counter = registry.counter("bench.counter");
    let histogram = registry.histogram("bench.histogram");
    let inc = median_of_reps(|| {
        ns_per(N, || {
            for _ in 0..N {
                counter.inc();
            }
        })
    });
    let observe = median_of_reps(|| {
        ns_per(N, || {
            for i in 0..N as u64 {
                histogram.observe(i);
            }
        })
    });
    (inc, observe)
}
