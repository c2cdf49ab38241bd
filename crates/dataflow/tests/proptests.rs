//! Property-based tests for the dataflow primitives: delivery
//! guarantees of the bounded queue under randomized structure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use persona_dataflow::QueueHandle;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every produced item is delivered exactly once, for arbitrary
    /// queue capacities, producer counts and consumer counts.
    #[test]
    fn queue_delivers_exactly_once(
        capacity in 1usize..32,
        producers in 1usize..5,
        consumers in 1usize..5,
        per_producer in 0usize..200,
    ) {
        let q: QueueHandle<u64> = QueueHandle::new("pt", capacity);
        let regs: Vec<_> = (0..producers).map(|_| q.producer()).collect();
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for (p, reg) in regs.into_iter().enumerate() {
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..per_producer {
                        q.push((p * 1_000_000 + i) as u64).unwrap();
                    }
                    drop(reg);
                });
            }
            for _ in 0..consumers {
                let q = q.clone();
                let sum = sum.clone();
                let count = count.clone();
                s.spawn(move || {
                    while let Some(v) = q.pop() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let expected_count = (producers * per_producer) as u64;
        let expected_sum: u64 = (0..producers)
            .flat_map(|p| (0..per_producer).map(move |i| (p * 1_000_000 + i) as u64))
            .sum();
        prop_assert_eq!(count.load(Ordering::Relaxed), expected_count);
        prop_assert_eq!(sum.load(Ordering::Relaxed), expected_sum);
    }
}
