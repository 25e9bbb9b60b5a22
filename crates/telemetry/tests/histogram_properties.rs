//! Property tests for the histogram: recording is exact under
//! concurrency and summaries are consistent with the bucketing, for
//! arbitrary value mixes across the full `u64` range.
//!
//! Runs on the default proptest config, so the scheduled deep-CI job
//! (`PROPTEST_CASES=4096`) replays it at full depth.

use cq_telemetry::{bucket_index, bucket_upper_bound, Histogram};
use proptest::prelude::*;

/// Values spanning every magnitude class, not just small ints.
fn value_strategy() -> impl Strategy<Value = u64> {
    (0u32..65).prop_flat_map(|bits| {
        (any::<u64>()).prop_map(move |raw| {
            if bits == 0 {
                0
            } else if bits >= 64 {
                raw
            } else {
                (1u64 << (bits - 1)) | (raw & ((1u64 << (bits - 1)) - 1))
            }
        })
    })
}

proptest! {
    #[test]
    fn concurrent_count_and_sum_are_deterministic(
        values in proptest::collection::vec(value_strategy(), 0..200),
        threads in 1usize..5,
    ) {
        let hist = std::sync::Arc::new(Histogram::default());
        let chunk = values.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            for part in values.chunks(chunk) {
                let hist = std::sync::Arc::clone(&hist);
                scope.spawn(move || {
                    for &v in part {
                        hist.observe(v);
                    }
                });
            }
        });
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        let expected_sum = values.iter().fold(0u64, |acc, &v| acc.saturating_add(v));
        prop_assert_eq!(snap.sum(), expected_sum);
        // Buckets partition the observations exactly.
        let bucket_total: u64 = snap.buckets().iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(bucket_total, snap.count());
        for &(i, n) in snap.buckets() {
            let expected = values.iter().filter(|&&v| bucket_index(v) == i).count() as u64;
            prop_assert_eq!(n, expected);
        }
    }

    #[test]
    fn summaries_are_monotone_bucket_bounds(
        values in proptest::collection::vec(value_strategy(), 1..100),
    ) {
        let hist = Histogram::default();
        for &v in &values {
            hist.observe(v);
        }
        let snap = hist.snapshot();
        prop_assert!(snap.quantile(50) <= snap.quantile(95) && snap.quantile(95) <= snap.quantile(99));
        let max = *values.iter().max().expect("nonempty");
        let min = *values.iter().min().expect("nonempty");
        // Every percentile is the bound of some occupied bucket, and is
        // bracketed by the extreme observations' bucket bounds.
        for p in [snap.quantile(50), snap.quantile(95), snap.quantile(99)] {
            prop_assert!(snap
                .buckets()
                .iter()
                .any(|&(i, _)| bucket_upper_bound(i) == p));
            prop_assert!(p >= min, "percentile below the minimum observation");
            prop_assert!(p <= bucket_upper_bound(bucket_index(max)));
        }
        // p99 covers the maximum observation's bucket.
        if values.len() < 100 {
            prop_assert_eq!(snap.quantile(99), bucket_upper_bound(bucket_index(max)));
        }
    }
}
