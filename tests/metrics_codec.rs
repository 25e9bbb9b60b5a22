//! Property tests for the `metrics` body codec and the snapshot value
//! algebra: `metrics_from_json` inverts `metrics_json`, `since` undoes
//! `merge`, and the reader never panics on whatever a worker sends.

use cqbounds::engine::serve::{metrics_from_json, metrics_json};
use cqbounds::engine::Json;
use cqbounds::telemetry::{HistogramSnapshot, MetricsSnapshot, BUCKETS};
use proptest::prelude::*;
use std::collections::BTreeMap;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// A value below `2^bits` (`bits <= 62`), biased towards the ends.
    fn below(&mut self, bits: u32) -> u64 {
        let full = ((self.next() << 31) ^ self.next()) & ((1u64 << bits) - 1);
        match self.next() % 4 {
            0 => 0,
            1 => (1u64 << bits) - 1,
            _ => full >> (self.next() % u64::from(bits)),
        }
    }
}

const NAMES: [&str; 6] = [
    "cq_serve_requests_total",
    "cq_serve_execute_micros",
    "cq_session_chase_micros",
    "cq_cache_entries",
    "a",
    "zz_total",
];

/// A name-sorted snapshot over `names` (each kind keeps a random
/// subset, or every name when `all`), with values below `2^bits`.
fn snapshot(rng: &mut Lcg, names: &[&str], bits: u32, all: bool) -> MetricsSnapshot {
    let pick = |rng: &mut Lcg| -> Vec<String> {
        let set: BTreeMap<&str, ()> = names
            .iter()
            .filter(|_| all || rng.next().is_multiple_of(2))
            .map(|&n| (n, ()))
            .collect();
        set.into_keys().map(str::to_owned).collect()
    };
    let counters = pick(rng);
    let gauges = pick(rng);
    let histograms = pick(rng);
    MetricsSnapshot {
        counters: counters.into_iter().map(|n| (n, rng.below(bits))).collect(),
        gauges: gauges
            .into_iter()
            .map(|n| {
                let magnitude = rng.below(bits) as i64;
                (
                    n,
                    if rng.next().is_multiple_of(2) {
                        magnitude
                    } else {
                        -magnitude
                    },
                )
            })
            .collect(),
        histograms: histograms
            .into_iter()
            .map(|n| {
                let pairs: Vec<(usize, u64)> = (0..rng.next() % 6)
                    .map(|_| ((rng.next() % BUCKETS as u64) as usize, rng.below(bits - 4)))
                    .collect();
                (n, HistogramSnapshot::from_buckets(pairs, rng.below(bits)))
            })
            .collect(),
    }
}

/// An arbitrary JSON value shaped loosely like a `metrics` body:
/// the right keys at random depths, holding anything.
fn arbitrary_json(rng: &mut Lcg, depth: u32) -> Json {
    const KEYS: [&str; 9] = [
        "counters",
        "gauges",
        "histograms",
        "buckets",
        "sum",
        "count",
        "p50",
        "cq_serve_execute_micros",
        "x",
    ];
    let leaf = |rng: &mut Lcg| match rng.next() % 7 {
        0 => Json::Null,
        1 => Json::Bool(rng.next().is_multiple_of(2)),
        2 => Json::Int(i64::MIN),
        3 => Json::Int(i64::MAX),
        4 => Json::Int(rng.next() as i64 - (1 << 30)),
        5 => Json::Float(rng.next() as f64 / 7.0),
        _ => Json::str("x"),
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.next() % 4 {
        0 => leaf(rng),
        1 => Json::Arr(
            (0..rng.next() % 4)
                .map(|_| arbitrary_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.next() % 5)
                .map(|_| {
                    let key = KEYS[(rng.next() % KEYS.len() as u64) as usize].to_owned();
                    (key, arbitrary_json(rng, depth - 1))
                })
                .collect(),
        ),
    }
}

proptest! {
    /// Every snapshot whose values fit the wire's `i64` survives the
    /// trip through the `metrics` body unchanged.
    #[test]
    fn metrics_body_round_trips(seed in any::<u64>()) {
        let mut rng = Lcg(seed);
        let snap = snapshot(&mut rng, &NAMES, 62, false);
        prop_assert_eq!(metrics_from_json(&metrics_json(&snap)), snap);
    }

    /// `since` undoes `merge` when nothing saturates: a worker's window
    /// is recovered exactly from its merged total.
    #[test]
    fn since_undoes_merge(seed in any::<u64>()) {
        let mut rng = Lcg(seed);
        let names: Vec<&str> = NAMES.iter().copied().filter(|_| !rng.next().is_multiple_of(3)).collect();
        let a = snapshot(&mut rng, &names, 60, true);
        let b = snapshot(&mut rng, &names, 60, true);
        let mut merged = a.clone();
        merged.merge(&b);
        prop_assert_eq!(merged.since(&a), b);
    }

    /// The reader takes any JSON a worker might send without
    /// panicking, and what it returns renders and reads back.
    #[test]
    fn metrics_from_json_never_panics(seed in any::<u64>()) {
        let mut rng = Lcg(seed);
        let body = if rng.next().is_multiple_of(3) {
            // A real body with one field corrupted.
            let mut body = metrics_json(&snapshot(&mut rng, &NAMES, 62, false));
            if let Json::Obj(fields) = &mut body {
                if !fields.is_empty() {
                    let i = (rng.next() % fields.len() as u64) as usize;
                    fields[i].1 = arbitrary_json(&mut rng, 3);
                }
            }
            body
        } else {
            arbitrary_json(&mut rng, 5)
        };
        let snap = metrics_from_json(&body);
        for (_, h) in &snap.histograms {
            prop_assert!(h.buckets().iter().all(|&(i, n)| i < BUCKETS && n > 0));
        }
        let _ = metrics_from_json(&metrics_json(&snap));
    }
}
