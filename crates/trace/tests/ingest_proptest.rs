//! The ingestion hardening property: random span files, byte-truncated
//! at a random point, always ingest without a panic, recover every
//! complete record byte-for-byte, and assemble into a deterministic
//! report.
//!
//! Runs at the default case count on PRs; the scheduled deep CI job
//! replays it at `PROPTEST_CASES=4096`.

use cq_trace::ingest::{ingest_bytes, Ingest, WarningKind};
use cq_trace::model::assemble;
use proptest::prelude::*;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

const NAMES: [&str; 5] = [
    "serve.request",
    "serve.execute",
    "session.chase",
    "lp.float_propose",
    "lp.exact_verify",
];

/// A deterministic random span file: a mix of rooted spans, children,
/// forged dangling parents, and occasional trace ids.
fn random_lines(seed: u64) -> Vec<String> {
    let mut rng = Lcg(seed.wrapping_mul(2).wrapping_add(1));
    let count = (rng.next() % 24 + 1) as usize;
    (0..count)
        .map(|i| {
            let span = i as u64 + 1;
            let name = NAMES[(rng.next() % NAMES.len() as u64) as usize];
            let parent = match rng.next() % 4 {
                0 => None,
                1 => Some(rng.next() % 40 + 1), // possibly dangling or cyclic
                _ if i > 0 => Some(rng.next() % span + 1),
                _ => None,
            };
            let trace = match rng.next() % 3 {
                0 => None,
                t => Some(format!("t-{}", t % 2)),
            };
            let trace = trace.map_or(String::new(), |t| format!(",\"trace_id\":\"{t}\""));
            let parent = parent.map_or(String::new(), |p| format!(",\"parent\":{p}"));
            format!(
                "{{\"name\":\"{name}\"{trace},\"span\":{span}{parent},\
                 \"start_micros\":{},\"micros\":{}}}",
                rng.next() % 10_000,
                rng.next() % 100_000,
            )
        })
        .collect()
}

/// A span file whose durations reach the top of the non-negative
/// `i64` range: each span's `micros` is small, exactly `i64::MAX`, or
/// any 63-bit value, so a phase's spans add up far past `u64::MAX`.
fn huge_duration_lines(seed: u64) -> Vec<String> {
    let mut rng = Lcg(seed.wrapping_mul(2).wrapping_add(1));
    let count = (rng.next() % 24 + 1) as usize;
    (0..count)
        .map(|i| {
            let span = i as u64 + 1;
            let name = NAMES[(rng.next() % NAMES.len() as u64) as usize];
            let parent = match rng.next() % 2 {
                0 => String::new(),
                _ => format!(",\"parent\":{}", rng.next() % span + 1),
            };
            let micros = match rng.next() % 3 {
                0 => rng.next() % 100_000,
                1 => i64::MAX as u64,
                _ => ((rng.next() << 32) | rng.next()) & i64::MAX as u64,
            };
            format!(
                "{{\"name\":\"{name}\",\"trace_id\":\"t-0\",\"span\":{span}{parent},\
                 \"start_micros\":{},\"micros\":{micros}}}",
                rng.next() % 10_000,
            )
        })
        .collect()
}

proptest! {
    #[test]
    fn truncated_ingestion_recovers_every_complete_record(
        (seed, cut_frac) in (any::<u64>(), any::<u64>())
    ) {
        let lines = random_lines(seed);
        let mut full = lines.join("\n");
        full.push('\n');
        let bytes = full.as_bytes();
        let cut = (cut_frac % (bytes.len() as u64 + 1)) as usize;
        let prefix = &bytes[..cut];

        let mut ingest = Ingest::default();
        ingest_bytes("fuzz.trace", prefix, &mut ingest);

        let complete = prefix.iter().filter(|&&b| b == b'\n').count();
        // Every fully-delivered record is recovered; at most one more
        // (a final record whose newline alone was cut still parses).
        prop_assert!(
            ingest.events.len() == complete || ingest.events.len() == complete + 1,
            "cut={cut}: {} events for {complete} complete lines",
            ingest.events.len()
        );
        for (event, line) in ingest.events.iter().zip(&lines) {
            let needle = format!("\"span\":{}", event.span);
            let recovered_in_order = line.contains(&needle);
            prop_assert!(recovered_in_order, "line {line} lacks {needle}");
        }
        // Damage is warnings, never an abort — a truncated well-formed
        // file can only show a torn tail (or be empty outright).
        for warning in &ingest.warnings {
            let expected = if cut == 0 {
                WarningKind::EmptyFile
            } else {
                WarningKind::TornTail
            };
            prop_assert_eq!(warning.kind, expected);
        }
        prop_assert!(ingest.warnings.len() <= 1);

        // Assembly over hostile shapes (dangling parents, cycles from
        // the forged-parent arm) never panics and conserves spans.
        let assembly = assemble(ingest);
        let in_traces: usize = assembly.traces.iter().map(|t| t.spans.len()).sum();
        let dup_spans: usize = assembly.traces.iter().map(|t| t.duplicate_spans).sum();
        prop_assert_eq!(in_traces + dup_spans + assembly.untraced_spans, assembly.spans_total);
        let phase_total: u64 = assembly.phases.iter().map(|p| p.durations.count()).sum();
        prop_assert_eq!(phase_total as usize, assembly.spans_total);
    }

    #[test]
    fn untruncated_ingestion_is_lossless(seed in any::<u64>()) {
        let lines = random_lines(seed);
        let mut full = lines.join("\n");
        full.push('\n');
        let mut ingest = Ingest::default();
        ingest_bytes("fuzz.trace", full.as_bytes(), &mut ingest);
        prop_assert!(ingest.warnings.is_empty(), "{:?}", ingest.warnings);
        prop_assert_eq!(ingest.events.len(), lines.len());
    }

    /// Span durations anywhere in the non-negative `i64` range never
    /// make assembly panic, and totals saturate rather than wrap: each
    /// phase's total is at least its longest span.
    #[test]
    fn huge_span_durations_saturate_phase_totals(seed in any::<u64>()) {
        let mut text = huge_duration_lines(seed).join("\n");
        text.push('\n');
        let mut ingest = Ingest::default();
        ingest_bytes("huge.trace", text.as_bytes(), &mut ingest);
        prop_assert!(ingest.warnings.is_empty(), "{:?}", ingest.warnings);
        let longest = |name: &str| {
            ingest
                .events
                .iter()
                .filter(|e| e.name == name)
                .map(|e| e.micros)
                .max()
        };
        let longest: Vec<(String, Option<u64>)> = NAMES
            .iter()
            .map(|&name| (name.to_owned(), longest(name)))
            .collect();
        let assembly = assemble(ingest);
        for phase in &assembly.phases {
            let (_, max) = longest.iter().find(|(n, _)| *n == phase.name).unwrap();
            let max = max.unwrap();
            prop_assert!(
                phase.durations.sum() >= max,
                "{}: total {} below its longest span {max}",
                phase.name,
                phase.durations.sum()
            );
            prop_assert!(phase.self_micros <= phase.durations.sum());
        }
    }
}
