//! Prometheus-style text exposition: render and (strict) parse.
//!
//! `cq-serve --metrics-file` dumps [`render`] output on shutdown and on
//! every `metrics` command; a scraper (or the CI step) reads it back
//! with [`parse`]. The parser is deliberately strict — unknown line
//! shapes, samples without a preceding `# TYPE`, or histograms whose
//! cumulative buckets disagree with their `_count` are errors — so the
//! format cannot drift without a test noticing. The round-trip
//! (`parse(render(snapshot))` reproduces every value) is tested here
//! and exercised against the real daemon in `tests/telemetry.rs`.

use crate::metrics::{bucket_upper_bound, MetricsSnapshot};

/// Renders a registry snapshot in Prometheus text format. Histogram
/// buckets are cumulative with `le` bounds from the log₂ bucketing
/// (only buckets that hold observations are listed, plus `+Inf`).
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    }
    for (name, hist) in &snapshot.histograms {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for &(bucket, count) in hist.buckets() {
            cumulative = cumulative.saturating_add(count);
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                bucket_upper_bound(bucket)
            ));
        }
        out.push_str(&format!(
            "{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_sum {sum}\n{name}_count {count}\n",
            count = hist.count(),
            sum = hist.sum(),
        ));
    }
    out
}

/// One histogram as read back from an exposition file: cumulative
/// `(le, count)` buckets plus the `_sum`/`_count` samples.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParsedHistogram {
    pub count: u64,
    pub sum: u64,
    /// Cumulative buckets in file order; the final entry is `+Inf`.
    pub buckets: Vec<(String, u64)>,
}

/// A parsed exposition file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParsedExpo {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, ParsedHistogram)>,
}

impl ParsedExpo {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn histogram(&self, name: &str) -> Option<&ParsedHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// Parses [`render`] output (strict; see the module docs).
pub fn parse(text: &str) -> Result<ParsedExpo, String> {
    let mut expo = ParsedExpo::default();
    let mut declared: Option<(String, String)> = None;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or(format!("line {n}: TYPE without name"))?;
            let kind = parts.next().ok_or(format!("line {n}: TYPE without kind"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {n}: unknown metric kind {kind:?}"));
            }
            if parts.next().is_some() {
                return Err(format!("line {n}: trailing tokens after TYPE"));
            }
            declared = Some((name.to_owned(), kind.to_owned()));
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (sample, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {n}: sample without value"))?;
        let (name, kind) = declared
            .as_ref()
            .ok_or(format!("line {n}: sample before any # TYPE line"))?;
        match kind.as_str() {
            "counter" => {
                if sample != name {
                    return Err(format!("line {n}: sample {sample:?} under TYPE {name:?}"));
                }
                let v: u64 = value
                    .parse()
                    .map_err(|_| format!("line {n}: bad counter value {value:?}"))?;
                expo.counters.push((name.clone(), v));
            }
            "gauge" => {
                if sample != name {
                    return Err(format!("line {n}: sample {sample:?} under TYPE {name:?}"));
                }
                let v: i64 = value
                    .parse()
                    .map_err(|_| format!("line {n}: bad gauge value {value:?}"))?;
                expo.gauges.push((name.clone(), v));
            }
            "histogram" => {
                let v: u64 = value
                    .parse()
                    .map_err(|_| format!("line {n}: bad histogram value {value:?}"))?;
                let hist = match expo.histograms.last_mut() {
                    Some((last, hist)) if last == name => hist,
                    _ => {
                        expo.histograms
                            .push((name.clone(), ParsedHistogram::default()));
                        &mut expo.histograms.last_mut().expect("just pushed").1
                    }
                };
                if let Some(labels) = sample
                    .strip_prefix(&format!("{name}_bucket{{le=\""))
                    .and_then(|rest| rest.strip_suffix("\"}"))
                {
                    if let Some(&(_, prev)) = hist.buckets.last() {
                        if v < prev {
                            return Err(format!("line {n}: non-cumulative bucket for {name}"));
                        }
                    }
                    hist.buckets.push((labels.to_owned(), v));
                } else if sample == format!("{name}_sum") {
                    hist.sum = v;
                } else if sample == format!("{name}_count") {
                    hist.count = v;
                } else {
                    return Err(format!(
                        "line {n}: sample {sample:?} under histogram {name:?}"
                    ));
                }
            }
            _ => unreachable!("kinds validated at declaration"),
        }
    }
    for (name, hist) in &expo.histograms {
        match hist.buckets.last() {
            Some((le, total)) if le == "+Inf" && *total == hist.count => {}
            Some((le, total)) => {
                return Err(format!(
                    "histogram {name}: final bucket le={le:?} total {total} \
                     disagrees with count {}",
                    hist.count
                ));
            }
            None => return Err(format!("histogram {name}: no buckets")),
        }
    }
    Ok(expo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn sample_registry() -> Metrics {
        let m = Metrics::new();
        m.counter("cq_serve_requests_total").add(12);
        m.gauge("cq_serve_requests_in_flight").set(2);
        let h = m.histogram("cq_serve_execute_micros");
        for v in [3, 3, 90, 700, u64::MAX] {
            h.observe(v);
        }
        m
    }

    #[test]
    fn round_trip_preserves_every_value() {
        let snapshot = sample_registry().snapshot();
        let text = render(&snapshot);
        let parsed = parse(&text).expect("own rendering parses");
        assert_eq!(parsed.counter("cq_serve_requests_total"), Some(12));
        assert_eq!(parsed.gauge("cq_serve_requests_in_flight"), Some(2));
        let hist = parsed.histogram("cq_serve_execute_micros").unwrap();
        assert_eq!(hist.count, 5);
        assert_eq!(hist.sum, u64::MAX, "saturated sum survives the trip");
        // Cumulative buckets end at the count.
        assert_eq!(hist.buckets.last().unwrap(), &("+Inf".to_owned(), 5));
        // And the non-Inf bounds are the log2 bucket bounds.
        assert_eq!(hist.buckets[0], ("3".to_owned(), 2));
    }

    #[test]
    fn renders_cumulative_buckets() {
        let m = Metrics::new();
        let h = m.histogram("lat");
        h.observe(1);
        h.observe(2);
        h.observe(2);
        let text = render(&m.snapshot());
        assert!(text.contains("lat_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"3\"} 3\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("lat_count 3\n"), "{text}");
    }

    #[test]
    fn rejects_drifted_formats() {
        for (text, why) in [
            ("cq_x 5\n", "sample before TYPE"),
            ("# TYPE cq_x summary\ncq_x 5\n", "unknown kind"),
            ("# TYPE cq_x counter\ncq_y 5\n", "name mismatch"),
            ("# TYPE cq_x counter\ncq_x -5\n", "negative counter"),
            ("# TYPE cq_x counter\ncq_x\n", "missing value"),
            (
                "# TYPE cq_x histogram\ncq_x_bucket{le=\"1\"} 2\n\
                 cq_x_bucket{le=\"+Inf\"} 1\ncq_x_sum 1\ncq_x_count 1\n",
                "non-cumulative buckets",
            ),
            (
                "# TYPE cq_x histogram\ncq_x_sum 1\ncq_x_count 1\n",
                "histogram without buckets",
            ),
            (
                "# TYPE cq_x histogram\ncq_x_bucket{le=\"+Inf\"} 2\n\
                 cq_x_sum 1\ncq_x_count 1\n",
                "+Inf disagrees with count",
            ),
        ] {
            assert!(parse(text).is_err(), "{why} must be rejected:\n{text}");
        }
    }

    #[test]
    fn empty_exposition_parses_empty() {
        assert_eq!(parse("").unwrap(), ParsedExpo::default());
    }
}
