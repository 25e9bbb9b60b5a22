//! End-to-end tests for the `cq-telemetry` observability layer.
//!
//! Three guarantees, each against real processes:
//!
//! 1. **Telemetry is inert** — `cq-analyze --json` produces bit-identical
//!    stdout with `CQ_TRACE` off and on (fixtures and a generated
//!    workload), while the trace file fills with well-formed NDJSON.
//! 2. **The exposition surface round-trips** — a scripted `cq-serve
//!    --metrics-file` session dumps Prometheus text that
//!    [`cq_telemetry::expo::parse`] accepts, with counters and phase
//!    histograms agreeing with the session's request accounting. This is
//!    the test the CI metrics step runs in release mode.
//! 3. **Traces survive distribution** — a 3-worker cluster run with
//!    per-worker trace files lands every input's trace id on exactly one
//!    worker, each trace's span tree is well-formed, and the merged
//!    cross-worker latency histogram counts exactly one request per
//!    input.

use cqbounds::cluster::{ClusterClient, PlanMode, ServeChild, WorkerAddr};
use cqbounds::engine::Json;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_str()
        .unwrap()
        .to_owned()
}

/// A deterministic generated workload: repeated isomorphism classes
/// (cache traffic), keyed queries (FD chase), and shape variety, all
/// from a tiny LCG so every run sees the same files.
fn generated_workload(tag: &str, n: usize) -> (Vec<String>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("cq_telemetry_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut state: u64 = 0x9e3779b97f4a7c15;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let paths: Vec<String> = (0..n)
        .map(|i| {
            let r = next();
            let text = match r % 4 {
                0 => format!("S(X,Y,Z) :- E{0}(X,Y), E{0}(X,Z), E{0}(Y,Z)\n", r % 3),
                1 => "Q(X,Y,Z) :- S(X,Y), T(Y,Z)\n".to_owned(),
                2 => format!("P(C,A,B) :- F{0}(B,C), F{0}(A,B), F{0}(A,C)\n", r % 2),
                _ => "R2(X,Y,Z) :- R(X,Y), R(X,Z)\nkey R[1]\n".to_owned(),
            };
            let path = dir.join(format!("q{i}.cq"));
            std::fs::write(&path, text).unwrap();
            path.to_str().unwrap().to_owned()
        })
        .collect();
    (paths, dir)
}

fn run_analyze(paths: &[String], trace_file: Option<&Path>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cq-analyze"));
    cmd.args(paths).arg("--json").env_remove("CQ_HYBRID_TRACE");
    match trace_file {
        Some(path) => cmd.env("CQ_TRACE", path),
        None => cmd.env_remove("CQ_TRACE"),
    };
    cmd.output().expect("run cq-analyze")
}

/// The differential guard: tracing must not perturb results. The same
/// workload runs with `CQ_TRACE` unset and pointed at a file; stdout
/// must be bit-identical, and the trace file must be non-empty,
/// line-parseable NDJSON with the documented span fields.
#[test]
fn cq_trace_is_bit_identical_and_emits_wellformed_ndjson() {
    let (mut paths, dir) = generated_workload("diff", 10);
    for f in [
        "triangle.cq",
        "cycle5.cq",
        "keyed_star.cq",
        "compound.cq",
        "star3.cq",
    ] {
        paths.push(fixture(f));
    }
    let trace_path = dir.join("analyze.trace");

    let off = run_analyze(&paths, None);
    let on = run_analyze(&paths, Some(&trace_path));
    assert_eq!(off.status.code(), on.status.code());
    assert_eq!(
        String::from_utf8_lossy(&off.stdout),
        String::from_utf8_lossy(&on.stdout),
        "CQ_TRACE must not change a single output byte"
    );

    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    let events: Vec<Json> = trace
        .lines()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON line {line:?}: {e}")))
        .collect();
    assert!(!events.is_empty(), "a traced run must emit spans");
    let mut names: HashSet<&str> = HashSet::new();
    for event in &events {
        for key in ["name", "span", "start_micros", "micros"] {
            assert!(
                event.get(key).is_some(),
                "span event missing {key:?}: {event:?}"
            );
        }
        names.insert(event.get("name").and_then(Json::as_str).unwrap());
    }
    // Phases from every layer the issue wires: session and LP at least
    // (serve/cluster spans come from the daemon tests below).
    assert!(names.contains("session.chase"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("session.")), "{names:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The scrapeable surface: a scripted stdin/stdout session against
/// `cq-serve --metrics-file` must leave behind an exposition file that
/// the strict parser accepts and whose counters match the session.
/// CI runs exactly this test in its metrics-surface step.
#[test]
fn metrics_file_round_trips_through_the_strict_expo_parser() {
    let dir = std::env::temp_dir().join(format!("cq_telemetry_expo_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics_path = dir.join("metrics.prom");

    let mut child = Command::new(env!("CARGO_BIN_EXE_cq-serve"))
        .args([
            "--threads",
            "1",
            "--metrics-file",
            metrics_path.to_str().unwrap(),
        ])
        .env_remove("CQ_TRACE")
        .env_remove("CQ_HYBRID_TRACE")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cq-serve");
    let mut stdin = child.stdin.take().unwrap();
    // 6 requests: 4 analyses (one a parse error), a stats probe, and a
    // metrics probe (which must NOT count itself).
    let session = [
        r#"{"id":1,"cmd":"analyze","query":"S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)"}"#,
        r#"{"id":2,"cmd":"analyze","query":"Q(X,Y,Z) :- S(X,Y), T(Y,Z)"}"#,
        r#"{"id":3,"cmd":"analyze","query":"not a query"}"#,
        r#"{"id":4,"cmd":"batch","queries":[{"query":"R2(X,Y,Z) :- R(X,Y), R(X,Z)\nkey R[1]"}]}"#,
        r#"{"id":5,"cmd":"stats"}"#,
        r#"{"id":6,"cmd":"metrics"}"#,
    ];
    for line in session {
        writeln!(stdin, "{line}").unwrap();
    }
    drop(stdin); // EOF: clean shutdown dumps the metrics file
    let output = child.wait_with_output().expect("daemon exits");
    assert!(output.status.success(), "{output:?}");
    let responses: Vec<Json> = String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(|l| Json::parse(l).expect("response parses"))
        .collect();
    assert_eq!(responses.len(), session.len());

    // The in-band `metrics` body and the on-disk exposition describe the
    // same registry. 5 of the 6 requests count (the metrics probe is
    // excluded so observation doesn't perturb the observed).
    let body = responses[5].get("metrics").expect("metrics body");
    let in_band_requests = body
        .get("counters")
        .and_then(|c| c.get("cq_serve_requests_total"))
        .and_then(Json::as_i64)
        .expect("in-band request counter");
    assert_eq!(in_band_requests, 5);

    let text = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let expo = cqbounds::telemetry::expo::parse(&text)
        .unwrap_or_else(|e| panic!("exposition must parse strictly: {e}\n{text}"));
    assert_eq!(expo.counter("cq_serve_requests_total"), Some(5));
    let execute = expo
        .histogram("cq_serve_execute_micros")
        .expect("execute latency histogram");
    assert_eq!(execute.count, 5);
    // Phase histograms record even with tracing off: 4 analyses chased.
    let chase = expo
        .histogram("cq_session_chase_micros")
        .expect("session phase histogram");
    assert_eq!(chase.count, 3, "3 parseable queries were chased");
    // The shutdown dump happens after the last request completed.
    assert_eq!(expo.gauge("cq_serve_requests_in_flight"), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

/// One NDJSON span event, as read back from a worker's trace file.
struct TraceEvent {
    trace_id: Option<String>,
    span: u64,
    parent: Option<u64>,
}

fn read_trace(path: &Path) -> Vec<TraceEvent> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("trace file {path:?}: {e}"));
    let lines: Vec<&str> = text.lines().collect();
    lines
        .iter()
        .enumerate()
        .filter_map(|(i, line)| match Json::parse(line) {
            Ok(json) => Some(TraceEvent {
                trace_id: json
                    .get("trace_id")
                    .and_then(Json::as_str)
                    .map(str::to_owned),
                span: json.get("span").and_then(Json::as_i64).unwrap() as u64,
                parent: json.get("parent").and_then(Json::as_i64).map(|p| p as u64),
            }),
            // The daemon is still running while we read: its very last
            // line may be mid-write. A torn line anywhere else is a bug.
            Err(e) if i + 1 == lines.len() => {
                eprintln!("ignoring torn trailing span line: {e}");
                None
            }
            Err(e) => panic!("bad span line {line:?}: {e}"),
        })
        .collect()
}

/// The distributed trace acceptance test: 3 workers, per-worker trace
/// files, client-minted trace ids propagated through batch requests.
#[test]
fn cluster_traces_land_on_exactly_one_worker_and_histograms_count_requests() {
    let dir = std::env::temp_dir().join(format!("cq_telemetry_cluster_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (paths, wdir) = generated_workload("cluster", 12);
    let inputs: Vec<(String, String)> = paths
        .iter()
        .map(|p| (p.clone(), std::fs::read_to_string(p).unwrap()))
        .collect();

    let trace_files: Vec<PathBuf> = (0..3)
        .map(|i| dir.join(format!("worker{i}.trace")))
        .collect();
    let workers: Vec<ServeChild> = trace_files
        .iter()
        .map(|path| {
            ServeChild::spawn_with_env(
                Path::new(env!("CARGO_BIN_EXE_cq-serve")),
                &[],
                &[
                    ("CQ_TRACE", Some(path.to_str().unwrap())),
                    ("CQ_HYBRID_TRACE", None),
                ],
            )
            .expect("spawn traced worker")
        })
        .collect();
    let addrs: Vec<WorkerAddr> = workers.iter().map(|w| w.addr().clone()).collect();

    // chunk=1 so every input is its own batch request: the merged
    // histogram count has an exact target (one request per input).
    let client = ClusterClient::new(addrs)
        .with_plan(PlanMode::RoundRobin)
        .with_chunk(1)
        .with_trace(true);
    let run = client.run(&inputs).expect("cluster run");
    assert_eq!(run.reports.len(), inputs.len());
    assert_eq!(run.resubmitted, 0, "all workers stayed alive");

    // Every input got a distinct client-minted trace id.
    let ids: Vec<&str> = run
        .trace_ids
        .iter()
        .map(|id| id.as_deref().expect("--trace mints an id per input"))
        .collect();
    let unique: HashSet<&str> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "trace ids must be distinct");

    // Spans flushed per line; session spans for each input were written
    // before its batch response, and the run has long since read those.
    let per_worker: Vec<Vec<TraceEvent>> = trace_files.iter().map(|p| read_trace(p)).collect();
    drop(workers);

    for id in &ids {
        let holders: Vec<usize> = per_worker
            .iter()
            .enumerate()
            .filter(|(_, events)| events.iter().any(|e| e.trace_id.as_deref() == Some(*id)))
            .map(|(w, _)| w)
            .collect();
        assert_eq!(
            holders.len(),
            1,
            "trace {id} must appear on exactly one worker, found on {holders:?}"
        );
    }

    // Well-formed nesting: within one worker's view of one trace, span
    // ids are unique and every parent pointer resolves inside the trace.
    for events in &per_worker {
        let mut by_trace: HashMap<&str, Vec<&TraceEvent>> = HashMap::new();
        for event in events {
            if let Some(id) = event.trace_id.as_deref() {
                by_trace.entry(id).or_default().push(event);
            }
        }
        for (id, group) in by_trace {
            let spans: HashSet<u64> = group.iter().map(|e| e.span).collect();
            assert_eq!(spans.len(), group.len(), "duplicate span id in trace {id}");
            assert!(
                group.iter().any(|e| e.parent.is_none()),
                "trace {id} has no root span"
            );
            for event in &group {
                if let Some(parent) = event.parent {
                    assert!(
                        spans.contains(&parent),
                        "trace {id}: span {} has dangling parent {parent}",
                        event.span
                    );
                }
            }
        }
    }

    // The merged cross-worker latency histogram counts exactly the batch
    // requests between the client's before/after probes: one per input.
    let execute = run
        .metrics
        .histogram("cq_serve_execute_micros")
        .expect("execute histogram");
    assert_eq!(
        run.metrics.counter("cq_serve_requests_total"),
        Some(inputs.len() as u64)
    );
    assert_eq!(execute.count(), inputs.len() as u64);
    assert!(
        execute.quantile(99) >= execute.quantile(50),
        "quantiles from merged buckets must be monotone"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&wdir).ok();
}
