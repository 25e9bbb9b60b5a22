//! End-to-end tests for the `cq-trace` telemetry consumer.
//!
//! The acceptance properties, each against real processes:
//!
//! 1. **Cluster assembly is complete** — the per-worker NDJSON files of
//!    a 3-worker `cq-cluster` run reconstruct every request's span
//!    tree: each client-minted trace id lands on exactly one worker
//!    (no duplicate deliveries), every parent pointer resolves (zero
//!    orphans), and the assembled `serve.execute` counts agree with
//!    the merged `cluster.metrics` latency histogram exactly.
//! 2. **Flamegraph export round-trips** — `cq-trace flame` output from
//!    a traced run parses back through the strict folded-stack parser
//!    and conserves the traced self time.
//! 3. **`top` reads a live daemon exactly** — the rendered worker row
//!    and merged `serve.execute` phase agree with the daemon's own
//!    `stats` and `metrics` answers.
//! 4. **Batched requests assemble too** — a request carrying several
//!    queries, whose cache-miss planning runs inside the request's span,
//!    still leaves no orphan spans.
//! 5. **Counting is traced only where it runs** — a `cq-analyze --json`
//!    run without `--db` opens no `core.count.*` span (analysis never
//!    counts), and a run with `--db` opens exactly one per input, the
//!    elimination count's `core.count.eliminate`, as the child of that
//!    input's `session.data_check`.
//! 6. **Loading is traced once** — a `--db` run opens one root
//!    `relation.load` span carrying the database's byte, tuple and
//!    symbol counts, a run without data none, and the trace assembles
//!    with no orphans.
//! 7. **The float phase reports its pivots** — on cycle-fd k = 9 each
//!    `lp.float_propose` span carries its pivot, degenerate-pivot and
//!    Bland-pivot counts, and the Bland backstop prices none.

use cq_cluster::{ClusterClient, PlanMode, ServeChild, WorkerAddr};
use cq_engine::serve::metrics_from_json;
use cq_engine::Json;
use cq_trace::{poll_worker, render_top};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cq-trace-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic workload with shape variety and cache traffic (the
/// same recipe the telemetry suite uses).
fn workload(dir: &Path, n: usize) -> Vec<(String, String)> {
    let mut state: u64 = 0x9e3779b97f4a7c15;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..n)
        .map(|i| {
            let r = next();
            let text = match r % 4 {
                0 => format!("S(X,Y,Z) :- E{0}(X,Y), E{0}(X,Z), E{0}(Y,Z)\n", r % 3),
                1 => "Q(X,Y,Z) :- S(X,Y), T(Y,Z)\n".to_owned(),
                2 => format!("P(C,A,B) :- F{0}(B,C), F{0}(A,B), F{0}(A,C)\n", r % 2),
                _ => "R2(X,Y,Z) :- R(X,Y), R(X,Z)\nkey R[1]\n".to_owned(),
            };
            let path = dir.join(format!("q{i}.cq"));
            std::fs::write(&path, &text).unwrap();
            (path.to_str().unwrap().to_owned(), text)
        })
        .collect()
}

/// The distributed assembly acceptance test: a real 3-worker cluster
/// run, assembled from the per-worker trace files alone, reconstructs
/// every request and agrees with the merged metrics histograms.
#[test]
fn cluster_trace_files_assemble_completely_and_match_merged_metrics() {
    let dir = tmp("cluster");
    let inputs = workload(&dir, 12);

    let trace_files: Vec<PathBuf> = (0..3)
        .map(|i| dir.join(format!("run.trace.w{i}")))
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

    // chunk=1: every input is its own batch request, so the merged
    // histogram count has an exact per-input target.
    let client = ClusterClient::new(addrs)
        .with_plan(PlanMode::RoundRobin)
        .with_chunk(1)
        .with_trace(true);
    let run = client.run(&inputs).expect("cluster run");
    assert_eq!(run.reports.len(), inputs.len());
    assert_eq!(run.resubmitted, 0, "all workers stayed alive");
    // Workers are idle now (the run has read every response); killing
    // them cannot tear a line of the per-line-flushed sink.
    drop(workers);

    let assembly = cq_trace::assemble(cq_trace::ingest_files(&trace_files).expect("readable"));
    if let Some(warning) = assembly.warnings.first() {
        panic!("ingestion warning on a clean run: {}", warning.render());
    }
    assert_eq!(assembly.headers.len(), 3, "one header per worker process");
    assert_eq!(assembly.orphans_total(), 0, "every parent pointer resolves");
    for trace in &assembly.traces {
        assert_eq!(
            trace.duplicates_dropped, 0,
            "trace {} delivered to more than one worker",
            trace.trace_id
        );
        assert_eq!(trace.duplicate_spans, 0, "trace {}", trace.trace_id);
        assert_eq!(trace.cycles_broken, 0, "trace {}", trace.trace_id);
        assert!(!trace.roots.is_empty(), "trace {}", trace.trace_id);
    }

    // Every client-minted id is reconstructed: the cluster client
    // stamps ids per *query* (not per request line), so each input's
    // trace holds that query's session-phase spans on the one worker
    // that analyzed it; serve.request/serve.execute belong to the
    // worker-minted per-request traces alongside them.
    let ids: Vec<&str> = run
        .trace_ids
        .iter()
        .map(|id| id.as_deref().expect("--trace mints an id per input"))
        .collect();
    let unique: HashSet<&str> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "trace ids must be distinct");
    for id in &ids {
        let trace = assembly
            .traces
            .iter()
            .find(|t| t.trace_id == *id)
            .unwrap_or_else(|| panic!("trace {id} missing from assembly"));
        assert!(!trace.spans.is_empty(), "trace {id} has no spans");
        assert!(
            trace.spans.iter().all(|s| s.name.starts_with("session.")),
            "trace {id}: a query's trace holds its session phases, got {:?}",
            trace.phase_counts()
        );
        assert!(
            trace
                .critical_path
                .first()
                .is_some_and(|(name, _)| name.starts_with("session.")),
            "trace {id}: {:?}",
            trace.critical_path
        );
    }

    // The exact agreement with the merged cross-worker histograms:
    // with chunk=1 the metrics delta counted one execute per input,
    // and each of those batch requests carried exactly one traced
    // query — so client-id traces and histogram observations are in
    // bijection.
    let execute_count = run
        .metrics
        .histogram("cq_serve_execute_micros")
        .map_or(0, |h| h.count());
    assert_eq!(execute_count, inputs.len() as u64);
    let client_traces = assembly
        .traces
        .iter()
        .filter(|t| unique.contains(t.trace_id.as_str()))
        .count();
    assert_eq!(client_traces as u64, execute_count);

    // And the per-phase totals: every request a worker handled — the
    // batch requests the histogram counted plus the client's 4 probes
    // per worker (stats, metrics before; metrics, stats after), which
    // the counter deliberately excludes — emitted exactly one
    // serve.request and one serve.execute span.
    let phase_count = |name: &str| -> u64 {
        assembly
            .phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.durations.count())
    };
    let probes = 4 * trace_files.len() as u64;
    assert_eq!(phase_count("serve.execute"), execute_count + probes);
    assert_eq!(phase_count("serve.request"), phase_count("serve.execute"));
    let execute_phase = assembly
        .phases
        .iter()
        .find(|p| p.name == "serve.execute")
        .expect("serve.execute phase present");
    assert!(execute_phase.quantile(99) >= execute_phase.quantile(50));

    std::fs::remove_dir_all(&dir).ok();
}

/// A batch request of several queries to a serve worker with a cache
/// plans its cache misses on the request thread, inside the request's
/// `serve.execute` span, under each query's own trace id: those spans
/// must be roots of the query's trace, not children of a span in the
/// request's trace, or assembly counts them as orphans.
#[test]
fn multi_query_batch_requests_assemble_without_orphans() {
    let dir = tmp("batched");
    let inputs = workload(&dir, 8);
    let trace_file = dir.join("run.trace.w0");
    let worker = ServeChild::spawn_with_env(
        Path::new(env!("CARGO_BIN_EXE_cq-serve")),
        &[],
        &[
            ("CQ_TRACE", Some(trace_file.to_str().unwrap())),
            ("CQ_HYBRID_TRACE", None),
        ],
    )
    .expect("spawn traced worker");
    let client = ClusterClient::new(vec![worker.addr().clone()])
        .with_chunk(4)
        .with_trace(true);
    let run = client.run(&inputs).expect("cluster run");
    assert_eq!(run.reports.len(), inputs.len());
    drop(worker);

    let assembly = cq_trace::assemble(cq_trace::ingest_files(&[trace_file]).expect("readable"));
    assert!(
        assembly.warnings.is_empty(),
        "ingestion warnings on a clean run"
    );
    assert_eq!(assembly.orphans_total(), 0, "every parent pointer resolves");
    for id in run.trace_ids.iter().flatten() {
        let trace = assembly
            .traces
            .iter()
            .find(|t| &t.trace_id == id)
            .unwrap_or_else(|| panic!("trace {id} missing from assembly"));
        assert!(
            trace.spans.iter().any(|s| s.name == "session.chase"),
            "trace {id}: the planning chase carries the query's id, got {:?}",
            trace.phase_counts()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `cq-trace flame` output must re-parse through the strict
/// folded-stack parser (the binary self-checks, but this pins the
/// contract from the consumer side) and `assemble --json` must emit a
/// machine-readable report over the same file.
#[test]
fn flame_and_assemble_json_round_trip_from_a_traced_run() {
    let dir = tmp("flame");
    let inputs = workload(&dir, 6);
    let paths: Vec<&str> = inputs.iter().map(|(p, _)| p.as_str()).collect();
    let trace_path = dir.join("analyze.trace.ndjson");

    let out = Command::new(env!("CARGO_BIN_EXE_cq-analyze"))
        .args(&paths)
        .arg("--json")
        .env("CQ_TRACE", &trace_path)
        .env_remove("CQ_HYBRID_TRACE")
        .output()
        .expect("run cq-analyze");
    assert!(out.status.success());

    let flame = Command::new(env!("CARGO_BIN_EXE_cq-trace"))
        .arg("flame")
        .arg(&trace_path)
        .output()
        .expect("run cq-trace flame");
    assert!(
        flame.status.success(),
        "{}",
        String::from_utf8_lossy(&flame.stderr)
    );
    let folded = String::from_utf8_lossy(&flame.stdout);
    let stacks = cq_trace::parse_folded(&folded)
        .unwrap_or_else(|e| panic!("flame output must re-parse: {e}\n{folded}"));
    assert!(!stacks.is_empty(), "a traced run must yield stacks");
    assert!(
        stacks.iter().any(|(stack, _)| stack.contains("session.")),
        "{stacks:?}"
    );
    let total: u64 = stacks.iter().map(|(_, micros)| *micros).sum();
    assert!(total > 0, "self time must be conserved into the stacks");

    let assemble = Command::new(env!("CARGO_BIN_EXE_cq-trace"))
        .args(["assemble", "--json", "--require-complete"])
        .arg(&trace_path)
        .output()
        .expect("run cq-trace assemble");
    assert!(
        assemble.status.success(),
        "a clean single-process trace must be complete: {}",
        String::from_utf8_lossy(&assemble.stderr)
    );
    let report = Json::parse(String::from_utf8_lossy(&assemble.stdout).trim())
        .expect("assemble --json emits one JSON object");
    assert_eq!(report.get("orphans").and_then(Json::as_i64), Some(0));
    assert_eq!(
        report
            .get("warnings")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(0)
    );
    assert_eq!(
        report
            .get("headers")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(1),
        "one process run, one header"
    );
    let phases = report.get("phases").expect("per-phase stats");
    let Json::Obj(entries) = phases else {
        panic!("phases must be an object: {}", phases.render());
    };
    assert!(
        entries.iter().any(|(name, _)| name.starts_with("session.")),
        "{}",
        phases.render()
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The trace file of a `cq-analyze --json` run over `inputs`, one JSON
/// event per line.
fn traced_run(dir: &Path, inputs: &[&str], db: Option<&str>) -> PathBuf {
    let trace_path = dir.join(format!("analyze-{}.ndjson", db.is_some()));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cq-analyze"));
    cmd.args(inputs).arg("--json");
    if let Some(db) = db {
        cmd.args(["--db", db]);
    }
    // The default LP routing, whose hybrid solves trace a float phase.
    let out = cmd
        .env("CQ_TRACE", &trace_path)
        .env_remove("CQ_HYBRID_TRACE")
        .env_remove("CQ_LP_ENGINE")
        .output()
        .expect("run cq-analyze");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    trace_path
}

/// The events in a trace file.
fn trace_events(path: &Path) -> Vec<Json> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|line| Json::parse(line).expect("one JSON object per line"))
        .collect()
}

/// The spans of a traced run, each as `(name, span, parent)`.
fn traced_spans(dir: &Path, inputs: &[&str], db: Option<&str>) -> Vec<(String, i64, i64)> {
    trace_events(&traced_run(dir, inputs, db))
        .into_iter()
        .map(|event| {
            let name = event.get("name").and_then(Json::as_str).unwrap().to_owned();
            let span = event.get("span").and_then(Json::as_i64).unwrap();
            let parent = event.get("parent").and_then(Json::as_i64).unwrap_or(0);
            (name, span, parent)
        })
        .collect()
}

/// A run without `--db` never counts, so it must not pay for a count
/// plan either; a run with `--db` counts each input once, by
/// elimination, under its data check.
#[test]
fn count_spans_appear_once_per_data_check_and_never_without_data() {
    let dir = tmp("count-spans");
    let inputs = [
        "tests/fixtures/triangle.cq",
        "tests/fixtures/keyed_star.cq",
        "tests/fixtures/selfjoin_proj.cq",
        "tests/fixtures/path_keyed.cq",
    ];
    let without = traced_spans(&dir, &inputs, None);
    assert!(
        without
            .iter()
            .any(|(name, _, _)| name.starts_with("session.")),
        "a traced run emits session spans: {without:?}"
    );
    assert!(
        without
            .iter()
            .all(|(name, _, _)| !name.starts_with("core.count.")),
        "no --db, no count: {without:?}"
    );

    let with = traced_spans(&dir, &inputs, Some("tests/fixtures/triangle.db"));
    let checks: HashSet<i64> = with
        .iter()
        .filter(|(name, _, _)| name == "session.data_check")
        .map(|&(_, span, _)| span)
        .collect();
    let counts: Vec<&(String, i64, i64)> = with
        .iter()
        .filter(|(name, _, _)| name.starts_with("core.count."))
        .collect();
    assert_eq!(checks.len(), inputs.len(), "{with:?}");
    assert_eq!(counts.len(), inputs.len(), "one count per input: {with:?}");
    for (name, _, parent) in &counts {
        assert_eq!(name, "core.count.eliminate");
        assert!(checks.contains(parent), "{name} under a data check");
    }
    let parents: HashSet<i64> = counts.iter().map(|&&(_, _, parent)| parent).collect();
    assert_eq!(parents, checks, "each data check counts once");

    std::fs::remove_dir_all(&dir).ok();
}

/// `session.coloring_lp` carries its canonical-form search's leaf count
/// and whether the leaf budget bound: the 6-clique's search reaches 16
/// leaves, well inside the budget.
#[test]
fn coloring_lp_span_records_the_canonical_search() {
    let dir = tmp("coloring-lp");
    let vars = ["A", "B", "C", "D", "E", "F"];
    let atoms: Vec<String> = (0..6)
        .flat_map(|i| (i + 1..6).map(move |j| (i, j)))
        .map(|(i, j)| format!("E{i}_{j}({},{})", vars[i], vars[j]))
        .collect();
    let clique = dir.join("clique6.cq");
    std::fs::write(
        &clique,
        format!("Q({}) :- {}\n", vars.join(","), atoms.join(", ")),
    )
    .unwrap();
    let events = trace_events(&traced_run(&dir, &[clique.to_str().unwrap()], None));
    let lps: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("session.coloring_lp"))
        .collect();
    assert_eq!(lps.len(), 1, "{events:?}");
    assert_eq!(lps[0].get("leaves"), Some(&Json::Int(16)));
    assert_eq!(lps[0].get("budget_hit"), Some(&Json::Int(0)));
}

/// Loading a `--db` database is one `relation.load` root per process,
/// with no trace id and the loaded sizes as fields; a run without data
/// loads nothing, and the trace still assembles without orphans.
#[test]
fn load_span_is_one_root_per_db_run_and_never_without_data() {
    let dir = tmp("load-span");
    let inputs = ["tests/fixtures/triangle.cq", "tests/fixtures/keyed_star.cq"];
    let is_load = |e: &&Json| e.get("name").and_then(Json::as_str) == Some("relation.load");
    let without = trace_events(&traced_run(&dir, &inputs, None));
    assert_eq!(
        without.iter().filter(is_load).count(),
        0,
        "no --db, no load"
    );

    let db = "tests/fixtures/triangle.db";
    let trace_path = traced_run(&dir, &inputs, Some(db));
    let events = trace_events(&trace_path);
    let loads: Vec<&Json> = events.iter().filter(is_load).collect();
    assert_eq!(loads.len(), 1, "one load per process: {loads:?}");
    let load = loads[0];
    assert!(load.get("parent").is_none() && load.get("trace_id").is_none());
    let field = |key: &str| load.get(key).and_then(Json::as_i64);
    let text = std::fs::read_to_string(db).unwrap();
    let parsed = cqbounds::relation::parse_database(&text).unwrap();
    let tuples: usize = parsed.relations().map(|r| r.len()).sum();
    assert_eq!(field("bytes"), Some(text.len() as i64));
    assert_eq!(field("tuples"), Some(tuples as i64));
    assert_eq!(field("symbols"), Some(parsed.symbols().len() as i64));

    let assemble = Command::new(env!("CARGO_BIN_EXE_cq-trace"))
        .args(["assemble", "--json", "--require-complete"])
        .arg(&trace_path)
        .output()
        .expect("run cq-trace assemble");
    assert!(
        assemble.status.success(),
        "{}",
        String::from_utf8_lossy(&assemble.stderr)
    );
    let report = Json::parse(String::from_utf8_lossy(&assemble.stdout).trim())
        .expect("assemble --json emits one JSON object");
    assert_eq!(report.get("orphans").and_then(Json::as_i64), Some(0));

    std::fs::remove_dir_all(&dir).ok();
}

/// cycle-fd k = 9 (the 9-cycle plus `T(X0,X1,X2)` under
/// `T[1,2] -> T[3]`) solves two hybrid LPs: Proposition 6.10 in
/// I-measure coordinates and the Proposition 6.9 Shannon program. Each
/// float phase records its pivots, how many were degenerate, and how
/// many the Bland backstop priced: none, since devex ends every
/// degenerate stretch on its own.
#[test]
fn float_propose_spans_record_the_pivot_counts() {
    let dir = tmp("float-propose");
    let k = 9;
    let vars: Vec<String> = (0..k).map(|i| format!("X{i}")).collect();
    let atoms: Vec<String> = (0..k)
        .map(|i| format!("R{i}({},{})", vars[i], vars[(i + 1) % k]))
        .collect();
    let program = dir.join("cycle_fd9.cq");
    std::fs::write(
        &program,
        format!(
            "Q({}) :- {}, T(X0,X1,X2)\nT[1,2] -> T[3]\n",
            vars.join(","),
            atoms.join(", ")
        ),
    )
    .unwrap();
    let events = trace_events(&traced_run(&dir, &[program.to_str().unwrap()], None));
    let counts: Vec<[Option<i64>; 3]> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("lp.float_propose"))
        .map(|e| ["pivots", "degenerate", "bland"].map(|key| e.get(key).and_then(Json::as_i64)))
        .collect();
    // (pivots, degenerate, bland): Prop 6.10, then Prop 6.9.
    let expected = [[Some(7), Some(3), Some(0)], [Some(419), Some(415), Some(0)]];
    assert_eq!(counts, expected, "{events:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `cq-trace top` against a real `cq-serve`: after `n` `analyze`
/// requests, one poll renders the daemon's request count and execute
/// histogram exactly as its own `stats` and `metrics` report them.
#[test]
fn top_renders_what_a_live_daemon_reports() {
    // One pool thread: the poll's pipelined `metrics` and `stats`
    // probes then run in order, so every count below is exact.
    let child = ServeChild::spawn(
        Path::new(env!("CARGO_BIN_EXE_cq-serve")),
        &["--threads", "1"],
    )
    .expect("spawn cq-serve");
    let addr = child.addr();
    let mut conn = addr.connect().expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut ask = |request: &str| -> Json {
        writeln!(conn, "{request}").expect("write");
        conn.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        Json::parse(line.trim_end()).expect("response JSON")
    };
    let n = 7u64;
    for i in 0..n {
        let query = if i % 2 == 0 {
            "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)"
        } else {
            "Q(X,Y,Z) :- S(X,Y), T(Y,Z)"
        };
        let response = ask(&format!(
            r#"{{"id":{i},"cmd":"analyze","query":"{query}"}}"#
        ));
        assert_eq!(
            response.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            response.render()
        );
    }

    let snapshot = poll_worker(addr).expect("poll the daemon");
    let frame = render_top(&[(addr.to_string(), Ok(snapshot))]);

    // The daemon's own account, asked after the poll on the first
    // connection: `metrics` (not counted by its request counter or
    // execute histogram), then `stats` (counted in every series).
    let metrics = ask(r#"{"id":"m","cmd":"metrics"}"#);
    let metrics = metrics_from_json(metrics.get("metrics").expect("metrics body"));
    let stats = ask(r#"{"id":"s","cmd":"stats"}"#);
    let stats_requests = stats
        .get("stats")
        .and_then(|s| s.get("requests"))
        .and_then(Json::as_i64)
        .expect("stats requests") as u64;
    let executed = metrics
        .histogram("cq_serve_execute_micros")
        .expect("execute histogram")
        .count();

    let row: Vec<&str> = frame
        .lines()
        .find(|l| l.starts_with(&addr.to_string()))
        .unwrap_or_else(|| panic!("no worker row:\n{frame}"))
        .split_whitespace()
        .collect();
    let phase: Vec<&str> = frame
        .lines()
        .find(|l| l.starts_with("serve.execute "))
        .unwrap_or_else(|| panic!("no serve.execute phase:\n{frame}"))
        .split_whitespace()
        .collect();
    let row_requests: u64 = row[1].parse().unwrap();
    let phase_count: u64 = phase[1].parse().unwrap();

    // The poll's `stats` counted the analyses, the poll's `metrics`
    // and itself; the daemon's final `stats` adds the two probes sent
    // since.
    assert_eq!(row_requests, n + 2, "{frame}");
    assert_eq!(row_requests, stats_requests - 2, "{frame}");
    // The poll's `metrics` saw the analyses; the daemon's own histogram
    // also holds the poll's `stats`, which ran after it.
    assert_eq!(phase_count, n, "{frame}");
    assert_eq!(phase_count, executed - 1, "{frame}");
    assert_eq!(metrics.counter("cq_serve_requests_total"), Some(executed));
}
