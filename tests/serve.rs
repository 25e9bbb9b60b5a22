//! Integration tests for the `cq-serve` daemon.
//!
//! Everything here drives the real binary: the stdin/stdout transport,
//! the Unix-socket transport, the error paths the protocol promises
//! never kill the process, the warm-cache serving win, and — the
//! anti-drift anchor — a replay of every request/response pair in
//! `docs/PROTOCOL.md` against the daemon's actual output. Its last
//! tests drive `ServeEngine::handle_line` in process, on arbitrary
//! bytes and on JSON of every shape: every line gets a well-formed
//! answer and none panics.

mod common;

use cq_engine::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn daemon(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_cq-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cq-serve")
}

/// Runs one stdin/stdout daemon session to EOF: writes every request
/// line (from a thread, so a deep response pipe can't deadlock the
/// writer), returns stdout lines and whether the daemon exited cleanly.
fn run_session(args: &[&str], requests: &[String]) -> (Vec<String>, bool) {
    let mut child = daemon(args);
    let mut stdin = child.stdin.take().unwrap();
    let input = requests.join("\n") + "\n";
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(input.as_bytes());
        // dropping stdin sends EOF
    });
    let output = child.wait_with_output().expect("wait cq-serve");
    writer.join().unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    (
        stdout.lines().map(str::to_owned).collect(),
        output.status.success(),
    )
}

/// Zeroes every occurrence of `key:N` for a numeric field.
fn zero_field(line: &str, key: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(key) {
        let digits_from = at + key.len();
        out.push_str(&rest[..digits_from]);
        out.push('0');
        rest = rest[digits_from..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Zeroes every `"micros":N` and `"uptime_micros":N` occurrence — the
/// two wall-clock fields the protocol documents as nondeterministic.
/// (`"micros":` is matched with its leading quote, so it does not touch
/// `"uptime_micros":` — that one is normalized separately.)
fn normalize_micros(line: &str) -> String {
    zero_field(&zero_field(line, "\"micros\":"), "\"uptime_micros\":")
}

fn parse(line: &str) -> Json {
    Json::parse(line).unwrap_or_else(|e| panic!("daemon emitted invalid JSON ({e}): {line}"))
}

#[test]
fn protocol_doc_examples_match_daemon_output() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/PROTOCOL.md"))
        .expect("docs/PROTOCOL.md exists");
    let mut requests: Vec<String> = Vec::new();
    let mut expected: Vec<String> = Vec::new();
    for line in doc.lines() {
        if let Some(request) = line.strip_prefix("→ ") {
            requests.push(request.to_owned());
        } else if let Some(response) = line.strip_prefix("← ") {
            expected.push(response.to_owned());
        }
    }
    assert_eq!(
        requests.len(),
        expected.len(),
        "unpaired example in PROTOCOL.md"
    );
    assert!(requests.len() >= 8, "the documented session shrank?");

    // The documented `cache` examples use a fixed illustrative path;
    // replaying that verbatim would collide between users on a shared
    // machine and litter /tmp. Substitute a per-process path on the way
    // in and normalize it back before comparing (the response echoes
    // the path, so both sides need the mapping).
    const DOC_SNAPSHOT_PATH: &str = "/tmp/cq-protocol-demo.snap";
    let real_path =
        std::env::temp_dir().join(format!("cq_protocol_demo_{}.snap", std::process::id()));
    let real = real_path.to_str().unwrap();
    let requests: Vec<String> = requests
        .iter()
        .map(|r| r.replace(DOC_SNAPSHOT_PATH, real))
        .collect();

    // The documented session ran against `cq-serve --threads 1` (a
    // deterministic, strictly sequential daemon); replay it the same way.
    let (lines, ok) = run_session(&["--threads", "1"], &requests);
    std::fs::remove_file(&real_path).ok();
    assert!(ok, "daemon must exit cleanly on EOF");
    assert_eq!(lines.len(), expected.len(), "one response per request");
    for (i, (actual, documented)) in lines.iter().zip(&expected).enumerate() {
        assert_eq!(
            normalize_micros(&actual.replace(real, DOC_SNAPSHOT_PATH)),
            normalize_micros(documented),
            "response #{i} drifted from docs/PROTOCOL.md — update the doc \
             session (and keep `micros`/`uptime_micros` as the only \
             nondeterministic fields)"
        );
    }
}

#[test]
fn error_paths_leave_the_daemon_serving() {
    let triangle = r#"{"id":"fine","cmd":"analyze","query":"S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)"}"#;
    let oversized: String = {
        let entries: Vec<String> = (0..cq_engine::MAX_BATCH + 1)
            .map(|_| r#"{"query":"Q(X,Y) :- R(X,Y)"}"#.to_owned())
            .collect();
        format!(
            r#"{{"id":"big","cmd":"batch","queries":[{}]}}"#,
            entries.join(",")
        )
    };
    let requests = vec![
        "{definitely not json".to_owned(),
        r#"{"id":"bad-q","cmd":"analyze","query":"not a query"}"#.to_owned(),
        oversized,
        r#"{"id":"bad-cmd","cmd":"explode"}"#.to_owned(),
        triangle.to_owned(),
        r#"{"id":"s","cmd":"stats"}"#.to_owned(),
    ];
    // --threads 1 so the trailing stats snapshot deterministically
    // reflects every earlier request (workers would race the counters).
    let (lines, ok) = run_session(&["--threads", "1"], &requests);
    assert!(ok, "errors must not change the exit status of a clean EOF");
    assert_eq!(lines.len(), 6, "every request answered: {lines:#?}");

    for (i, what) in [
        (0, "malformed request"),
        (1, "parse error"),
        (2, "exceeds the limit"),
        (3, "unknown cmd"),
    ] {
        let resp = parse(&lines[i]);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{}", lines[i]);
        let error = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(what), "response #{i}: {error}");
    }
    // ... and the daemon still serves real work afterwards.
    let resp = parse(&lines[4]);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("fine"));
    let stats = parse(&lines[5]);
    let counters = stats.get("stats").unwrap();
    assert_eq!(counters.get("errors").and_then(Json::as_i64), Some(4));
    assert_eq!(counters.get("requests").and_then(Json::as_i64), Some(6));
}

/// The serving story's acceptance test: 100+ sequential requests over
/// one connection, reports bit-identical to one-shot `cq-analyze`, and
/// the warm cache demonstrably answering LPs.
#[test]
fn hundred_requests_one_connection_warm_cache_matches_cli() {
    // 100 queries from 4 structural templates — relabelings of the
    // triangle and of a 2-path, the template-generated workload shape.
    let texts: Vec<String> = (0..100)
        .map(|i| match i % 4 {
            0 => "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)".to_owned(),
            1 => format!("S(C,A,B) :- E{0}(B,C), E{0}(A,B), E{0}(A,C)", i / 4),
            2 => "Q(X,Y,Z) :- S(X,Y), T(Y,Z)".to_owned(),
            _ => format!("P(U,V,W) :- F{0}(U,V), G{0}(V,W)", i / 4),
        })
        .collect();

    // One-shot ground truth: each query through its own cq-analyze
    // invocation (fresh process, fresh cache — nothing shared).
    let dir = std::env::temp_dir().join(format!("cq_serve_vs_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut expected: Vec<String> = Vec::new();
    let paths: Vec<String> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let path = dir.join(format!("q{i}.cq"));
            std::fs::write(&path, format!("{text}\n")).unwrap();
            path.to_str().unwrap().to_owned()
        })
        .collect();
    // (one batch invocation with --no-cache = 100 independent solves,
    // and the per-query lines are position-aligned with the inputs)
    let output = Command::new(env!("CARGO_BIN_EXE_cq-analyze"))
        .args(&paths)
        .args(["--json", "--no-cache"])
        .output()
        .expect("run cq-analyze");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    expected.extend(stdout.lines().take(100).map(str::to_owned));
    assert_eq!(expected.len(), 100);

    // The same 100 queries as sequential requests over ONE daemon
    // connection, names matching the file paths so reports align.
    let requests: Vec<String> = texts
        .iter()
        .zip(&paths)
        .enumerate()
        .map(|(i, (text, path))| {
            Json::Obj(vec![
                ("id".to_owned(), Json::Int(i as i64)),
                ("cmd".to_owned(), Json::str("analyze")),
                ("name".to_owned(), Json::str(path)),
                ("query".to_owned(), Json::str(text)),
            ])
            .render()
        })
        .chain([r#"{"id":"done","cmd":"stats"}"#.to_owned()])
        .collect();
    let (lines, ok) = run_session(&["--threads", "1"], &requests);
    assert!(ok);
    assert_eq!(lines.len(), 101);

    for (i, line) in lines[..100].iter().enumerate() {
        let resp = parse(line);
        assert_eq!(resp.get("id").and_then(Json::as_i64), Some(i as i64));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{line}");
        // solver_stats is the one report object that may differ: the
        // daemon's warm cache answers repeats without solving (its
        // counters stay zero), while --no-cache solves every time.
        // Everything semantic must still be bit-identical.
        let served = resp.get("report").expect("report present").render();
        assert_eq!(
            common::strip_solver_stats(&served),
            common::strip_solver_stats(&expected[i]),
            "daemon report #{i} must be bit-identical to one-shot cq-analyze"
        );
    }

    // The warm cache did real work: far more hits than isomorphism
    // classes, zero evictions at this scale.
    let stats = parse(&lines[100]);
    let cache = stats.get("cache_stats").expect("cache_stats present");
    let hits = cache.get("hits").and_then(Json::as_i64).unwrap();
    let misses = cache.get("misses").and_then(Json::as_i64).unwrap();
    assert!(hits > 0, "acceptance: cache_hits > 0 ({cache:?})");
    assert!(
        hits >= 60,
        "a template workload should be hit-dominated: {cache:?}"
    );
    assert!(misses < 100, "{cache:?}");
    assert_eq!(cache.get("evictions").and_then(Json::as_i64), Some(0));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stdin_disconnect_mid_request_is_a_clean_eof() {
    let mut child = daemon(&[]);
    let mut stdin = child.stdin.take().unwrap();
    // One full request, then half a request and a vanishing client.
    stdin
        .write_all(b"{\"id\":1,\"cmd\":\"analyze\",\"query\":\"Q(X,Y) :- R(X,Y)\"}\n")
        .unwrap();
    stdin.write_all(b"{\"id\":2,\"cmd\":\"anal").unwrap();
    drop(stdin);
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "mid-request EOF is not a crash");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    // The complete request was answered; the truncated line (no
    // newline ever arrived, but read_line returns it at EOF) gets its
    // malformed-request response rather than silence.
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains("\"ok\":true"), "{stdout}");
    assert!(lines[1].contains("malformed request"), "{stdout}");
}

#[test]
fn stdio_mode_sigterm_is_a_graceful_exit() {
    let mut child = daemon(&[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    stdin
        .write_all(b"{\"id\":1,\"cmd\":\"analyze\",\"query\":\"Q(X,Y) :- R(X,Y)\"}\n")
        .unwrap();
    let mut response = String::new();
    stdout.read_line(&mut response).unwrap();
    assert!(response.contains("\"ok\":true"), "{response}");

    // stdin stays OPEN: the daemon must notice the signal anyway.
    let killed = Command::new("sh")
        .args(["-c", &format!("kill -TERM {}", child.id())])
        .status()
        .unwrap();
    assert!(killed.success());
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "pipe-mode daemon ignored SIGTERM with stdin still open"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "SIGTERM exits cleanly, got {status:?}");
    drop(stdin);
}

/// Polls until the daemon's socket file accepts connections.
fn connect_when_ready(path: &std::path::Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(stream) = UnixStream::connect(path) {
            return stream;
        }
        assert!(Instant::now() < deadline, "daemon never bound {path:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn request_over(stream: &mut UnixStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_owned()
}

#[test]
fn socket_mode_survives_disconnects_and_sigterm() {
    let path = std::env::temp_dir().join(format!("cq_serve_test_{}.sock", std::process::id()));
    let mut child = daemon(&["--socket", path.to_str().unwrap()]);

    // Connection 1: request/response, then vanish mid-request.
    let mut c1 = connect_when_ready(&path);
    let resp = request_over(
        &mut c1,
        r#"{"id":1,"cmd":"analyze","query":"Q(X,Y) :- R(X,Y)"}"#,
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    c1.write_all(b"{\"id\":2,\"cmd\":\"anal").unwrap();
    drop(c1); // abrupt disconnect with a request half-sent

    // Connection 2: the daemon is still serving, cache still warm
    // (process-wide counters: connection 1's solve is this hit's miss).
    let mut c2 = connect_when_ready(&path);
    let resp = request_over(
        &mut c2,
        r#"{"id":3,"cmd":"analyze","query":"P(A,B) :- S(A,B)"}"#,
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let parsed = parse(&resp);
    let hits = parsed
        .get("cache_stats")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_i64)
        .unwrap();
    assert!(
        hits >= 1,
        "isomorphic query from a new connection hits: {resp}"
    );
    drop(c2);

    // Connection 3 stays OPEN and idle across the SIGTERM below: the
    // daemon must half-close it rather than hang joining its reader.
    let mut c3 = connect_when_ready(&path);
    let resp = request_over(&mut c3, r#"{"id":4,"cmd":"stats"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");

    // SIGTERM: graceful shutdown, socket unlinked, exit code 0.
    let pid = child.id().to_string();
    let killed = Command::new("sh")
        .args(["-c", &format!("kill -TERM {pid}")])
        .status()
        .expect("send SIGTERM");
    assert!(killed.success());
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "SIGTERM is a clean exit, got {status:?}");
    assert!(!path.exists(), "socket file must be unlinked on shutdown");
    // The idle connection was half-closed by the shutdown: reading it
    // now yields EOF, not a hang.
    let mut rest = String::new();
    c3.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "", "no stray bytes after shutdown");
    drop(c3);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(stderr.contains("shut down"), "{stderr}");
}

/// Sends `signum` to `child` and waits (bounded) for a clean exit.
fn signal_and_await_clean_exit(child: &mut Child, signum: &str, what: &str) {
    let killed = Command::new("sh")
        .args(["-c", &format!("kill -{signum} {}", child.id())])
        .status()
        .expect("send signal");
    assert!(killed.success());
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "daemon ignored SIG{signum} ({what})"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        status.success(),
        "SIG{signum} must be a clean exit ({what}), got {status:?}"
    );
}

/// SIGTERM with a request mid-execution: the in-flight request drains
/// to a complete response, the exit is clean, and the final
/// `--metrics-file` dump counts the drained request — the shutdown
/// sequencing (serve loop joins, *then* the exposition is written)
/// proven end to end.
#[test]
fn sigterm_drains_in_flight_requests_into_the_metrics_dump() {
    let metrics = std::env::temp_dir().join(format!("cq_serve_drainm_{}.prom", std::process::id()));
    std::fs::remove_file(&metrics).ok();
    let mut child = daemon(&[
        "--threads",
        "1",
        "--metrics-file",
        metrics.to_str().unwrap(),
    ]);
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());

    // Request 1 round-trips first, so the daemon is fully up and the
    // stdin pump demonstrably delivering.
    stdin
        .write_all(b"{\"id\":1,\"cmd\":\"analyze\",\"query\":\"Q(X,Y) :- R(X,Y)\"}\n")
        .unwrap();
    let mut response = String::new();
    stdout.read_line(&mut response).unwrap();
    assert!(response.contains("\"ok\":true"), "{response}");

    // Request 2 is a batch big enough to still be executing when the
    // signal lands (and correct either way: the assertion below is
    // about completeness, not timing).
    let entries: Vec<String> = (0..24)
        .map(|i| format!(r#"{{"query":"Q{i}(X,Y,Z) :- A{i}(X,Y), B{i}(Y,Z), C{i}(Z,X)"}}"#))
        .collect();
    let batch = format!(
        r#"{{"id":2,"cmd":"batch","queries":[{}]}}"#,
        entries.join(",")
    );
    stdin.write_all(batch.as_bytes()).unwrap();
    stdin.write_all(b"\n").unwrap();
    stdin.flush().unwrap();
    std::thread::sleep(Duration::from_millis(30)); // let the pump hand it over
    let killed = Command::new("sh")
        .args(["-c", &format!("kill -TERM {}", child.id())])
        .status()
        .unwrap();
    assert!(killed.success());

    // The in-flight batch completes: its full response arrives even
    // though the signal beat it.
    let mut response = String::new();
    stdout.read_line(&mut response).unwrap();
    let resp = parse(response.trim_end());
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{response}");
    assert_eq!(
        resp.get("reports")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(24),
        "every batch entry drained"
    );

    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "SIGTERM exits cleanly, got {status:?}");
    drop(stdin);

    // The final dump was written after the drain, so it counts both
    // requests — and it round-trips through the strict expo parser.
    let text = std::fs::read_to_string(&metrics).expect("metrics file written on SIGTERM");
    let snapshot = cq_telemetry::expo::parse(&text)
        .unwrap_or_else(|e| panic!("exposition must parse ({e}):\n{text}"));
    let requests = snapshot
        .counters
        .iter()
        .find(|(name, _)| name == "cq_serve_requests_total")
        .map(|(_, v)| *v);
    assert_eq!(requests, Some(2), "both requests in the final dump");
    let execute = snapshot
        .histograms
        .iter()
        .find(|(name, _)| name == "cq_serve_execute_micros")
        .map(|(_, h)| h.count);
    assert_eq!(execute, Some(2), "histogram count matches the counter");
    std::fs::remove_file(&metrics).ok();
}

/// SIGINT takes the same graceful path as SIGTERM in pipe mode — the
/// Ctrl-C counterpart of `stdio_mode_sigterm_is_a_graceful_exit`.
#[test]
fn stdio_mode_sigint_is_a_graceful_exit() {
    let mut child = daemon(&[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    stdin
        .write_all(b"{\"id\":1,\"cmd\":\"analyze\",\"query\":\"Q(X,Y) :- R(X,Y)\"}\n")
        .unwrap();
    let mut response = String::new();
    stdout.read_line(&mut response).unwrap();
    assert!(response.contains("\"ok\":true"), "{response}");
    // stdin stays OPEN: the daemon must notice the signal anyway.
    signal_and_await_clean_exit(&mut child, "INT", "pipe mode");
    drop(stdin);
}

/// ... and in socket mode: drain, unlink, exit 0 — symmetric with the
/// SIGTERM path covered by `socket_mode_survives_disconnects_and_sigterm`.
#[test]
fn socket_mode_sigint_unlinks_and_exits_cleanly() {
    let path = std::env::temp_dir().join(format!("cq_serve_int_{}.sock", std::process::id()));
    let mut child = daemon(&["--socket", path.to_str().unwrap()]);
    let mut conn = connect_when_ready(&path);
    let resp = request_over(
        &mut conn,
        r#"{"id":1,"cmd":"analyze","query":"Q(X,Y) :- R(X,Y)"}"#,
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    signal_and_await_clean_exit(&mut child, "INT", "socket mode");
    assert!(!path.exists(), "socket file must be unlinked on SIGINT too");
}

/// Polls until the TCP daemon accepts connections.
fn connect_tcp_when_ready(addr: &str) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(stream) = TcpStream::connect(addr) {
            return stream;
        }
        assert!(Instant::now() < deadline, "daemon never bound {addr}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn request_over_tcp(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_owned()
}

/// The TCP transport speaks the identical protocol: per-connection
/// request/response, a process-wide warm cache across connections,
/// pipelined ordering, graceful SIGTERM.
#[test]
fn tcp_mode_serves_the_same_protocol() {
    let mut child = daemon(&["--tcp", "127.0.0.1:0"]);
    // The daemon announces its resolved address on stderr (that is the
    // `--tcp HOST:0` discovery contract spawners rely on).
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = {
        let mut line = String::new();
        stderr.read_line(&mut line).unwrap();
        let at = line.find("listening on ").expect("announcement line");
        line[at + "listening on ".len()..].trim().to_owned()
    };
    assert!(
        addr.starts_with("127.0.0.1:") && !addr.ends_with(":0"),
        "resolved port announced: {addr}"
    );

    // Connection 1: analyze, then pipeline a burst and check ordering.
    let mut c1 = connect_tcp_when_ready(&addr);
    let resp = request_over_tcp(
        &mut c1,
        r#"{"id":1,"cmd":"analyze","query":"S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)"}"#,
    );
    assert!(resp.contains("\"exponent\":\"3/2\""), "{resp}");
    let mut blob = String::new();
    for i in 10..30 {
        blob.push_str(&format!(
            "{{\"id\":{i},\"cmd\":\"analyze\",\"query\":\"Q(X,Y) :- R{i}(X,Y)\"}}\n"
        ));
    }
    c1.write_all(blob.as_bytes()).unwrap();
    let mut reader = BufReader::new(c1.try_clone().unwrap());
    for i in 10..30 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = parse(line.trim_end());
        assert_eq!(resp.get("id").and_then(Json::as_i64), Some(i), "ordering");
    }
    drop(reader);
    drop(c1);

    // Connection 2: the cache is process-wide, so a relabeled triangle
    // from a fresh connection hits connection 1's solve.
    let mut c2 = connect_tcp_when_ready(&addr);
    let resp = request_over_tcp(
        &mut c2,
        r#"{"id":2,"cmd":"analyze","query":"T(C,A,B) :- E(B,C), E(A,B), E(A,C)"}"#,
    );
    let parsed = parse(&resp);
    let hits = parsed
        .get("cache_stats")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_i64)
        .unwrap();
    assert!(hits >= 1, "{resp}");
    // Unauthenticated TCP peers may not choose filesystem paths: the
    // `cache` command is restricted to the daemon's --cache-file (none
    // here, so the pathless form errors too — but differently).
    let resp = request_over_tcp(
        &mut c2,
        r#"{"id":3,"cmd":"cache","op":"save","path":"/tmp/evil.snap"}"#,
    );
    assert!(resp.contains("disabled on this transport"), "{resp}");
    assert!(!std::path::Path::new("/tmp/evil.snap").exists());
    drop(c2);

    signal_and_await_clean_exit(&mut child, "TERM", "tcp mode");
}

/// A request line longer than `MAX_LINE_BYTES` cannot grow a worker's
/// memory: the daemon stops reading at the limit, answers in sequence
/// order with an error response, and closes only that connection — the
/// next connection is served as usual.
#[test]
fn oversized_request_line_is_rejected_and_closes_only_its_connection() {
    let mut child = daemon(&["--tcp", "127.0.0.1:0"]);
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = {
        let mut line = String::new();
        stderr.read_line(&mut line).unwrap();
        let at = line.find("listening on ").expect("announcement line");
        line[at + "listening on ".len()..].trim().to_owned()
    };

    // One normal request, then one byte more than the limit with no
    // newline: the daemon reads exactly what was sent, so the close is
    // a clean end of stream for the client.
    let mut c1 = connect_tcp_when_ready(&addr);
    let mut writer = c1.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        writer.write_all(b"{\"id\":1,\"cmd\":\"stats\"}\n")?;
        writer.write_all(&vec![b'x'; cq_engine::MAX_LINE_BYTES + 1])
    });
    let mut received = String::new();
    c1.read_to_string(&mut received).unwrap();
    sender.join().unwrap().unwrap();
    let lines: Vec<&str> = received.lines().collect();
    assert_eq!(lines.len(), 2, "{received}");
    assert_eq!(parse(lines[0]).get("id").and_then(Json::as_i64), Some(1));
    let rejected = parse(lines[1]);
    assert_eq!(rejected.get("ok"), Some(&Json::Bool(false)), "{received}");
    let error = rejected.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("exceeds the limit"), "{error}");

    let mut c2 = connect_tcp_when_ready(&addr);
    let stats = parse(&request_over_tcp(&mut c2, r#"{"id":2,"cmd":"stats"}"#));
    let errors = stats
        .get("stats")
        .and_then(|s| s.get("errors"))
        .and_then(Json::as_i64);
    assert_eq!(errors, Some(1), "the rejection is counted as an error");
    let requests = stats
        .get("stats")
        .and_then(|s| s.get("requests"))
        .and_then(Json::as_i64);
    assert_eq!(requests, Some(3), "two stats probes and the rejected line");
    // Every answered line but a `metrics` probe counts in the registry
    // too, the rejected line included.
    let metrics = parse(&request_over_tcp(&mut c2, r#"{"id":3,"cmd":"metrics"}"#));
    let served = metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("cq_serve_requests_total"))
        .and_then(Json::as_i64);
    assert_eq!(served, requests, "{metrics:?}");
    let timed = metrics
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("cq_serve_execute_micros"))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_i64);
    assert_eq!(timed, requests, "{metrics:?}");
    drop(c2);

    signal_and_await_clean_exit(&mut child, "TERM", "after an oversized line");
}

/// The cache-persistence acceptance test: a snapshot written by one
/// daemon (on SIGTERM) and loaded by another yields verified cache hits
/// with **zero LP solves** on the replayed workload, proven by the
/// session-level `lp_*` counters in `stats`.
#[test]
fn cache_file_snapshot_survives_into_a_new_daemon() {
    let snap = std::env::temp_dir().join(format!("cq_serve_persist_{}.snap", std::process::id()));
    std::fs::remove_file(&snap).ok();
    let sock1 = std::env::temp_dir().join(format!("cq_serve_p1_{}.sock", std::process::id()));

    // Daemon 1 solves the triangle's LP, then is SIGTERMed: the warm
    // cache must land in the snapshot file.
    let mut d1 = daemon(&[
        "--socket",
        sock1.to_str().unwrap(),
        "--cache-file",
        snap.to_str().unwrap(),
    ]);
    let mut c = connect_when_ready(&sock1);
    let resp = request_over(
        &mut c,
        r#"{"id":1,"cmd":"analyze","query":"S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)"}"#,
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    drop(c);
    signal_and_await_clean_exit(&mut d1, "TERM", "snapshot on shutdown");
    assert!(snap.exists(), "SIGTERM must write the snapshot");

    // Daemon 2 — a different process — loads it and replays an
    // isomorphic workload: all hits, no solves.
    let replay = [
        r#"{"id":1,"cmd":"analyze","query":"T(C,A,B) :- E(B,C), E(A,B), E(A,C)"}"#.to_owned(),
        r#"{"id":2,"cmd":"analyze","query":"U(P,Q,W) :- F(Q,W), F(P,W), F(P,Q)"}"#.to_owned(),
        r#"{"id":3,"cmd":"stats"}"#.to_owned(),
    ];
    let (lines, ok) = run_session(
        &["--threads", "1", "--cache-file", snap.to_str().unwrap()],
        &replay,
    );
    assert!(ok);
    assert_eq!(lines.len(), 3);
    for line in &lines[..2] {
        let resp = parse(line);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{line}");
        assert_eq!(
            resp.get("report")
                .and_then(|r| r.get("size_bound"))
                .and_then(|b| b.get("exponent"))
                .and_then(Json::as_str),
            Some("3/2")
        );
    }
    let stats = parse(&lines[2]);
    let cache = stats.get("cache_stats").unwrap();
    assert_eq!(
        cache.get("hits").and_then(Json::as_i64),
        Some(2),
        "both replayed queries hit the loaded snapshot: {cache:?}"
    );
    assert_eq!(cache.get("misses").and_then(Json::as_i64), Some(0));
    // Zero LP solves, per the SessionStats-derived serving counters.
    let counters = stats.get("stats").unwrap();
    for key in ["lp_pivots", "lp_dense_solves", "lp_sparse_solves"] {
        assert_eq!(
            counters.get(key).and_then(Json::as_i64),
            Some(0),
            "{key} must stay zero on a snapshot-served workload"
        );
    }

    std::fs::remove_file(&snap).ok();
}

/// SIGINT also snapshots (the shutdown paths are symmetric).
#[test]
fn sigint_also_writes_the_cache_snapshot() {
    let snap = std::env::temp_dir().join(format!("cq_serve_intsnap_{}.snap", std::process::id()));
    std::fs::remove_file(&snap).ok();
    let mut child = daemon(&["--cache-file", snap.to_str().unwrap()]);
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    stdin
        .write_all(b"{\"id\":1,\"cmd\":\"analyze\",\"query\":\"Q(X,Y) :- R(X,Y)\"}\n")
        .unwrap();
    let mut response = String::new();
    stdout.read_line(&mut response).unwrap();
    assert!(response.contains("\"ok\":true"), "{response}");
    signal_and_await_clean_exit(&mut child, "INT", "snapshot on SIGINT");
    assert!(snap.exists(), "SIGINT must write the snapshot too");
    drop(stdin);
    std::fs::remove_file(&snap).ok();
}

/// A corrupt `--cache-file` refuses to boot, with the structured
/// snapshot error on stderr — never a silent cold start.
#[test]
fn corrupt_cache_file_fails_startup() {
    let snap = std::env::temp_dir().join(format!("cq_serve_corrupt_{}.snap", std::process::id()));
    std::fs::write(
        &snap,
        "{\"format\":\"cq-lpcache\",\"version\":1,\"count\":1,",
    )
    .unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_cq-serve"))
        .args(["--cache-file", snap.to_str().unwrap()])
        .stdin(Stdio::null())
        .output()
        .expect("run cq-serve");
    assert!(!output.status.success(), "corrupt snapshot must not boot");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("malformed cache snapshot"), "{stderr}");
    std::fs::remove_file(&snap).ok();
}

#[test]
fn pipelined_socket_requests_come_back_in_order() {
    let path = std::env::temp_dir().join(format!("cq_serve_pipe_{}.sock", std::process::id()));
    let mut child = daemon(&["--socket", path.to_str().unwrap()]);
    let mut stream = connect_when_ready(&path);

    // Fire 40 requests without reading a single response (pipelining),
    // mixing shapes so work items take unequal time.
    let mut blob = String::new();
    for i in 0..40 {
        let query = if i % 2 == 0 {
            "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)"
        } else {
            "Q(V0,V1,V2,V3) :- A(V0,V1), B(V1,V2), C(V2,V3), D(V3,V0)"
        };
        blob.push_str(&format!(
            r#"{{"id":{i},"cmd":"analyze","query":"{query}"}}"#
        ));
        blob.push('\n');
    }
    stream.write_all(blob.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for i in 0..40 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = parse(line.trim_end());
        assert_eq!(
            resp.get("id").and_then(Json::as_i64),
            Some(i),
            "responses must arrive in request order even when pipelined"
        );
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    }
    // Close BOTH fd clones (reader holds one) so the daemon's
    // connection thread sees EOF and a graceful join can finish.
    drop(reader);
    drop(stream);
    let _ = Command::new("sh")
        .args(["-c", &format!("kill -TERM {}", child.id())])
        .status();
    let status = child.wait().unwrap();
    assert!(status.success());
}

/// A seeded generator for the in-process request fuzzing below.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())]
    }
}

/// Keys and strings drawn mostly from the protocol's own vocabulary, so
/// that generated requests get past the envelope checks into commands.
const KEYS: [&str; 12] = [
    "id", "v", "cmd", "query", "queries", "name", "witness", "trace_id", "op", "path", "db", "x",
];
const STRINGS: [&str; 14] = [
    "analyze",
    "batch",
    "stats",
    "metrics",
    "cache",
    "save",
    "load",
    "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)",
    "R2(X,Y,Z) :- R(X,Y), R(X,Z)\nkey R[1]",
    "Q(X,Y,Z) :- R(X,Y,Z), S2(X,Z)\nR[1,2] -> R[3]",
    "Q(X) :- R(X)",
    "nope",
    "",
    "é😀\u{1}\"\\",
];
const INTS: [i64; 8] = [-1, 0, 1, 2, 3, 7, 1 << 40, i64::MAX];

/// A JSON value of any shape, at most `depth` levels deep. Floats are
/// never integral, so a value survives `render ∘ parse` unchanged.
fn protocol_value(rng: &mut Lcg, depth: usize) -> Json {
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::Int(rng.pick(&INTS)),
        3 => Json::Float(rng.pick(&[-0.5, 1.5, 1e-9])),
        4 => Json::str(rng.pick(&STRINGS)),
        5 => Json::Arr(
            (0..rng.below(4))
                .map(|_| protocol_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(5))
                .map(|_| (rng.pick(&KEYS).to_owned(), protocol_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A request-shaped object: a command from the protocol (or not), an
/// `id` of any shape, mostly well-typed `query`, `queries` and
/// `witness` fields, and more fields of any shape.
fn protocol_request(rng: &mut Lcg) -> Json {
    let commands = if rng.below(4) > 0 {
        &STRINGS[..5]
    } else {
        &STRINGS
    };
    let mut fields = vec![("cmd".to_owned(), Json::str(rng.pick(commands)))];
    if rng.below(4) > 0 {
        fields.push(("id".to_owned(), protocol_value(rng, 2)));
    }
    if rng.below(4) > 0 {
        let query = |rng: &mut Lcg| Json::str(rng.pick(&STRINGS[7..]));
        fields.push(("query".to_owned(), query(rng)));
        let entries = (0..rng.below(4))
            .map(|_| Json::Obj(vec![("query".to_owned(), query(rng))]))
            .collect();
        fields.push(("queries".to_owned(), Json::Arr(entries)));
        if rng.below(2) == 0 {
            fields.push(("witness".to_owned(), Json::Int(rng.pick(&INTS))));
        }
    }
    for _ in 0..rng.below(3) {
        fields.push((rng.pick(&KEYS).to_owned(), protocol_value(rng, 2)));
    }
    let at = rng.below(fields.len());
    fields.swap(0, at);
    Json::Obj(fields)
}

/// What every `handle_line` answer must be, whatever the line: one line
/// of JSON with an `"ok"` field, echoing the request's `id` when it has
/// one, and never the answer of a request that panicked.
fn assert_well_answered(engine: &cq_engine::ServeEngine, line: &str) {
    let response = engine.handle_line(line);
    assert!(!response.contains('\n'), "{line:?} -> {response}");
    let parsed = parse(&response);
    assert!(
        matches!(parsed.get("ok"), Some(Json::Bool(_))),
        "{line:?} -> {response}"
    );
    assert!(
        !response.contains("the request panicked"),
        "{line:?} -> {response}"
    );
    let id = Json::parse(line).ok().and_then(|r| r.get("id").cloned());
    if let Some(id) = id {
        assert_eq!(parsed.get("id"), Some(&id), "{line:?} -> {response}");
    }
}

proptest::proptest! {
    /// Arbitrary bytes, read as the lossy UTF-8 the transport passes on,
    /// get a well-formed answer.
    #[test]
    fn handle_line_answers_arbitrary_bytes(
        bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200)
    ) {
        let engine = cq_engine::ServeEngine::new().restrict_cache_paths().with_workers(2);
        assert_well_answered(&engine, &String::from_utf8_lossy(&bytes));
    }

    /// Well-formed JSON of every shape, bare or request-shaped, gets a
    /// well-formed answer. Cache paths are restricted, so no generated
    /// `cache` request touches the file system.
    #[test]
    fn handle_line_answers_every_json_shape(seed in proptest::prelude::any::<u64>()) {
        let engine = cq_engine::ServeEngine::new().restrict_cache_paths().with_workers(2);
        let mut rng = Lcg(seed);
        assert_well_answered(&engine, &protocol_value(&mut rng, 3).render());
        assert_well_answered(&engine, &protocol_request(&mut rng).render());
    }
}
