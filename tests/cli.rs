//! Integration tests for the `cq-analyze` CLI binary.

mod common;

use std::io::Write;
use std::process::{Command, Stdio};

fn run_cli(args: &[&str], stdin: Option<&str>) -> (String, String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cq-analyze"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    if stdin.is_some() {
        cmd.stdin(Stdio::piped());
    }
    let mut child = cmd.spawn().expect("spawn cq-analyze");
    if let Some(text) = stdin {
        // The child may exit (e.g. on a usage error) before reading its
        // stdin; a broken pipe here is not the test's concern.
        let _ = child.stdin.as_mut().unwrap().write_all(text.as_bytes());
        drop(child.stdin.take());
    }
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn analyzes_triangle_from_stdin() {
    let (stdout, _, ok) = run_cli(
        &["-", "--witness", "3"],
        Some("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)\n"),
    );
    assert!(ok);
    assert!(stdout.contains("rmax(D)^3/2"), "{stdout}");
    assert!(stdout.contains("treewidth   : preserved"), "{stdout}");
    assert!(stdout.contains("witness M=3"), "{stdout}");
    assert!(stdout.contains("holds: true"), "{stdout}");
}

#[test]
fn analyzes_keyed_query_from_file() {
    let dir = std::env::temp_dir();
    let path = dir.join("cq_analyze_test.cq");
    std::fs::write(&path, "R2(X,Y,Z) :- R(X,Y), R(X,Z)\nkey R[1]\n").unwrap();
    let (stdout, _, ok) = run_cli(&[path.to_str().unwrap()], None);
    assert!(ok);
    assert!(
        stdout.contains("chase(Q)    : Q(X,Y,Y) :- R(X,Y)"),
        "{stdout}"
    );
    assert!(stdout.contains("rmax(D)^1"), "{stdout}");
    assert!(stdout.contains("size-preserving"), "{stdout}");
}

/// Text mode is a human surface but scripts still grep it: pin the
/// report's line order so `widths` (and everything else) stays in a
/// stable position between releases.
#[test]
fn text_report_line_order_is_stable() {
    let (stdout, _, ok) = run_cli(&["-"], Some("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)\n"));
    assert!(ok);
    let labels = [
        "query       :",
        "variables   :",
        "atoms       :",
        "join query  :",
        "acyclic     :",
        "widths      :",
        "chase(Q)    :",
        "size bound  :",
        "treewidth   :",
        "growth      :",
    ];
    let mut pos = 0;
    for label in labels {
        match stdout[pos..].find(label) {
            Some(at) => pos += at + label.len(),
            None => panic!("label {label:?} missing or out of order:\n{stdout}"),
        }
    }
    // The triangle's widths line, exactly: both searches are exact at
    // 3 variables, and ghw <= tw + 1 pins them to 2 apiece.
    assert!(
        stdout.contains("widths      : treewidth = 2, hypertree width = 2"),
        "{stdout}"
    );
}

#[test]
fn reports_blowup_and_growth() {
    let (stdout, _, ok) = run_cli(&["-"], Some("R2(X,Y,Z) :- R(X,Y), R(X,Z)\n"));
    assert!(ok);
    assert!(stdout.contains("UNBOUNDED blowup"), "{stdout}");
    assert!(stdout.contains("|Q(D)| > rmax(D)"), "{stdout}");
}

#[test]
fn compound_fds_fall_back_to_entropy_lps() {
    let (stdout, _, ok) = run_cli(
        &["-"],
        Some("Q(X,Y,Z) :- R(X,Y,Z), S2(X,Z)\nR[1,2] -> R[3]\n"),
    );
    assert!(ok);
    assert!(stdout.contains("compound dependencies"), "{stdout}");
    assert!(stdout.contains("Prop 6.10"), "{stdout}");
    assert!(stdout.contains("Prop 6.9"), "{stdout}");
}

/// The `CQ_LP_ENGINE` pin reaches the binary: the compound-FD fixture's
/// Proposition 6.10 program goes to the hybrid engine by default and to
/// the exact revised simplex under `CQ_LP_ENGINE=exact`, with the same
/// bounds and these exact solver counts.
#[test]
fn lp_engine_pin_reaches_the_binary() {
    let run = |engine: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_cq-analyze"));
        cmd.arg(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/compound.cq"
        ))
        .arg("--json");
        match engine {
            Some(value) => cmd.env("CQ_LP_ENGINE", value),
            None => cmd.env_remove("CQ_LP_ENGINE"),
        };
        let out = cmd.output().expect("run cq-analyze");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let report = stdout.lines().next().expect("one report line").to_owned();
        let at = report.find("\"solver_stats\":").expect("solver_stats");
        let end = at + report[at..].find('}').expect("closing brace") + 1;
        (
            report[at..end].to_owned(),
            common::strip_solver_stats(&report),
        )
    };
    let (hybrid_stats, hybrid_report) = run(None);
    let (exact_stats, exact_report) = run(Some("exact"));
    assert_eq!(hybrid_report, exact_report, "the pin changes no bound");
    assert_eq!(
        hybrid_stats,
        "\"solver_stats\":{\"pivots\":9,\"refactorizations\":0,\"dense_solves\":1,\
         \"sparse_solves\":0,\"hybrid_solves\":1,\"float_pivots\":1,\"float_verified\":1,\
         \"exact_fallbacks\":0}"
    );
    assert_eq!(
        exact_stats,
        "\"solver_stats\":{\"pivots\":10,\"refactorizations\":0,\"dense_solves\":1,\
         \"sparse_solves\":1,\"hybrid_solves\":0,\"float_pivots\":0,\"float_verified\":0,\
         \"exact_fallbacks\":0}"
    );
}

#[test]
fn evaluates_against_supplied_database() {
    let dir = std::env::temp_dir();
    let qpath = dir.join("cq_analyze_db_test.cq");
    let dpath = dir.join("cq_analyze_db_test.db");
    std::fs::write(&qpath, "T(X,Y,Z) :- E(X,Y), E(Y,Z), E(X,Z)\n").unwrap();
    std::fs::write(&dpath, "relation E\na b\nb c\na c\n").unwrap();
    let (stdout, _, ok) = run_cli(
        &[qpath.to_str().unwrap(), "--db", dpath.to_str().unwrap()],
        None,
    );
    assert!(ok);
    assert!(stdout.contains("|Q(D)| = 1"), "{stdout}");
    assert!(stdout.contains("exact check: true"), "{stdout}");
    assert!(stdout.contains("product form"), "{stdout}");
}

#[test]
fn database_arity_mismatch_is_a_per_input_error() {
    let dir = std::env::temp_dir();
    let bad = dir.join("cq_arity_bad.cq");
    let good = dir.join("cq_arity_good.cq");
    let dpath = dir.join("cq_arity.db");
    std::fs::write(&bad, "T(X,Y,Z) :- E(X,Y), E(Y,Z), E(X,Z)\n").unwrap();
    std::fs::write(&good, "P(X) :- E(X,Y,Z)\n").unwrap();
    std::fs::write(&dpath, "relation E\na b c\nb c a\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cq-analyze"))
        .args([
            "--json",
            "--db",
            dpath.to_str().unwrap(),
            bad.to_str().unwrap(),
            good.to_str().unwrap(),
        ])
        .output()
        .expect("run cq-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // A clean failure exit, not a worker panic (exit 101).
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert_eq!(
        lines[0],
        format!(
            "{{\"name\":\"{}\",\"error\":\"database error: relation E has 3 columns \
             in the database but the query uses it with 2\"}}",
            bad.to_str().unwrap()
        )
    );
    // The other input still gets its report and data check.
    assert!(lines[1].contains("\"measured\":2"), "{}", lines[1]);
    assert!(lines[2].starts_with("{\"cache_stats\""), "{}", lines[2]);
}

#[test]
fn warns_on_violated_dependencies() {
    let dir = std::env::temp_dir();
    let qpath = dir.join("cq_analyze_warn.cq");
    let dpath = dir.join("cq_analyze_warn.db");
    std::fs::write(&qpath, "Q(X,Y) :- R(X,Y)\nkey R[1]\n").unwrap();
    std::fs::write(&dpath, "relation R\na 1\na 2\n").unwrap();
    let (stdout, _, ok) = run_cli(
        &[qpath.to_str().unwrap(), "--db", dpath.to_str().unwrap()],
        None,
    );
    assert!(ok);
    assert!(stdout.contains("WARNING"), "{stdout}");
}

#[test]
fn json_batch_mode_keeps_one_line_per_input() {
    let dir = std::env::temp_dir();
    let good = dir.join("cq_json_good.cq");
    let bad = dir.join("cq_json_bad.cq");
    std::fs::write(&good, "Q(X,Y) :- R(X,Y)\n").unwrap();
    std::fs::write(&bad, "not a query\n").unwrap();
    let (stdout, stderr, ok) = run_cli(
        &[
            good.to_str().unwrap(),
            bad.to_str().unwrap(),
            good.to_str().unwrap(),
            "--json",
        ],
        None,
    );
    assert!(!ok, "parse errors must fail the batch");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines.len(),
        4,
        "one JSON line per input plus the cache summary: {stdout}"
    );
    assert!(lines[0].contains("\"query\":"), "{stdout}");
    assert!(lines[1].contains("\"error\":\"parse error"), "{stdout}");
    assert!(lines[2].contains("\"query\":"), "{stdout}");
    assert!(lines[3].starts_with("{\"cache_stats\":"), "{stdout}");
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn json_cache_stats_count_isomorphic_lookups() {
    let dir = std::env::temp_dir();
    let a = dir.join("cq_cache_a.cq");
    let b = dir.join("cq_cache_b.cq");
    std::fs::write(&a, "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)\n").unwrap();
    // structurally isomorphic relabeling of the triangle
    std::fs::write(&b, "S(C,A,B) :- E(B,C), E(A,B), E(A,C)\n").unwrap();
    let (stdout, _, ok) = run_cli(&[a.to_str().unwrap(), b.to_str().unwrap(), "--json"], None);
    assert!(ok);
    let last = stdout.lines().last().unwrap();
    assert!(last.contains("\"enabled\":true"), "{last}");
    // The batch runs across threads, so both workers may race to the
    // first lookup and both miss before either insert lands; the hit
    // count is 0 or 1 depending on timing. What *is* deterministic:
    // exactly two lookups happened and both resolved to one canonical
    // entry. (A guaranteed hit is asserted by the sequential
    // differential in tests/pipeline_engine.rs.)
    let field = |name: &str| -> u64 {
        let tail = &last[last.find(&format!("\"{name}\":")).unwrap() + name.len() + 3..];
        tail[..tail.find([',', '}']).unwrap()].parse().unwrap()
    };
    assert_eq!(field("hits") + field("misses"), 2, "{last}");
    assert_eq!(field("entries"), 1, "{last}");
    assert_eq!(field("evictions"), 0, "{last}");
}

#[test]
fn no_cache_disables_the_lp_cache() {
    let dir = std::env::temp_dir();
    let a = dir.join("cq_nocache.cq");
    std::fs::write(&a, "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)\n").unwrap();
    let path = a.to_str().unwrap();
    let (stdout, _, ok) = run_cli(&[path, path, "--json", "--no-cache"], None);
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    let last = lines.last().unwrap();
    assert!(last.contains("\"enabled\":false"), "{last}");
    assert!(last.contains("\"hits\":0"), "{last}");
    // The reports themselves are identical with and without the cache,
    // except for solver_stats: a cache hit legitimately performs no LP
    // solve, so its counters stay zero (that is the observability the
    // field exists for). Strip it before comparing.
    let (cached, _, ok2) = run_cli(&[path, path, "--json"], None);
    assert!(ok2);
    let cached_lines: Vec<&str> = cached.lines().collect();
    for (nc, c) in lines[..2].iter().zip(&cached_lines[..2]) {
        assert_eq!(
            common::strip_solver_stats(nc),
            common::strip_solver_stats(c),
            "reports must not change"
        );
    }
    // Uncached, both runs really solved the coloring LP (a deterministic
    // guaranteed-hit counterpart lives in tests/pipeline_engine.rs; the
    // cached CLI batch races its two workers, so no hit assert here).
    for line in &lines[..2] {
        assert!(line.contains("\"dense_solves\":1"), "{line}");
    }
}

#[test]
fn no_cache_text_mode_output_is_unchanged() {
    let (plain, _, ok1) = run_cli(&["-"], Some("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)\n"));
    let (nocache, _, ok2) = run_cli(
        &["-", "--no-cache"],
        Some("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)\n"),
    );
    assert!(ok1 && ok2);
    assert_eq!(plain, nocache);
    assert!(!plain.contains("cache_stats"), "text mode has no summary");
}

/// The README's `--json` schema section is executable documentation:
/// every key it documents — in the per-query object and in the trailing
/// `cache_stats` summary — must appear in the binary's actual output.
/// (The schema predating a field, as happened to the PR 2 cache
/// counters, now fails this test instead of lingering.)
#[test]
fn json_schema_keys_match_readme() {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    let section = readme
        .split("### `--json` schema")
        .nth(1)
        .expect("README documents the --json schema")
        .split("\n## ")
        .next()
        .unwrap();
    // Collect documented keys: every `"key":` occurrence inside the
    // section's ```jsonc blocks (the examples pack several per line).
    let mut keys: Vec<String> = Vec::new();
    let mut in_block = false;
    for line in section.lines() {
        if line.starts_with("```") {
            in_block = !in_block;
            continue;
        }
        if !in_block {
            continue;
        }
        // Strip jsonc comments so quoted words in them don't count.
        let code = line.split("//").next().unwrap();
        let mut parts = code.split('"');
        parts.next(); // before the first quote
        while let (Some(candidate), Some(after)) = (parts.next(), parts.next()) {
            if after.trim_start().starts_with(':') {
                keys.push(candidate.to_owned());
            }
        }
    }
    keys.sort();
    keys.dedup();
    assert!(keys.len() >= 30, "schema section lost its keys? {keys:?}");
    for expected in [
        "cache_stats",
        "hits",
        "misses",
        "evictions",
        "entries",
        "exponent",
        "fds_hold",
    ] {
        assert!(
            keys.iter().any(|k| k == expected),
            "README schema section no longer documents {expected:?}"
        );
    }

    // An invocation that exercises every optional section: witness and
    // database checks on a simple-FD query.
    let dir = std::env::temp_dir();
    let qpath = dir.join("cq_schema_keys.cq");
    let dpath = dir.join("cq_schema_keys.db");
    std::fs::write(&qpath, "T(X,Y,Z) :- E(X,Y), E(Y,Z), E(X,Z)\n").unwrap();
    std::fs::write(&dpath, "relation E\na b\nb c\na c\n").unwrap();
    let (stdout, _, ok) = run_cli(
        &[
            qpath.to_str().unwrap(),
            "--json",
            "--witness",
            "2",
            "--db",
            dpath.to_str().unwrap(),
        ],
        None,
    );
    assert!(ok);
    for key in &keys {
        assert!(
            stdout.contains(&format!("\"{key}\":")),
            "README documents key {key:?} but cq-analyze --json never emits it:\n{stdout}"
        );
    }
}

#[test]
fn witness_zero_is_rejected_cleanly() {
    let (_, stderr, ok) = run_cli(&["-", "--witness", "0"], Some("Q(X,Y) :- R(X,Y)\n"));
    assert!(!ok);
    assert!(stderr.contains("M >= 1"), "{stderr}");
}

#[test]
fn witness_over_the_tuple_budget_fails_with_the_budget() {
    let (stdout, stderr, ok) = run_cli(
        &["-", "--witness", "2000", "--json"],
        Some("Q(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)\n"),
    );
    assert!(!ok);
    assert!(stderr.contains("over the budget of 1048576"), "{stderr}");
    // The --json line carries the same message in place of the report.
    assert!(stdout.contains("\"error\":\"witness M=2000"), "{stdout}");
}

#[test]
fn witness_whose_count_passes_u64_answers_with_the_saturated_count() {
    // Four unary atoms at M = 65,536: 262,144 tuples, inside the budget,
    // and 65,536^4 = 2^64 answers, one more than `measured` can hold.
    let (stdout, stderr, ok) = run_cli(
        &["-", "--witness", "65536", "--json"],
        Some("Q(A,B,C,D) :- R(A), S(B), T(C), U(D)\n"),
    );
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("\"measured\":18446744073709551615"),
        "{stdout}"
    );
}

#[test]
fn parse_errors_fail_cleanly() {
    let (_, stderr, ok) = run_cli(&["-"], Some("not a query\n"));
    assert!(!ok);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn missing_file_fails_cleanly() {
    let (_, stderr, ok) = run_cli(&["/nonexistent/query.cq"], None);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let (_, stderr, ok) = run_cli(&[], None);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

fn run_bin(bin: &str, args: &[&str]) -> (String, String, bool) {
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// `--help`/`-h` print usage to **stdout** and exit 0 on every binary
/// (they used to exit 1 as "unexpected argument"); `--version` likewise.
#[test]
fn help_and_version_exit_zero_on_stdout() {
    for (name, bin) in [
        ("cq-analyze", env!("CARGO_BIN_EXE_cq-analyze")),
        ("cq-serve", env!("CARGO_BIN_EXE_cq-serve")),
        ("cq-cluster", env!("CARGO_BIN_EXE_cq-cluster")),
        ("cq-trace", env!("CARGO_BIN_EXE_cq-trace")),
    ] {
        for flag in ["--help", "-h"] {
            let (stdout, stderr, ok) = run_bin(bin, &[flag]);
            assert!(ok, "{name} {flag} must exit 0 (stderr: {stderr})");
            assert!(stdout.contains("usage"), "{name} {flag}: {stdout}");
            assert!(stderr.is_empty(), "{name} {flag} wrote to stderr: {stderr}");
        }
        let (stdout, stderr, ok) = run_bin(bin, &["--version"]);
        assert!(ok, "{name} --version must exit 0 (stderr: {stderr})");
        assert!(
            stdout.trim() == format!("{name} {}", env!("CARGO_PKG_VERSION")),
            "{name} --version: {stdout}"
        );
    }
}

/// `cq-trace` keeps the workspace's CLI error contract: diagnostics on
/// stderr with a nonzero exit, never on stdout.
#[test]
fn cq_trace_errors_go_to_stderr() {
    let bin = env!("CARGO_BIN_EXE_cq-trace");
    let (stdout, stderr, ok) = run_bin(bin, &["bogus"]);
    assert!(!ok, "unknown subcommand must fail");
    assert!(stdout.is_empty(), "stdout must stay clean: {stdout}");
    assert!(stderr.contains("usage"), "{stderr}");

    let (_, stderr, ok) = run_bin(bin, &["assemble"]);
    assert!(!ok);
    assert!(stderr.contains("at least one trace file"), "{stderr}");

    let (stdout, stderr, ok) = run_bin(bin, &["assemble", "/nonexistent/run.trace"]);
    assert!(!ok, "unreadable files are the one hard ingestion error");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("cannot read"), "{stderr}");
}

/// In `--json` mode stdout is machine-consumable: every line parses as
/// JSON even when inputs fail (errors go to stderr, the exit code says
/// the batch failed). Checked on both cq-analyze and cq-cluster.
#[test]
fn json_stdout_carries_only_json_lines() {
    let dir = std::env::temp_dir();
    let good = dir.join("cq_stream_good.cq");
    let bad = dir.join("cq_stream_bad.cq");
    std::fs::write(&good, "Q(X,Y) :- R(X,Y)\n").unwrap();
    std::fs::write(&bad, "not a query\n").unwrap();
    for (name, bin, extra) in [
        ("cq-analyze", env!("CARGO_BIN_EXE_cq-analyze"), &[][..]),
        (
            "cq-cluster",
            env!("CARGO_BIN_EXE_cq-cluster"),
            &["--spawn", "1"][..],
        ),
    ] {
        let mut args = vec![good.to_str().unwrap(), bad.to_str().unwrap(), "--json"];
        args.extend_from_slice(extra);
        let (stdout, stderr, ok) = run_bin(bin, &args);
        assert!(!ok, "{name}: a parse error must fail the batch");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 3, "{name}: 2 reports + summary: {stdout}");
        for line in &lines {
            cq_engine::Json::parse(line)
                .unwrap_or_else(|e| panic!("{name} stdout line is not JSON ({e}): {line}"));
        }
        assert!(stderr.contains("parse error"), "{name}: {stderr}");
    }
}
