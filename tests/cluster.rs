//! Integration tests for the `cq-cluster` distributed batch subsystem.
//!
//! The headline guarantee — the differential — drives real processes:
//! three `cq-serve --tcp` worker daemons, the `cq-cluster` binary (or
//! the `cq_cluster::ClusterClient` library underneath it), and
//! single-process `cq-analyze` as ground truth. Reports must come back
//! bit-identical and input-ordered, through worker death included.

mod common;

use cqbounds::cluster::{ClusterClient, ClusterError, PlanMode, ServeChild, WorkerAddr};
use cqbounds::engine::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// A spawned `cq-serve --tcp 127.0.0.1:0` worker — the shared
/// [`ServeChild`] spawner plus test-side stats probing.
struct TcpWorker {
    child: ServeChild,
    addr: String,
}

impl TcpWorker {
    fn spawn(extra_args: &[&str]) -> TcpWorker {
        let child = ServeChild::spawn(Path::new(env!("CARGO_BIN_EXE_cq-serve")), extra_args)
            .expect("spawn cq-serve --tcp");
        let WorkerAddr::Tcp(addr) = child.addr().clone() else {
            unreachable!("ServeChild always binds TCP")
        };
        TcpWorker { child, addr }
    }

    fn worker_addr(&self) -> WorkerAddr {
        self.child.addr().clone()
    }

    /// Number of queries the daemon reports having analyzed.
    fn analyses(&self) -> i64 {
        let mut conn = TcpStream::connect(&self.addr).expect("stats connection");
        conn.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(&conn).read_line(&mut line).unwrap();
        Json::parse(line.trim_end())
            .expect("stats response parses")
            .get("stats")
            .and_then(|s| s.get("analyses"))
            .and_then(Json::as_i64)
            .expect("analyses counter")
    }

    fn kill(&mut self) {
        self.child.kill();
    }
}

/// Writes the workload to files and returns `(paths, dir)`. The mix
/// covers isomorphism classes (cache interaction), keyed queries (FDs)
/// and — when asked — a parse error mid-batch.
fn write_workload(tag: &str, n: usize, with_error: bool) -> (Vec<String>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("cq_cluster_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<String> = (0..n)
        .map(|i| {
            let text = if with_error && i == n / 2 {
                "definitely not a query\n".to_owned()
            } else {
                match i % 4 {
                    0 => format!("S(X,Y,Z) :- E{0}(X,Y), E{0}(X,Z), E{0}(Y,Z)\n", i / 8),
                    1 => "Q(X,Y,Z) :- S(X,Y), T(Y,Z)\n".to_owned(),
                    2 => format!("P(C,A,B) :- F{0}(B,C), F{0}(A,B), F{0}(A,C)\n", i / 8),
                    _ => "R2(X,Y,Z) :- R(X,Y), R(X,Z)\nkey R[1]\n".to_owned(),
                }
            };
            let path = dir.join(format!("q{i}.cq"));
            std::fs::write(&path, text).unwrap();
            path.to_str().unwrap().to_owned()
        })
        .collect();
    (paths, dir)
}

/// `cq-analyze --json --no-cache` over `paths`: the single-process
/// ground truth (per-query lines only; the summary line is dropped).
fn analyze_ground_truth(paths: &[String]) -> Vec<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_cq-analyze"))
        .args(paths)
        .args(["--json", "--no-cache"])
        .output()
        .expect("run cq-analyze");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<String> = stdout.lines().map(str::to_owned).collect();
    assert_eq!(lines.len(), paths.len() + 1, "N reports + summary");
    lines[..paths.len()].to_vec()
}

/// Bit-compare a cluster report line against ground truth, modulo
/// `solver_stats` (a cache hit legitimately performs no solve — the
/// same normalization every serve-vs-CLI differential applies).
fn assert_report_matches(actual: &str, expected: &str, i: usize) {
    if expected.contains("\"error\":") {
        assert_eq!(actual, expected, "error line #{i} must match exactly");
    } else {
        assert_eq!(
            common::strip_solver_stats(actual),
            common::strip_solver_stats(expected),
            "report #{i} must be bit-identical to cq-analyze"
        );
    }
}

/// The acceptance differential: `cq-cluster` over 3 worker daemons ==
/// single-process `cq-analyze` batch output, order preserved, parse
/// errors in place, stats summed into the trailing line.
#[test]
fn cluster_over_three_workers_matches_cq_analyze() {
    let (paths, dir) = write_workload("diff", 24, true);
    let expected = analyze_ground_truth(&paths);

    let workers: Vec<TcpWorker> = (0..3).map(|_| TcpWorker::spawn(&[])).collect();
    let output = Command::new(env!("CARGO_BIN_EXE_cq-cluster"))
        .args(&paths)
        .args(["--json", "--chunk", "4"])
        .args(
            workers
                .iter()
                .flat_map(|w| ["--worker".to_owned(), w.addr.clone()])
                .collect::<Vec<_>>(),
        )
        .output()
        .expect("run cq-cluster");
    assert!(
        !output.status.success(),
        "the workload contains a parse error; exit code must agree with cq-analyze"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines.len(),
        paths.len() + 1,
        "N reports + summary:\n{stdout}"
    );
    for (i, (actual, expected)) in lines.iter().zip(&expected).enumerate() {
        assert_report_matches(actual, expected, i);
    }

    // The trailing line: cq-analyze-shaped cache_stats plus the cluster
    // accounting. The workload has repeated isomorphism classes, so the
    // canonical-key plan must produce real cross-query hits.
    let summary = Json::parse(lines[paths.len()]).expect("summary parses");
    let cache = summary.get("cache_stats").expect("cache_stats");
    assert_eq!(cache.get("enabled"), Some(&Json::Bool(true)));
    assert!(
        cache.get("hits").and_then(Json::as_i64).unwrap() > 0,
        "{summary:?}"
    );
    let cluster = summary.get("cluster").expect("cluster object");
    assert_eq!(cluster.get("workers").and_then(Json::as_i64), Some(3));
    assert_eq!(cluster.get("resubmitted").and_then(Json::as_i64), Some(0));
    let per_worker = cluster.get("per_worker").and_then(Json::as_array).unwrap();
    assert_eq!(per_worker.len(), 3);
    let completed: i64 = per_worker
        .iter()
        .map(|w| w.get("completed").and_then(Json::as_i64).unwrap())
        .sum();
    assert_eq!(completed as usize, paths.len());
    // solver_stats summed across reports: something really solved.
    let pivots = cluster
        .get("solver_stats")
        .and_then(|s| s.get("pivots"))
        .and_then(Json::as_i64)
        .unwrap();
    assert!(pivots > 0, "{summary:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Kill a worker mid-run: the client must mark it dead, resubmit its
/// unacknowledged queries to the survivors, and still deliver the full
/// bit-identical, input-ordered report set.
#[test]
fn killing_a_worker_mid_run_resubmits_and_completes() {
    // The round-robin plan below hands worker 0 every i ≡ 0 (mod 3)
    // input: cycle-fd k = 8 (the 8-cycle plus T(X0,X1,X2) under the
    // compound FD T[1,2] -> T[3]). Its entropy LPs are deliberately not
    // served by the cross-query cache, and its Prop 6.9 Shannon LP (255
    // columns, 1808 rows) takes about 20 ms per analysis (release
    // build, 2-vCPU VM). A small compound-FD query is not enough: its
    // whole analysis takes about 1 ms, Prop 6.10 being a few pivots, so
    // the victim could drain its queue before the kill. With some
    // thirty 20 ms analyses between the victim's first analysis (the
    // kill trigger) and an empty queue, the kill lands mid-run even on
    // a heavily loaded machine.
    let cycle_fd_8 = {
        let atoms: Vec<String> = (0..8)
            .map(|i| format!("R{i}(X{i},X{})", (i + 1) % 8))
            .collect();
        let head: Vec<String> = (0..8).map(|i| format!("X{i}")).collect();
        format!(
            "Q({}) :- {}, T(X0,X1,X2)\nT[1,2] -> T[3]\n",
            head.join(","),
            atoms.join(", ")
        )
    };
    let dir = std::env::temp_dir().join(format!("cq_cluster_kill_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<String> = (0..90)
        .map(|i| {
            let text = if i % 3 == 0 {
                cycle_fd_8.clone()
            } else {
                format!("S(X,Y,Z) :- E{0}(X,Y), E{0}(X,Z), E{0}(Y,Z)\n", i / 6)
            };
            let path = dir.join(format!("q{i}.cq"));
            std::fs::write(&path, text).unwrap();
            path.to_str().unwrap().to_owned()
        })
        .collect();
    let inputs: Vec<(String, String)> = paths
        .iter()
        .map(|p| (p.clone(), std::fs::read_to_string(p).unwrap()))
        .collect();
    let expected = analyze_ground_truth(&paths);

    let mut workers: Vec<TcpWorker> = (0..3).map(|_| TcpWorker::spawn(&[])).collect();
    let victim_addr = workers[0].worker_addr();
    let addrs: Vec<WorkerAddr> = workers.iter().map(TcpWorker::worker_addr).collect();

    // chunk=1 and round-robin: worker 0 owns 30 chunks, so a kill
    // landing after its first analysis leaves plenty in flight.
    let client = ClusterClient::new(addrs)
        .with_plan(PlanMode::RoundRobin)
        .with_chunk(1);
    let run = std::thread::scope(|scope| {
        let runner = scope.spawn(|| client.run(&inputs));
        // Kill worker 0 the moment it has demonstrably started working.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if workers[0].analyses() > 0 {
                break;
            }
            assert!(Instant::now() < deadline, "worker 0 never started");
            std::thread::sleep(Duration::from_millis(5));
        }
        workers[0].kill();
        runner.join().expect("cluster run thread")
    })
    .expect("run completes despite the killed worker");

    assert_eq!(run.reports.len(), inputs.len());
    for (i, (report, expected)) in run.reports.iter().zip(&expected).enumerate() {
        assert_report_matches(&report.render(), expected, i);
    }
    let victim = run
        .workers
        .iter()
        .find(|w| w.addr == victim_addr.to_string())
        .unwrap();
    assert!(victim.died, "the killed worker must be marked dead");
    assert!(
        run.resubmitted > 0,
        "its unfinished queries were resubmitted ({run:?})"
    );
    assert!(
        victim.completed < inputs.len(),
        "survivors did part of the work"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A worker that is dead on arrival (nothing listens there) is retried
/// to the survivors transparently.
#[test]
fn dead_on_arrival_worker_falls_over_to_survivors() {
    let (paths, dir) = write_workload("doa", 12, false);
    let inputs: Vec<(String, String)> = paths
        .iter()
        .map(|p| (p.clone(), std::fs::read_to_string(p).unwrap()))
        .collect();
    let live = TcpWorker::spawn(&[]);
    // A port with no listener: bind-then-drop reserves a fresh port
    // that nothing serves.
    let dead_port = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let client = ClusterClient::new(vec![dead_port.parse().unwrap(), live.worker_addr()]);
    let run = client.run(&inputs).expect("survivor finishes the job");
    assert_eq!(run.reports.len(), inputs.len());
    assert!(run.resubmitted > 0);
    assert!(run.workers[0].died);
    assert_eq!(run.workers[0].completed, 0);
    assert_eq!(run.workers[1].completed, inputs.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// With every worker dead the run fails loudly instead of hanging or
/// fabricating reports.
#[test]
fn all_workers_dead_is_a_structured_error() {
    let dead_port = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let client = ClusterClient::new(vec![dead_port.parse().unwrap()]);
    let inputs = vec![(
        "tri".to_owned(),
        "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)".to_owned(),
    )];
    match client.run(&inputs) {
        Err(ClusterError::AllWorkersDead { unfinished }) => assert_eq!(unfinished, 1),
        other => panic!("expected AllWorkersDead, got {other:?}"),
    }
}

/// Self-host mode: `cq-cluster --spawn` brings up its own workers,
/// produces the same reports, and leaves no children behind.
#[test]
fn self_host_spawn_matches_ground_truth() {
    let (paths, dir) = write_workload("spawn", 8, false);
    let expected = analyze_ground_truth(&paths);
    let output = Command::new(env!("CARGO_BIN_EXE_cq-cluster"))
        .args(&paths)
        .args(["--json", "--spawn", "2"])
        .output()
        .expect("run cq-cluster --spawn");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), paths.len() + 1);
    for (i, (actual, expected)) in lines.iter().zip(&expected).enumerate() {
        assert_report_matches(actual, expected, i);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The README's `cq-cluster --json` schema section is executable
/// documentation, exactly like the `cq-analyze` one: every key it
/// documents must appear in the binary's actual output.
#[test]
fn cluster_json_schema_keys_match_readme() {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    let section = readme
        .split("### `cq-cluster --json` schema")
        .nth(1)
        .expect("README documents the cq-cluster --json schema")
        .split("\n## ")
        .next()
        .unwrap();
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
        let code = line.split("//").next().unwrap();
        let mut parts = code.split('"');
        parts.next();
        while let (Some(candidate), Some(after)) = (parts.next(), parts.next()) {
            if after.trim_start().starts_with(':') {
                keys.push(candidate.to_owned());
            }
        }
    }
    keys.sort();
    keys.dedup();
    for expected in ["cluster", "per_worker", "resubmitted", "died", "assigned"] {
        assert!(
            keys.iter().any(|k| k == expected),
            "README schema section no longer documents {expected:?}"
        );
    }

    let (paths, dir) = write_workload("schema", 4, false);
    let output = Command::new(env!("CARGO_BIN_EXE_cq-cluster"))
        .args(&paths)
        .args(["--json", "--spawn", "2"])
        .output()
        .expect("run cq-cluster");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for key in &keys {
        assert!(
            stdout.contains(&format!("\"{key}\":")),
            "README documents key {key:?} but cq-cluster --json never emits it:\n{stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
