//! `cq-cluster` — distributed batch analysis over `cq-serve` workers.
//!
//! Shards a workload of query programs across N worker daemons and
//! merges the results into exactly what single-process `cq-analyze`
//! batch mode prints: one report per input, in input order, plus one
//! trailing summary line (`--json`). The distribution layer lives in
//! `cq_cluster` (see `docs/CLUSTER.md` for the sharding and
//! failure/retry semantics); this binary adds worker bring-up and the
//! CLI surface.
//!
//! ```text
//! cq-cluster a.cq b.cq --worker 127.0.0.1:7171 --worker 127.0.0.1:7172
//!                                   # connect to existing daemons
//! cq-cluster *.cq --spawn 4         # self-host: spawn 4 local cq-serve
//!                                   #  children on loopback TCP
//! cq-cluster *.cq --json            # cq-analyze-compatible JSON lines
//! cq-cluster *.cq --witness 3       # per-query worst-case witnesses
//! cq-cluster *.cq --plan roundrobin # ignore structure when sharding
//! cq-cluster *.cq --chunk 16        # queries per batch request
//! cq-cluster *.cq --trace           # propagate trace ids to workers
//!                                   #  (CQ_TRACE=PATH gives each
//!                                   #  spawned worker PATH.w<i>)
//! ```
//!
//! With neither `--worker` nor `--spawn`, two local workers are
//! spawned. Worker addresses accept `HOST:PORT`, `tcp:HOST:PORT`,
//! `unix:PATH`, or a bare socket path containing `/`.

use cq_cluster::{ClusterClient, ClusterRun, PlanMode, ServeChild, WorkerAddr};
use cq_engine::json::obj;
use cq_engine::report::lp_work_json;
use cq_engine::serve::cache_stats_json;
use cq_engine::Json;
use std::io::Read;
use std::process::ExitCode;

struct Args {
    paths: Vec<String>,
    workers: Vec<WorkerAddr>,
    spawn: Option<usize>,
    json: bool,
    witness_m: Option<usize>,
    chunk: Option<usize>,
    plan: PlanMode,
    trace: bool,
}

const USAGE: &str = "usage: cq-cluster <file|-> [<file>...] [--worker ADDR]... [--spawn N] \
                     [--json] [--witness M] [--chunk N] [--plan key|roundrobin] [--trace]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--version") {
        println!("cq-cluster {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    // The client's own sink: worker spans stay on the workers (each
    // spawned child gets its own CQ_TRACE file — see SpawnedWorkers);
    // what lands here is trace-id minting and any client-side phases.
    match cq_telemetry::init_tracing(args.trace) {
        Ok(_) => {}
        Err(e) => {
            eprintln!("cq-cluster: cannot open trace sink: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut inputs: Vec<(String, String)> = Vec::with_capacity(args.paths.len());
    for path in &args.paths {
        match read_input(path) {
            Ok(text) => inputs.push((path.clone(), text)),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Bring up the worker pool: external daemons, spawned children, or
    // (neither flag) two spawned children as the zero-config default.
    let mut children = SpawnedWorkers::default();
    let mut addrs = args.workers.clone();
    if addrs.is_empty() {
        let n = args.spawn.unwrap_or(2);
        match SpawnedWorkers::spawn(n) {
            Ok(spawned) => {
                addrs = spawned.addrs.clone();
                children = spawned;
            }
            Err(e) => {
                eprintln!("cq-cluster: cannot spawn workers: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut client = ClusterClient::new(addrs)
        .with_plan(args.plan)
        .with_trace(args.trace);
    if let Some(chunk) = args.chunk {
        client = client.with_chunk(chunk);
    }
    client = client.with_witness(args.witness_m);

    let run = match client.run(&inputs) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("cq-cluster: {e}");
            children.shutdown();
            return ExitCode::FAILURE;
        }
    };
    children.shutdown();

    let failed = render(&run, args.json);
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Prints the run; returns whether any input failed to parse.
fn render(run: &ClusterRun, json: bool) -> bool {
    let mut failed = false;
    for report in &run.reports {
        // Parse errors go to stderr (exactly once), matching cq-analyze:
        // text-mode stdout carries no error lines, --json keeps its
        // one-line-per-input contract with the {"name","error"} object.
        if let Some(error) = report.get("error").and_then(Json::as_str) {
            failed = true;
            let name = report.get("name").and_then(Json::as_str).unwrap_or("?");
            eprintln!("{name}: {error}");
            if json {
                println!("{}", report.render());
            }
            continue;
        }
        if json {
            println!("{}", report.render());
        } else {
            let name = report.get("name").and_then(Json::as_str).unwrap_or("?");
            let exponent = report
                .get("size_bound")
                .and_then(|b| b.get("exponent"))
                .and_then(Json::as_str)
                .unwrap_or("-");
            let growth = report
                .get("growth")
                .and_then(|g| g.get("increases"))
                .map_or("-", |j| if j == &Json::Bool(true) { "yes" } else { "no" });
            println!("{name}: exponent {exponent}, size increase {growth}");
        }
    }
    if json {
        println!("{}", summary_json(run).render());
    } else {
        println!(
            "cluster: {} workers, {} hits / {} misses, {} resubmitted",
            run.workers.len(),
            run.cache.hits,
            run.cache.misses,
            run.resubmitted
        );
        for w in &run.workers {
            let looked = w.cache.hits + w.cache.misses;
            let rate = if looked == 0 {
                "-".to_owned()
            } else {
                format!("{:.0}%", 100.0 * w.cache.hits as f64 / looked as f64)
            };
            println!(
                "  {}: {}/{} queries, hit rate {}{}",
                w.addr,
                w.completed,
                w.assigned,
                rate,
                if w.died { " (died)" } else { "" }
            );
        }
    }
    failed
}

/// The trailing `--json` summary line: the `cache_stats` object
/// `cq-analyze` emits (counters summed across workers), plus a
/// `cluster` object with the distribution-level accounting. Schema
/// locked by `tests/cluster.rs` against the README.
fn summary_json(run: &ClusterRun) -> Json {
    let per_worker: Vec<Json> = run
        .workers
        .iter()
        .map(|w| {
            obj([
                ("addr", Json::str(&w.addr)),
                ("assigned", Json::int(w.assigned)),
                ("completed", Json::int(w.completed)),
                ("hits", Json::count(w.cache.hits)),
                ("misses", Json::count(w.cache.misses)),
                ("evictions", Json::count(w.cache.evictions)),
                ("entries", Json::count(w.cache.entries)),
                ("died", Json::Bool(w.died)),
            ])
        })
        .collect();
    let widths = &run.widths;
    let requests = run.metrics.counter("cq_serve_requests_total").unwrap_or(0);
    let execute = run
        .metrics
        .histogram("cq_serve_execute_micros")
        .cloned()
        .unwrap_or_default();
    obj([
        ("cache_stats", cache_stats_json(Some(run.cache))),
        (
            "cluster",
            obj([
                ("workers", Json::int(run.workers.len())),
                ("resubmitted", Json::int(run.resubmitted)),
                ("solver_stats", lp_work_json(&run.solver)),
                (
                    "width_stats",
                    obj([
                        ("hypertree_exact", Json::count(widths.hypertree_exact)),
                        (
                            "hypertree_heuristic",
                            Json::count(widths.hypertree_heuristic),
                        ),
                        (
                            "max_hypertree_width",
                            Json::count(widths.max_hypertree_width),
                        ),
                        ("max_treewidth", Json::count(widths.max_treewidth)),
                    ]),
                ),
                (
                    "metrics",
                    obj([
                        ("requests", Json::count(requests)),
                        (
                            "execute_micros",
                            obj([
                                ("count", Json::count(execute.count())),
                                ("sum", Json::count(execute.sum())),
                                ("p50", Json::count(execute.quantile(50))),
                                ("p95", Json::count(execute.quantile(95))),
                                ("p99", Json::count(execute.quantile(99))),
                            ]),
                        ),
                    ]),
                ),
                ("per_worker", Json::Arr(per_worker)),
            ]),
        ),
    ])
}

/// Self-hosted `cq-serve --tcp 127.0.0.1:0` children
/// ([`cq_cluster::ServeChild`] does the spawn/announce/drain dance),
/// killed and reaped when the run is over.
#[derive(Default)]
struct SpawnedWorkers {
    children: Vec<ServeChild>,
    addrs: Vec<WorkerAddr>,
}

impl SpawnedWorkers {
    fn spawn(n: usize) -> std::io::Result<SpawnedWorkers> {
        let exe = std::env::current_exe()?;
        let serve = exe
            .parent()
            .map(|dir| dir.join("cq-serve"))
            .filter(|p| p.exists())
            .ok_or_else(|| {
                std::io::Error::other("cq-serve not found next to the cq-cluster binary")
            })?;
        // A CQ_TRACE *path* must not inherit as-is: every child would
        // File::create the same file and clobber the others. Each worker
        // gets its own `<path>.w<i>` instead ("stderr" inherits fine —
        // the spawner drains child stderr, so those spans are discarded
        // by design).
        let trace_base = std::env::var("CQ_TRACE")
            .ok()
            .filter(|v| !v.is_empty() && v != "stderr");
        let mut workers = SpawnedWorkers::default();
        for i in 0..n.max(1) {
            let child = match &trace_base {
                Some(base) => {
                    let per_worker = format!("{base}.w{i}");
                    ServeChild::spawn_with_env(
                        &serve,
                        &[],
                        &[("CQ_TRACE", Some(per_worker.as_str()))],
                    )?
                }
                None => ServeChild::spawn(&serve, &[])?,
            };
            workers.addrs.push(child.addr().clone());
            workers.children.push(child);
        }
        Ok(workers)
    }

    fn shutdown(&mut self) {
        for child in &mut self.children {
            child.kill();
        }
        self.children.clear();
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut paths = Vec::new();
    let mut workers = Vec::new();
    let mut spawn = None;
    let mut json = false;
    let mut witness_m = None;
    let mut chunk = None;
    let mut plan = PlanMode::ByCanonicalKey;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--trace" => trace = true,
            "--worker" => {
                i += 1;
                let addr = args.get(i).ok_or("--worker needs an address")?;
                workers.push(addr.parse::<WorkerAddr>()?);
            }
            "--spawn" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .ok_or("--spawn needs a worker count")?
                    .parse()
                    .map_err(|_| "--spawn needs an integer".to_string())?;
                if n == 0 {
                    return Err("--spawn needs N >= 1".to_string());
                }
                spawn = Some(n);
            }
            "--witness" => {
                i += 1;
                let m: usize = args
                    .get(i)
                    .ok_or("--witness needs a value")?
                    .parse()
                    .map_err(|_| "--witness needs an integer".to_string())?;
                if m == 0 {
                    return Err("--witness needs M >= 1 (the product parameter)".to_string());
                }
                witness_m = Some(m);
            }
            "--chunk" => {
                i += 1;
                let c: usize = args
                    .get(i)
                    .ok_or("--chunk needs a value")?
                    .parse()
                    .map_err(|_| "--chunk needs an integer".to_string())?;
                if c == 0 {
                    return Err("--chunk needs N >= 1".to_string());
                }
                chunk = Some(c);
            }
            "--plan" => {
                i += 1;
                plan = match args.get(i).map(String::as_str) {
                    Some("key") => PlanMode::ByCanonicalKey,
                    Some("roundrobin") => PlanMode::RoundRobin,
                    _ => return Err("--plan needs \"key\" or \"roundrobin\"".to_string()),
                };
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unexpected argument {flag}"));
            }
            path => paths.push(path.to_string()),
        }
        i += 1;
    }
    if paths.is_empty() {
        return Err("missing input file".to_string());
    }
    if spawn.is_some() && !workers.is_empty() {
        return Err("--spawn and --worker are mutually exclusive".to_string());
    }
    Ok(Args {
        paths,
        workers,
        spawn,
        json,
        witness_m,
        chunk,
        plan,
        trace,
    })
}

fn read_input(path: &str) -> std::io::Result<String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path)
    }
}
