//! `cq-trace` — the telemetry consumer CLI.
//!
//! ```text
//! cq-trace assemble run.trace run.trace.w0 run.trace.w1 [--json] [--top N]
//! cq-trace flame run.trace.w0 run.trace.w1 > out.folded
//! cq-trace top --worker 127.0.0.1:7171 --worker 127.0.0.1:7172 --interval 2
//! ```
//!
//! `assemble` stitches one or many NDJSON span files (the per-worker
//! `CQ_TRACE=PATH.w<i>` files of a cluster run included) into
//! per-`trace_id` span trees and reports critical paths, per-phase
//! total/self-time attribution, cluster-wide latency quantiles and the
//! slowest traces. `flame` emits folded stacks for flamegraph tooling.
//! `top` polls live `cq-serve` workers without restarting anything.
//! Formats are documented in `docs/TELEMETRY.md` ("Consuming
//! telemetry").

use cq_cluster::WorkerAddr;
use cq_engine::json::obj;
use cq_engine::Json;
use cq_trace::model::Assembly;
use cq_trace::{
    assemble, folded_stacks, ingest_files, parse_folded, poll_worker, render_folded, render_top,
};
use std::io::IsTerminal;
use std::process::ExitCode;

const USAGE: &str = "usage: cq-trace <assemble|flame|top> [options]

  cq-trace assemble FILE... [--json] [--top N] [--require-complete]
      Stitch NDJSON span files (one per process run; cluster runs
      scatter per-worker FILE.w<i> files) into per-trace_id span
      trees. Reports per-trace critical paths, per-phase total/self
      micros with p50/p95/p99 (log2-bucket semantics, matching the
      live `metrics` command), ingestion warnings, and the --top N
      slowest traces (default 5). --json emits one machine-readable
      object instead. --require-complete exits 1 unless every trace
      assembled cleanly (no warnings, orphans, duplicate deliveries
      or cycles) — the CI mode.

  cq-trace flame FILE...
      Emit folded flamegraph stacks (`serve.request;serve.execute 187`,
      weight = summed self micros) on stdout, for standard flamegraph
      tooling. Output is re-parsed before printing, so it cannot drift
      from the documented format.

  cq-trace top --worker ADDR [--worker ADDR ...]
               [--interval SECS] [--count N]
      Poll each worker's `metrics`/`stats` protocol commands every
      --interval seconds (default 2) and render a per-worker and
      merged per-phase latency/cache table. --count N stops after N
      frames (0 = until interrupted).

  cq-trace --help | --version";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("--version") => {
            println!("cq-trace {}", env!("CARGO_PKG_VERSION"));
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let result = match argv.first().map(String::as_str) {
        Some("assemble") => cmd_assemble(&argv[1..]),
        Some("flame") => cmd_flame(&argv[1..]),
        Some("top") => cmd_top(&argv[1..]),
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
        None => Err(format!("missing subcommand\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("cq-trace: {message}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_assemble(args: &[String]) -> Result<ExitCode, String> {
    let mut files: Vec<String> = Vec::new();
    let mut json = false;
    let mut top = 5usize;
    let mut require_complete = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--require-complete" => require_complete = true,
            "--top" => {
                i += 1;
                top = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--top needs a non-negative integer")?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unexpected argument {flag:?}\n{USAGE}"));
            }
            file => files.push(file.to_owned()),
        }
        i += 1;
    }
    if files.is_empty() {
        return Err(format!("assemble needs at least one trace file\n{USAGE}"));
    }
    let assembly = assemble(ingest_files(&files)?);
    if json {
        println!("{}", assembly_json(&assembly, top).render());
    } else {
        print!("{}", assembly_text(&assembly, top));
    }
    if require_complete {
        let problems = incompleteness(&assembly);
        if !problems.is_empty() {
            return Err(format!("incomplete assembly: {}", problems.join(", ")));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Everything `--require-complete` refuses to overlook.
fn incompleteness(assembly: &Assembly) -> Vec<String> {
    let mut problems = Vec::new();
    if !assembly.warnings.is_empty() {
        problems.push(format!("{} ingestion warning(s)", assembly.warnings.len()));
    }
    let count = |what: &str, n: usize| -> Option<String> { (n > 0).then(|| format!("{n} {what}")) };
    let orphans = assembly.orphans_total();
    let dup_runs: usize = assembly.traces.iter().map(|t| t.duplicates_dropped).sum();
    let dup_spans: usize = assembly.traces.iter().map(|t| t.duplicate_spans).sum();
    let cycles: usize = assembly.traces.iter().map(|t| t.cycles_broken).sum();
    problems.extend(count("orphan span(s)", orphans));
    problems.extend(count("duplicate delivery(ies) dropped", dup_runs));
    problems.extend(count("duplicate span id(s)", dup_spans));
    problems.extend(count("cycle(s) broken", cycles));
    problems
}

fn assembly_text(assembly: &Assembly, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ingested {} file(s): {} spans ({} untraced), {} traces, \
         {} process header(s), {} warning(s)",
        assembly.files.len(),
        assembly.spans_total,
        assembly.untraced_spans,
        assembly.traces.len(),
        assembly.headers.len(),
        assembly.warnings.len()
    );
    for warning in &assembly.warnings {
        let _ = writeln!(out, "  warning: {}", warning.render());
    }
    let problems = incompleteness(assembly);
    let _ = writeln!(
        out,
        "assembly: {}",
        if problems.is_empty() {
            "complete (every parent pointer resolved)".to_owned()
        } else {
            problems.join(", ")
        }
    );
    if !assembly.phases.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>12} {:>9} {:>9} {:>9}",
            "phase", "count", "total_ms", "self_ms", "p50us", "p95us", "p99us"
        );
        for phase in &assembly.phases {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>12} {:>12} {:>9} {:>9} {:>9}",
                phase.name,
                phase.durations.count(),
                phase.durations.sum() / 1000,
                phase.self_micros / 1000,
                phase.quantile(50),
                phase.quantile(95),
                phase.quantile(99)
            );
        }
    }
    let slowest = assembly.top_slowest(top);
    if !slowest.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "top {} slowest trace(s):", slowest.len());
        for trace in slowest {
            let path: Vec<&str> = trace
                .critical_path
                .iter()
                .map(|(name, _)| name.as_str())
                .collect();
            let _ = writeln!(
                out,
                "  {}  {:>8}us  {}  [{}]",
                trace.trace_id,
                trace.total_micros,
                path.join(" > "),
                assembly.files[trace.file]
            );
        }
    }
    out
}

fn assembly_json(assembly: &Assembly, top: usize) -> Json {
    let warnings: Vec<Json> = assembly
        .warnings
        .iter()
        .map(|w| {
            obj([
                ("file", Json::str(&w.file)),
                ("line", Json::int(w.line)),
                ("kind", Json::str(w.kind.as_str())),
                ("message", Json::str(&w.message)),
            ])
        })
        .collect();
    let headers: Vec<Json> = assembly
        .headers
        .iter()
        .map(|h| {
            let mut fields = vec![
                ("file".to_owned(), Json::str(&assembly.files[h.file])),
                ("segment".to_owned(), Json::int(h.segment)),
            ];
            if let Some(pid) = h.pid {
                fields.push(("pid".to_owned(), Json::Int(pid)));
            }
            if let Some(argv0) = &h.argv0 {
                fields.push(("argv0".to_owned(), Json::str(argv0)));
            }
            if let Some(unix) = h.unix_micros {
                fields.push(("unix_micros".to_owned(), Json::Int(unix)));
            }
            Json::Obj(fields)
        })
        .collect();
    let traces: Vec<Json> = assembly
        .traces
        .iter()
        .map(|t| {
            let critical: Vec<Json> = t
                .critical_path
                .iter()
                .map(|(name, micros)| {
                    obj([
                        ("name", Json::str(name)),
                        ("micros", Json::int(*micros as usize)),
                    ])
                })
                .collect();
            let phase_counts: Vec<(String, Json)> = t
                .phase_counts()
                .into_iter()
                .map(|(name, count)| (name.to_owned(), Json::int(count as usize)))
                .collect();
            obj([
                ("trace_id", Json::str(&t.trace_id)),
                ("file", Json::str(&assembly.files[t.file])),
                ("spans", Json::int(t.spans.len())),
                ("orphans", Json::int(t.orphans)),
                ("duplicates_dropped", Json::int(t.duplicates_dropped)),
                ("duplicate_spans", Json::int(t.duplicate_spans)),
                ("cycles_broken", Json::int(t.cycles_broken)),
                ("total_micros", Json::count(t.total_micros)),
                ("critical_path", Json::Arr(critical)),
                ("phase_counts", Json::Obj(phase_counts)),
            ])
        })
        .collect();
    let phases: Vec<(String, Json)> = assembly
        .phases
        .iter()
        .map(|p| {
            (
                p.name.clone(),
                obj([
                    ("count", Json::count(p.durations.count())),
                    ("total_micros", Json::count(p.durations.sum())),
                    ("self_micros", Json::count(p.self_micros)),
                    ("p50", Json::count(p.quantile(50))),
                    ("p95", Json::count(p.quantile(95))),
                    ("p99", Json::count(p.quantile(99))),
                ]),
            )
        })
        .collect();
    let slowest: Vec<Json> = assembly
        .top_slowest(top)
        .iter()
        .map(|t| Json::str(&t.trace_id))
        .collect();
    obj([
        (
            "files",
            Json::Arr(assembly.files.iter().map(Json::str).collect()),
        ),
        ("spans", Json::int(assembly.spans_total)),
        ("untraced_spans", Json::int(assembly.untraced_spans)),
        ("orphans", Json::int(assembly.orphans_total())),
        ("warnings", Json::Arr(warnings)),
        ("headers", Json::Arr(headers)),
        ("traces", Json::Arr(traces)),
        ("phases", Json::Obj(phases)),
        ("slowest", Json::Arr(slowest)),
    ])
}

fn cmd_flame(args: &[String]) -> Result<ExitCode, String> {
    let mut files: Vec<String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unexpected argument {flag:?}\n{USAGE}"));
            }
            file => files.push(file.to_owned()),
        }
    }
    if files.is_empty() {
        return Err(format!("flame needs at least one trace file\n{USAGE}"));
    }
    let ingest = ingest_files(&files)?;
    for warning in &ingest.warnings {
        eprintln!("cq-trace: warning: {}", warning.render());
    }
    let stacks = folded_stacks(&ingest);
    let rendered = render_folded(&stacks);
    // Self-check: the emitted text must round-trip through the strict
    // parser, so the format cannot drift from what tooling consumes.
    let parsed = parse_folded(&rendered)?;
    if parsed != stacks {
        return Err("folded-stack output failed its round-trip self-check".into());
    }
    print!("{rendered}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_top(args: &[String]) -> Result<ExitCode, String> {
    let mut workers: Vec<WorkerAddr> = Vec::new();
    let mut interval_secs = 2.0f64;
    let mut count = 0usize;
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--worker" => {
                let addr = value(&mut i)?;
                workers.push(
                    addr.parse()
                        .map_err(|e| format!("bad --worker {addr:?}: {e}"))?,
                );
            }
            "--interval" => {
                let v = value(&mut i)?;
                interval_secs = v
                    .parse::<f64>()
                    .ok()
                    .filter(|x| *x > 0.0 && x.is_finite())
                    .ok_or_else(|| format!("--interval needs a positive number, got {v:?}"))?;
            }
            "--count" => {
                let v = value(&mut i)?;
                count = v
                    .parse()
                    .map_err(|_| format!("--count needs a non-negative integer, got {v:?}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    if workers.is_empty() {
        return Err(format!("top needs at least one --worker ADDR\n{USAGE}"));
    }
    let clear = std::io::stdout().is_terminal();
    let mut frame = 0usize;
    loop {
        let rows: Vec<(String, Result<cq_trace::WorkerSnapshot, String>)> = workers
            .iter()
            .map(|addr| (addr.to_string(), poll_worker(addr)))
            .collect();
        if clear {
            // ANSI clear + home: a refreshing table on a terminal,
            // plain appended frames when piped.
            print!("\x1b[2J\x1b[H");
        } else if frame > 0 {
            println!();
        }
        print!("{}", render_top(&rows));
        frame += 1;
        if count > 0 && frame >= count {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval_secs));
    }
}
