//! `cq-analyze` — command-line analyzer for conjunctive queries.
//!
//! Reads one or more programs (one datalog rule plus dependency lines —
//! see `cq_core::parser`) from files or stdin and prints the full
//! analysis: chase, size-bound exponent, size-increase decision,
//! treewidth preservation, acyclicity, and (optionally) a worst-case
//! witness database. All analysis and rendering run through
//! `cq_engine::AnalysisSession`; with several inputs the batch is
//! analyzed across threads.
//!
//! ```text
//! cq-analyze query.cq              # analyze a file
//! echo '...' | cq-analyze -        # analyze stdin
//! cq-analyze a.cq b.cq c.cq        # batch mode, one report per input
//! cq-analyze query.cq --json       # one JSON object per query (schema: README)
//! cq-analyze query.cq --witness 4  # also build & measure the M=4 worst case
//! cq-analyze query.cq --db data.db # evaluate + check bounds on real data
//! cq-analyze a.cq b.cq --no-cache  # disable the cross-query LP cache
//! cq-analyze query.cq --trace      # NDJSON span events on stderr
//!                                  #  (CQ_TRACE=PATH routes to a file)
//! ```
//!
//! By default a shared [`cq_engine::LpCache`] sits in front of the
//! structure-only LPs, so structurally isomorphic queries in a batch
//! solve each LP once; in `--json` mode its counters are reported as a
//! final `{"cache_stats": ...}` line after the per-query reports.

use cq_engine::{BatchAnalyzer, LpCache, ReportOptions};
use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: cq-analyze <file|-> [<file>...] [--json] [--witness M] [--db FILE] \
                     [--no-cache] [--trace]";

struct Args {
    paths: Vec<String>,
    json: bool,
    witness_m: Option<usize>,
    db_path: Option<String>,
    no_cache: bool,
    trace: bool,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--version") {
        println!("cq-analyze {}", env!("CARGO_PKG_VERSION"));
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

    // Span NDJSON goes to stderr (or CQ_TRACE=PATH), never stdout: the
    // --json one-line-per-input contract stays intact under --trace.
    match cq_telemetry::init_tracing(args.trace) {
        Ok(_) => {}
        Err(e) => {
            eprintln!("cq-analyze: cannot open trace sink: {e}");
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

    let database = match &args.db_path {
        None => None,
        Some(db_path) => match load_database(db_path) {
            Ok(db) => Some(db),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        },
    };

    let opts = ReportOptions {
        witness_m: args.witness_m,
        database: database.as_ref(),
    };
    let cache = (!args.no_cache).then(|| Arc::new(LpCache::new()));
    let mut analyzer = BatchAnalyzer::new();
    if let Some(cache) = &cache {
        analyzer = analyzer.with_cache(Arc::clone(cache));
    }
    let results = analyzer.analyze_texts(&inputs, &opts);

    let mut failed = false;
    let many = results.len() > 1;
    for ((path, _), result) in inputs.iter().zip(&results) {
        match result {
            Ok(report) => {
                if args.json {
                    println!("{}", report.to_json_string());
                } else {
                    if many {
                        println!("=== {path} ===");
                    }
                    print!("{}", report.render_text());
                    if many {
                        println!();
                    }
                }
            }
            Err(e) => {
                if args.json {
                    // Keep the one-line-per-input contract: a consumer
                    // zipping stdout lines to its input list must not
                    // see reports shift position on a parse error.
                    println!(
                        "{}",
                        cq_engine::json::obj([
                            ("name", cq_engine::Json::str(path)),
                            ("error", cq_engine::Json::str(e.to_string())),
                        ])
                        .render()
                    );
                }
                if many {
                    eprintln!("{path}: {e}");
                } else {
                    eprintln!("{e}");
                }
                failed = true;
            }
        }
    }
    if args.json {
        // A final summary line after the per-query reports, so JSON
        // consumers see the cache's effect without a side channel. The
        // line is always present (with "enabled": false under
        // --no-cache): stdout is deterministically inputs + 1 lines.
        // The object is the same shape cq-serve embeds per response.
        let summary = cq_engine::json::obj([(
            "cache_stats",
            cq_engine::serve::cache_stats_json(cache.as_deref().map(LpCache::stats)),
        )]);
        println!("{}", summary.render());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut paths = Vec::new();
    let mut json = false;
    let mut witness_m = None;
    let mut db_path = None;
    let mut no_cache = false;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--no-cache" => no_cache = true,
            "--trace" => trace = true,
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
            "--db" => {
                i += 1;
                db_path = Some(args.get(i).ok_or("--db needs a file")?.to_string());
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
    Ok(Args {
        paths,
        json,
        witness_m,
        db_path,
        no_cache,
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

/// Reads and parses the `--db` file under a `relation.load` span, opened
/// before any analysis span and so a root without a trace id.
fn load_database(path: &str) -> Result<cqbounds::relation::Database, String> {
    let mut span = cq_telemetry::Span::enter("relation.load");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let db = cqbounds::relation::parse_database(&text).map_err(|e| format!("{path}: {e}"))?;
    let tuples: usize = db.relations().map(|r| r.len()).sum();
    span.record("bytes", text.len() as u64);
    span.record("tuples", tuples as u64);
    span.record("symbols", db.symbols().len() as u64);
    Ok(db)
}
