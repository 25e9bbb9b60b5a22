//! `perfbench-probe` — the in-process half of the perfbench benchmark.
//!
//! ```text
//! perfbench-probe counts < PAIRS.jsonl
//! perfbench-probe layers INPUT_DIR SECONDS SPANS.ndjson
//! ```
//!
//! Inputs are JSON lines. `counts` reads `{"query": PROGRAM, "db": PATH}`
//! lines on stdin and prints `{"counts": [...]}`: `|Q(D)|` per pair from
//! `evaluate_wcoj`, the reference the data-check workload compares
//! `cq-analyze` against.
//!
//! `layers` times the public functions of each crate on the inputs
//! `perfbench/run.py` generated for every workload (one `NAME.jsonl`
//! file per input list in `INPUT_DIR`) and prints
//! `{"metrics": {NAME: [VALUE, UNIT]}, "attempted", "failed", "notes"}`.
//! A timed metric runs its call over a fixed input list in rounds until
//! its share of `SECONDS` is spent (at least one round) and reports the
//! median over rounds of the mean time per call. Count metrics come
//! from one fixed pass, so they repeat exactly. One span per round is
//! kept in memory and written at exit in the NDJSON span format of
//! `docs/TELEMETRY.md`, so `cq-trace assemble` reads the file as is.

use cq_core::decomp_eval::MAX_EXACT_DECOMP_VARS;
use cq_core::{
    build_color_number_entropy_lp, build_entropy_upper_lp, chase, color_number_lp, evaluate,
    evaluate_decomposed, evaluate_wcoj, evaluate_yannakakis, is_acyclic, parse_program,
    ConjunctiveQuery, VarFd,
};
use cq_engine::session::TREEWIDTH_EXACT_VAR_CAP;
use cq_engine::{
    AnalysisSession, BatchAnalyzer, Json, LpCache, ReportOptions, ServeEngine,
    ENTROPY_BOUND_VAR_CAP,
};
use cq_hypergraph::{canonical_key, hypertree_width_exact, treewidth_exact};
use cq_arith::Rational;
use cq_lp::{
    solve_hybrid, solve_revised, solve_with, LinearProgram, PivotRule, Relation as LpRel,
};
use cq_relation::{parse_database, Database, FdSet};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request lines per serve-warm round and queries per batch-cold round.
const ROUND_ITEMS: usize = 256;
/// Entries per `analyze_texts` batch (cq-serve's `MAX_BATCH`).
const ANALYZE_BATCH: usize = 1024;
/// Batch-cold entries in the single-threaded cache-count pass: more
/// distinct classes than the 4096-entry cache holds.
const COUNT_PASS: usize = 12288;
/// Timed metrics sharing the `SECONDS` budget.
const TIMED_METRICS: u32 = 24;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["counts"] => counts(),
        ["layers", dir, seconds, spans] => match seconds.parse::<f64>() {
            Ok(s) if s > 0.0 => layers(dir, s, spans),
            _ => Err(format!("bad SECONDS {seconds:?}")),
        },
        _ => Err("usage: perfbench-probe counts < PAIRS.jsonl | \
                  perfbench-probe layers INPUT_DIR SECONDS SPANS.ndjson"
            .to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::FAILURE
        }
    }
}

fn counts() -> Result<(), String> {
    let mut text = String::new();
    std::io::stdin()
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for pair in &parse_lines(&text)? {
        let (q, _) = program(str_field(pair, "query")?)?;
        let db = database(str_field(pair, "db")?)?;
        out.push(evaluate_wcoj(&q, &db).len().to_string());
    }
    println!("{{\"counts\":[{}]}}", out.join(","));
    Ok(())
}

// --- inputs -------------------------------------------------------------

/// One JSON value per line: the input format of both subcommands.
fn parse_lines(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).map_err(|e| format!("{e:?}: {l:?}")))
        .collect()
}

fn jsonl(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_lines(&text).map_err(|e| format!("{path}: {e}"))
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn str_field<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    field(j, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn strings(values: &[Json]) -> Result<Vec<String>, String> {
    values
        .iter()
        .map(|s| s.as_str().map(str::to_string).ok_or("expected a string".to_string()))
        .collect()
}

fn program(text: &str) -> Result<(ConjunctiveQuery, FdSet), String> {
    parse_program(text).map_err(|e| format!("{e}: {text:?}"))
}

fn database(path: &str) -> Result<Database, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_database(&text).map_err(|e| format!("{path}: {e}"))
}

// --- spans and timing ---------------------------------------------------

struct SpanRec {
    name: String,
    trace: &'static str,
    id: u64,
    parent: Option<u64>,
    start_micros: u64,
    micros: u64,
}

/// Metrics, checks and spans of one `layers` run.
struct Probe {
    epoch: Instant,
    per_metric: Duration,
    spans: Vec<SpanRec>,
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Probe {
    fn micros_since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_micros() as u64
    }

    fn span(&mut self, name: &str, trace: &'static str, parent: Option<u64>, start: Instant) -> u64 {
        let id = self.spans.len() as u64 + 2; // 1 is the header
        self.spans.push(SpanRec {
            name: name.to_string(),
            trace,
            id,
            parent,
            start_micros: self.micros_since_epoch(start),
            micros: start.elapsed().as_micros() as u64,
        });
        id
    }

    /// Opens a workload group: the root span every round span hangs off.
    /// The root's duration is patched in by [`Probe::close_group`].
    fn open_group(&mut self, trace: &'static str) -> (u64, Instant) {
        let start = Instant::now();
        (self.span(&format!("perfbench.{trace}"), trace, None, start), start)
    }

    fn close_group(&mut self, (id, start): (u64, Instant)) {
        let rec = &mut self.spans[(id - 2) as usize];
        rec.micros = start.elapsed().as_micros() as u64;
    }

    fn check(&mut self, good: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !good {
            self.failed += 1;
            if self.notes.len() < 10 {
                self.notes.push(note());
            }
        }
    }

    fn count(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value, "count"));
    }

    /// Runs `round` (one pass over `items` inputs) until this metric's
    /// budget is spent, at least once, and records the median over
    /// rounds of the mean seconds per input, scaled to `unit`.
    fn timed(
        &mut self,
        group: (u64, Instant),
        name: &str,
        unit: &'static str,
        items: usize,
        mut round: impl FnMut(usize),
    ) {
        let trace = self.spans[(group.0 - 2) as usize].trace;
        let deadline = Instant::now() + self.per_metric;
        let mut per_item = Vec::new();
        let mut r = 0;
        while r == 0 || Instant::now() < deadline {
            let start = Instant::now();
            round(r);
            let secs = start.elapsed().as_secs_f64();
            self.span(name, trace, Some(group.0), start);
            per_item.push(secs / items.max(1) as f64);
            r += 1;
        }
        per_item.sort_by(f64::total_cmp);
        let n = per_item.len();
        let median = if n % 2 == 1 {
            per_item[n / 2]
        } else {
            (per_item[n / 2 - 1] + per_item[n / 2]) / 2.0
        };
        let scale = match unit {
            "us" => 1e6,
            "ms" => 1e3,
            _ => 1.0,
        };
        eprintln!("perfbench-probe: {name} = {:.3} {unit} ({n} rounds)", median * scale);
        self.metrics.push((name.to_string(), median * scale, unit));
    }

    fn write_spans(&self, path: &str) -> Result<(), String> {
        let mut out = String::new();
        let unix_micros = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_micros() as u64);
        let _ = writeln!(
            out,
            "{{\"name\":\"trace.header\",\"span\":1,\"start_micros\":0,\"micros\":0,\
             \"pid\":{},\"argv0\":\"perfbench-probe\",\"unix_micros\":{unix_micros}}}",
            std::process::id()
        );
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| format!(",\"parent\":{p}"));
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"trace_id\":\"perfbench-{}\",\"span\":{}{parent},\
                 \"start_micros\":{},\"micros\":{}}}",
                s.name, s.trace, s.id, s.start_micros, s.micros
            );
        }
        std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
    }

    fn print(&self) -> Result<(), String> {
        let mut out = String::from("{\"metrics\":{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":[{value:?},\"{unit}\"]");
        }
        let notes: Vec<String> = self.notes.iter().map(|n| Json::str(n.as_str()).render()).collect();
        let _ = write!(
            out,
            "}},\"attempted\":{},\"failed\":{},\"notes\":[{}]}}",
            self.attempted,
            self.failed,
            notes.join(",")
        );
        let mut stdout = std::io::stdout().lock();
        writeln!(stdout, "{out}")
            .and_then(|()| stdout.flush())
            .map_err(|e| e.to_string())
    }
}

// --- layers -------------------------------------------------------------

fn layers(dir: &str, seconds: f64, spans_path: &str) -> Result<(), String> {
    let mut p = Probe {
        epoch: Instant::now(),
        per_metric: Duration::from_secs_f64(seconds / f64::from(TIMED_METRICS)),
        spans: Vec::new(),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    let input = |name: &str| jsonl(&format!("{dir}/{name}.jsonl"));
    serve_warm(&mut p, &strings(&input("serve_classes")?)?, &input("serve_requests")?)?;
    batch_cold(&mut p, &strings(&input("batch_texts")?)?, &strings(&input("entropy_small")?)?)?;
    entropy(
        &mut p,
        &strings(&input("entropy_programs")?)?,
        &strings(&input("entropy_expected")?)?,
    )?;
    datacheck(&mut p, &input("datacheck")?)?;
    p.write_spans(spans_path)?;
    p.print()
}

fn serve_warm(p: &mut Probe, classes: &[String], requests: &[Json]) -> Result<(), String> {
    let requests = &requests[..ROUND_ITEMS.min(requests.len())];
    let lines: Vec<String> = requests.iter().map(Json::render).collect();
    let texts: Vec<String> = requests
        .iter()
        .map(|r| Ok(str_field(r, "query")?.to_string()))
        .collect::<Result<_, String>>()?;
    let parsed: Vec<(ConjunctiveQuery, FdSet)> =
        texts.iter().map(|t| program(t)).collect::<Result<_, _>>()?;
    let opts = ReportOptions::default();
    let group = p.open_group("serve-warm");

    // The daemon's request path, in process, on a warmed engine.
    let engine = ServeEngine::new().with_workers(1);
    for (i, c) in classes.iter().enumerate() {
        let line = Json::str(c.as_str()).render();
        let resp = engine.handle_line(&format!("{{\"id\":{i},\"cmd\":\"analyze\",\"query\":{line}}}"));
        p.check(resp.contains("\"ok\":true"), || format!("warm-up {c:?}"));
    }
    p.timed(group, "engine.serve.handle_line_us", "us", lines.len(), |_| {
        for l in &lines {
            black_box(engine.handle_line(black_box(l)));
        }
    });
    p.timed(group, "engine.json.parse_us", "us", lines.len(), |_| {
        for l in &lines {
            black_box(Json::parse(black_box(l)).is_ok());
        }
    });

    let cache = Arc::new(LpCache::new());
    for c in classes {
        let session = AnalysisSession::parse("-", c).map_err(|e| e.to_string())?;
        session.with_cache(Arc::clone(&cache)).report(&opts);
    }
    p.timed(group, "engine.session.report_us", "us", texts.len(), |_| {
        for t in &texts {
            let session = AnalysisSession::parse("-", t).expect("parsed above");
            black_box(session.with_cache(Arc::clone(&cache)).report(&opts));
        }
    });
    let reports: Vec<_> = texts
        .iter()
        .map(|t| {
            let session = AnalysisSession::parse("-", t).expect("parsed above");
            session.with_cache(Arc::clone(&cache)).report(&opts)
        })
        .collect();
    p.timed(group, "engine.report.render_us", "us", reports.len(), |_| {
        for r in &reports {
            black_box(r.to_json_string());
        }
    });
    p.timed(group, "core.chase_us", "us", parsed.len(), |_| {
        for (q, fds) in &parsed {
            black_box(chase(q, fds));
        }
    });
    p.timed(group, "hypergraph.canonical_key_us", "us", parsed.len(), |_| {
        for (q, _) in &parsed {
            black_box(canonical_key(&q.hypergraph(), &q.head_var_set()));
        }
    });
    let primal: Vec<_> = parsed
        .iter()
        .filter(|(q, _)| q.num_vars() <= TREEWIDTH_EXACT_VAR_CAP)
        .map(|(q, _)| q.hypergraph().primal_graph())
        .collect();
    p.timed(group, "hypergraph.treewidth_exact_us", "us", primal.len(), |_| {
        for g in &primal {
            black_box(treewidth_exact(g));
        }
    });
    let hypergraphs: Vec<_> = parsed
        .iter()
        .filter(|(q, _)| q.num_vars() <= MAX_EXACT_DECOMP_VARS)
        .map(|(q, _)| q.hypergraph())
        .collect();
    p.timed(group, "hypergraph.hypertree_exact_us", "us", hypergraphs.len(), |_| {
        for h in &hypergraphs {
            black_box(hypertree_width_exact(h));
        }
    });

    // Cache hits: FD-free requests against a cache holding their classes.
    let fd_free: Vec<&ConjunctiveQuery> = parsed
        .iter()
        .filter(|(_, fds)| fds.is_empty())
        .map(|(q, _)| q)
        .collect();
    let warm = LpCache::new();
    for q in &fd_free {
        warm.color_number(q);
    }
    let before = warm.stats();
    p.timed(group, "engine.cache.hit_us", "us", fd_free.len(), |_| {
        for q in &fd_free {
            black_box(warm.color_number(q));
        }
    });
    p.check(warm.stats().misses == before.misses, || "warm cache missed".into());
    p.close_group(group);
    Ok(())
}

fn batch_cold(p: &mut Probe, texts: &[String], entropy_small: &[String]) -> Result<(), String> {
    let group = p.open_group("batch-cold");

    // One representative per class among the first round's inputs.
    let mut keys = HashSet::new();
    let mut distinct = Vec::new();
    for t in texts {
        let (q, _) = program(t)?;
        if keys.insert(canonical_key(&q.hypergraph(), &q.head_var_set())) {
            distinct.push(q);
            if distinct.len() == ROUND_ITEMS {
                break;
            }
        }
    }
    p.timed(group, "engine.cache.miss_us", "us", distinct.len(), |_| {
        let cache = LpCache::new();
        for q in &distinct {
            black_box(cache.color_number(q));
        }
    });
    p.timed(group, "core.color_number_lp_us", "us", distinct.len(), |_| {
        for q in &distinct {
            black_box(color_number_lp(q));
        }
    });

    // Dense tableau vs revised simplex on these queries' coloring LPs,
    // the small programs `Auto` sends to the dense engine.
    let coloring: Vec<LinearProgram> = distinct.iter().map(coloring_lp).collect();
    for (q, lp) in distinct.iter().zip(&coloring) {
        let want = color_number_lp(q).value;
        let dense = solve_with(lp, PivotRule::Bland).objective;
        let revised = solve_revised(lp, PivotRule::DantzigThenBland).objective;
        p.check(dense == want && revised == want, || {
            format!("coloring LP of {q}: dense {dense}, revised {revised}, want {want}")
        });
    }
    p.timed(group, "lp.dense_coloring_us", "us", coloring.len(), |_| {
        for lp in &coloring {
            black_box(solve_with(lp, PivotRule::Bland));
        }
    });
    p.timed(group, "lp.revised_coloring_us", "us", coloring.len(), |_| {
        for lp in &coloring {
            black_box(solve_revised(lp, PivotRule::DantzigThenBland));
        }
    });

    let named: Vec<(String, String)> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| (format!("b{i}"), t.clone()))
        .collect();
    let chunks: Vec<&[(String, String)]> = named.chunks(ANALYZE_BATCH).collect();
    let opts = ReportOptions::default();
    p.timed(group, "engine.batch.analyze_texts_ms", "ms", 1, |r| {
        let cache = Arc::new(LpCache::new());
        let batch = BatchAnalyzer::with_threads(2).with_cache(cache);
        black_box(batch.analyze_texts(chunks[r % chunks.len()], &opts));
    });

    // Fixed single-threaded pass: hit share and evictions repeat exactly.
    let cache = Arc::new(LpCache::new());
    let batch = BatchAnalyzer::with_threads(1).with_cache(Arc::clone(&cache));
    let span_start = Instant::now();
    for chunk in named[..COUNT_PASS.min(named.len())].chunks(ANALYZE_BATCH) {
        for (i, r) in batch.analyze_texts(chunk, &opts).iter().enumerate() {
            p.check(r.is_ok(), || format!("batch entry {:?}", chunk[i].1));
        }
    }
    p.span("engine.batch.count_pass", "batch-cold", Some(group.0), span_start);
    let stats = cache.stats();
    let lookups = (stats.hits + stats.misses).max(1);
    p.metrics
        .push(("engine.cache.hit_ratio".into(), stats.hits as f64 / lookups as f64, "fraction"));
    p.count("engine.cache.evictions", stats.evictions as f64);

    // The small entropy LPs (below the Auto engine's size threshold).
    let small = entropy_lps(entropy_small)?;
    let small: Vec<LinearProgram> = small.into_iter().map(|(_, lp)| lp).collect();
    let dense: Vec<String> = small
        .iter()
        .map(|lp| solve_with(lp, PivotRule::Bland).objective.to_string())
        .collect();
    let revised: Vec<String> = small
        .iter()
        .map(|lp| solve_revised(lp, PivotRule::DantzigThenBland).objective.to_string())
        .collect();
    p.check(dense == revised, || format!("dense {dense:?} vs revised {revised:?}"));
    p.timed(group, "lp.dense_small_us", "us", small.len(), |_| {
        for lp in &small {
            black_box(solve_with(lp, PivotRule::Bland));
        }
    });
    p.timed(group, "lp.revised_small_us", "us", small.len(), |_| {
        for lp in &small {
            black_box(solve_revised(lp, PivotRule::DantzigThenBland));
        }
    });
    p.close_group(group);
    Ok(())
}

/// The Proposition 3.6 coloring LP of an FD-free query, built through
/// the LP crate's public API as `cq_core::color_number_lp` builds it.
fn coloring_lp(q: &ConjunctiveQuery) -> LinearProgram {
    let mut lp = LinearProgram::maximize();
    let vars: Vec<_> = (0..q.num_vars())
        .map(|v| lp.add_var(q.var_name(v).to_owned()))
        .collect();
    for v in q.head_var_set().iter() {
        lp.set_objective_coeff(vars[v], Rational::one());
    }
    for atom in q.body() {
        let coeffs = atom
            .var_set()
            .iter()
            .map(|v| (vars[v], Rational::one()))
            .collect();
        lp.add_constraint(coeffs, LpRel::Le, Rational::one());
    }
    lp
}

/// `(label, lp)` for the Proposition 6.10 program of every input and the
/// Proposition 6.9 program of those within the session's bound cap.
fn entropy_lps(texts: &[String]) -> Result<Vec<(String, LinearProgram)>, String> {
    let mut out = Vec::new();
    for t in texts {
        let (chased, vfds) = chased(t)?;
        let k = chased.num_vars();
        out.push((format!("6.10 k={k}"), build_color_number_entropy_lp(&chased, &vfds)));
        if k <= ENTROPY_BOUND_VAR_CAP {
            out.push((format!("6.9 k={k}"), build_entropy_upper_lp(&chased, &vfds)));
        }
    }
    Ok(out)
}

fn chased(text: &str) -> Result<(ConjunctiveQuery, Vec<VarFd>), String> {
    let (q, fds) = program(text)?;
    let chased = chase(&q, &fds).query;
    let vfds = chased.variable_fds(&fds);
    Ok((chased, vfds))
}

fn entropy(p: &mut Probe, programs: &[String], expected: &[String]) -> Result<(), String> {
    let group = p.open_group("entropy-lp");
    let prepared: Vec<_> = programs.iter().map(|t| chased(t)).collect::<Result<_, _>>()?;
    let builds: usize = prepared
        .iter()
        .map(|(q, _)| if q.num_vars() <= ENTROPY_BOUND_VAR_CAP { 2 } else { 1 })
        .sum();
    p.timed(group, "core.entropy_lp_build_ms", "ms", builds, |_| {
        for (q, vfds) in &prepared {
            black_box(build_color_number_entropy_lp(q, vfds));
            if q.num_vars() <= ENTROPY_BOUND_VAR_CAP {
                black_box(build_entropy_upper_lp(q, vfds));
            }
        }
    });
    let lps = entropy_lps(programs)?;
    let mut counted = false;
    let mut solved = Vec::new();
    p.timed(group, "lp.hybrid_solve_ms", "ms", lps.len(), |_| {
        let round: Vec<_> = lps
            .iter()
            .map(|(label, lp)| (label, solve_hybrid(lp, PivotRule::DantzigThenBland)))
            .collect();
        if !counted {
            counted = true;
            solved = round;
        }
    });
    let (mut float_pivots, mut verified, mut fallbacks, mut pivots) = (0, 0, 0, 0);
    for ((label, sol), want) in solved.iter().zip(expected) {
        let got = format!("{label}: {}", sol.objective);
        p.check(sol.is_optimal() && &got == want, || format!("{got}, expected {want}"));
        float_pivots += sol.stats.float_pivots;
        verified += usize::from(sol.stats.float_verified);
        fallbacks += sol.stats.exact_fallbacks;
        pivots += sol.stats.pivots;
    }
    p.check(solved.len() == expected.len(), || "entropy LP count".into());
    p.count("lp.float_pivots", float_pivots as f64);
    p.count("lp.float_verified", verified as f64);
    p.count("lp.exact_fallbacks", fallbacks as f64);
    p.count("lp.pivots", pivots as f64);
    p.close_group(group);
    Ok(())
}

fn datacheck(p: &mut Probe, inputs: &[Json]) -> Result<(), String> {
    let group = p.open_group("datacheck");
    let mut texts = Vec::new();
    let mut queries = Vec::new();
    let mut db_texts = Vec::new();
    for pair in inputs {
        let text = str_field(pair, "query")?;
        queries.push(program(text)?.0);
        texts.push(text.to_string());
        let path = str_field(pair, "db")?;
        db_texts.push(std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?);
    }
    let n = queries.len();
    p.timed(group, "relation.parse_database_ms", "ms", n, |_| {
        for t in &db_texts {
            black_box(parse_database(t).is_ok());
        }
    });
    let dbs: Vec<Database> = db_texts
        .iter()
        .map(|t| parse_database(t).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let pairs: Vec<(&ConjunctiveQuery, &Database)> = queries.iter().zip(&dbs).collect();
    let reference: Vec<usize> = pairs.iter().map(|(q, db)| evaluate(q, db).len()).collect();

    p.timed(group, "core.evaluate_ms", "ms", n, |_| {
        for (q, db) in &pairs {
            black_box(evaluate(q, db));
        }
    });
    let check_all = |p: &mut Probe, name: &str, eval: fn(&ConjunctiveQuery, &Database) -> usize| {
        for (i, (q, db)) in pairs.iter().enumerate() {
            let got = eval(q, db);
            p.check(got == reference[i], || format!("{name} on {}: {got} vs {}", texts[i], reference[i]));
        }
    };
    check_all(p, "wcoj", |q, db| evaluate_wcoj(q, db).len());
    check_all(p, "decomposed", |q, db| evaluate_decomposed(q, db).len());
    p.timed(group, "core.evaluate_wcoj_ms", "ms", n, |_| {
        for (q, db) in &pairs {
            black_box(evaluate_wcoj(q, db));
        }
    });
    p.timed(group, "core.evaluate_decomposed_ms", "ms", n, |_| {
        for (q, db) in &pairs {
            black_box(evaluate_decomposed(q, db));
        }
    });
    let acyclic: Vec<(&ConjunctiveQuery, &Database)> =
        pairs.iter().copied().filter(|(q, _)| is_acyclic(q)).collect();
    for (q, db) in &acyclic {
        let got = evaluate_yannakakis(q, db).len();
        let want = evaluate(q, db).len();
        p.check(got == want, || format!("yannakakis on {q}: {got} vs {want}"));
    }
    p.timed(group, "core.evaluate_yannakakis_ms", "ms", acyclic.len(), |_| {
        for (q, db) in &acyclic {
            black_box(evaluate_yannakakis(q, db));
        }
    });
    p.timed(group, "engine.session.data_check_ms", "ms", n, |_| {
        for (t, db) in texts.iter().zip(&dbs) {
            let session = AnalysisSession::parse("-", t).expect("parsed above");
            black_box(session.data_check(db));
        }
    });
    for (i, (t, db)) in texts.iter().zip(&dbs).enumerate() {
        let session = AnalysisSession::parse("-", t).map_err(|e| e.to_string())?;
        let check = session.data_check(db);
        p.check(check.measured == reference[i] && check.fds_hold, || {
            format!("data_check on {t}: {} vs {}", check.measured, reference[i])
        });
    }
    p.close_group(group);
    Ok(())
}
