//! [`AnalysisReport`]: the serializable result of a session.
//!
//! A report is plain data — every field is a string, number or bool —
//! so it can cross threads, be collected by [`crate::BatchAnalyzer`],
//! and render to both the human text format the CLI has always printed
//! and a stable JSON object (see [`AnalysisReport::to_json`]; the schema
//! is documented in the repository README).

use crate::json::{obj, Json};
use crate::session::{
    AnalysisSession, DataCheck, QueryWidths, ENTROPY_BOUND_VAR_CAP, ENTROPY_COLOR_VAR_CAP,
};
use cq_core::{LpWork, TwPreservation};
use cq_relation::Database;
use std::fmt::Write as _;

/// What to include in a report beyond the always-on analysis.
#[derive(Clone, Copy, Default)]
pub struct ReportOptions<'a> {
    /// Build the Proposition 4.5 worst-case database with this `M` and
    /// measure the bound on it.
    pub witness_m: Option<usize>,
    /// Evaluate the query on this database and check the bounds on it.
    pub database: Option<&'a Database>,
}

/// Chase facts (Fact 2.4).
#[derive(Clone, Debug)]
pub struct ChaseReport {
    pub chased_query: String,
    pub unifications: usize,
}

/// Theorem 4.4 facts (simple-FD path).
#[derive(Clone, Debug)]
pub struct SizeBoundReport {
    /// `C(chase(Q))` as an exact rational string, e.g. `"3/2"`.
    pub exponent: String,
    pub exponent_approx: f64,
    /// Steps in the Lemma 4.7 removal trace.
    pub removal_steps: usize,
}

/// Theorem 5.10 facts (simple-FD path).
#[derive(Clone, Debug)]
pub struct TreewidthReport {
    pub preserved: bool,
    /// Blowup witness variable pair, named in the chased query.
    pub witness: Option<(String, String)>,
}

/// Entropy-LP facts (compound-FD fallback, Propositions 6.9/6.10).
#[derive(Clone, Debug, Default)]
pub struct EntropyReport {
    /// `C(chase(Q))` by the Prop 6.10 LP (lower bound on the exponent).
    pub color_number: Option<String>,
    /// The Prop 6.9 Shannon upper bound on the exponent.
    pub exponent: Option<String>,
    /// Size note: set when a program was skipped because the chased
    /// query has too many variables (Prop 6.9 above
    /// [`ENTROPY_BOUND_VAR_CAP`], both above [`ENTROPY_COLOR_VAR_CAP`]).
    pub warning: Option<String>,
}

/// Theorem 7.2 facts.
#[derive(Clone, Debug)]
pub struct GrowthReport {
    pub increases: bool,
    /// Certified lower bound on `C(chase(Q))`, exact rational string.
    pub lower_bound: String,
}

/// Proposition 4.5 worst-case measurement.
#[derive(Clone, Debug)]
pub struct WitnessReport {
    pub m: usize,
    pub rmax: usize,
    pub measured: usize,
    pub bound_approx: f64,
    pub holds: bool,
}

/// Concrete-database measurement.
#[derive(Clone, Debug)]
pub struct DataReport {
    pub rmax: usize,
    pub measured: usize,
    pub fds_hold: bool,
    pub exact_bound_approx: Option<f64>,
    pub exact_holds: Option<bool>,
    pub product_bound_approx: Option<f64>,
    pub product_holds: Option<bool>,
}

/// The full, serializable analysis of one query.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    pub name: String,
    pub query: String,
    pub num_vars: usize,
    pub num_atoms: usize,
    pub rep: usize,
    pub join_query: bool,
    pub acyclic: bool,
    pub dependencies: Vec<String>,
    /// Whether all variable-level dependencies are simple (Theorem 4.4
    /// applies); when `false`, `size_bound`/`treewidth` are `None` and
    /// `entropy` carries the fallback bounds.
    pub simple_fds: bool,
    pub chase: ChaseReport,
    pub size_bound: Option<SizeBoundReport>,
    pub treewidth: Option<TreewidthReport>,
    /// Width measures of the query hypergraph: treewidth of the primal
    /// graph and generalized hypertree width, each exact or a greedy
    /// upper bound (see `cq_engine::session::QueryWidths`).
    pub widths: QueryWidths,
    pub entropy: EntropyReport,
    pub growth: GrowthReport,
    /// LP-solver work of this query's session, summed over every LP it
    /// actually solved (cache hits contribute nothing — no solve ran).
    pub solver: LpWork,
    pub witness: Option<WitnessReport>,
    pub data: Option<DataReport>,
}

impl AnalysisSession {
    /// Drives the full pipeline (memoized) and snapshots it as a report.
    pub fn report(&self, opts: &ReportOptions<'_>) -> AnalysisReport {
        let chased = &self.chase_result().query;
        let simple = self.simple_fds();

        let size_bound = self.size_bound().map(|bound| SizeBoundReport {
            exponent: bound.exponent.to_string(),
            exponent_approx: bound.exponent.to_f64(),
            removal_steps: self.removal_trace().map_or(0, |t| t.steps.len()),
        });

        let treewidth = self.treewidth_preservation().map(|tw| match tw {
            TwPreservation::Preserved => TreewidthReport {
                preserved: true,
                witness: None,
            },
            TwPreservation::Blowup { x, y } => TreewidthReport {
                preserved: false,
                witness: Some((
                    chased.var_name(*x).to_owned(),
                    chased.var_name(*y).to_owned(),
                )),
            },
        });

        // The entropy LPs are the fallback story: only consulted when
        // Theorem 4.4 is out of reach.
        let entropy = if simple {
            EntropyReport::default()
        } else {
            EntropyReport {
                color_number: self.entropy_color_number().map(|c| c.to_string()),
                exponent: self.entropy_exponent().map(|s| s.to_string()),
                warning: entropy_size_warning(chased.num_vars()),
            }
        };

        let decision = self.size_increase();
        let growth = GrowthReport {
            increases: decision.increases,
            lower_bound: decision.lower_bound.to_string(),
        };

        // Snapshot the solver counters after every LP this report drives
        // has run (witness/data checks below reuse cached artifacts and
        // solve nothing new through the stats-tracked paths).
        let solver = self.stats().lp;

        let witness = opts.witness_m.and_then(|m| {
            self.witness_check(m).map(|check| WitnessReport {
                m,
                rmax: check.rmax,
                measured: check.measured,
                bound_approx: check.bound_approx,
                holds: check.holds,
            })
        });

        let data = opts.database.map(|db| {
            let DataCheck {
                rmax,
                measured,
                fds_hold,
                exact,
                product,
            } = self.data_check(db);
            DataReport {
                rmax,
                measured,
                fds_hold,
                exact_bound_approx: exact.map(|e| e.bound_approx),
                exact_holds: exact.map(|e| e.holds),
                product_bound_approx: product.map(|p| p.bound_approx),
                product_holds: product.map(|p| p.holds),
            }
        });

        AnalysisReport {
            name: self.name().to_owned(),
            query: self.query().to_string(),
            num_vars: self.query().num_vars(),
            num_atoms: self.query().num_atoms(),
            rep: self.query().rep(),
            join_query: self.query().is_join_query(),
            acyclic: self.is_acyclic(),
            dependencies: self.fds().iter().map(|fd| fd.to_string()).collect(),
            simple_fds: simple,
            chase: ChaseReport {
                chased_query: chased.to_string(),
                unifications: self.chase_result().unifications,
            },
            size_bound,
            treewidth,
            widths: *self.query_widths(),
            entropy,
            growth,
            solver,
            witness,
            data,
        }
    }
}

/// The entropy-LP size note (see `EntropyReport::warning`): `None` while
/// both programs are solved.
fn entropy_size_warning(k: usize) -> Option<String> {
    if k > ENTROPY_COLOR_VAR_CAP {
        Some(format!(
            "entropy LPs skipped: {k} variables exceed the practical ceiling of \
             {ENTROPY_COLOR_VAR_CAP} (the programs have 2^k variables)"
        ))
    } else if k > ENTROPY_BOUND_VAR_CAP {
        Some(format!(
            "Prop 6.9 Shannon LP skipped above {ENTROPY_BOUND_VAR_CAP} variables \
             (k(k-1)*2^(k-3) constraints); Prop 6.10 solved at {k} variables via \
             the hybrid float/exact simplex"
        ))
    } else {
        None
    }
}

impl AnalysisReport {
    /// The human rendering the `cq-analyze` CLI prints (field-for-field
    /// the format it has always used).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "query       : {}", self.query);
        let _ = writeln!(out, "variables   : {}", self.num_vars);
        let _ = writeln!(out, "atoms       : {} (rep = {})", self.num_atoms, self.rep);
        let _ = writeln!(out, "join query  : {}", self.join_query);
        let _ = writeln!(out, "acyclic     : {}", self.acyclic);
        let rel = |exact: bool| if exact { "=" } else { "<=" };
        let _ = writeln!(
            out,
            "widths      : treewidth {} {}, hypertree width {} {}",
            rel(self.widths.treewidth_exact),
            self.widths.treewidth,
            rel(self.widths.hypertree_exact),
            self.widths.hypertree_width
        );
        for dep in &self.dependencies {
            let _ = writeln!(out, "dependency  : {dep}");
        }

        if let Some(bound) = &self.size_bound {
            let _ = writeln!(out, "chase(Q)    : {}", self.chase.chased_query);
            let _ = writeln!(out, "size bound  : |Q(D)| <= rmax(D)^{}", bound.exponent);
            match &self.treewidth {
                Some(tw) if tw.preserved => {
                    let _ = writeln!(out, "treewidth   : preserved");
                }
                Some(tw) => {
                    let (x, y) = tw.witness.as_ref().expect("blowup carries a witness");
                    let _ = writeln!(
                        out,
                        "treewidth   : UNBOUNDED blowup (witness pair {x}, {y})"
                    );
                }
                None => {}
            }
            if let Some(w) = &self.witness {
                let _ = writeln!(
                    out,
                    "witness M={}: rmax = {}, |Q(D)| = {} (bound ~ {:.1}, holds: {})",
                    w.m, w.rmax, w.measured, w.bound_approx, w.holds
                );
            }
        } else {
            let _ = writeln!(
                out,
                "chase(Q)    : (compound dependencies; Theorem 4.4 does not apply)"
            );
            if let Some(c) = &self.entropy.color_number {
                let _ = writeln!(
                    out,
                    "color number: C(chase(Q)) = {c} (Prop 6.10 LP; lower bound on the exponent)"
                );
            }
            if let Some(s) = &self.entropy.exponent {
                let _ = writeln!(
                    out,
                    "size bound  : |Q(D)| <= rmax(D)^{s} (Prop 6.9 Shannon LP)"
                );
            }
            if let Some(w) = &self.entropy.warning {
                let _ = writeln!(out, "entropy note: {w}");
            }
        }

        if let Some(data) = &self.data {
            if !data.fds_hold {
                let _ = writeln!(
                    out,
                    "data        : WARNING — the declared dependencies do not hold"
                );
            }
            let _ = writeln!(
                out,
                "data        : rmax = {}, |Q(D)| = {}",
                data.rmax, data.measured
            );
            if let (Some(approx), Some(holds), Some(bound)) =
                (data.exact_bound_approx, data.exact_holds, &self.size_bound)
            {
                let _ = writeln!(
                    out,
                    "data bound  : |Q(D)| <= rmax^{} -> {} (exact check: {})",
                    bound.exponent, approx, holds
                );
            }
            if let (Some(approx), Some(holds)) = (data.product_bound_approx, data.product_holds) {
                let _ = writeln!(
                    out,
                    "data bound  : product form Π|R_j|^y_j ~ {approx:.1} (holds: {holds})"
                );
            }
        }

        if self.growth.increases {
            let _ = writeln!(
                out,
                "growth      : some database makes |Q(D)| > rmax(D)  (C >= {})",
                self.growth.lower_bound
            );
        } else {
            let _ = writeln!(
                out,
                "growth      : size-preserving (|Q(D)| <= rmax(D) always)"
            );
        }
        out
    }

    /// The stable JSON rendering (schema in the repository README).
    pub fn to_json(&self) -> Json {
        obj([
            ("name", Json::str(&self.name)),
            ("query", Json::str(&self.query)),
            ("variables", Json::int(self.num_vars)),
            ("atoms", Json::int(self.num_atoms)),
            ("rep", Json::int(self.rep)),
            ("join_query", Json::Bool(self.join_query)),
            ("acyclic", Json::Bool(self.acyclic)),
            (
                "dependencies",
                Json::Arr(self.dependencies.iter().map(Json::str).collect()),
            ),
            ("simple_fds", Json::Bool(self.simple_fds)),
            (
                "chase",
                obj([
                    ("query", Json::str(&self.chase.chased_query)),
                    ("unifications", Json::int(self.chase.unifications)),
                ]),
            ),
            (
                "size_bound",
                Json::opt(self.size_bound.as_ref(), |b| {
                    obj([
                        ("exponent", Json::str(&b.exponent)),
                        ("exponent_approx", Json::Float(b.exponent_approx)),
                        ("removal_steps", Json::int(b.removal_steps)),
                    ])
                }),
            ),
            (
                "treewidth",
                Json::opt(self.treewidth.as_ref(), |tw| {
                    obj([
                        ("preserved", Json::Bool(tw.preserved)),
                        (
                            "witness",
                            Json::opt(tw.witness.as_ref(), |(x, y)| {
                                Json::Arr(vec![Json::str(x), Json::str(y)])
                            }),
                        ),
                    ])
                }),
            ),
            (
                "widths",
                obj([
                    ("treewidth", Json::int(self.widths.treewidth)),
                    ("treewidth_exact", Json::Bool(self.widths.treewidth_exact)),
                    ("hypertree_width", Json::int(self.widths.hypertree_width)),
                    ("hypertree_exact", Json::Bool(self.widths.hypertree_exact)),
                ]),
            ),
            (
                "entropy",
                obj([
                    (
                        "color_number",
                        Json::opt(self.entropy.color_number.as_ref(), Json::str),
                    ),
                    (
                        "exponent",
                        Json::opt(self.entropy.exponent.as_ref(), Json::str),
                    ),
                    (
                        "warning",
                        Json::opt(self.entropy.warning.as_ref(), Json::str),
                    ),
                ]),
            ),
            (
                "growth",
                obj([
                    ("increases", Json::Bool(self.growth.increases)),
                    ("lower_bound", Json::str(&self.growth.lower_bound)),
                ]),
            ),
            ("solver_stats", lp_work_json(&self.solver)),
            (
                "witness",
                Json::opt(self.witness.as_ref(), |w| {
                    obj([
                        ("m", Json::int(w.m)),
                        ("rmax", Json::int(w.rmax)),
                        ("measured", Json::int(w.measured)),
                        ("bound_approx", Json::Float(w.bound_approx)),
                        ("holds", Json::Bool(w.holds)),
                    ])
                }),
            ),
            (
                "data",
                Json::opt(self.data.as_ref(), |d| {
                    obj([
                        ("rmax", Json::int(d.rmax)),
                        ("measured", Json::int(d.measured)),
                        ("fds_hold", Json::Bool(d.fds_hold)),
                        (
                            "exact_bound_approx",
                            Json::opt(d.exact_bound_approx, Json::Float),
                        ),
                        ("exact_holds", Json::opt(d.exact_holds, Json::Bool)),
                        (
                            "product_bound_approx",
                            Json::opt(d.product_bound_approx, Json::Float),
                        ),
                        ("product_holds", Json::opt(d.product_holds, Json::Bool)),
                    ])
                }),
            ),
        ])
    }

    /// Compact single-line JSON (one report per line in batch mode).
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }
}

/// A `solver_stats` object: the [`LpWork`] counters in field order.
pub fn lp_work_json(work: &LpWork) -> Json {
    Json::Obj(
        work.fields()
            .into_iter()
            .map(|(name, value)| (name.to_owned(), Json::count(value)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_report_text_matches_cli_format() {
        let s = AnalysisSession::parse("t", "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
        let report = s.report(&ReportOptions {
            witness_m: Some(3),
            database: None,
        });
        let text = report.render_text();
        assert!(text.contains("rmax(D)^3/2"), "{text}");
        assert!(text.contains("treewidth   : preserved"), "{text}");
        assert!(text.contains("witness M=3"), "{text}");
        assert!(text.contains("holds: true"), "{text}");
        assert!(text.contains("|Q(D)| > rmax(D)"), "{text}");
    }

    #[test]
    fn json_is_stable_and_ordered() {
        let s = AnalysisSession::parse("t", "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
        let report = s.report(&ReportOptions::default());
        let a = report.to_json_string();
        let b = report.to_json_string();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"name\":\"t\",\"query\":"), "{a}");
        assert!(a.contains("\"size_bound\":{\"exponent\":\"3/2\""), "{a}");
        assert!(a.contains("\"witness\":null"), "{a}");
    }

    #[test]
    fn widths_render_in_text_and_json() {
        let s = AnalysisSession::parse("t", "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
        let report = s.report(&ReportOptions::default());
        let text = report.render_text();
        assert!(
            text.contains("widths      : treewidth = 2, hypertree width = 2"),
            "{text}"
        );
        let json = report.to_json_string();
        assert!(
            json.contains(
                "\"widths\":{\"treewidth\":2,\"treewidth_exact\":true,\
                 \"hypertree_width\":2,\"hypertree_exact\":true}"
            ),
            "{json}"
        );
    }

    #[test]
    fn compound_report_renders_entropy_lines() {
        let s =
            AnalysisSession::parse("c", "Q(X,Y,Z) :- R(X,Y,Z), S2(X,Z)\nR[1,2] -> R[3]\n").unwrap();
        let text = s.report(&ReportOptions::default()).render_text();
        assert!(text.contains("compound dependencies"), "{text}");
        assert!(text.contains("Prop 6.10"), "{text}");
        assert!(text.contains("Prop 6.9"), "{text}");
    }

    #[test]
    fn entropy_warning_names_the_skipped_programs() {
        for k in 0..=20 {
            let warning = entropy_size_warning(k);
            match k {
                0..=9 => assert_eq!(warning, None, "k = {k}"),
                10..=14 => assert!(
                    warning.as_deref().is_some_and(|w| w
                        .starts_with("Prop 6.9 Shannon LP skipped above 9 variables")
                        && w.contains(&format!("Prop 6.10 solved at {k} variables"))),
                    "k = {k}: {warning:?}"
                ),
                _ => assert!(
                    warning.as_deref().is_some_and(
                        |w| w.starts_with(&format!("entropy LPs skipped: {k} variables"))
                    ),
                    "k = {k}: {warning:?}"
                ),
            }
        }
    }
}
