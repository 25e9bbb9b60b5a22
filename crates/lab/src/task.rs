//! Task specs: what one experiment trial runs.
//!
//! A task is pure domain data — a query family at a scale, plus the
//! variant plan (solver engine, cache on/off, worker count) the harness
//! applies *at the invocation layer* of the real binaries. Tasks live
//! one-per-line in a `tasks.jsonl` file; a single task is the same
//! object in its own `task.json` (the `cq-lab run --input` contract).
//!
//! ```json
//! {"task_id":"entropy-k8-hybrid","family":"cycle-fd","k":8,
//!  "engine":"hybrid","cache":true,"workers":1}
//! ```
//!
//! Only `task_id` and `family` are required; `engine` defaults to
//! `auto`, `cache` to `true`, `workers` to `1`. Scale keys (`k`, `n`,
//! `seed`) are per-family, documented on [`Family`].

use cq_bench::{clique_query, cycle_query, permuted_query, random_query, star_query};
use cq_core::ConjunctiveQuery;
use cq_engine::Json;
use cq_relation::{Fd, FdSet};
use std::fmt;

/// Which LP engine the child processes run under. Applied through the
/// `CQ_LP_ENGINE` environment variable — the same knob CI's deep job
/// flips — so the harness measures exactly what an operator would get.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `CQ_LP_ENGINE=exact`: the all-rational sparse revised simplex.
    Exact,
    /// `CQ_LP_ENGINE=hybrid`: float pivoting + exact verification.
    Hybrid,
    /// `CQ_LP_ENGINE` unset: whatever `Solver::Auto` picks by default.
    Auto,
}

impl Engine {
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Exact => "exact",
            Engine::Hybrid => "hybrid",
            Engine::Auto => "auto",
        }
    }

    /// The `CQ_LP_ENGINE` value this variant pins on child processes;
    /// `None` means the variable must be *removed* (so a caller's own
    /// `CQ_LP_ENGINE` cannot leak into an `auto` trial).
    pub fn env_value(self) -> Option<&'static str> {
        match self {
            Engine::Exact => Some("exact"),
            Engine::Hybrid => Some("hybrid"),
            Engine::Auto => None,
        }
    }

    fn parse(s: &str) -> Result<Engine, String> {
        match s {
            "exact" => Ok(Engine::Exact),
            "hybrid" => Ok(Engine::Hybrid),
            "auto" => Ok(Engine::Auto),
            other => Err(format!(
                "engine must be \"exact\", \"hybrid\" or \"auto\", got {other:?}"
            )),
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parameterized query-program family. Every family is deterministic:
/// the same spec always materializes to byte-identical program text, so
/// a committed `tasks.jsonl` pins its workload exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Family {
    /// `cycle` (`k`): the k-cycle join query — the standard AGM family;
    /// exercises the Proposition 3.6 coloring LP.
    Cycle { k: usize },
    /// `cycle-fd` (`k`): the k-cycle plus a ternary atom `T(X0,X1,X2)`
    /// carrying the compound FD `T[1,2] -> T[3]`, which forces the
    /// entropy path: the Proposition 6.10 LP (one column per I-measure
    /// atom the FD leaves, `2^k − 1 − 2^{k−3}` of them) and, for `k`
    /// within the bound cap, the Proposition 6.9 LP with `2^k − 1`
    /// variables.
    /// This is the family whose exact-vs-hybrid gap the repo's
    /// `BENCH_*.json` trajectory tracks.
    CycleFd { k: usize },
    /// `clique` (`k`): the k-clique join query over binary edges.
    Clique { k: usize },
    /// `star-keyed` (`k`): the k-arm star with every `Ri[1]` a key —
    /// the FD-removal (Lemma 4.7) path.
    StarKeyed { k: usize },
    /// `iso-triangle` (`n`): `n` structurally isomorphic relabelings of
    /// the triangle query — the cross-query LP-cache stress family
    /// (cache on: 1 miss + n−1 hits; cache off: n solves).
    IsoTriangle { n: usize },
    /// `random` (`n`, `seed`): `n` seeded random queries (≤ 5 vars,
    /// ≤ 4 atoms) — a mixed batch for worker sharding.
    Random { n: usize, seed: u64 },
    /// `grid` (`k`): the 2×k grid join query (two rows of k vertices,
    /// one binary atom per grid edge). Treewidth 2 and generalized
    /// hypertree width 2 at every k, so the decomposition layer's
    /// width search stays exact while the variable count scales —
    /// the workload behind `docs/DECOMPOSITION.md`.
    Grid { k: usize },
}

impl Family {
    pub fn name(&self) -> &'static str {
        match self {
            Family::Cycle { .. } => "cycle",
            Family::CycleFd { .. } => "cycle-fd",
            Family::Clique { .. } => "clique",
            Family::StarKeyed { .. } => "star-keyed",
            Family::IsoTriangle { .. } => "iso-triangle",
            Family::Random { .. } => "random",
            Family::Grid { .. } => "grid",
        }
    }

    /// The family's scale parameter as `(key, value)` — what
    /// identifies a row of the trajectory alongside the family name.
    pub fn scale(&self) -> (&'static str, usize) {
        match self {
            Family::Cycle { k } | Family::CycleFd { k } => ("k", *k),
            Family::Clique { k } | Family::StarKeyed { k } | Family::Grid { k } => ("k", *k),
            Family::IsoTriangle { n } | Family::Random { n, .. } => ("n", *n),
        }
    }

    /// Materializes the family into named query programs (the text
    /// `cq-analyze`/`cq-cluster` parse: one rule plus dependency lines).
    pub fn materialize(&self) -> Vec<(String, String)> {
        fn program(q: &ConjunctiveQuery, fds: &FdSet) -> String {
            let mut text = format!("{q}\n");
            for fd in fds.iter() {
                text.push_str(&format!("{fd}\n"));
            }
            text
        }
        let no_fds = FdSet::new();
        match self {
            Family::Cycle { k } => {
                vec![(format!("cycle-{k}"), program(&cycle_query(*k), &no_fds))]
            }
            Family::CycleFd { k } => {
                // The k-cycle body plus a ternary atom carrying the
                // compound FD (ConjunctiveQuery's fields are private;
                // rebuild rather than mutate the cycle_query result).
                let var_names: Vec<String> = (0..*k).map(|i| format!("X{i}")).collect();
                let mut body: Vec<cq_core::Atom> = (0..*k)
                    .map(|i| cq_core::Atom::new(format!("R{i}"), vec![i, (i + 1) % k]))
                    .collect();
                body.push(cq_core::Atom::new("T", vec![0, 1, 2]));
                let q = ConjunctiveQuery::new(var_names, (0..*k).collect(), body);
                let mut fds = FdSet::new();
                fds.add(Fd::new("T", vec![0, 1], 2));
                vec![(format!("cycle-fd-{k}"), program(&q, &fds))]
            }
            Family::Clique { k } => {
                vec![(format!("clique-{k}"), program(&clique_query(*k), &no_fds))]
            }
            Family::StarKeyed { k } => {
                let (q, fds) = star_query(*k, true);
                vec![(format!("star-keyed-{k}"), program(&q, &fds))]
            }
            Family::IsoTriangle { n } => {
                let triangle =
                    cq_core::parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").expect("triangle");
                (0..*n)
                    .map(|i| {
                        let q = permuted_query(i as u64, &triangle);
                        (format!("iso-triangle-{i}"), program(&q, &no_fds))
                    })
                    .collect()
            }
            Family::Random { n, seed } => (0..*n)
                .map(|i| {
                    let q = random_query(seed + i as u64, 5, 4);
                    (format!("random-{}", seed + i as u64), program(&q, &no_fds))
                })
                .collect(),
            Family::Grid { k } => {
                // Vertex (r, c) is variable r*k + c; one relation per
                // grid edge so the decomposition, not repetition,
                // carries the structure.
                let var_names: Vec<String> = (0..2)
                    .flat_map(|r| (0..*k).map(move |c| format!("X{r}_{c}")))
                    .collect();
                let v = |r: usize, c: usize| r * k + c;
                let mut body: Vec<cq_core::Atom> = Vec::new();
                for r in 0..2 {
                    for c in 0..k - 1 {
                        body.push(cq_core::Atom::new(
                            format!("H{r}_{c}"),
                            vec![v(r, c), v(r, c + 1)],
                        ));
                    }
                }
                for c in 0..*k {
                    body.push(cq_core::Atom::new(format!("V{c}"), vec![v(0, c), v(1, c)]));
                }
                let q = ConjunctiveQuery::new(var_names, (0..2 * k).collect(), body);
                vec![(format!("grid-{k}"), program(&q, &no_fds))]
            }
        }
    }

    fn parse(obj: &Json) -> Result<Family, String> {
        let name = obj
            .get("family")
            .and_then(Json::as_str)
            .ok_or("task needs a \"family\" string")?;
        let scale = |key: &str| -> Result<usize, String> {
            obj.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("family {name:?} needs an integer {key:?} >= 1"))
                .and_then(|v| {
                    if v == 0 {
                        Err(format!("family {name:?} needs {key:?} >= 1"))
                    } else {
                        Ok(v)
                    }
                })
        };
        match name {
            "cycle" => Ok(Family::Cycle { k: scale("k")? }),
            "cycle-fd" => {
                let k = scale("k")?;
                if k < 3 {
                    return Err("family \"cycle-fd\" needs k >= 3 (the ternary atom)".into());
                }
                Ok(Family::CycleFd { k })
            }
            "clique" => Ok(Family::Clique { k: scale("k")? }),
            "star-keyed" => Ok(Family::StarKeyed { k: scale("k")? }),
            "iso-triangle" => Ok(Family::IsoTriangle { n: scale("n")? }),
            "random" => Ok(Family::Random {
                n: scale("n")?,
                seed: obj.get("seed").and_then(Json::as_usize).unwrap_or(0) as u64,
            }),
            "grid" => {
                let k = scale("k")?;
                if k < 2 {
                    return Err("family \"grid\" needs k >= 2 (two columns make a grid)".into());
                }
                Ok(Family::Grid { k })
            }
            other => Err(format!(
                "unknown family {other:?} (known: cycle, cycle-fd, clique, \
                 star-keyed, iso-triangle, random, grid)"
            )),
        }
    }
}

/// One experiment trial: a workload plus its variant plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Task {
    /// Unique, filesystem-safe identifier (`[A-Za-z0-9._-]+`).
    pub id: String,
    pub family: Family,
    pub engine: Engine,
    /// Whether the LP cache is enabled in the child processes
    /// (`--no-cache` is passed when false).
    pub cache: bool,
    /// `1` runs single-process `cq-analyze`; `>= 2` runs `cq-cluster`
    /// over that many spawned `cq-serve --tcp` workers.
    pub workers: usize,
}

impl Task {
    /// Parses one task object (a `tasks.jsonl` line or a `task.json`
    /// document). Unknown keys are rejected so a typo'd variant key
    /// cannot silently run the default plan.
    pub fn parse(obj: &Json) -> Result<Task, String> {
        let known = [
            "task_id", "family", "k", "n", "seed", "engine", "cache", "workers",
        ];
        if let Json::Obj(fields) = obj {
            for (key, _) in fields {
                if !known.contains(&key.as_str()) {
                    return Err(format!("unknown task key {key:?} (known: {known:?})"));
                }
            }
        } else {
            return Err("a task must be a JSON object".into());
        }
        let id = obj
            .get("task_id")
            .and_then(Json::as_str)
            .ok_or("task needs a \"task_id\" string")?;
        if id.is_empty()
            || !id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        {
            return Err(format!(
                "task_id {id:?} must be nonempty [A-Za-z0-9._-] (it names files)"
            ));
        }
        let family = Family::parse(obj)?;
        let engine = match obj.get("engine") {
            None => Engine::Auto,
            Some(e) => Engine::parse(e.as_str().ok_or("\"engine\" must be a string")?)?,
        };
        let cache = match obj.get("cache") {
            None => true,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("\"cache\" must be a boolean".into()),
        };
        let workers = match obj.get("workers") {
            None => 1,
            Some(w) => {
                let w = w.as_usize().ok_or("\"workers\" must be an integer >= 1")?;
                if w == 0 {
                    return Err("\"workers\" must be >= 1".into());
                }
                w
            }
        };
        Ok(Task {
            id: id.to_owned(),
            family,
            engine,
            cache,
            workers,
        })
    }

    /// Parses a whole `tasks.jsonl` (one task per line; blank lines and
    /// `#` comment lines are skipped). Task ids must be unique — result
    /// files are named after them.
    pub fn parse_jsonl(text: &str) -> Result<Vec<Task>, String> {
        let mut tasks: Vec<Task> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let obj = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let task = Task::parse(&obj).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if tasks.iter().any(|t| t.id == task.id) {
                return Err(format!(
                    "line {}: duplicate task_id {:?}",
                    lineno + 1,
                    task.id
                ));
            }
            tasks.push(task);
        }
        if tasks.is_empty() {
            return Err("no tasks found".into());
        }
        Ok(tasks)
    }

    /// The task's identity as trajectory-row fields: family, scale and
    /// the variant plan. The engine is what `report` pivots on (exact
    /// and hybrid runs of the same workload merge into one row with
    /// `exact_secs` / `hybrid_secs` columns).
    pub fn identity_json(&self) -> Json {
        let (scale_key, scale) = self.family.scale();
        Json::Obj(vec![
            ("family".to_owned(), Json::str(self.family.name())),
            (scale_key.to_owned(), Json::int(scale)),
            ("engine".to_owned(), Json::str(self.engine.as_str())),
            ("cache".to_owned(), Json::Bool(self.cache)),
            ("workers".to_owned(), Json::int(self.workers)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(text: &str) -> Result<Task, String> {
        Task::parse(&Json::parse(text).unwrap())
    }

    #[test]
    fn parses_a_full_task() {
        let t = task(
            r#"{"task_id":"e8","family":"cycle-fd","k":8,"engine":"exact","cache":false,"workers":4}"#,
        )
        .unwrap();
        assert_eq!(t.id, "e8");
        assert_eq!(t.family, Family::CycleFd { k: 8 });
        assert_eq!(t.engine, Engine::Exact);
        assert!(!t.cache);
        assert_eq!(t.workers, 4);
    }

    #[test]
    fn defaults_apply() {
        let t = task(r#"{"task_id":"c","family":"cycle","k":4}"#).unwrap();
        assert_eq!(t.engine, Engine::Auto);
        assert!(t.cache);
        assert_eq!(t.workers, 1);
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        assert!(
            task(r#"{"task_id":"x","family":"cycle","k":4,"engin":"exact"}"#)
                .unwrap_err()
                .contains("unknown task key")
        );
        assert!(task(r#"{"task_id":"x","family":"nope","n":1}"#)
            .unwrap_err()
            .contains("unknown family"));
        assert!(task(r#"{"task_id":"../x","family":"cycle","k":4}"#)
            .unwrap_err()
            .contains("task_id"));
        assert!(task(r#"{"task_id":"x","family":"cycle","k":0}"#).is_err());
        assert!(task(r#"{"task_id":"x","family":"cycle-fd","k":2}"#).is_err());
        assert!(task(r#"{"task_id":"x","family":"cycle","k":4,"workers":0}"#).is_err());
    }

    #[test]
    fn jsonl_skips_comments_and_rejects_duplicates() {
        let tasks = Task::parse_jsonl(
            "# smoke grid\n\n{\"task_id\":\"a\",\"family\":\"cycle\",\"k\":4}\n\
             {\"task_id\":\"b\",\"family\":\"clique\",\"k\":4}\n",
        )
        .unwrap();
        assert_eq!(tasks.len(), 2);
        let err = Task::parse_jsonl(
            "{\"task_id\":\"a\",\"family\":\"cycle\",\"k\":4}\n\
             {\"task_id\":\"a\",\"family\":\"cycle\",\"k\":5}\n",
        )
        .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn families_materialize_deterministically() {
        for family in [
            Family::Cycle { k: 5 },
            Family::CycleFd { k: 5 },
            Family::Clique { k: 4 },
            Family::StarKeyed { k: 3 },
            Family::IsoTriangle { n: 4 },
            Family::Random { n: 4, seed: 7 },
            Family::Grid { k: 4 },
        ] {
            let a = family.materialize();
            let b = family.materialize();
            assert_eq!(a, b, "{family:?} must be deterministic");
            assert!(!a.is_empty());
            // Every program parses back (the harness feeds these to the
            // real binaries; a parse error there is a lab bug).
            for (name, text) in &a {
                cq_core::parse_program(text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
            }
        }
    }

    #[test]
    fn grid_family_is_width_two_both_ways() {
        let (_, text) = &Family::Grid { k: 4 }.materialize()[0];
        let (q, _) = cq_core::parse_program(text).unwrap();
        let h = q.hypergraph();
        assert_eq!(cq_hypergraph::treewidth_exact(&h.primal_graph()), 2);
        assert_eq!(cq_hypergraph::hypertree_width_exact(&h), 2);
        assert!(task(r#"{"task_id":"g","family":"grid","k":1}"#)
            .unwrap_err()
            .contains("k >= 2"));
    }

    #[test]
    fn cycle_fd_takes_the_entropy_path() {
        let (_, text) = &Family::CycleFd { k: 4 }.materialize()[0];
        let (_, fds) = cq_core::parse_program(text).unwrap();
        assert!(!fds.all_simple(), "compound FD must survive the roundtrip");
    }
}
