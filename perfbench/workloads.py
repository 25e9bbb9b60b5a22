"""Seeded input generators for the perfbench workloads.

Every generator is a pure function of its seed: the same seed yields
byte-identical request lines, query programs and database files. The
program under test only ever sees the generated text.

Queries are kept structurally (variable count, head, body atoms,
dependency lines) so that a seeded renaming of variables plus a shuffle
of atoms produces a copy in the same isomorphism class, i.e. the same
LP-cache entry, whose exponent must not change.
"""

import json
import random
from fractions import Fraction

# LpCache's default capacity (crates/engine/src/cache.rs).
CACHE_CAPACITY = 4096
# cq-serve's per-request batch cap (MAX_BATCH).
MAX_BATCH = 1024

SERVE_POOL = 256  # seeded random queries next to the templates
SERVE_REQUESTS = 4096  # request lines, cycled during the timed phase
BATCH_SIZE = 256
BATCH_QUERIES = 12288  # the batch-cold inputs the probe reads
BATCH_TWIN_SHARE = 0.25  # entries that are permuted copies of earlier ones
ENTROPY_KS = (9, 10, 11)
# The entropy-lp workload's rotation. k = 11 (~1.6 s a request, against
# ~0.35 s at 9 and 10) gave too few samples a run for a steady median;
# the traced run's probe still solves and checks it.
TIMED_ENTROPY_KS = (9, 10)
# Small entropy LPs for the dense-vs-revised layer metrics. k = 6 is left
# out: one dense-tableau solve of it takes seconds.
SMALL_ENTROPY_KS = (4, 5)
PROBE_ROUND = 256  # serve-warm request lines the probe times per round


class Query:
    """A conjunctive query with an optional known exponent."""

    def __init__(self, name, n_vars, head, body, deps=(), exponent=None):
        self.name = name
        self.n_vars = n_vars
        self.head = list(head)
        self.body = [(rel, list(vs)) for rel, vs in body]
        self.deps = list(deps)
        self.exponent = exponent

    def text(self, rng=None):
        """The program text. With `rng`, variables get fresh names and
        atoms are shuffled: an isomorphic copy."""
        names = ["X%d" % i for i in range(self.n_vars)]
        head = list(self.head)
        body = list(self.body)
        if rng is not None:
            fresh = rng.sample(range(10 * self.n_vars + 10), self.n_vars)
            names = ["V%d" % i for i in fresh]
            rng.shuffle(head)
            rng.shuffle(body)
        atoms = ", ".join(
            "%s(%s)" % (rel, ",".join(names[v] for v in vs)) for rel, vs in body
        )
        rule = "Q(%s) :- %s" % (",".join(names[v] for v in head), atoms)
        return "\n".join([rule] + self.deps)


def cycle(k):
    body = [("R%d" % i, [i, (i + 1) % k]) for i in range(k)]
    return Query("cycle-%d" % k, k, range(k), body, exponent=Fraction(k, 2))


def clique(k):
    body = [("E%d_%d" % (i, j), [i, j]) for i in range(k) for j in range(i + 1, k)]
    return Query("clique-%d" % k, k, range(k), body, exponent=Fraction(k, 2))


def star_keyed(k):
    body = [("R%d" % i, [0, i + 1]) for i in range(k)]
    deps = ["key R%d[1]" % i for i in range(k)]
    return Query("star-keyed-%d" % k, k + 1, range(k + 1), body, deps, Fraction(1))


def grid(k):
    """The 2 x k grid join query; its fractional edge cover is the k
    vertical edges, so the exponent is k."""
    v = lambda r, c: r * k + c
    body = [("H%d_%d" % (r, c), [v(r, c), v(r, c + 1)]) for r in range(2) for c in range(k - 1)]
    body += [("V%d" % c, [v(0, c), v(1, c)]) for c in range(k)]
    return Query("grid-2x%d" % k, 2 * k, range(2 * k), body, exponent=Fraction(k))


def cycle_fd(k):
    """The lab's cycle-fd family: the k-cycle plus T(X0,X1,X2) under the
    compound dependency T[1,2] -> T[3], which forces the entropy LPs."""
    body = [("R%d" % i, [i, (i + 1) % k]) for i in range(k)] + [("T", [0, 1, 2])]
    return Query("cycle-fd-%d" % k, k, range(k), body, ["T[1,2] -> T[3]"])


def random_query(rng, name, max_vars, max_atoms):
    """A random query in the style of cq_bench::random_query: arities
    1-3, a third of the atoms reuse an earlier relation, a random head."""
    n_vars = rng.randint(2, max_vars)
    n_atoms = rng.randint(1, max_atoms)
    body = []
    for a in range(n_atoms):
        if a > 0 and rng.random() < 0.33:
            rel, prev = body[rng.randrange(a)]
            arity = len(prev)
        else:
            rel, arity = "R%d" % a, rng.randint(1, 3)
        body.append((rel, [rng.randrange(n_vars) for _ in range(arity)]))
    used = sorted({v for _, vs in body for v in vs})
    head = rng.sample(used, rng.randint(1, len(used)))
    # Renumber so variables are 0..n-1 in first-use order.
    order = {v: i for i, v in enumerate(used)}
    body = [(rel, [order[v] for v in vs]) for rel, vs in body]
    return Query(name, len(used), [order[v] for v in head], body)


def exponent_bounds(q):
    """Bounds any FD-free query's exponent obeys, independent of the LP:
    coloring one head variable alone gives 1, and every head variable
    is covered by one atom."""
    return Fraction(1), Fraction(min(len(q.head), len(q.body)))


def templates():
    return (
        [cycle(k) for k in range(4, 9)]
        + [clique(k) for k in range(4, 7)]
        + [star_keyed(k) for k in range(3, 7)]
        + [grid(k) for k in range(3, 9)]
    )


def analyze_line(rid, text):
    return json.dumps({"id": rid, "cmd": "analyze", "query": text}, separators=(",", ":"))


def serve_warm(seed):
    """Returns (classes, warmup_lines, requests) where each request is
    (line, class index). Half the requests are permuted template copies,
    half permuted copies of a pool of random queries. The pool is the
    same for every seed (its own fixed seed), so every run serves the
    same classes; the seed picks the request sequence and renamings."""
    pool_rng = random.Random("serve-warm-pool")
    tmpl = templates()
    pool = [random_query(pool_rng, "pool-%d" % i, 7, 6) for i in range(SERVE_POOL)]
    rng = random.Random("serve-warm/%d" % seed)
    classes = tmpl + pool
    warmup = [analyze_line("w%d" % i, q.text()) for i, q in enumerate(classes)]
    requests = []
    for i in range(SERVE_REQUESTS):
        if rng.random() < 0.5:
            c = rng.randrange(len(tmpl))
        else:
            c = len(tmpl) + rng.randrange(len(pool))
        requests.append((analyze_line(i, classes[c].text(rng)), c))
    return classes, warmup, requests


def batch_cold(seed):
    """Returns (queries, texts): a stream of random queries, a quarter
    of them permuted copies ("twins") of earlier entries. Query i's
    class representative is queries[i] itself; a twin shares it."""
    rng = random.Random("batch-cold/%d" % seed)
    queries, texts = [], []
    for i in range(BATCH_QUERIES):
        if i > 0 and rng.random() < BATCH_TWIN_SHARE:
            q = queries[rng.randrange(max(0, i - 2048), i)]
            texts.append(q.text(rng))
        else:
            q = random_query(rng, "b%d" % i, 8, 8)
            texts.append(q.text())
        queries.append(q)
    return queries, texts


def batch_line(rid, texts):
    return json.dumps(
        {"id": rid, "cmd": "batch", "queries": [{"query": t} for t in texts]},
        separators=(",", ":"),
    )


def entropy_rounds(seed, rounds, ks=TIMED_ENTROPY_KS):
    """`rounds` rounds of one cycle-fd request per k in `ks`, in seeded
    order per round. Only names vary with the seed: atom order and
    first-use order of variables are fixed, so every seed poses the same
    LPs."""
    rng = random.Random("entropy-lp/%d" % seed)
    out = []
    for _ in range(rounds):
        ks = list(ks)
        rng.shuffle(ks)
        for k in ks:
            out.append((k, renamed_text(cycle_fd(k), rng)))
    return out


def renamed_text(q, rng):
    """Fresh variable names in the same first-use order (no shuffle)."""
    fresh = sorted(rng.sample(range(1000), q.n_vars))
    prefix = rng.choice("ABCDEFGHJKLMNP")
    names = ["%s%d" % (prefix, i) for i in fresh]
    atoms = ", ".join("%s(%s)" % (rel, ",".join(names[v] for v in vs)) for rel, vs in q.body)
    rule = "Q(%s) :- %s" % (",".join(names[v] for v in q.head), atoms)
    return "\n".join([rule] + q.deps)


# --- datacheck ---------------------------------------------------------

DATACHECK_SHAPES = {
    # name: (rule, dependency lines, domain, tuples per relation)
    "triangle": ("Q(X,Y,Z) :- E(X,Y), E(Y,Z), E(X,Z)", [], 200, 6000),
    "cycle4": ("Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D), E(D,A)", [], 400, 4000),
    "path3-proj": ("Q(A,D) :- E(A,B), E(B,C), E(C,D)", [], 800, 6000),
    "grid2x3": (
        "Q(A,B,C,D,F,G) :- E(A,B), E(B,C), E(D,F), E(F,G), E(A,D), E(B,F), E(C,G)",
        [],
        800,
        3000,
    ),
    "star-keyed": (
        "Q(X,Y1,Y2,Y3) :- R1(X,Y1), R2(X,Y2), R3(X,Y3)",
        ["key R1[1]", "key R2[1]", "key R3[1]"],
        6000,
        5000,
    ),
}


def datacheck_db(shape, rng):
    """The database text for `shape`: a random directed graph E without
    self-loops, or three keyed relations (one tuple per key value)."""
    _, _, domain, tuples = DATACHECK_SHAPES[shape]
    lines = []
    if shape == "star-keyed":
        for rel in ("R1", "R2", "R3"):
            lines.append("relation %s" % rel)
            keys = rng.sample(range(domain), tuples)
            lines += ["k%d v%d" % (x, rng.randrange(domain)) for x in sorted(keys)]
    else:
        edges = set()
        while len(edges) < tuples:
            a, b = rng.randrange(domain), rng.randrange(domain)
            if a != b:
                edges.add((a, b))
        lines.append("relation E")
        lines += ["n%d n%d" % e for e in sorted(edges)]
    return "\n".join(lines) + "\n"


def datacheck(seed):
    """Returns a list of (shape, program text, database text): one
    instance per shape."""
    rng = random.Random("datacheck/%d" % seed)
    out = []
    for shape, (rule, deps, _, _) in DATACHECK_SHAPES.items():
        out.append((shape, "\n".join([rule] + deps) + "\n", datacheck_db(shape, rng)))
    return out


def datacheck_order(seed, rounds, n):
    """The check sequence: rounds of a seeded permutation of 0..n-1, so
    every shape runs equally often."""
    rng = random.Random("datacheck-order/%d" % seed)
    order = []
    for _ in range(rounds):
        perm = list(range(n))
        rng.shuffle(perm)
        order += perm
    return order
