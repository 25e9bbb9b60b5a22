"""Self-tests of the benchmark. Run from the repository root:

    python3 -m unittest discover -s perfbench

The first test that needs the binaries builds them (as run.py does).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import workloads as W  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


class Generators(unittest.TestCase):
    def test_byte_identical_per_seed(self):
        gens = [
            lambda s: W.serve_warm(s)[1:],
            lambda s: W.batch_cold(s)[1],
            lambda s: W.entropy_rounds(s, 4),
            W.datacheck,
            lambda s: W.datacheck_order(s, 4, 5),
        ]
        for gen in gens:
            self.assertEqual(repr(gen(7)), repr(gen(7)))
            self.assertNotEqual(repr(gen(7)), repr(gen(8)))

    def test_entropy_seeds_pose_the_same_lps(self):
        # Names change with the seed; structure and first-use order do not.
        def by_first_use(text):
            seen = {}
            args = lambda m: ",".join(str(seen.setdefault(v, len(seen))) for v in m.group(1).split(","))
            return re.sub(r"\(([^)]*)\)", lambda m: "(%s)" % args(m), text)

        a = sorted(by_first_use(t) for _, t in W.entropy_rounds(1, 2))
        b = sorted(by_first_use(t) for _, t in W.entropy_rounds(2, 2))
        self.assertNotEqual(W.entropy_rounds(1, 2), W.entropy_rounds(2, 2))
        self.assertEqual(a, b)

    def test_batches_stay_within_the_protocol_cap(self):
        self.assertLessEqual(W.BATCH_SIZE, W.MAX_BATCH)


class AgainstBinaries(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bins = run.build()
        cls.workdir = os.path.join(run.TMP_ROOT, "selftest-%d" % os.getpid())
        os.makedirs(cls.workdir)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def daemon(self):
        d = run.Daemon(self.bins["cq-serve"], self.workdir)
        self.addCleanup(d.stop)
        conn = d.connect()
        self.addCleanup(conn.close)
        return conn

    def test_serve_warm_classes_fit_the_cache(self):
        conn = self.daemon()
        _, warmup, requests = W.serve_warm(3)
        for line in warmup:
            stats = json.loads(conn.request(line))["cache_stats"]
        self.assertLessEqual(stats["misses"], W.CACHE_CAPACITY)
        self.assertEqual(stats["evictions"], 0)
        for line, _ in requests[:256]:
            after = json.loads(conn.request(line))["cache_stats"]
        self.assertEqual(after["misses"], stats["misses"], "timed requests must all hit")

    def test_batch_cold_classes_exceed_the_cache(self):
        conn = self.daemon()
        _, texts = W.batch_cold(3)
        n = 0
        while n < W.BATCH_QUERIES:
            resp = json.loads(conn.request(W.batch_line(n, texts[n : n + W.BATCH_SIZE])))
            n += W.BATCH_SIZE
        self.assertGreater(resp["cache_stats"]["misses"], W.CACHE_CAPACITY)
        self.assertGreater(resp["cache_stats"]["evictions"], 0)

    def test_entropy_requests_take_the_verified_hybrid_path(self):
        conn = self.daemon()
        for k, text in W.entropy_rounds(5, 1):
            if k == 11:
                continue  # the slowest; 9 and 10 cover both LPs
            report = json.loads(conn.request(W.analyze_line(k, text)))["report"]
            stats = report["solver_stats"]
            self.assertGreater(stats["hybrid_solves"], 0)
            self.assertGreater(stats["float_verified"], 0)
            color, exponent = run.ENTROPY_EXPECTED[k]
            self.assertEqual(report["entropy"]["color_number"], color)
            self.assertEqual(report["entropy"]["exponent"], exponent)

    def test_datacheck_counts_match_the_wcoj_reference(self):
        pairs = run.write_datacheck_inputs(self.workdir, 0)
        counts = run.reference_counts(self.bins, pairs)
        for p, want in zip(pairs, counts):
            _, code, out, _ = run.run_analyze(
                self.bins["cq-analyze"], ["--json", "--db", p["db"], p["query_path"]]
            )
            self.assertEqual(code, 0)
            self.assertEqual(json.loads(out.splitlines()[0])["data"]["measured"], want, p["shape"])

    def test_result_lines_carry_exactly_the_declared_metrics(self):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", "serve-warm",
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                check=True,
            )
            result = json.loads(out.stdout.decode().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            declared = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, declared)

    def test_fails_without_the_repository(self):
        bare = os.path.join(self.workdir, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "datacheck", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=180,
        )
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, b"")


if __name__ == "__main__":
    unittest.main()
