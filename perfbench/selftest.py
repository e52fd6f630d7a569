"""The benchmark's own tests.  Run from the checkout root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import stats  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in ("serve-warm", "serve-compute"):
            self.assertEqual(W.build_schedule(name, 7, 10), W.build_schedule(name, 7, 10))
        self.assertEqual(W.allocation_set(7, 30), W.allocation_set(7, 30))

    def test_other_seed_other_inputs(self):
        a, b = W.build_schedule("serve-compute", 1, 10), W.build_schedule("serve-compute", 2, 10)
        self.assertNotEqual(a["specs"], b["specs"])

    def test_independent_of_hash_seed(self):
        code = ("import json, sys; sys.path.insert(0, %r); import workloads as W; "
                "print(json.dumps(W.build_schedule('serve-warm', 3, 5), sort_keys=True))" % HERE)
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True, timeout=60).stdout)
        self.assertEqual(outs[0], outs[1])

    def test_counts_are_exact(self):
        schedule = W.build_schedule("serve-warm", 5, 10)
        main = [op for op in schedule["ops"] if op["phase"] == "main"]
        main_s = dict((p, d) for p, _, d in W.phases(W.SERVE_WARM, 10))["main"]
        self.assertEqual(len(main), round(W.SERVE_WARM.rate * main_s))
        again = W.build_schedule("serve-warm", 6, 10)
        self.assertEqual(len(main), sum(op["phase"] == "main" for op in again["ops"]))

    def test_specs_are_unique_and_result_reads_never_submitted(self):
        schedule = W.build_schedule("serve-warm", 4, 10)
        keys = [json.dumps(s, sort_keys=True) for s in schedule["specs"]]
        self.assertEqual(len(keys), len(set(keys)))
        submitted = {op["spec"] for op in schedule["ops"] if op["kind"] == "resubmit"}
        read = {op["spec"] for op in schedule["ops"] if op["kind"] == "result"}
        self.assertFalse(submitted & read)
        for op in schedule["ops"]:
            if op["kind"] == "poll":
                self.assertLess(op["target"], op["i"])

    def test_lower_rungs_only_poll_ops_that_ran(self):
        # A lower rung follows a failed main phase; the upper rungs never run.
        schedule = W.build_schedule("serve-warm", 3, 10)
        lower = {p for p, _, _ in W.lower_rungs(W.SERVE_WARM)}
        phase_of = {op["i"]: op["phase"] for op in schedule["ops"]}
        targets = {phase_of[op["target"]] for op in schedule["ops"]
                   if op["phase"] in lower and op["kind"] == "poll"}
        self.assertTrue(targets)
        self.assertLessEqual(targets, {"warmup", "main"} | lower)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # (id, parent, root, name, start, end, error)
        spans = [
            (1, None, 1, "root", 0, 100, None),
            (2, 1, 1, "a", 10, 40, None),
            (3, 1, 1, "b", 30, 60, None),  # overlaps a
            (4, 2, 1, "a.child", 15, 20, None),
            (5, 1, 1, "late", 90, 120, None),  # runs past its parent
        ]
        self.assertEqual(tracer.self_times(spans), {1: 40, 2: 25, 3: 30, 4: 5, 5: 30})

    def test_self_times_partition_the_root(self):
        spans = [(1, None, 1, "r", 0, 50, None), (2, 1, 1, "c", 5, 45, None),
                 (3, 2, 1, "g", 10, 20, None), (4, 2, 1, "g", 20, 30, None)]
        self.assertEqual(sum(tracer.self_times(spans).values()), 50)


class TracerTest(unittest.TestCase):
    def _wrapped(self):
        found = []
        for layer, targets in tracer.LAYERS.items():
            for module, qualname in targets:
                owner, attr = tracer._resolve(module, qualname)
                value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                value = getattr(value, "__func__", value)
                if hasattr(value, "__wrapped__"):
                    found.append(layer)
        return found

    def test_nothing_wrapped_with_tracer_off(self):
        import serve_child

        calls = []
        real = tracer.install
        tracer.install = lambda *a, **k: calls.append(a)
        try:
            with contextlib.redirect_stdout(io.StringIO()), self.assertRaises(SystemExit):
                serve_child.main(["--", "--help"])
        finally:
            tracer.install = real
        self.assertEqual(calls, [])
        self.assertEqual(self._wrapped(), [])

    def test_install_and_uninstall(self):
        from repro.api import Session, fingerprint

        t = tracer.Tracer()
        undo = tracer.install(t)
        try:
            self.assertEqual(sorted(set(self._wrapped())), sorted(tracer.LAYERS))
            import repro.api.config

            repro.api.config.fingerprint({"x": 1})
            Session().run({"experiment": "fig4", "params": {"prices": [5, 8], "repetitions": 1}})
        finally:
            tracer.uninstall(undo)
        self.assertEqual(self._wrapped(), [])
        names = {s[3] for s in t.spans}
        self.assertIn("api.config.fingerprint", names)
        self.assertIn("api.session.run", names)
        self.assertIs(fingerprint, sys.modules["repro.api"].fingerprint)


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_names_only_measured_metrics(self):
        import layers
        import run

        with open("BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
        for metric in declared["end_to_end"]:
            self.assertEqual(run.END_TO_END[metric["name"]], metric["unit"])
        units = dict(layers.metric_units(), **{f"trace.{k}": run.END_TO_END[k] for k in run.TRACED})
        self.assertEqual({m["name"]: m["unit"] for m in declared["per_layer"]}, units)
        self.assertEqual(len(declared["per_layer"]), len(units))
        self.assertEqual([w["name"] for w in declared["workloads"]], list(W.WORKLOADS))


class StatsTest(unittest.TestCase):
    def test_tail_rule_leaves_ten_samples_beyond(self):
        for n, q in ((5000, 99.0), (1000, 99.0), (200, 95.0), (100, 90.0), (40, 75.0), (19, 50.0)):
            self.assertAlmostEqual(stats.tail_q(n), q)
        for n in range(20, 1000):
            self.assertGreaterEqual(n * (1 - stats.tail_q(n) / 100), 10 - 1e-9)


if __name__ == "__main__":
    unittest.main()
