"""Self-tests of the benchmark's own checks, inputs and tracing.

    python3 perfbench/selftest.py

Run from the repository root; takes a few seconds.
"""
from __future__ import annotations

import dataclasses
import json
import random
import signal
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def _one_pass(lib, ops) -> run.Results:
    res = run.Results()
    probe = speed.SpeedProbe()
    ref = probe.reference()
    for op in ops:
        ref = run.run_op(lib, op, res, True, probe, ref)
    return res


class FailureCounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        signal.signal(signal.SIGALRM, run._on_alarm)
        cls.lib, ops = run.build("fixtures", 0)
        cls.ops = {op.id: op for op in ops}

    def fresh(self, name):
        return run.FixtureOp(self.lib, name)

    def test_untouched_fixtures_pass(self):
        res = _one_pass(self.lib, list(self.ops.values()))
        self.assertEqual(res.failures, [])
        self.assertEqual(res.attempted, 15)

    def test_tampered_frozen_certificate_is_a_failure(self):
        op = self.fresh("b4_diagonal_irreducible")
        op.expected = op.expected.replace('"-2"', '"-3"', 1)
        res = _one_pass(self.lib, [op, self.fresh("c2_nonzero")])
        self.assertEqual(len(res.failures), 1)
        self.assertEqual(res.failures[0]["id"], "b4_diagonal_irreducible")
        self.assertIn("output differs from the frozen certificate", res.failures[0]["problems"])

    def test_certificate_that_does_not_replay_is_a_failure(self):
        op = self.fresh("b5_split_isotropic")
        decode = op.certificate

        def tampered(lib, out):
            cert = decode(lib, out)
            first = cert.trace[0]
            cert.trace[0] = dataclasses.replace(first, value=first.value + 1)
            return cert

        op.certificate = tampered
        res = _one_pass(self.lib, [op])
        self.assertEqual(len(res.failures), 1)
        self.assertIn("replay returned False", res.failures[0]["problems"])

    def test_wrong_rule_and_bad_witness_are_failures(self):
        op = self.fresh("b4_diagonal_irreducible")
        op.expected_rule = "thm_main_irreducible"
        op.c2_vec = [0] * len(op.c2_vec)
        res = _one_pass(self.lib, [op])
        problems = res.failures[0]["problems"]
        self.assertIn("certified/cor_irreducible_b4, expected certified/thm_main_irreducible", problems)
        self.assertIn("c2.E = 0", problems)

    def test_deadline_overrun_is_a_failure(self):
        op = self.fresh("c2_nonzero")
        op.certify = lambda lib: time.sleep(5)
        saved = run.DEADLINE_S
        run.DEADLINE_S = 0.05
        try:
            res = _one_pass(self.lib, [op])
        finally:
            run.DEADLINE_S = saved
        self.assertEqual(len(res.failures), 1)
        self.assertIn("DeadlineExceeded", res.failures[0]["problems"][0])
        self.assertLess(res.certify["c2_nonzero"][0], 1.0)


class Inputs(unittest.TestCase):
    def test_digest_fixed_by_seed(self):
        for kind in ("planted_irreducible", "planted_reducible"):
            a = inputs.digest(inputs.planted_set(kind, 7))
            self.assertEqual(a, inputs.digest(inputs.planted_set(kind, 7)))
            self.assertNotEqual(a, inputs.digest(inputs.planted_set(kind, 8)))
        lib, ops7 = run.build("fixtures", 7)
        _, ops7b = run.build("fixtures", 7)
        _, ops8 = run.build("fixtures", 8)
        digest = lambda ops: inputs.digest([op.record for op in ops])  # noqa: E731
        self.assertEqual(digest(ops7), digest(ops7b))
        self.assertNotEqual(digest(ops7), digest(ops8))

    def test_planted_forms_meet_their_construction(self):
        rng = random.Random(1)
        for make, n in ((inputs.planted_irreducible, 6), (inputs.planted_reducible, 5)):
            for _ in range(5):
                doc = make(rng, n)
                entries = {tuple(r[:3]): r[3] for r in doc["entries"]}
                d = doc["D"]
                self.assertEqual(inputs.cube(entries, d), 0)
                self.assertEqual(inputs.dot(doc["c2"], d), 0)
                self.assertTrue(any(doc["c2"]))
                basis = [[int(i == j) for j in range(n)] for i in range(n)]
                self.assertTrue(any(inputs.triple(entries, d, d, e) for e in basis))


class Tracing(unittest.TestCase):
    def test_spans_nest_and_install_is_undone(self):
        lib, ops = run.build("fixtures", 0)
        op = next(o for o in ops if o.id == "b4_diagonal_irreducible")
        certify_mod = spans._module("certify")
        before = (certify_mod.chase, lib.nsring.IntersectionForm.__dict__["triple"])
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.input_id = op.id
            op.certify(lib)
        finally:
            tracer.uninstall()
        self.assertEqual(before, (certify_mod.chase, lib.nsring.IntersectionForm.__dict__["triple"]))
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        for name in ("cli.main", "cli.load_input", "cli.render_json", "certify.certify",
                     "cubicchase.chase", "exactmath.iter_kernel_primitives", "nsring.triple"):
            self.assertIn(name, by_name)
        main, = by_name["cli.main"]
        self.assertIsNone(main.parent)
        cert, = by_name["certify.certify"]
        self.assertEqual(cert.parent, main.sid)
        self.assertEqual(by_name["cubicchase.chase"][0].parent, cert.sid)
        self.assertTrue(all(s.input_id == op.id for s in tracer.spans))
        own = spans.self_times(tracer.spans)
        self.assertTrue(all(t >= 0 for t in own))
        self.assertEqual(sum(own), main.busy)


class Report(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        signal.signal(signal.SIGALRM, run._on_alarm)
        lib, ops = run.build("fixtures", 0)
        ops = [op for op in ops if op.id in ("b4_diagonal_irreducible", "b5_split_isotropic")]
        tracer = spans.Tracer()
        untraced, traced = run.measure(lib, ops, 0, time.perf_counter(), speed.SpeedProbe(), tracer)
        self.assertEqual(traced.failures, [])
        for metrics, key in ((run.end_to_end(untraced, 0.1), "end_to_end"),
                             (run.per_layer(tracer.spans, ops, traced, untraced), "per_layer")):
            self.assertEqual({k: u for k, (_, u) in metrics.items()},
                             {m["name"]: m["unit"] for m in declared[key]})


if __name__ == "__main__":
    unittest.main()
