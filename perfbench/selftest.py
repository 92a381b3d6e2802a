"""Self-tests of the benchmark, run from the root of a source checkout.

    python3 perfbench/selftest.py

They check that the generator is deterministic for a seed, that the
reference agrees with itself and with the classical values, that a
perturbed engine value is counted as a failed op, that the tracer puts
every original function back, and that each per-layer metric records
non-zero work on the workloads ``design.json`` assigns it to.
"""

from __future__ import annotations

import contextlib
import json
import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.locate_engine()

import inputs  # noqa: E402
import reference as R  # noqa: E402


def _tally(workload: str, ops_list: list) -> run.Tally:
    import ops

    tally = run.Tally()
    runner = ops.runner(workload, str(run.ROOT))
    for op in ops_list:
        output, error, _ = run._attempt(runner, op)
        tally.add(workload, op, output, error)
    return tally


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for workload in inputs.WORKLOADS:
            a = inputs.take(workload, 7, 25)
            b = inputs.take(workload, 7, 25)
            self.assertEqual([(o.kind, o.family, o.payload, o.expect) for o in a],
                             [(o.kind, o.family, o.payload, o.expect) for o in b])

    def test_other_seed_other_ops(self):
        for workload in inputs.WORKLOADS:
            a = [o.payload for o in inputs.take(workload, 7, 25)]
            b = [o.payload for o in inputs.take(workload, 8, 25)]
            self.assertNotEqual(a, b)

    def test_every_block_has_the_fixed_mix(self):
        for workload, slots in inputs.BLOCKS.items():
            ops_list = inputs.take(workload, 3, len(slots))
            kinds = sorted(o.kind for o in ops_list)
            self.assertEqual(kinds, sorted(s.split("/")[0] for s in slots))


class ReferenceTest(unittest.TestCase):
    def test_classical_values(self):
        veronese = R.threefold_characters(R.veronese_table(3))
        for k, v in R.VERONESE_VALUES.items():
            self.assertEqual(veronese[k], v, k)
        roman = R.surface_characters(R.veronese_table(2))
        for k, v in R.ROMAN_VALUES.items():
            self.assertEqual(roman[k], v, k)

    def test_smooth_hypersurfaces_have_no_singularities(self):
        for D in (1, 2, 5, 10 ** 15):
            s = R.surface_characters(R.hypersurface_table(2, D))
            self.assertEqual([s[k] for k in ("eps0", "C", "T")], [0, 0, 0])
            t = R.threefold_characters(R.hypersurface_table(3, D))
            self.assertEqual([t[k] for k in ("mu0", "t", "q", "s_t", "gamma", "chi_C")], [0] * 6)
            self.assertEqual(t["D_swallowtail"], D * (D - 1) * (D - 2) * (D - 3))

    def test_inversion_round_trip_and_elementary_forms(self):
        rng = random.Random(0)
        for _ in range(50):
            basic, xi, c = inputs.surface_tuple(rng)
            self.assertEqual({k: c[k] for k in ("eps0", "C", "T")},
                             {k: basic[k] for k in ("eps0", "C", "T")})
            d, e, C, T = (Fraction(basic[k]) for k in R.SURFACE_CHARACTER_KEYS)
            self.assertEqual(c["mu1"], d * (d - 1) - 2 * e)
            self.assertEqual(c["kappa_cusps"], d * (d - 1) * (d - 2) + (6 - 3 * d) * e + 3 * T)
            self.assertEqual(c["mu2"], d * (d - 1) ** 2 + (4 - 3 * d) * e + 3 * T - 2 * C)
            self.assertEqual(c["chi_double_curve"], (4 - d) * e + T + C / 2)
            self.assertEqual(c["eps1"], (d - 2) * e - 3 * T - C / 2)
            self.assertTrue(R.report_passes("surface", c))

            basic, xi, c = inputs.threefold_tuple(rng)
            for k in R.THREEFOLD_CHARACTER_KEYS:
                self.assertEqual(c[k], basic[k], k)
            d, mu0, t, gamma = (c[k] for k in ("d", "mu0", "t", "gamma"))
            self.assertEqual(c["m1"], d * (d - 1) - 2 * mu0)
            self.assertEqual(c["m2"], d * (d - 1) ** 2 + (4 - 3 * d) * mu0 + 3 * t - 2 * gamma)
            self.assertEqual(c["K_dot_S"], c["s_t"] / 2 - d * gamma / 2 - c["chi_C"])
            self.assertTrue(R.report_passes("threefold", c))

    def test_parser(self):
        terms = R.parse_polynomial("-5/2*d + 1/2*d^2 + xi1*xi01^2 - 3")
        self.assertEqual(R.evaluate_polynomial(terms, {"d": 2, "xi1": 3, "xi01": 1}),
                         Fraction(-5) + 2 + 3 - 3)
        self.assertEqual(R.evaluate_text(R.render_polynomial([3, 0, -1, 2]), {"d": 5}),
                         3 - 25 + 250)
        for bad in ("", "2*q", "d +", "3*d^x"):
            with self.assertRaises(ValueError):
                R.evaluate_text(bad, {"d": 1})
        with self.assertRaises(ValueError):
            R.evaluate_text("xi2", {"d": 1})


@contextlib.contextmanager
def _patched(module, name: str, make):
    """Replace ``module.name`` by ``make(original)`` for the block."""
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


class PerturbationTest(unittest.TestCase):
    """A wrong engine value must fail the op, in every workload."""

    def test_numeric_and_symbolic_ops_fail(self):
        from charclass import threefold

        def shift_q(original):
            def basic(ctx):
                mu0, t, gamma, q, s_t, chi_C = original(ctx)
                return mu0, t, gamma, q + 1, s_t, chi_C
            return basic

        for workload in ("numeric-batch", "symbolic-families"):
            sample = [o for o in inputs.take(workload, 2, 10) if o.kind == "threefold"][:2]
            self.assertEqual(_tally(workload, sample).failed, 0)
            with _patched(threefold, "threefold_basic", shift_q):
                self.assertEqual(_tally(workload, sample).failed, len(sample), workload)

    def test_failed_report_fails_the_op(self):
        from charclass import surface
        from charclass.report import Check

        sample = [o for o in inputs.take("numeric-batch", 2, 5) if o.kind == "surface"]
        with _patched(surface, "verify_surface_relations",
                      lambda original: lambda ctx: original(ctx) + [Check("x", False)]):
            self.assertEqual(_tally("numeric-batch", sample).failed, len(sample))

    def test_cli_outputs_are_checked(self):
        import ops

        op = next(o for o in inputs.take("cli-oneshot", 2, 20) if o.kind == "threefold")
        code, out, err = ops.run_cli(op.payload, str(run.ROOT))
        ops.check_cli(op, (code, out, err))
        doc = json.loads(out)
        doc["characters"]["m3"] = str(Fraction(doc["characters"]["m3"]) + 1)
        with self.assertRaises(ops.Mismatch):
            ops.check_cli(op, (code, json.dumps(doc), err))
        with self.assertRaises(ops.Mismatch):
            ops.check_cli(op, (1, out, err))


class TraceTest(unittest.TestCase):
    def test_tracer_restores_every_function(self):
        import spans
        from charclass import algebra, context, tables, threefold

        before = (algebra.GradedPolynomial.__dict__["__mul__"], algebra.substitute,
                  context.MapContext.evaluate, threefold.critical_surface_calculus)
        tracer = spans.Tracer()
        with tracer:
            self.assertIsNot(threefold.critical_surface_calculus, before[3])
            ctx = context.make_context(2, 3, {"d": 4, "xi1": 6, "xi2": 9, "xi01": 3})
            ctx.evaluate(tables.thom_polynomial("A1", 1))
        after = (algebra.GradedPolynomial.__dict__["__mul__"], algebra.substitute,
                 context.MapContext.evaluate, threefold.critical_surface_calculus)
        self.assertTrue(all(a is b for a, b in zip(before, after)))
        stats = spans.aggregate(tracer.records())["functions"]
        self.assertEqual(stats["context.evaluate"]["calls"], 1)
        self.assertGreater(stats["algebra.substitute"]["calls"], 0)

    def test_layer_map_metrics_are_non_zero(self):
        design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
        listed = [m["name"] for m in run.load_spec()["per_layer"]]
        mapped = {name for row in design["layer_map"] for name in row["metrics"]}
        self.assertEqual(mapped, set(listed))
        metrics = {}
        for workload in inputs.WORKLOADS:
            metrics[workload], tally = run.trace(workload, 1, 0, listed)
            self.assertEqual(tally.failed, 0, tally.reasons)
        for row in design["layer_map"]:
            for workload in row["workloads"]:
                for name in row["metrics"]:
                    self.assertGreater(metrics[workload][name], 0, f"{name} on {workload}")


if __name__ == "__main__":
    unittest.main()
