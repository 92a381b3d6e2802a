"""Seeded op streams for the three workloads.

Every op carries the document the program sees and the answer the
benchmark expects, worked out with :mod:`reference` while the op is built,
outside any timed region.  ``stream(workload, seed)`` yields the same ops
for the same seed.

Ops come in fixed blocks, shuffled inside each block, so every run has the
same mix whatever its seed; the seed changes the tables, degrees and
families, not the shares.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import reference as R

WORKLOADS = ("numeric-batch", "symbolic-families", "cli-oneshot")

# The slots of one block.  A 50/50 split of surfaces (~20 ms) and 3-folds
# (~60 ms) would put the median latency in the gap between the two
# clusters, where it jumps from run to run, so 3-folds get the larger share.
BLOCKS = {
    "numeric-batch": ["surface"] * 2 + ["threefold"] * 3,
    "symbolic-families": (
        ["surface/generic", "surface/smooth"] + ["surface/parametric"] * 2
        + ["threefold/generic", "threefold/smooth"] + ["threefold/parametric"] * 4
    ),
    "cli-oneshot": (
        ["surface"] * 6 + ["threefold"] * 10 + ["invert", "preset", "derive", "verify"]
    ),
}

POINTS_PER_OP = 2


@dataclass
class Op:
    """One unit of work: what to run, and what the answer must be."""

    kind: str  # "surface" | "threefold" | CLI command
    family: str  # where the input came from
    payload: object  # input document, or {"argv", "stdin"} for a process
    expect: object  # reference values, or (point, values) pairs


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-60, 60), rng.randint(1, 9))


def _wide_degree(rng: random.Random) -> int:
    """Degrees from 1 up to 10^12, spread over every order of magnitude."""
    return rng.randint(1, 10 ** rng.randint(1, 12))


def surface_tuple(rng: random.Random) -> tuple:
    """Seeded (d, eps0, C, T) whose table passes every report check."""
    while True:
        d = rng.randint(3, 60)
        eps0 = rng.randint(0, d * (d - 1) // 4)
        T = rng.randint(0, eps0 // 3)
        C = 2 * rng.randint(0, eps0)
        xi = R.surface_table(d, eps0, C, T)
        chars = R.surface_characters(xi)
        if R.report_passes("surface", chars):
            return dict(zip(R.SURFACE_CHARACTER_KEYS, (d, eps0, C, T))), xi, chars


def threefold_tuple(rng: random.Random) -> tuple:
    """Seeded (d, mu0, t, q, s_t, gamma, chi_C) passing every report check."""
    while True:
        d = rng.randint(5, 40)
        mu0 = rng.randint(0, d * (d - 1) // 6)
        t = rng.randint(0, mu0)
        q = rng.randint(0, t // 2)
        s_t = 2 * rng.randint(0, mu0)
        gamma = rng.randint(0, mu0)
        chi_C = 2 * rng.randint(-gamma, gamma)
        basic = (d, mu0, t, q, s_t, gamma, chi_C)
        xi = R.threefold_table(*basic)
        chars = R.threefold_characters(xi)
        if R.report_passes("threefold", chars):
            return dict(zip(R.THREEFOLD_CHARACTER_KEYS, basic)), xi, chars


def numeric_table(rng: random.Random, kind: str) -> tuple:
    """(family, table): seeded characters, a smooth hypersurface or a Veronese."""
    m = 2 if kind == "surface" else 3
    draw = rng.random()
    if draw < 0.5:
        _, xi, _ = (surface_tuple if m == 2 else threefold_tuple)(rng)
        return "characters", xi
    if draw < 0.9:
        return "smooth", R.hypersurface_table(m, _wide_degree(rng))
    return ("roman" if m == 2 else "veronese"), R.veronese_table(m)


def numeric_op(rng: random.Random, kind: str) -> Op:
    family, xi = numeric_table(rng, kind)
    doc = {"kind": kind, "chern_data": {k: str(v) for k, v in xi.items()}}
    return Op(kind, family, doc, R.characters(kind, xi))


def symbolic_op(rng: random.Random, kind: str, family: str) -> Op:
    """A symbolic context and the values its characters take at seeded points."""
    m = 2 if kind == "surface" else 3
    keys = R.keys_for(kind)
    checks = []
    if family == "generic":
        doc = {"kind": kind, "family": family, "chern_data": "symbolic"}
        for _ in range(POINTS_PER_OP):
            point = {k: _rational(rng) for k in keys}
            checks.append((point, R.characters(kind, point)))
    elif family == "smooth":
        doc = {"kind": kind, "family": family, "preset": f"smooth-{kind}"}
        for _ in range(POINTS_PER_OP):
            point = {"d": _rational(rng)}
            checks.append((point, R.characters(kind, R.hypersurface_table(m, point["d"]))))
    else:
        # every entry an integer polynomial of degree <= 3 in d; the degree
        # entry is never constant, so the context stays symbolic
        coeffs = {}
        for k in keys:
            top = rng.randint(1, 3) if k == "d" else rng.randint(0, 3)
            cs = [rng.randint(-9, 9) for _ in range(top)] + [rng.choice([-1, 1]) * rng.randint(1, 9)]
            coeffs[k] = cs
        doc = {"kind": kind, "family": family,
               "chern_data": {k: R.render_polynomial(cs) for k, cs in coeffs.items()}}
        for _ in range(POINTS_PER_OP):
            x = _rational(rng)
            table = {k: R.polynomial_value(cs, x) for k, cs in coeffs.items()}
            checks.append(({"d": x}, R.characters(kind, table)))
    return Op(kind, family, doc, checks)


def cli_op(rng: random.Random, command: str) -> Op:
    """One ``charclass`` process: its arguments, stdin and expected answer."""
    if command in ("surface", "threefold"):
        op = numeric_op(rng, command)
        payload = {"argv": [command, "--json"], "stdin": json.dumps(op.payload)}
        return Op(command, op.family, payload, op.expect)
    if command == "invert":
        kind = rng.choice(["surface", "threefold"])
        basic, xi, _ = (surface_tuple if kind == "surface" else threefold_tuple)(rng)
        doc = {"kind": kind, "characters": {k: str(v) for k, v in basic.items()}}
        payload = {"argv": ["invert", "--kind", kind, "--json"], "stdin": json.dumps(doc)}
        return Op(command, kind, payload, xi)
    if command == "preset":
        degree = _wide_degree(rng)
        payload = {"argv": ["preset", "smooth-threefold", "--degree", str(degree)], "stdin": ""}
        return Op(command, "smooth-threefold", payload, R.hypersurface_table(3, degree))
    if command == "derive":
        payload = {"argv": ["derive", "--kind", "threefold", "--character", "m2"], "stdin": ""}
        points = []
        for _ in range(POINTS_PER_OP):
            point = {k: _rational(rng) for k in R.THREEFOLD_KEYS}
            points.append((point, R.threefold_characters(point)["m2"]))
        return Op(command, "m2", payload, points)
    if command == "verify":
        return Op(command, "all", {"argv": ["verify", "--suite", "all"], "stdin": ""}, None)
    raise ValueError(f"unknown command {command!r}")


def _make(rng: random.Random, workload: str, slot: str) -> Op:
    if workload == "numeric-batch":
        return numeric_op(rng, slot)
    if workload == "symbolic-families":
        kind, family = slot.split("/")
        return symbolic_op(rng, kind, family)
    return cli_op(rng, slot)


def stream(workload: str, seed: int, tag: str = "run"):
    """Endless, deterministic op sequence for one workload and seed."""
    if workload not in BLOCKS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{tag}/{seed}")
    while True:
        block = [_make(rng, workload, slot) for slot in BLOCKS[workload]]
        rng.shuffle(block)
        yield from block


def take(workload: str, seed: int, count: int, tag: str = "run") -> list:
    ops = stream(workload, seed, tag)
    return [next(ops) for _ in range(count)]
