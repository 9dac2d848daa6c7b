"""The three workloads: inputs made from a seed, one operation, its check.

Every workload is a fixed list of operations (a round).  ``run`` performs one
operation the way the ``balg`` command line does and returns its output;
``check`` tests that output with the independent checks in ``checks``.
All ``balg`` functions are reached through module attributes at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from pathlib import Path

import checks

BALG_MODULES = ("algebra", "free_product", "places", "tensor", "bands", "certificates",
                "validation", "expr", "config", "suites")


class Balg:
    """The balg modules of one import."""

    def __init__(self, src: Path):
        for name in [m for m in sys.modules if m == "balg" or m.startswith("balg.")]:
            del sys.modules[name]
        package = importlib.import_module("balg")
        where = Path(package.__file__).resolve().parent
        if where != (src / "balg").resolve():
            raise ImportError(f"balg imported from {where}, not from {src}")
        for name in BALG_MODULES:
            setattr(self, name, importlib.import_module(f"balg.{name}"))


def _stratified(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` integers in [lo, hi], one drawn from each of ``count`` equal
    strata, so every seed gets the same spread."""
    width = (hi - lo + 1) / count
    return [lo + int((i + rng.random()) * width) for i in range(count)]


class VerifyDefault:
    """``balg verify`` on configs/default.json, one suite and seed at a time.

    A round runs every suite of the config for each of ``SEEDS`` seeds,
    interleaved.  Rounds repeat, and each report must be byte-identical,
    apart from timings, to the report of the same (suite, seed) in the first
    round.
    """

    name = "verify_default"
    SEEDS = 12
    TRIALS = 15
    TRACED_OPS = 9  # a traced pass covers the first seed's nine suites

    def __init__(self, balg: Balg, root: Path, seed: int):
        self.balg = balg
        text = (root / "configs" / "default.json").read_text(encoding="utf-8")
        balg.config.parse_config(text)
        self.config = json.loads(text)
        rng = random.Random(f"{self.name}:{seed}")
        seeds = [rng.getrandbits(32) for _ in range(self.SEEDS)]
        pairs = [(s, suite) for s in seeds for suite in self.config["suites"]]
        self.inputs = [(suite, s, json.dumps({**self.config, "suites": [suite],
                                              "trials": self.TRIALS, "seed": s}))
                       for s, suite in pairs]
        self._seen: dict[tuple[str, int], str] = {}

    def run(self, item):
        cfg = self.balg.config.parse_config(item[2])
        report = self.balg.suites.run_suites(cfg)
        return json.dumps(report.to_dict(), sort_keys=True, indent=2)

    def check(self, item, output: str) -> None:
        suite, seed, _ = item
        report = json.loads(output)
        checks.check_verify_report(report, suite, self.config,
                                   self.balg.validation.validate_certificate)
        text = checks.timeless(report)
        first = self._seen.setdefault((suite, seed), text)
        if first != text:
            raise checks.CheckFailed(f"{suite} at seed {seed}: repeated report differs")


class CertifyDiagonal:
    """No-supremum chains against the diagonal rectangles of fincof (x) fincof.

    Each start is the unit minus a few off-diagonal points, written as text
    and parsed like ``balg certify --start``; chain lengths are stratified
    over [MIN_STEPS, MAX_STEPS].
    """

    name = "certify_diagonal"
    CHAINS = 100
    MIN_STEPS, MAX_STEPS = 4, 12
    MIN_HOLES, MAX_HOLES = 2, 5
    HOLE_SPAN = 60
    TRACED_OPS = 40  # a traced pass covers the first 40 chains

    def __init__(self, balg: Balg, root: Path, seed: int):
        self.balg = balg
        fc = balg.algebra.finite_cofinite()
        self.fp = balg.free_product.FreeProduct(fc, fc)
        self.family = balg.certificates.DIAGONAL_FAMILY
        rng = random.Random(f"{self.name}:{seed}")
        lengths = _stratified(rng, self.CHAINS, self.MIN_STEPS, self.MAX_STEPS)
        span = self.MAX_HOLES - self.MIN_HOLES + 1
        self.inputs = []
        for i, length in enumerate(lengths):
            # distinct coordinates, so every hole adds one cell to each axis
            coords = rng.sample(range(self.HOLE_SPAN), 2 * (self.MIN_HOLES + i % span))
            holes = sorted(zip(coords[::2], coords[1::2]))
            text = " & ".join(["1"] + [f"!rect(fin{{{p}}},fin{{{q}}})" for p, q in holes])
            self.inputs.append((holes, length, text))
        rng.shuffle(self.inputs)

    def run(self, item):
        _, length, text = item
        b = self.balg
        start = b.expr.parse_element(self.fp, text)
        cert = b.certificates.no_supremum_certificate(self.family, start, steps=length)
        payload = cert.to_dict()
        return payload, b.validation.validate_certificate(payload)

    def check(self, item, output) -> None:
        holes, length, _ = item
        payload, validated = output
        checks.check_validation(validated, length)
        checks.check_diagonal_chain(holes, length, payload)


class CertifyEvens:
    """No-supremum chains against the even singletons of fincof.

    Each start is ``cof`` of a seeded set of odd naturals; chain lengths are
    stratified over [MIN_STEPS, MAX_STEPS].
    """

    name = "certify_evens"
    CHAINS = 100
    MIN_STEPS, MAX_STEPS = 24, 72
    MIN_EXCLUDED, MAX_EXCLUDED = 2, 8
    TRACED_OPS = None

    def __init__(self, balg: Balg, root: Path, seed: int):
        self.balg = balg
        self.fc = balg.algebra.finite_cofinite()
        self.family = balg.certificates.EVENS_FAMILY
        rng = random.Random(f"{self.name}:{seed}")
        lengths = _stratified(rng, self.CHAINS, self.MIN_STEPS, self.MAX_STEPS)
        span = self.MAX_EXCLUDED - self.MIN_EXCLUDED + 1
        self.inputs = []
        for i, length in enumerate(lengths):
            odds = range(1, 2 * length, 2)
            start = frozenset(rng.sample(odds, self.MIN_EXCLUDED + i % span))
            text = "cof{" + ",".join(str(n) for n in sorted(start)) + "}"
            self.inputs.append((start, length, text))
        rng.shuffle(self.inputs)

    def run(self, item):
        _, length, text = item
        b = self.balg
        start = b.expr.parse_element(self.fc, text)
        cert = b.certificates.no_supremum_certificate(self.family, start, steps=length)
        payload = cert.to_dict()
        return payload, b.validation.validate_certificate(payload)

    def check(self, item, output) -> None:
        start, length, _ = item
        payload, validated = output
        checks.check_validation(validated, length)
        checks.check_evens_chain(start, length, payload)


WORKLOADS = {w.name: w for w in (VerifyDefault, CertifyDiagonal, CertifyEvens)}
