"""The benchmark's workloads.

A workload is set up once per run (``setup``), then runs whole rounds over
a fixed list of op seeds.  Every op of a workload has the same shape; only
its seed changes.  ``run_op`` does the timed work and returns its output;
``check`` compares that output with routes written apart from the
evaluators (``oracles``) and returns a list of problems, empty when the op
is correct.

Inputs depend only on the op seeds below, never on the clock.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import math
import random
import sys
from fractions import Fraction

import oracles

NAMED = ("tensor", "free", "boolean", "monotone", "antimonotone")


def import_ncindep():
    """Import ncindep afresh (dropping any copy already loaded), so that
    every set-up repetition pays for the import.  ``ncindep.cli`` is not
    imported by the package; it is loaded here so that every workload
    pays the same import and tracing finds every module to wrap."""
    for name in [n for n in sys.modules if n == "ncindep" or n.startswith("ncindep.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("ncindep")
    importlib.import_module("ncindep.cli")
    return package


class FreeSweep:
    """One op: a seeded pair of unital two-generator states of degree 6,
    a fresh FREE JointFunctional, and every one of the 5,460 normal-form
    words of up to six letters."""

    name = "free-sweep"
    seeds = tuple(range(41_000, 41_010))
    min_ops = 40
    degree = 6
    word_count = 5460

    def setup(self):
        nc = import_ncindep()
        self.nc = nc
        first = nc.AlgebraSignature("A1", True, (("a", 0), ("b", 0)))
        second = nc.AlgebraSignature("A2", True, (("x", 0), ("y", 0)))
        self.words = list(nc.enumerate_words((first, second), self.degree))
        # the check route works on bare (factor, letters) tuples
        self.word_letters = [
            tuple((f, m.letters) for f, m in word.blocks) for word in self.words
        ]
        self.states = {}
        self.tables = {}
        self.expected = {}
        for seed in self.seeds:
            rng = random.Random(seed)
            pair = (
                nc.gen_random_state(first, self.degree, rng),
                nc.gen_random_state(second, self.degree, rng),
            )
            self.states[seed] = pair
            self.tables[seed] = tuple(
                {m.letters: Fraction(v) for m, v in phi.table.items()} for phi in pair
            )

    def run_op(self, seed):
        joint = self.nc.JointFunctional(self.states[seed], self.nc.ProductKind.FREE)
        evaluate = joint.evaluate
        return [evaluate(word) for word in self.words]

    def reference(self, seed):
        """Oracle values for the seed's words, and the words of <= 4 blocks
        on which the oracle and the closed forms disagree; made at the
        seed's first check and kept for its later ops."""
        cached = self.expected.get(seed)
        if cached is None:
            cached = self.expected[seed] = self._reference(seed)
        return cached

    def _reference(self, seed):
        phi1, phi2 = self.states[seed]
        oracle = self.nc.free_centering_oracle
        cache = {}
        values = [oracle(phi1, phi2, word, cache) for word in self.words]
        disagreements = []
        for word, letters, value in zip(self.words, self.word_letters, values):
            closed = oracles.free_closed_form(letters, self.tables[seed])
            if closed is not None and value != closed:
                disagreements.append("%r: oracle %s, closed form %s" % (word, value, closed))
        return values, disagreements

    def check(self, seed, values):
        if len(values) != self.word_count or len(self.words) != self.word_count:
            return ["expected %d values, got %d" % (self.word_count, len(values))]
        expected, disagreements = self.reference(seed)
        return disagreements + [
            "%r: %s, oracle %s" % (word, value, oracle_value)
            for word, value, oracle_value in zip(self.words, values, expected)
            if value != oracle_value
        ]


class LawCheck:
    """One op per seed: functoriality and associativity for the five named
    products at max length 6, three negative controls that must fail, and
    one trial of each of the four reduction sweeps at max length 5."""

    name = "law-check"
    seeds = tuple(range(7_000, 7_010))
    min_ops = 40
    positive_axioms = ("functoriality", "associativity")
    negative = (
        ("factorization", "degenerate"),
        ("factorization", "q:boolean:2"),
        ("symmetry", "monotone"),
    )
    reductions = ("fermi", "boolean", "monotone", "antimonotone")
    law_len = 6
    reduction_len = 5
    # every word of 1..5 letters over the sweeps' four generators
    reduction_words = sum(4**k for k in range(1, reduction_len + 1))

    def setup(self):
        nc = import_ncindep()
        self.nc = nc
        self.positive = [
            (nc.Axiom(axiom), nc.parse_kind_label(kind))
            for kind in NAMED
            for axiom in self.positive_axioms
        ]
        self.controls = [
            (nc.Axiom(axiom), nc.parse_kind_label(kind)) for axiom, kind in self.negative
        ]
        self.kinds = [nc.ReductionKind(kind) for kind in self.reductions]

    def run_op(self, seed):
        """Per law and per control its trial and failure counts, and per
        sweep its word and failure counts: all that the check reads.  The
        failures themselves, each with its states as JSON, are let go here,
        so that ops held for checking add little to the peak."""
        suite = self.nc.run_axiom_suite
        sweep = self.nc.reduction_sweep
        laws = [suite(axiom, kind, seed, 1, self.law_len) for axiom, kind in self.positive]
        controls = [suite(axiom, kind, seed, 1, self.law_len) for axiom, kind in self.controls]
        sweeps = [sweep(kind, seed, 1, self.reduction_len) for kind in self.kinds]
        return (
            [(report.trials, len(report.failures)) for report in laws],
            [(report.trials, len(report.failures)) for report in controls],
            [(checked, len(failures)) for checked, failures in sweeps],
        )

    def check(self, seed, output):
        laws, controls, sweeps = output
        problems = []
        if (len(laws), len(controls), len(sweeps)) != (
                len(self.positive), len(self.controls), len(self.kinds)):
            problems.append("expected %d laws, %d controls and %d sweeps, got %d, %d and %d" % (
                len(self.positive), len(self.controls), len(self.kinds),
                len(laws), len(controls), len(sweeps)))
        for (axiom, kind), (trials, failures) in zip(self.positive, laws):
            if trials != 1 or failures:
                problems.append("%s/%s: trials=%d failures=%d, expected 1 trial and no failures"
                                % (axiom.value, kind, trials, failures))
        for (axiom, kind), (trials, failures) in zip(self.controls, controls):
            if trials != 1 or not failures:
                problems.append("control %s/%s: trials=%d failures=%d, expected 1 trial and failures"
                                % (axiom.value, kind, trials, failures))
        for kind, (checked, failures) in zip(self.kinds, sweeps):
            if checked != self.reduction_words or failures:
                problems.append("reduction %s: checked=%d failures=%d, expected %d and 0"
                                % (kind.value, checked, failures, self.reduction_words))
        return problems


class CltSums:
    """One op: ``ncindep clt`` through ``cli.main`` for six kinds, all with
    the same --n and --order and the op's seeded moment list."""

    name = "clt-sums"
    seeds = tuple(range(3_000, 3_010))
    # twice the 40 a tail needs: more work per run evens out slow spells
    min_ops = 80
    kinds = NAMED + ("fermi",)
    n = 3
    order = 6
    # moments are drawn from p/q with p in -3..3, q in 1..4
    numerators = range(-3, 4)
    denominators = range(1, 5)

    def moments(self, seed, kind):
        rng = random.Random(seed)
        drawn = [Fraction(rng.choice(self.numerators), rng.choice(self.denominators))
                 for _ in range(self.order)]
        if kind == "fermi":  # a graded state must vanish on odd moments
            drawn = [Fraction(0) if k % 2 else value for k, value in enumerate(drawn, 1)]
        return drawn

    def setup(self):
        self.nc = import_ncindep()
        self.argvs = {}
        self.expected = {}
        for seed in self.seeds:
            argvs = []
            for kind in self.kinds:
                moments = self.moments(seed, kind)
                argvs.append([
                    "clt", "--product", kind,
                    "--moments=" + ",".join(str(v) for v in moments),
                    "--n", str(self.n), "--order", str(self.order),
                ])
            self.argvs[seed] = argvs

    def run_op(self, seed):
        main = self.nc.cli.main
        outputs = []
        for argv in self.argvs[seed]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            outputs.append((code, out.getvalue(), err.getvalue()))
        return outputs

    def reference(self, seed):
        cached = self.expected.get(seed)
        if cached is None:
            cached = [
                oracles.CLT_FORMULAS[kind]([Fraction(1)] + self.moments(seed, kind), self.n, self.order)
                for kind in self.kinds
            ]
            self.expected[seed] = cached
        return cached

    def check(self, seed, outputs):
        if len(outputs) != len(self.kinds):
            return ["expected %d clt runs, got %d" % (len(self.kinds), len(outputs))]
        problems = []
        scale = Fraction(self.n) ** (self.order // 2)
        for kind, expected, (code, out, err) in zip(self.kinds, self.reference(seed), outputs):
            wanted = [expected]
            if self.order % 2 == 0:
                wanted.append(expected / scale)
            if code != 0 or err or _printed_values(out) != wanted:
                problems.append("clt %s: exit %s, printed %r, expected %s"
                                % (kind, code, out, " and ".join(map(str, wanted))))
        return problems


def _printed_values(out):
    """The moment and the normalized moment printed by ``ncindep clt``, or
    None when the output does not have that form."""
    lines = out.splitlines()
    if not 1 <= len(lines) <= 2 or (len(lines) == 2 and not lines[1].startswith("normalized: ")):
        return None
    try:
        return [Fraction(lines[0])] + [Fraction(line[len("normalized: "):]) for line in lines[1:]]
    except ValueError:
        return None


WORKLOADS = {w.name: w for w in (FreeSweep, LawCheck, CltSums)}


def rounds_for(workload, seconds):
    """Whole rounds over the seed list, enough for the workload's
    ``min_ops``: the op count of a run of up to 10 seconds.  Every op here
    takes longer than a quarter second, so such a run measures longer than
    ``seconds``; a longer ``seconds`` scales the count in proportion.  The
    count depends on nothing measured, so every run with the same
    ``seconds`` attempts the same ops."""
    wanted = workload.min_ops * max(1.0, seconds / 10)
    return math.ceil(wanted / len(workload.seeds))


def op_order(workload, seed, rounds):
    """The op seeds of a run: ``rounds`` passes over the workload's seed
    list, each starting at the position the run's ``seed`` selects."""
    seeds = workload.seeds
    start = seed % len(seeds)
    rotated = seeds[start:] + seeds[:start]
    return list(itertools.chain.from_iterable(itertools.repeat(rotated, rounds)))
