"""Quick self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. The clt reference formulas reproduce the coin-flip fixtures (n=2,
   order 4, moments 0,1,0,1): tensor 8, free 6, boolean 4, monotone 5,
   anti-monotone 5.
2. On every workload, one op checks clean, and corrupting one result inside
   the check (never in the program) makes the op a reported failure.

Exits 0 when every case holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import run
from oracles import CLT_FORMULAS
from workloads import WORKLOADS

COIN = [Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(1)]
COIN_FIXTURES = {"tensor": 8, "free": 6, "boolean": 4, "monotone": 5, "antimonotone": 5}


def _free_sweep_perturbations(values):
    bumped = list(values)
    bumped[123] += 1
    return {"one value off by 1": bumped}


def _law_check_perturbations(output):
    laws, controls, sweeps = output
    return {
        "a law that must hold reports a failure": ([(1, 1)] + laws[1:], controls, sweeps),
        "a negative control reports no failure": (laws, [(1, 0)] + controls[1:], sweeps),
        "a reduction sweep checked no word": (laws, controls, [(0, 0)] + sweeps[1:]),
    }


def _clt_sums_perturbations(outputs):
    code, out, err = outputs[1]
    first, _, rest = out.partition("\n")
    wrong = (code, "%s\n%s" % (Fraction(first) + 1, rest), err)
    return {"one printed moment off by 1": [outputs[0], wrong] + outputs[2:]}


PERTURBATIONS = {
    "free-sweep": _free_sweep_perturbations,
    "law-check": _law_check_perturbations,
    "clt-sums": _clt_sums_perturbations,
}


def _failures_reported(workload, seed, corrupted=None):
    """Run one op through the benchmark's own loop, with its check handed
    ``corrupted`` in place of the op's output when one is given; return how
    many ops the loop reports as failed."""
    check = workload.check
    if corrupted is not None:
        workload.check = lambda op_seed, _: check(op_seed, corrupted)
    try:
        return run.run(workload, [seed], None)[1]
    finally:
        workload.check = check


def main():
    problems = []
    for kind, expected in COIN_FIXTURES.items():
        got = CLT_FORMULAS[kind](COIN, 2, 4)
        if got != expected:
            problems.append("coin fixture %s: formula gives %s, fixture %s" % (kind, got, expected))

    sys.path.insert(0, run.SRC)
    for name, workload_class in WORKLOADS.items():
        workload = workload_class()
        workload.setup()
        seed = workload.seeds[0]
        if _failures_reported(workload, seed):
            problems.append("%s: the unperturbed op is reported as failed" % name)
        output = workload.run_op(seed)
        for label, corrupted in PERTURBATIONS[name](output).items():
            if _failures_reported(workload, seed, corrupted) != 1:
                problems.append("%s: %s, yet the op is not reported as failed" % (name, label))
            else:
                print("ok  %s: %s -> reported failure" % (name, label))

    for problem in problems:
        print("FAIL", problem)
    print("selftest: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
