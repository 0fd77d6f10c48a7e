"""Command-line interface.

Subcommands:

* ``eval`` - evaluate an expression under a chosen product.
* ``check`` - run an axiom suite, or ``check reduction`` for reduction sweeps.
* ``clt`` - moments of normalized sums of independent identical variables.
* ``classical independence`` - decide independence of two finite variables.
* ``state unitize`` - adjoin a unit to a non-unital state document.

Exact rationals are the wire truth; decimal renderings are advisory.
Two bounds refuse work before it starts: ``CLT_WORK_BUDGET`` caps ``clt``
and ``check`` jobs, and ``MAX_FREE_RUNS`` (importable from
``ncindep.products`` only) caps the runs of letters from one factor in a
word that a free product values, so ``eval`` exits 2 on a longer one.
Errors leave a single-line JSON object {code, message, context} on stderr.
Exit codes: 0 success or expected outcome, 1 assertion failure, 2 usage or
parse error, 3 degree or regime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import AlgebraSignature
from .axioms import MAX_WORD_LEN, Axiom, check_word_len, expected_outcome, run_axiom_suite
from .classical import independence_equivalence, load_space, load_variable
from .errors import DegreeExceeded, ExpressionError, RegimeMismatch, StateDocumentError
from .moments import MomentFunctional, dump_state, load_state, unitize
from .parsing import format_word, parse_expression
from .products import JointFunctional, _rule, _sum_runs, parse_kind_label
from .rational import (
    as_rational,
    decimal_rendering,
    format_rational,
    parse_rational,
)
from .reductions import ReductionKind, reduction_sweep


# ``clt`` is charged n * (order^3 + 100) integer steps, the cost of
# transforming every summand apart.  The n copies are one run, read once
# and composed in O(log n) steps, so the formula over-counts: the largest
# admitted jobs, n = 990,099 at order 1 and n = 12,345 at order 20, take
# under 0.03 s and no more memory than n = 3 (Python 3.11).
# ``check`` values about 4^max_len words per trial.  Larger jobs are
# refused before any summand or state is built.
CLT_WORK_BUDGET = 10**8
_CLT_SUMMAND_STEPS = 100


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every
    :func:`main` call: parsing leaves no state on it."""
    parser = _Parser(prog="ncindep", description=__doc__.splitlines()[0])
    parser.set_defaults(run=None)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_eval = sub.add_parser("eval", help="evaluate an expression under a product")
    p_eval.add_argument("--product", required=True, help="tensor|free|boolean|monotone|antimonotone|degenerate|fermi|q:<base>:<q>")
    p_eval.add_argument("--state", required=True, nargs="+", help="state document files, one per factor")
    p_eval.add_argument("--expr", required=True, help="expression over Algebra.generator letters")
    p_eval.set_defaults(run=_cmd_eval)

    p_check = sub.add_parser("check", help="run an axiom suite or reduction sweep")
    p_check.add_argument("target", nargs="?", choices=["reduction"], help="'reduction' for reduction sweeps; omit for axiom checks")
    p_check.add_argument("--axiom", help="associativity|unitlaw|inclusion|functoriality|factorization|symmetry|mirror")
    p_check.add_argument("--product", help="product kind for axiom checks, as for eval")
    p_check.add_argument("--kind", help="fermi|boolean|monotone|antimonotone (reduction sweeps)")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=50)
    p_check.add_argument("--max-len", dest="max_len", type=int, default=None, help="maximum word length, 1 to %d (default 6 for axioms, 5 for reductions)" % MAX_WORD_LEN)
    p_check.set_defaults(run=_cmd_check)

    p_clt = sub.add_parser("clt", help="moments of sums of independent copies")
    p_clt.add_argument("--product", required=True, help="product kind, as for eval; x is odd for fermi")
    p_clt.add_argument("--moments", required=True, help="comma-separated m1,...,mD of one summand")
    p_clt.add_argument("--n", required=True, type=int, help="number of summands")
    p_clt.add_argument("--order", required=True, type=int, help="moment order to compute")
    p_clt.set_defaults(run=_cmd_clt)

    p_classical = sub.add_parser("classical", help="finite classical probability")
    p_classical.add_argument("action", choices=["independence"])
    p_classical.add_argument("--space", required=True, help="probability space JSON file")
    p_classical.add_argument("--x", required=True, help="first variable JSON file")
    p_classical.add_argument("--y", required=True, help="second variable JSON file")
    p_classical.set_defaults(run=_cmd_classical)

    p_state = sub.add_parser("state", help="state document utilities")
    p_state.add_argument("action", choices=["unitize"])
    p_state.add_argument("--state", required=True, help="non-unital state document file")
    p_state.add_argument("--out", help="output file (default: stdout)")
    p_state.set_defaults(run=_cmd_state)

    return parser


def _attach_moments(argv) -> list:
    """Rewrite ``--moments <list>`` as ``--moments=<list>``: argparse reads
    a list that starts with a minus sign, such as ``-1,1``, as an option."""
    argv = list(argv)
    if "--moments" in argv[:-1]:
        at = argv.index("--moments")
        argv[at:at + 2] = ["--moments=" + argv[at + 1]]
    return argv


def _emit_error(code: str, message: str, context: dict) -> None:
    sys.stderr.write(
        json.dumps({"code": code, "message": message, "context": context}, sort_keys=True)
        + "\n"
    )


def _check_work(trials: int, max_len: int) -> None:
    """Refuse a check whose trials * 4^max_len exceeds the budget."""
    check_word_len(max_len)
    work = trials * 4**max_len
    if work > CLT_WORK_BUDGET:
        raise ValueError(
            "check work trials * 4^max_len = %d (trials=%d, max-len=%d) exceeds the budget of %d"
            % (work, trials, max_len, CLT_WORK_BUDGET)
        )


def _cmd_eval(args) -> int:
    states = [load_state(path) for path in args.state]
    kind = parse_kind_label(args.product)
    polynomial = parse_expression(args.expr, [phi.algebra for phi in states])
    total = JointFunctional(states, kind).evaluate_polynomial(polynomial)
    print(format_rational(total))
    print("~ %s" % decimal_rendering(total))
    return 0


def _cmd_check(args) -> int:
    if args.target == "reduction":
        if not args.kind:
            raise ValueError("check reduction needs --kind")
        try:
            kind = ReductionKind(args.kind.strip().lower())
        except ValueError:
            raise ValueError("unknown reduction kind %r" % args.kind) from None
        max_len = 5 if args.max_len is None else args.max_len
        _check_work(args.trials, max_len)
        checked, failures = reduction_sweep(kind, args.seed, args.trials, max_len)
        print(
            "reduction=%s seed=%d trials=%d max-len=%d checked=%d failures=%d"
            % (kind.value, args.seed, args.trials, max_len, checked, len(failures))
        )
        for _, word, check in failures[:3]:
            print(
                "witness: word=%s lhs=%s rhs=%s"
                % (format_word(word), format_rational(check.lhs), format_rational(check.rhs))
            )
        if failures:
            _emit_error(
                "mismatch",
                "reduction verification failed",
                {"kind": kind.value, "failures": len(failures)},
            )
            return 1
        return 0
    if not args.axiom or not args.product:
        raise ValueError("check needs --axiom and --product (or the 'reduction' target)")
    try:
        axiom = Axiom(args.axiom.strip().lower())
    except ValueError:
        raise ValueError("unknown axiom %r" % args.axiom) from None
    kind = parse_kind_label(args.product)
    max_len = 6 if args.max_len is None else args.max_len
    _check_work(args.trials, max_len)
    report = run_axiom_suite(axiom, kind, args.seed, args.trials, max_len)
    for line in report.lines():
        print(line)
    if not report.checked:
        raise ValueError("the check compared no words")
    expected = expected_outcome(axiom, kind)
    as_expected = report.passed == expected
    print(
        "expected=%s observed=%s verdict=%s"
        % (
            "pass" if expected else "fail",
            "pass" if report.passed else "fail",
            "ok" if as_expected else "unexpected",
        )
    )
    if as_expected:
        return 0
    _emit_error(
        "mismatch",
        "axiom outcome differs from the documented expectation",
        {"axiom": axiom.value, "product": args.product, "failures": len(report.failures)},
    )
    return 1


def _cmd_clt(args) -> int:
    kind = parse_kind_label(args.product)
    try:
        moments = [parse_rational(piece) for piece in args.moments.split(",")]
    except ValueError as exc:
        raise ValueError("bad --moments list: %s" % exc) from None
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    if args.order < 1:
        raise ValueError("--order must be at least 1")
    work = args.n * (args.order**3 + _CLT_SUMMAND_STEPS)
    if work > CLT_WORK_BUDGET:
        raise ValueError(
            "clt work n * (order^3 + %d) = %d (n=%d, order=%d) exceeds the budget of %d"
            % (_CLT_SUMMAND_STEPS, work, args.n, args.order, CLT_WORK_BUDGET)
        )
    # one non-unital generator, odd for a graded kind: x, xx, xxx, ... is
    # the canonical order, and parse_rational has checked every value
    signature = AlgebraSignature.make("X", (("x", int(_rule(kind).graded)),), unital=False)
    phi = MomentFunctional._from_dense(signature, len(moments), moments)
    total = _sum_runs(kind, [((phi, "x"), args.n)], args.order)  # one run of n copies
    print(format_rational(total))
    if args.order % 2 == 0:
        normalized = total / as_rational(args.n) ** (args.order // 2)
        print("normalized: %s" % format_rational(normalized))
    return 0


def _cmd_classical(args) -> int:
    space = load_space(args.space)
    x = load_variable(args.x, space)
    y = load_variable(args.y, space)
    verdict = independence_equivalence(x, y)
    print("atomwise: %s" % ("true" if verdict.atomwise else "false"))
    print("jointfactor: %s" % ("true" if verdict.jointfactor else "false"))
    if verdict.atomwise != verdict.jointfactor:
        _emit_error(
            "mismatch",
            "the two independence criteria disagree",
            {"atomwise": verdict.atomwise, "jointfactor": verdict.jointfactor},
        )
        return 1
    return 0


def _cmd_state(args) -> int:
    phi = load_state(args.state)
    enlarged = unitize(phi)
    text = dump_state(enlarged, args.out)
    if args.out is None:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_moments(sys.argv[1:] if argv is None else argv))
        if args.run is None:
            raise ValueError("a subcommand is required (eval, check, clt, classical, state)")
        return args.run(args)
    except ExpressionError as exc:
        _emit_error("expression", str(exc), {"offset": exc.offset})
        return 2
    except StateDocumentError as exc:
        _emit_error("document", str(exc), {})
        return 2
    except OSError as exc:
        # a missing file, or one that cannot be read or written, such as a directory
        message = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        _emit_error("document", "%s: %s" % (message, exc.filename), {"path": str(exc.filename)})
        return 2
    except DegreeExceeded as exc:
        _emit_error("degree", str(exc), {"max_degree": exc.max_degree})
        return 3
    except RegimeMismatch as exc:
        _emit_error("regime", str(exc), {})
        return 3
    except ValueError as exc:
        _emit_error("usage", str(exc), {})
        return 2


if __name__ == "__main__":
    sys.exit(main())
