"""Command-line surface.

Verdicts print as HOLDS (proven), FAILS with a witness that reproduces the
failure, or UNKNOWN (a sweep or a sample passed; the detail names which).
Exit codes: 0 for success, HOLDS or UNKNOWN, 1 for FAILS (witness
printed), 2 for usage or parse errors.  `restricted` is HOLDS only when
proven: by existence for every relation, or by a connector with exponent 0,
which reaches 1 only on pairs (i, 1): always for a weak check, and for a
strong one when the pair's divisor intervals meet at every w; a clean
raster alone is UNKNOWN.  `audit` samples FP6 quadruples above 21
elements and takes --seed for that, 0 by default; identical seeds give
identical reports, and a sampled FP6 pass prints as a pass naming its
sample.  `tables --seed` is accepted and range-checked but has no effect:
no rule check is sampled.  `check-norm --grid-step` lies in [1/2000, 1],
the finest grid `region` and `restricted` take too.  `divisors` prints the
one- or zero-interval at --w of each operator given, and with both
--conorm and --norm also strong existence and uniqueness; one operator
alone needs --w.  Relation files and `custom:table=` operator tables are
read by `relations`, and each of their errors starts with the file's path.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .families import _shortest
from .operators import BinaryOp, Kind, _count, _number, check_norm_axioms, parse_op_spec
from .divisors import existence, intersection, one_interval, uniqueness, zero_interval
from .decompose import DecompositionError, canonical_decompose, strong_decompose
from .preferences import (
    RuleClass,
    audit_fp,
    classify_rule,
    triplet_from_decomposition,
)
from .regions import restricted_decomposability, strong_region, weak_region
from .relations import load_operator_table, load_relation, write_relation
from .tables import (
    diff_against_reference,
    generate_table1,
    generate_table2,
    oracle_evidence_for_open_cells,
    render_table,
)
from .verdicts import Verdict

USAGE_ERROR = 2
FAIL = 1
OK = 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; keep message on stderr
        self.exit(USAGE_ERROR, f"error: {message}\n")


def _positive_int(text: str) -> int:
    value = _count(text)
    if not value:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _integer(text: str) -> int:
    """ASCII digits, '-' allowed in front."""
    if _count(text.removeprefix("-")) is None:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _real(text: str) -> float:
    value = _number(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    return value


def _seed(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def _load_op(spec: str, kind: Kind) -> BinaryOp:
    if not spec.strip().lower().startswith("custom"):
        return parse_op_spec(spec, kind)
    head, table, path = spec.strip().partition(":table=")
    if head.lower() != "custom" or not table:
        raise ValueError("custom operators need a table: custom:table=<path>")
    return load_operator_table(path, kind)


# ---------------------------------------------------------------------------
# subcommands


def _operators(args) -> tuple:
    """(S, T) of --conorm and --norm, None for one not given."""
    S = _load_op(args.conorm, Kind.CONORM) if args.conorm else None
    T = _load_op(args.norm, Kind.NORM) if args.norm else None
    return S, T


def _title(S: BinaryOp, T) -> str:
    return S.display_name + (f" / {T.display_name}" if T is not None else "")


def _decomposed(args) -> tuple:
    """The relation of --relation, its canonical decomposition (strong when
    --norm is given) and the operators (S, T)."""
    R = load_relation(args.relation)
    S, T = _operators(args)
    d = strong_decompose(R, T, S) if T is not None else canonical_decompose(R, S)
    return R, d, S, T


def _cmd_decompose(args) -> bool:
    _, d, S, T = _decomposed(args)
    print(f"# canonical {'strong' if T is not None else 'weak'} decomposition under {_title(S, T)}")
    for title, part in (("# strict part P", d.strict), ("# indifference part I", d.indifference)):
        print(title)
        write_relation(part, sys.stdout)
    print(f"# verification: {d.verification}")
    return d.verification.verdict is Verdict.HOLDS


def _cmd_audit(args) -> bool:
    R, d, S, _ = _decomposed(args)
    report = audit_fp(triplet_from_decomposition(R, d), seed=_seed(args))
    print(f"# preference audit of the canonical decomposition under {S.display_name}")
    print(report)
    return report.overall


def _cmd_classify(args) -> bool:
    S, T = _operators(args)
    result = classify_rule(S, T)
    print(f"# {'strong' if T is not None else 'weak'} decomposition rule for {S.display_name}"
          + (f" with {T.display_name}" if T else ""))
    print(result)
    if args.speculate and result.verdict is RuleClass.UNDETERMINED and result.oracle_verdict:
        print(
            "# oracle evidence (NOT authoritative; the reference classification "
            f"leaves this cell open): {result.oracle_verdict.value}"
        )
    return result.verdict is not RuleClass.NOT_COMPATIBLE


def _cmd_check_norm(args) -> bool:
    op = _load_op(args.op, Kind.NORM if args.kind == "norm" else Kind.CONORM)
    verdict = check_norm_axioms(op, args.grid_step)
    print(f"# axiom check for {op.display_name} as a {args.kind}")
    print(verdict)
    return verdict.verdict is not Verdict.FAILS


def _cmd_divisors(args) -> bool:
    S, T = _operators(args)
    if S is None and T is None:
        raise ValueError("give at least one of --conorm / --norm")
    if (S is None or T is None) and args.w is None:
        raise ValueError(f"--{'conorm' if T is None else 'norm'} alone needs --w")
    if args.w is not None:
        at = f"at w={_shortest(args.w)}"
        if S is not None:
            print(f"one-interval of {S.display_name} {at}: {one_interval(S, args.w)}")
        if T is not None:
            print(f"zero-interval of {T.display_name} {at}: {zero_interval(T, args.w)}")
        if S is not None and T is not None:
            print(f"intersection {at}: {intersection(T, S, args.w)}")
    verdicts = {"existence": existence(S, T), "uniqueness": uniqueness(S, T)} if S and T else {}
    for what, verdict in verdicts.items():
        print(f"strong {what} for every relation: {verdict}")
    return all(v.verdict is not Verdict.FAILS for v in verdicts.values())


def _cmd_region(args) -> bool:
    S, T = _operators(args)
    res = 1.0 / args.resolution
    grid = weak_region(S, res) if T is None else strong_region(T, S, res)
    grid.save_csv(args.out)
    count = int(grid.membership.sum())
    total = grid.membership.size
    print(f"# {'weak' if T is None else 'strong'} region for {_title(S, T)}")
    print(f"wrote {args.out}: {count}/{total} decomposable cells at resolution 1/{args.resolution}")
    return True


def _cmd_restricted(args) -> bool:
    S_prime = _load_op(args.connected_by, Kind.CONORM)
    S, T = _operators(args)
    verdict = restricted_decomposability(S_prime, S, T, 1.0 / args.resolution)
    print(f"# do all {S_prime.display_name}-connected relations decompose under {_title(S, T)}?")
    print(verdict)
    return verdict.verdict is not Verdict.FAILS


def _cmd_tables(args) -> bool:
    _seed(args)  # range-checked only: nothing in the tables is sampled
    cells = generate_table1() if args.which == 1 else generate_table2()
    print(render_table(cells, args.format), end="")
    mismatches = diff_against_reference(cells, args.which)
    print(f"{len(mismatches)} mismatches against the reference table")
    for m in mismatches:
        print(f"  {m}")
    if args.which == 2 and args.speculate:
        print("# oracle evidence for open cells (NOT authoritative):")
        for line in oracle_evidence_for_open_cells():
            print(f"  {line}")
    return not mismatches


# ---------------------------------------------------------------------------
# argument wiring


def _operands(*first: str, conorm_required: bool = True) -> argparse.ArgumentParser:
    """A parent parser for subcommands: the required options ``first``, then --conorm and --norm."""
    p = argparse.ArgumentParser(add_help=False)
    for flag in first:
        p.add_argument(flag, required=True)
    p.add_argument("--conorm", required=conorm_required)
    p.add_argument("--norm")
    return p


@functools.cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built once per process: parsing keeps
    no state in it, and ``main`` may run many times in one process."""
    p = _Parser(prog="fuzzdec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    relation, pair = _operands("--relation"), _operands()

    sp = sub.add_parser("decompose", help="decompose a relation file", parents=[relation])
    sp.set_defaults(fn=_cmd_decompose)

    sp = sub.add_parser("audit", help="audit the canonical decomposition as a preference", parents=[relation])
    sp.add_argument("--seed", type=_integer, default=0, help="seed of the FP6 sample above 21 elements")
    sp.set_defaults(fn=_cmd_audit)

    sp = sub.add_parser("classify", help="classify the canonical decomposition rule", parents=[pair])
    sp.add_argument("--speculate", action="store_true")
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("check-norm", help="check the defining axioms of an operator")
    sp.add_argument("--op", required=True)
    sp.add_argument("--kind", choices=["norm", "conorm"], required=True)
    sp.add_argument("--grid-step", type=_real, default=0.01, dest="grid_step")
    sp.set_defaults(fn=_cmd_check_norm)

    sp = sub.add_parser("divisors", help="divisor intervals and existence/uniqueness",
                        parents=[_operands(conorm_required=False)])
    sp.add_argument("--w", type=_real)
    sp.set_defaults(fn=_cmd_divisors)

    sp = sub.add_parser("region", help="rasterise a decomposability region to CSV", parents=[pair])
    sp.add_argument("--resolution", type=_positive_int, default=200, help="cells per axis (1/n grid)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_region)

    sp = sub.add_parser("restricted", help="decomposability on connected relations",
                        parents=[_operands("--connected-by")])
    sp.add_argument("--resolution", type=_positive_int, default=200)
    sp.set_defaults(fn=_cmd_restricted)

    sp = sub.add_parser("tables", help="regenerate the reference tables and diff them")
    sp.add_argument("--which", type=_integer, choices=[1, 2], required=True)
    sp.add_argument("--format", choices=["text", "csv"], default="text")
    sp.add_argument("--speculate", action="store_true")
    sp.add_argument("--seed", type=_integer, default=0, help="accepted and range-checked; has no effect")
    sp.set_defaults(fn=_cmd_tables)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return OK if args.fn(args) else FAIL
    except (ValueError, OSError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
