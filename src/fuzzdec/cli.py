"""Command-line surface.

Exit codes: 0 for success / a holding verdict, 1 for a failing verdict
(witness printed), 2 for usage or parse errors.  Randomised subroutines
take --seed, falling back to the FUZZDEC_SEED environment variable, then 0;
identical seeds give identical reports.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from .operators import (
    BinaryOp,
    Kind,
    check_norm_axioms,
    make_custom,
    parse_op_spec,
)
from .divisors import one_interval, strong_existence, strong_uniqueness, zero_interval
from .decompose import (
    DecompositionError,
    canonical_decompose,
    strong_decompose,
    verify_strong,
    verify_weak,
)
from .preferences import (
    RuleClass,
    audit_fp,
    classify_rule,
    triplet_from_decomposition,
)
from .regions import restricted_decomposability, strong_region, weak_region
from .relations import RelationParseError, format_relation, load_relation
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
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FUZZDEC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(USAGE_ERROR)
    return 0


def _load_op(spec: str, kind: Kind, table_arg: Optional[str]) -> BinaryOp:
    if spec.strip().lower().startswith("custom"):
        path = table_arg
        rest = spec.strip()[len("custom"):]
        if rest.startswith(":table="):
            path = rest[len(":table="):]
        if path is None:
            raise ValueError("custom operators need a table: custom:table=<path>")
        return _table_operator(path, kind)
    return parse_op_spec(spec, kind)


def _table_operator(path: str, kind: Kind) -> BinaryOp:
    """Load a custom operator from a value table over a uniform grid.

    Format: first line ``fuzzop v1``, second line ``grid <n>``, then
    (n+1) rows of (n+1) values giving f(i/n, j/n); evaluation is bilinear
    interpolation between grid nodes.
    """

    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh.read().splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "fuzzop v1":
        raise ValueError(f"{path}: expected header 'fuzzop v1'")
    head = lines[1].split()
    if len(head) != 2 or head[0] != "grid":
        raise ValueError(f"{path}: expected 'grid <n>' on the second line")
    n = int(head[1])
    rows = lines[2:]
    if len(rows) != n + 1:
        raise ValueError(f"{path}: expected {n + 1} rows, found {len(rows)}")
    mat = np.zeros((n + 1, n + 1))
    for r, row_text in enumerate(rows):
        cells = row_text.split()
        if len(cells) != n + 1:
            raise ValueError(f"{path}: row {r + 1} has {len(cells)} entries, expected {n + 1}")
        mat[r] = [float(c) for c in cells]

    def fn(x, y):
        xi = np.clip(np.asarray(x, dtype=float), 0.0, 1.0) * n
        yi = np.clip(np.asarray(y, dtype=float), 0.0, 1.0) * n
        x0 = np.clip(np.floor(xi).astype(int), 0, n - 1)
        y0 = np.clip(np.floor(yi).astype(int), 0, n - 1)
        fx = xi - x0
        fy = yi - y0
        return (
            mat[x0, y0] * (1 - fx) * (1 - fy)
            + mat[x0 + 1, y0] * fx * (1 - fy)
            + mat[x0, y0 + 1] * (1 - fx) * fy
            + mat[x0 + 1, y0 + 1] * fx * fy
        )

    return make_custom(fn, kind)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_decompose(args) -> int:
    R = load_relation(args.relation)
    S = _load_op(args.conorm, Kind.CONORM, None)
    T = parse_op_spec(args.norm, Kind.NORM) if args.norm else None
    mode = args.mode or ("strong" if T is not None else "weak")
    if mode == "strong" and T is None:
        print("error: strong mode needs --norm", file=sys.stderr)
        return USAGE_ERROR
    if mode == "strong":
        d = strong_decompose(R, T, S)
        check = verify_strong(R, d, T)
    else:
        d = canonical_decompose(R, S)
        check = verify_weak(R, d)
    print(f"# canonical {mode} decomposition under {S.display_name}"
          + (f" / {T.display_name}" if mode == "strong" else ""))
    print("# strict part P")
    print(format_relation(d.strict), end="")
    print("# indifference part I")
    print(format_relation(d.indifference), end="")
    print(f"# verification: {check}")
    return OK if check.verdict is Verdict.HOLDS else FAIL


def _cmd_audit(args) -> int:
    R = load_relation(args.relation)
    S = _load_op(args.conorm, Kind.CONORM, None)
    T = parse_op_spec(args.norm, Kind.NORM) if args.norm else None
    d = strong_decompose(R, T, S) if T is not None else canonical_decompose(R, S)
    report = audit_fp(triplet_from_decomposition(R, d), seed=_seed(args))
    print(f"# preference audit of the canonical decomposition under {S.display_name}")
    print(report)
    return OK if report.overall else FAIL


def _cmd_classify(args) -> int:
    S = _load_op(args.conorm, Kind.CONORM, None)
    T = parse_op_spec(args.norm, Kind.NORM) if args.norm else None
    result = classify_rule(S, T, samples=args.samples, seed=_seed(args))
    kind = "strong" if T is not None else "weak"
    print(f"# {kind} decomposition rule for {S.display_name}"
          + (f" with {T.display_name}" if T else ""))
    print(result)
    if args.speculate and result.verdict is RuleClass.UNDETERMINED and result.oracle_verdict:
        print(
            "# oracle evidence (NOT authoritative; the reference classification "
            f"leaves this cell open): {result.oracle_verdict.value}"
        )
    return FAIL if result.verdict is RuleClass.NOT_COMPATIBLE else OK


def _cmd_check_norm(args) -> int:
    kind = Kind.NORM if args.kind == "norm" else Kind.CONORM
    op = _load_op(args.op, kind, args.table)
    verdict = check_norm_axioms(op, args.grid_step)
    print(f"# axiom check for {op.display_name} as a {args.kind}")
    print(verdict)
    return FAIL if verdict.verdict is Verdict.FAILS else OK


def _cmd_divisors(args) -> int:
    S = _load_op(args.conorm, Kind.CONORM, None) if args.conorm else None
    T = parse_op_spec(args.norm, Kind.NORM) if args.norm else None
    if S is None and T is None:
        print("error: give at least one of --conorm / --norm", file=sys.stderr)
        return USAGE_ERROR
    rc = OK
    if args.w is not None:
        if S is not None:
            print(f"one-interval of {S.display_name} at w={args.w:g}: {one_interval(S, args.w)}")
        if T is not None:
            print(f"zero-interval of {T.display_name} at w={args.w:g}: {zero_interval(T, args.w)}")
        if S is not None and T is not None:
            inter = one_interval(S, args.w).intersect(zero_interval(T, args.w))
            print(f"intersection at w={args.w:g}: {inter}")
    if S is not None and T is not None:
        exist = strong_existence(T, S)
        uniq = strong_uniqueness(T, S)
        print(f"strong existence for every relation: {exist}")
        print(f"strong uniqueness for every relation: {uniq}")
        if exist.verdict is Verdict.FAILS or uniq.verdict is Verdict.FAILS:
            rc = FAIL
    return rc


def _cmd_region(args) -> int:
    S = _load_op(args.conorm, Kind.CONORM, None)
    T = parse_op_spec(args.norm, Kind.NORM) if args.norm else None
    res = 1.0 / args.resolution
    grid = weak_region(S, res) if T is None else strong_region(T, S, res)
    grid.save_csv(args.out)
    kind = "weak" if T is None else "strong"
    count = int(grid.membership.sum())
    total = grid.membership.size
    print(f"# {kind} region for {S.display_name}"
          + (f" / {T.display_name}" if T else ""))
    print(f"wrote {args.out}: {count}/{total} decomposable cells at resolution 1/{args.resolution}")
    return OK


def _cmd_restricted(args) -> int:
    S_prime = _load_op(args.connected_by, Kind.CONORM, None)
    S = _load_op(args.conorm, Kind.CONORM, None)
    T = parse_op_spec(args.norm, Kind.NORM) if args.norm else None
    verdict = restricted_decomposability(S_prime, S, T, 1.0 / args.resolution)
    print(
        f"# do all {S_prime.display_name}-connected relations decompose under "
        f"{S.display_name}" + (f" / {args.norm}" if args.norm else "") + "?"
    )
    print(verdict)
    return FAIL if verdict.verdict is Verdict.FAILS else OK


def _cmd_tables(args) -> int:
    if args.which == 1:
        cells = generate_table1()
    else:
        cells = generate_table2(seed=_seed(args))
    print(render_table(cells, args.which, args.format), end="")
    mismatches = diff_against_reference(cells, args.which)
    print(f"{len(mismatches)} mismatches against the reference table")
    for m in mismatches:
        print(f"  {m}")
    if args.which == 2 and args.speculate:
        print("# oracle evidence for open cells (NOT authoritative):")
        for line in oracle_evidence_for_open_cells(samples=args.samples, seed=_seed(args)):
            print(f"  {line}")
    return OK if not mismatches else FAIL


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> _Parser:
    p = _Parser(prog="fuzzdec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_seed(sp):
        sp.add_argument("--seed", type=int, default=None, help="seed for randomised subroutines")

    sp = sub.add_parser("decompose", help="decompose a relation file")
    sp.add_argument("--relation", required=True)
    sp.add_argument("--conorm", required=True)
    sp.add_argument("--norm")
    sp.add_argument("--mode", choices=["strong", "weak"])
    sp.set_defaults(fn=_cmd_decompose)

    sp = sub.add_parser("audit", help="audit the canonical decomposition as a preference")
    sp.add_argument("--relation", required=True)
    sp.add_argument("--conorm", required=True)
    sp.add_argument("--norm")
    add_seed(sp)
    sp.set_defaults(fn=_cmd_audit)

    sp = sub.add_parser("classify", help="classify the canonical decomposition rule")
    sp.add_argument("--conorm", required=True)
    sp.add_argument("--norm")
    sp.add_argument("--samples", type=int, default=25)
    sp.add_argument("--speculate", action="store_true")
    add_seed(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("check-norm", help="check the defining axioms of an operator")
    sp.add_argument("--op", required=True)
    sp.add_argument("--kind", choices=["norm", "conorm"], required=True)
    sp.add_argument("--table", help="value table for custom operators")
    sp.add_argument("--grid-step", type=float, default=0.01, dest="grid_step")
    sp.set_defaults(fn=_cmd_check_norm)

    sp = sub.add_parser("divisors", help="divisor intervals and existence/uniqueness")
    sp.add_argument("--conorm")
    sp.add_argument("--norm")
    sp.add_argument("--w", type=float)
    sp.set_defaults(fn=_cmd_divisors)

    sp = sub.add_parser("region", help="rasterise a decomposability region to CSV")
    sp.add_argument("--conorm", required=True)
    sp.add_argument("--norm")
    sp.add_argument("--resolution", type=_positive_int, default=200, help="cells per axis (1/n grid)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_region)

    sp = sub.add_parser("restricted", help="decomposability on connected relations")
    sp.add_argument("--connected-by", required=True, dest="connected_by")
    sp.add_argument("--conorm", required=True)
    sp.add_argument("--norm")
    sp.add_argument("--resolution", type=_positive_int, default=200)
    sp.set_defaults(fn=_cmd_restricted)

    sp = sub.add_parser("tables", help="regenerate the reference tables and diff them")
    sp.add_argument("--which", type=int, choices=[1, 2], required=True)
    sp.add_argument("--format", choices=["text", "csv"], default="text")
    sp.add_argument("--speculate", action="store_true")
    sp.add_argument("--samples", type=int, default=12)
    add_seed(sp)
    sp.set_defaults(fn=_cmd_tables)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.fn(args)
    except RelationParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
