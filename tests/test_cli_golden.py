"""Byte-for-byte replay of recorded CLI output.

``tests/data/cli_golden.json`` holds the exit code, stdout and stderr of
``check-norm`` (both kinds), ``divisors --w 0.5`` (each side) and weak
``classify`` for every built-in family at each lambda of
``LAMBDA_SAMPLES`` (Hamacher only lambda >= 0), ``divisors`` and
strong ``classify`` for every (norm, conorm) pair of those operators whose
lambdas agree, ``tables --which 1|2 --format text|csv`` and the oracle
evidence for the open cells, ``tables --which 2 --speculate``, weak and
strong ``decompose`` and ``audit`` on the relation files of ``RELATIONS``
(named relative to ``tests/data``), weak and strong ``region`` rasters (with
the SHA-256 of the CSV bytes written) and weak and strong ``restricted``
checks under each of ``CONNECTORS``, all at resolution 1/120, and
``check-norm``, ``divisors``, ``classify`` and ``restricted`` for the table
operator ``TABLE`` (``custom:table=``).  Re-record it with

    PYTHONPATH=src python tests/test_cli_golden.py --record

which prints, per subcommand, how many entries changed and the argv of each.
"""

import ast
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from fuzzdec import Kind
from fuzzdec.cli import _load_op, main
from fuzzdec.divisors import intersection
from fuzzdec.operators import format_lambda
from fuzzdec.tables import LAMBDA_SAMPLES

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
# one grid-valued and one continuous relation, each holding -0.0 and a subnormal;
# then relations over 91 labels, large enough that the text of each spans
# several row blocks: continuous degrees (with e-notation, -0.0, subnormals
# and 1 - 2**-53), 1/20-grid degrees written with %.17g, and a file with
# comments, blank lines and tab separators
RELATIONS = ("grid5.rel", "continuous5.rel", "continuous91.rel", "grid91.rel", "comments91.rel")
PLAIN = ("minimum", "product", "lukasiewicz", "drastic", "ordinal_sum")
CSV = "region.csv"  # the --out of a region command, written to a temporary directory
TABLE = "custom:table=luk4.op"  # a table operator, its file named relative to tests/data
# the argv words that name a file in tests/data, and the path each stands for
PATHS = {**{name: str(DATA / name) for name in RELATIONS}, TABLE: "custom:table=" + str(DATA / "luk4.op")}
WEAK_CONORMS = ("drastic", "prob", "schweizer_sklar:lambda=-1")
STRONG_PAIRS = (
    ("lukasiewicz", "lukasiewicz"), ("drastic", "lukasiewicz"), ("product", "prob"),
    ("minimum", "max"), ("drastic", "drastic"),
    ("schweizer_sklar:lambda=0.5", "schweizer_sklar:lambda=0.5"),
)
CONNECTORS = ("max", "lukasiewicz", "drastic", "ordinal_sum")


def operators():
    """(spec, lambda or None) for every built-in operator the file covers."""
    ops = [(name, None) for name in PLAIN]
    for family, lams in (
        ("schweizer_sklar", LAMBDA_SAMPLES),
        ("hamacher", [lam for lam in LAMBDA_SAMPLES if lam >= 0.0]),
    ):
        ops += [(f"{family}:lambda={format_lambda(lam)}", lam) for lam in lams]
    return ops


def commands():
    ops = operators()
    out = []
    for spec, _ in ops:
        out += [
            ["check-norm", "--op", spec, "--kind", "norm"],
            ["check-norm", "--op", spec, "--kind", "conorm"],
            ["divisors", "--norm", spec, "--w", "0.5"],
            ["divisors", "--conorm", spec, "--w", "0.5"],
            ["classify", "--conorm", spec],
        ]
    for t_spec, t_lam in ops:
        for s_spec, s_lam in ops:
            if t_lam is None or s_lam is None or t_lam == s_lam:
                out.append(["divisors", "--norm", t_spec, "--conorm", s_spec])
                out.append(["classify", "--norm", t_spec, "--conorm", s_spec])
    for which in ("1", "2"):
        for fmt in ("text", "csv"):
            out.append(["tables", "--which", which, "--format", fmt])
    out.append(["tables", "--which", "2", "--speculate"])
    for name in RELATIONS:
        for cmd in ("decompose", "audit"):
            out.append([cmd, "--relation", name, "--conorm", "product"])
            out.append([cmd, "--relation", name, "--conorm", "lukasiewicz", "--norm", "lukasiewicz"])
    ops = [["--conorm", s] for s in WEAK_CONORMS] + [["--conorm", s, "--norm", t] for t, s in STRONG_PAIRS]
    for op in ops:
        out.append(["region", *op, "--resolution", "120", "--out", CSV])
    for conn in CONNECTORS:
        for op in ops:
            out.append(["restricted", "--connected-by", conn, *op, "--resolution", "120"])
    for kind in ("norm", "conorm"):
        out.append(["check-norm", "--op", TABLE, "--kind", kind])
    out += [
        ["divisors", "--conorm", TABLE, "--w", "0.5"],
        ["divisors", "--norm", "lukasiewicz", "--conorm", TABLE],
        ["classify", "--conorm", TABLE],
        ["classify", "--norm", "lukasiewicz", "--conorm", TABLE],
    ]
    for conn in ("max", "lukasiewicz"):
        out.append(["restricted", "--connected-by", conn, "--conorm", TABLE, "--resolution", "120"])
    out.append(["restricted", "--connected-by", "max", "--conorm", TABLE, "--norm", "lukasiewicz",
                "--resolution", "120"])
    return out


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / CSV
        paths = {**PATHS, CSV: str(csv)}
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([paths.get(a, a) for a in argv])
        entry = {"argv": list(argv), "rc": rc, "stdout": out.getvalue().replace(str(csv), CSV),
                 "stderr": err.getvalue()}
        if CSV in argv:
            entry["csv_sha256"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    return entry


def test_cli_output_matches_the_recording():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [e["argv"] for e in recorded] == commands()
    for entry in recorded:
        assert run(entry["argv"]) == entry, " ".join(entry["argv"])


def test_recorded_divisor_witnesses_replay():
    # a re-record must not pin a witness that does not reproduce its failure
    replayed = 0
    for entry in json.loads(GOLDEN.read_text(encoding="utf-8")):
        argv = entry["argv"]
        if argv[0] != "divisors" or "--w" in argv:
            continue
        T, S = (_load_op(PATHS.get(argv[k], argv[k]), kind) for k, kind in ((2, Kind.NORM), (4, Kind.CONORM)))
        for line in entry["stdout"].splitlines():
            if "witness=" not in line or "discontinuous" in line:
                continue
            witness = ast.literal_eval(line.split("witness=", 1)[1].split(" -- ", 1)[0])
            if "disjoint" in line:
                (w,) = witness
                assert intersection(T, S, w).empty, line
            else:
                w, t1, t2 = witness
                assert t1 != t2 and all(S(t, w) == 1.0 and T(t, w) == 0.0 for t in (t1, t2)), line
            replayed += 1
    assert replayed == 277


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record")
    old = {json.dumps(e["argv"]): e for e in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    entries = [run(argv) for argv in commands()]
    changed = {}
    for e in entries:
        if old.get(json.dumps(e["argv"])) != e:
            changed.setdefault(e["argv"][0], []).append(e["argv"])
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN}")
    for cmd, argvs in changed.items():
        print(f"{cmd}: {len(argvs)} changed or new")
        for argv in argvs:
            print("  " + " ".join(argv))
