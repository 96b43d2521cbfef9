import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzdec import Kind, cli, decompose, make_custom
from fuzzdec.cli import main
from fuzzdec.relations import FuzzyRelation, format_relation, parse_relation

SHOWCASE = "fuzzrel v1\nuniverse x y\n1 1\n0.5 1\n"


@pytest.fixture()
def showcase_file(tmp_path):
    path = tmp_path / "showcase.rel"
    path.write_text(SHOWCASE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_showcase(showcase_file, capsys):
    code, out, err = run(capsys, "decompose", "--relation", showcase_file, "--conorm", "max")
    assert code == 0
    assert "weak decomposition verified" in out
    # P(x,y) = 1 and I(x,y) = 0.5 appear in the emitted matrices
    blocks = out.split("# indifference part I")
    assert "0 1" in blocks[0]
    assert "1 0.5" in blocks[1]


def test_decompose_emits_reparseable_matrices(showcase_file, capsys):
    code, out, _ = run(capsys, "decompose", "--relation", showcase_file, "--conorm", "max")
    assert code == 0
    chunks = out.split("# strict part P\n")[1].split("# indifference part I\n")
    P = parse_relation(chunks[0])
    I = parse_relation(chunks[1].split("# verification")[0])
    # bit-identical round trip through the text format
    np.testing.assert_array_equal(parse_relation(format_relation(P)).degrees, P.degrees)
    np.testing.assert_array_equal(parse_relation(format_relation(I)).degrees, I.degrees)


def test_decompose_strong_mode(showcase_file, capsys):
    code, out, _ = run(
        capsys,
        "decompose",
        "--relation",
        showcase_file,
        "--conorm",
        "lukasiewicz",
        "--norm",
        "lukasiewicz",
    )
    assert code == 0
    assert "strong decomposition verified" in out


def test_strong_decompose_is_verified_once(showcase_file, capsys, monkeypatch):
    calls = []
    verify_strong = decompose.verify_strong
    monkeypatch.setattr(decompose, "verify_strong", lambda *args: calls.append(args) or verify_strong(*args))
    argv = ["decompose", "--relation", showcase_file, "--conorm", "lukasiewicz", "--norm", "lukasiewicz"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(calls) == 1
    assert out.endswith("# verification: HOLDS -- strong decomposition verified\n")


def test_weak_decompose_is_verified_once(showcase_file, capsys, monkeypatch):
    calls = []
    verify_weak = decompose.verify_weak
    monkeypatch.setattr(decompose, "verify_weak", lambda *args: calls.append(args) or verify_weak(*args))
    code, out, _ = run(capsys, "decompose", "--relation", showcase_file, "--conorm", "lukasiewicz")
    assert code == 0 and len(calls) == 1
    assert out.endswith("# verification: HOLDS -- weak decomposition verified\n")


def test_audit_subcommand(showcase_file, capsys):
    code, out, _ = run(capsys, "audit", "--relation", showcase_file, "--conorm", "max")
    assert code == 0
    assert "overall: pass" in out


def test_audit_labels_a_sampled_fp6_pass(tmp_path, capsys):
    n = 22
    m = np.random.default_rng(8).integers(0, 21, (n, n)) / 20
    path = tmp_path / "r22.rel"
    path.write_text(format_relation(FuzzyRelation(tuple(f"x{k}" for k in range(n)), m)))
    code, out, _ = run(capsys, "audit", "--relation", str(path), "--conorm", "prob", "--seed", "3")
    assert code == 0
    assert out.endswith("\nFP6: pass (sampled: 100000 quadruples, seed 3)\noverall: pass\n")


def test_classify_subcommand(capsys):
    code, out, _ = run(capsys, "classify", "--conorm", "max")
    assert code == 0 and "induced" in out
    code, out, _ = run(capsys, "classify", "--conorm", "drastic")
    assert code == 1 and "not-compatible" in out
    code, out, _ = run(
        capsys, "classify", "--conorm", "schweizer_sklar:lambda=0.5", "--speculate"
    )
    assert code == 0 and "undetermined" in out and "NOT authoritative" in out


def test_tables_subcommands(capsys):
    code, out, _ = run(capsys, "tables", "--which", "1")
    assert code == 0
    assert "0 mismatches" in out
    code, out, _ = run(capsys, "tables", "--which", "2", "--format", "csv")
    assert code == 0
    assert "0 mismatches" in out and "row,conorm,regime,verdict" in out


def test_check_norm_custom_table_violation(tmp_path, capsys):
    # a "conorm" table that is actually the product: boundary fails
    table = tmp_path / "bad.op"
    rows = []
    n = 4
    for i in range(n + 1):
        rows.append(" ".join(str((i / n) * (j / n)) for j in range(n + 1)))
    table.write_text("fuzzop v1\ngrid 4\n" + "\n".join(rows) + "\n")
    code, out, _ = run(
        capsys, "check-norm", "--op", f"custom:table={table}", "--kind", "conorm"
    )
    assert code == 1
    assert "FAILS" in out and "witness" in out


def test_custom_table_norm_is_loaded_as_a_norm(tmp_path, capsys):
    # the Lukasiewicz norm as a table; --norm reads custom tables like --conorm
    table = tmp_path / "lukasiewicz.op"
    rows = (" ".join(str(max(0.0, i / 4 + j / 4 - 1)) for j in range(5)) for i in range(5))
    table.write_text("fuzzop v1\ngrid 4\n" + "\n".join(rows) + "\n")
    code, out, err = run(capsys, "classify", "--conorm", "max", "--norm", f"custom:table={table}")
    assert (code, err) == (1, "")
    assert out.startswith("# strong decomposition rule for Maximum with custom norm\nnot-compatible: ")


def test_check_norm_builtin_holds(capsys):
    code, out, _ = run(capsys, "check-norm", "--op", "max", "--kind", "conorm")
    assert code == 0 and "HOLDS" in out


def test_divisors_subcommand(capsys):
    code, out, _ = run(
        capsys, "divisors", "--conorm", "lukasiewicz", "--norm", "lukasiewicz", "--w", "0.3"
    )
    assert code == 0
    assert "[0.7, 1]" in out and "[0, 0.7]" in out and "{0.7}" in out
    code, out, _ = run(capsys, "divisors", "--conorm", "max", "--norm", "min")
    assert code == 1  # existence fails, witness printed
    assert "FAILS" in out


def test_divisors_echoes_w_in_full(capsys):
    # six significant digits would print w=0.123457, a different degree
    code, out, _ = run(capsys, "divisors", "--conorm", "lukasiewicz", "--norm", "lukasiewicz", "--w", "0.1234567")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()[:3]] == [
        "one-interval of Lukasiewicz conorm at w=0.1234567",
        "zero-interval of Lukasiewicz norm at w=0.1234567",
        "intersection at w=0.1234567",
    ]


def test_region_subcommand(tmp_path, capsys):
    out_csv = tmp_path / "region.csv"
    code, out, _ = run(
        capsys,
        "region",
        "--conorm",
        "drastic",
        "--resolution",
        "20",
        "--out",
        str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "a,b,member"
    assert len(lines) == 1 + 21 * 21


def test_restricted_subcommand(capsys):
    code, out, _ = run(
        capsys, "restricted", "--connected-by", "max", "--conorm", "drastic",
        "--resolution", "100",
    )
    assert code == 0 and "HOLDS" in out
    code, out, _ = run(
        capsys, "restricted", "--connected-by", "lukasiewicz", "--conorm", "drastic",
        "--resolution", "100",
    )
    assert code == 1 and "FAILS" in out


def test_restricted_witness_is_connected_in_both_orders(tmp_path, capsys):
    # S'(x,y) = max(x,y) at the nodes except S'(1/4,3/4) = 1, one order only,
    # and S'(1/2,3/4) = S'(3/4,1/2) = S'(3/4,3/4) = 1; the drastic sum's weak
    # region is the diagonal, the axes and the edges where a degree is 1
    nodes = np.maximum.outer(np.arange(5) / 4, np.arange(5) / 4)
    nodes[1, 3] = nodes[2, 3] = nodes[3, 2] = nodes[3, 3] = 1.0
    table = tmp_path / "lopsided.op"
    table.write_text("fuzzop v1\ngrid 4\n" + "\n".join(" ".join(map(str, row)) for row in nodes) + "\n")
    code, out, _ = run(capsys, "restricted", "--connected-by", f"custom:table={table}",
                       "--conorm", "drastic", "--resolution", "4")
    assert code == 1 and "FAILS witness=(0.5, 0.75)" in out
    S_prime = cli._load_op(f"custom:table={table}", Kind.CONORM)
    assert S_prime(0.5, 0.75) == S_prime(0.75, 0.5) == 1.0
    assert S_prime(0.75, 0.25) == 0.75


@pytest.mark.parametrize("value", ["0", "-5"])
def test_resolution_must_be_positive(tmp_path, capsys, value):
    out_csv = tmp_path / "region.csv"
    code, _, err = run(
        capsys, "region", "--conorm", "max", "--resolution", value, "--out", str(out_csv)
    )
    assert code == 2 and "--resolution" in err and "positive" in err
    assert not out_csv.exists()
    code, _, err = run(
        capsys, "restricted", "--connected-by", "max", "--conorm", "max",
        "--resolution", value,
    )
    assert code == 2 and "--resolution" in err and "positive" in err


def test_usage_and_parse_errors(tmp_path, capsys):
    code, _, err = run(capsys, "decompose", "--relation", "missing.rel", "--conorm", "max")
    assert code == 2
    bad = tmp_path / "bad.rel"
    bad.write_text("fuzzrel v1\nuniverse a b\n0 0\n0 nope\n")
    code, _, err = run(capsys, "decompose", "--relation", str(bad), "--conorm", "max")
    assert code == 2 and "row 2, column 2" in err
    code, _, err = run(capsys, "decompose", "--relation", str(bad), "--conorm", "wat")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


@pytest.mark.parametrize(
    "body, problem",
    [
        ("", "empty operator table"),
        ("fuzzop v2\ngrid 1\n", "line 1: expected header 'fuzzop v1', got 'fuzzop v2'"),
        ("fuzzop v1\n", "missing grid line"),
        ("fuzzop v1\n\ngrids 2\n", "line 3: expected 'grid <n>', got 'grids 2'"),
        ("fuzzop v1\ngrid 0\n0\n", "line 2: grid size must be a positive integer, got '0'"),
        ("fuzzop v1\ngrid -2\n0 0\n", "line 2: grid size must be a positive integer, got '-2'"),
        ("fuzzop v1\ngrid 1 2\n0 0\n", "line 2: grid size must be a positive integer, got '1 2'"),
        # digits of other scripts are refused, as they are in the degrees
        ("fuzzop v1\ngrid \u0661\n0 0\n0 1\n", "line 2: grid size must be a positive integer, got '\u0661'"),
        ("fuzzop v1\ngrid \uff11\n0 0\n0 1\n", "line 2: grid size must be a positive integer, got '\uff11'"),
    ],
)
def test_bad_custom_table_header_exits_2(tmp_path, capsys, body, problem):
    table = tmp_path / "bad.op"
    table.write_text(body, encoding="utf-8")
    code, out, err = run(capsys, "check-norm", "--op", f"custom:table={table}", "--kind", "norm")
    assert code == 2 and out == ""
    assert err == f"error: {table}: {problem}\n"


def test_messages_print_plain_floats(tmp_path, capsys):
    # a tabulated conorm sitting 0.02 above 1/2 at (0, 1/2) and (1/2, 1/2):
    # no strict degree reconstructs R = 0.51 over I = 0.5
    jump = tmp_path / "jump.op"
    jump.write_text("fuzzop v1\ngrid 2\n0 0.52 1\n0.52 0.52 1\n1 1 1\n")
    rel = tmp_path / "jump.rel"
    rel.write_text("fuzzrel v1\nuniverse a b\n1 0.51\n0.5 1\n")
    code, _, err = run(capsys, "decompose", "--relation", str(rel), "--conorm", f"custom:table={jump}")
    assert code == 2
    assert err == "error: residual infimum not attained at pair (a,b): S(P,I) = 0.52 but R = 0.51\n"
    messages = [err]
    # the product posing as a conorm breaks S(x,0) = x
    table = tmp_path / "product.op"
    rows = (" ".join(str(i / 4 * j / 4) for j in range(5)) for i in range(5))
    table.write_text("fuzzop v1\ngrid 4\n" + "\n".join(rows) + "\n")
    code, out, _ = run(capsys, "check-norm", "--op", f"custom:table={table}", "--kind", "conorm")
    assert code == 1 and "violated: got 0.0" in out
    messages.append(out)
    code, out, _ = run(capsys, "restricted", "--connected-by", "lukasiewicz",
                       "--conorm", "drastic", "--resolution", "20")
    assert code == 1
    messages.append(out)
    assert not any("np.float64(" in m for m in messages)


@pytest.mark.parametrize(
    "cell, problem",
    [
        ("x", "not a number: 'x'"),
        ("nan", "degree nan outside [0,1]"),
        ("-inf", "degree -inf outside [0,1]"),
        ("0_1", "not a number: '0_1'"),
        ("1.5", "degree 1.5 outside [0,1]"),
        ("\uff11", "not a number: '\uff11'"),
    ],
)
def test_table_cell_errors_name_file_row_and_column(tmp_path, capsys, cell, problem):
    table = tmp_path / "bad.op"
    table.write_text(f"fuzzop v1\ngrid 1\n0 {cell}\n1 1\n", encoding="utf-8")
    code, out, err = run(capsys, "check-norm", "--op", f"custom:table={table}", "--kind", "norm")
    assert (code, out) == (2, "")
    assert err == f"error: {table}: line 3: row 1, column 2: {problem}\n"


def test_table_values_above_one_are_refused_by_region(tmp_path, capsys):
    table = tmp_path / "above.op"
    table.write_text("fuzzop v1\ngrid 1\n0 1.5\n1 1\n")
    out_csv = tmp_path / "region.csv"
    code, out, err = run(capsys, "region", "--conorm", f"custom:table={table}", "--resolution", "4",
                         "--out", str(out_csv))
    assert (code, out) == (2, "") and not out_csv.exists()
    assert err == f"error: {table}: line 3: row 1, column 2: degree 1.5 outside [0,1]\n"


@pytest.mark.parametrize(
    "rows, problem",
    [
        (["0 0", "0 0"], "line 3: row 1 has 2 entries, expected 100001"),
        (["0 " * 100001] * 2, "expected 100001 matrix rows, found 2"),
    ],
    ids=["short-rows", "two-rows"],
)
def test_short_table_on_a_huge_grid_exits_2(tmp_path, capsys, rows, problem):
    # nothing (n+1) x (n+1) in size is allocated before the rows arrive
    table = tmp_path / "huge.op"
    table.write_text("fuzzop v1\ngrid 100000\n" + "\n".join(rows) + "\n")
    code, out, err = run(capsys, "check-norm", "--op", f"custom:table={table}", "--kind", "norm")
    assert (code, out) == (2, "")
    assert err == f"error: {table}: {problem}\n"


@pytest.mark.parametrize(
    "row, problem",
    [
        ("0", "line 3: row 1 has 1 entries, expected 100000"),
        (" ".join(["0"] * 100000), "expected 100000 matrix rows, found 1"),
    ],
    ids=["short-row", "one-row"],
)
def test_short_relation_on_a_huge_universe_exits_2(tmp_path, capsys, row, problem):
    rel = tmp_path / "huge.rel"
    rel.write_text("fuzzrel v1\nuniverse " + " ".join(f"a{k}" for k in range(100000)) + f"\n{row}\n")
    code, out, err = run(capsys, "audit", "--relation", str(rel), "--conorm", "max")
    assert (code, out) == (2, "")
    assert err == f"error: {rel}: {problem}\n"


def test_check_norm_rejects_nan_output(monkeypatch, capsys):
    def nan_band(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.where((0.3 < x) & (x < 0.4), np.nan, np.minimum(x, y))

    monkeypatch.setattr(cli, "_load_op", lambda spec, kind: make_custom(nan_band, kind))
    code, out, err = run(capsys, "check-norm", "--op", "custom", "--kind", "norm")
    assert (code, out) == (2, "")
    assert err == "error: custom norm returned nan at (0.31, 1.0)\n"


TABLE_TOKENS = st.sampled_from(
    ["0", "1", "0.5", "0.25", "-1", "2", "1e308", "-1e308", "5e-324", "nan", "inf", "x", "#", "grid", "fuzzop v1"]
)


@given(
    st.one_of(
        st.builds(
            lambda header, grid, rows: "\n".join(
                [header, f"grid {grid}"] + [" ".join(row) for row in rows]
            ),
            st.sampled_from(["fuzzop v1", "fuzzop v2", ""]),
            st.sampled_from(["0", "1", "2", "3", "-1", "x", "", "1 2", "99999999999"]),
            st.lists(st.lists(TABLE_TOKENS, max_size=4), max_size=5),
        ),
        st.text(max_size=60),
    )
)
@settings(max_examples=80, deadline=None)
def test_fuzzed_table_files_never_raise(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.op")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check-norm", "--op", f"custom:table={path}", "--kind", "conorm"])
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")


def test_negative_seed_flag_is_named(capsys):
    code, out, err = run(capsys, "tables", "--which", "2", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("step", ["nan", "inf", "5", "0", "1e-6", "0.0004999"])
def test_bad_grid_step_is_named(capsys, step):
    # below the floor the sweep grid would not fit in memory (1e-6: 10^12 cells)
    why = "below 1/2000 is not supported" if 0 < float(step) < 1 / 2000 else "must lie in (0, 1]"
    code, out, err = run(capsys, "check-norm", "--op", "minimum", "--kind", "norm", "--grid-step", step)
    assert (code, out) == (2, "")
    assert err == f"error: grid step {why}, got {float(step):g}\n"


# float() and int() read '_' between digits and other scripts' digits, which
# a relation file may not hold; no flag or spec takes them either
FILE_REJECTED_SPELLINGS = [
    ("divisors --norm ss:lambda=1_0 --w 0.5", "bad lambda value '1_0' in spec 'ss:lambda=1_0'"),
    ("divisors --norm ss:lambda=\u0662 --w 0.5", "bad lambda value '\u0662' in spec 'ss:lambda=\u0662'"),
    ("divisors --conorm max --w 0.5_0", "argument --w: not a number: '0.5_0'"),
    ("check-norm --op max --kind conorm --grid-step 0.0_1", "argument --grid-step: not a number: '0.0_1'"),
    ("region --conorm max --resolution 1_0 --out {out}", "argument --resolution: must be a positive integer, got '1_0'"),
    ("restricted --connected-by max --conorm max --resolution \u0661\u0660",
     "argument --resolution: must be a positive integer, got '\u0661\u0660'"),
    ("tables --which 1 --seed 1_0", "argument --seed: not an integer: '1_0'"),
    ("tables --which \u0661", "argument --which: not an integer: '\u0661'"),
]


@pytest.mark.parametrize(
    "argv",
    ["divisors --norm ss:lambda=+inf --w 1e-3", "divisors --conorm ss:lambda=-inf --w 1E-3",
     "check-norm --op max --kind conorm --grid-step 1e-3"],
)
def test_float_spellings_of_flags_and_specs_still_parse(capsys, argv):
    code, _, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")


OUT_OF_RANGE = [
    *((f"divisors {op} --w {w}", f"w must lie in [0,1], got {float(w)!r}")
      for op in ("--conorm lukasiewicz", "--norm minimum") for w in ("nan", "2", "-0.5", "inf")),
    ("region --conorm lukasiewicz --resolution 3000 --out {out}", "resolution below 1/2000 is not supported, got 1/3000"),
    ("restricted --connected-by max --conorm lukasiewicz --resolution 2001",
     "resolution below 1/2000 is not supported, got 1/2001"),
]


@pytest.mark.parametrize(
    "argv, message", OUT_OF_RANGE + FILE_REJECTED_SPELLINGS, ids=[a for a, _ in OUT_OF_RANGE + FILE_REJECTED_SPELLINGS]
)
def test_out_of_range_values_are_named(tmp_path, capsys, argv, message):
    out_path = tmp_path / "r.csv"
    code, out, err = run(capsys, *argv.format(out=out_path).split())
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


def test_speculate_on_an_undecided_custom_conorm_prints_no_oracle_line(tmp_path, capsys):
    # the maximum as a grid-4 table: compatible on the grid relation, but
    # inducement stays undecided for a custom conorm, with no oracle verdict
    table = tmp_path / "max4.op"
    rows = (" ".join(str(max(i, j) / 4) for j in range(5)) for i in range(5))
    table.write_text("fuzzop v1\ngrid 4\n" + "\n".join(rows) + "\n")
    code, out, err = run(capsys, "classify", "--conorm", f"custom:table={table}", "--speculate")
    assert (code, out, err) == (0, (
        "# weak decomposition rule for custom conorm\n"
        "undetermined: compatible on the 1/20-grid relation; inducement undecided for a custom conorm\n"
    ), "")


@pytest.mark.parametrize("flag, op", [("--conorm", "lukasiewicz"), ("--norm", "minimum")])
def test_divisors_with_one_operator_needs_w(capsys, flag, op):
    code, out, err = run(capsys, "divisors", flag, op)
    assert (code, out, err) == (2, "", f"error: {flag} alone needs --w\n")
    code, out, err = run(capsys, "divisors", flag, op, "--w", "0.5")
    assert code == 0 and out.count("-interval of ") == 1 and err == ""


@pytest.mark.parametrize(
    "argv, body",
    [
        (["audit", "--conorm", "max", "--relation"], b"fuzzrel v1\nuniverse a b\n1 0.5\n0.5 1 # caf\xe9\n"),
        (["check-norm", "--kind", "norm", "--op"], b"fuzzop v1\ngrid 1\n0 0\n0 1 \xe9\n"),
    ],
    ids=["relation", "table"],
)
def test_non_utf8_files_name_the_file_and_line(tmp_path, capsys, argv, body):
    path = tmp_path / "latin1"
    path.write_bytes(body)
    arg = str(path) if argv[0] == "audit" else f"custom:table={path}"
    code, out, err = run(capsys, *argv, arg)
    assert (code, out) == (2, "")
    column = body.splitlines()[3].index(b"\xe9") + 1
    assert err == f"error: {path}: line 4: byte {column} (0xe9) is not UTF-8 text\n"


def test_the_cached_parser_answers_like_fresh_ones(capsys):
    # main builds its parser once per process; a call that exits 2 leaves no
    # state behind for the next call
    calls = (["restricted", "--connected-by", "max", "--conorm", "drastic", "--resolution", "0"],
             ["restricted", "--connected-by", "lukasiewicz", "--conorm", "drastic", "--resolution", "20"])
    cached = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert cached == fresh and [c[0] for c in cached] == [2, 1]
    assert cli.build_parser() is cli.build_parser()
