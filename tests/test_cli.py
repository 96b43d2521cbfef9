import numpy as np
import pytest

from fuzzdec.cli import main
from fuzzdec.relations import format_relation, parse_relation

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


def test_audit_subcommand(showcase_file, capsys):
    code, out, _ = run(capsys, "audit", "--relation", showcase_file, "--conorm", "max")
    assert code == 0
    assert "overall: pass" in out


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


def test_seed_determinism(capsys, monkeypatch):
    a = run(capsys, "classify", "--conorm", "lukasiewicz", "--seed", "7")
    b = run(capsys, "classify", "--conorm", "lukasiewicz", "--seed", "7")
    assert a == b
    monkeypatch.setenv("FUZZDEC_SEED", "7")
    c = run(capsys, "classify", "--conorm", "lukasiewicz")
    assert c == a
