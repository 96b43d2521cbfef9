"""Row-blocked array pipelines against whole-matrix references.

Closure, decomposition, verification, the FP1-FP5 audit, the region
rasters and the operator axiom sweep work one row block at a time.  Each test below recomputes the same
result with the whole-matrix numpy expression and requires bit-identical
arrays and the same witness (the first offending pair in row-major order).
Sizes cover one element, one block exactly, just below and just above a
block, and sizes that leave a partial last block; the module constant is
also shrunk to a few cells so small matrices span many blocks.
"""

import contextlib
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fuzzdec.decompose as decompose_module
import fuzzdec.operators as operators_module
import fuzzdec.regions as regions_module
import fuzzdec.verdicts as verdicts_module
from fuzzdec import (
    Decomposition,
    DecompositionError,
    FuzzyRelation,
    Kind,
    PreferenceTriplet,
    audit_fp,
    Verdict,
    canonical_decompose,
    check_norm_axioms,
    is_t_transitive,
    make_conorm,
    make_custom,
    make_norm,
    parse_op_spec,
    restricted_decomposability,
    save_relation,
    strong_region,
    t_transitive_closure,
    triplet_from_decomposition,
    verify_strong,
    verify_weak,
    weak_region,
)
from fuzzdec.cli import main
from fuzzdec.decompose import residual_array
from fuzzdec.divisors import intersection
from fuzzdec.operators import EPSILON
from fuzzdec.relations import asymmetry_violation, symmetry_violation
from oracles import (
    is_s_connected,
    lower_connector,
    skewed_connector,
    squaring_closure,
    warshall_closure,
)

BLOCK = verdicts_module._BLOCK_CELLS
LUK4 = Path(__file__).resolve().parent / "data" / "luk4.op"
SIDE = int(BLOCK ** 0.5)  # an n x n matrix with n <= SIDE is a single block


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(bits(a), bits(b))


def labels(n):
    return tuple(f"x{k}" for k in range(n))


def random_relation(rng, n, grid=False):
    m = rng.integers(0, 21, size=(n, n)) / 20 if grid else rng.random((n, n))
    np.fill_diagonal(m, 1.0)
    return FuzzyRelation(labels(n), m)


def first(mask):
    return tuple(int(v) for v in np.argwhere(mask)[0]) if mask.any() else None


@pytest.fixture(params=[None, 7, 64], ids=["block", "block7", "block64"])
def block(request, monkeypatch):
    """The real block size, and two tiny ones that split small matrices into
    many blocks (7 does not divide any size used below)."""
    if request.param is not None:
        monkeypatch.setattr(verdicts_module, "_BLOCK_CELLS", request.param)
    return verdicts_module._BLOCK_CELLS


# ---------------------------------------------------------------------------
# whole-matrix references (the expressions the blocked code replaced)


def ref_decompose(m, S):
    i = np.minimum(m, m.T)
    p = residual_array(S, i, m)
    recon = np.asarray(S.evaluator(p, i), dtype=float)
    return p, i, first(np.abs(recon - m) > EPSILON)


def ref_fp_witnesses(R, P, I):
    return {
        "FP1": first((P > 0.0) & (P.T > 0.0)),
        "FP2": first(I != I.T),
        "FP3": first(P > R + EPSILON),
        "FP4": first((R > R.T) != (P > 0.0)),
        "FP5": first((P == 0.0) & (np.abs(R - I) > EPSILON)),
    }


def ref_rasters(T, S, cells):
    ax = np.linspace(0.0, 1.0, cells)
    A, B = np.meshgrid(ax, ax, indexing="ij")
    i_m, r_m = np.minimum(A, B), np.maximum(A, B)
    res = residual_array(S, i_m, r_m)
    recon = np.asarray(S.evaluator(res, i_m), dtype=float)
    weak = (r_m <= i_m + EPSILON) | (r_m >= 1.0 - EPSILON) | (np.abs(recon - r_m) <= EPSILON)
    tval = np.asarray(T.evaluator(res, i_m), dtype=float)
    strong = (r_m <= i_m + EPSILON) | ((np.abs(recon - r_m) <= EPSILON) & (tval <= EPSILON))
    # the r = 1 edge, the last row and column, from the divisor intervals at
    # the other coordinate; the (1,1) corner is on the diagonal
    strong[-1, :] = strong[:, -1] = ~intersection(T, S, ax).empty
    strong[-1, -1] = True
    return ax, A, B, weak, strong


# ---------------------------------------------------------------------------
# the block partition


@pytest.mark.parametrize("rows, per_row", [(1, 1), (0, 5), (10, 3), (257, 256), (3, 10**6)])
def test_row_blocks_partition_rows_within_the_cap(rows, per_row):
    blocks = list(verdicts_module._row_blocks(rows, per_row))
    covered = [r for s in blocks for r in range(s.start, s.stop)]
    assert covered == list(range(rows))
    for s in blocks:
        assert s.stop - s.start == 1 or (s.stop - s.start) * per_row <= BLOCK


# ---------------------------------------------------------------------------
# closure and transitivity


def assert_closure_matches(C, m, T):
    """The closure has the bits of whole-array Warshall, and agrees with the
    squaring fixpoint: exactly under the minimum, which rounds nothing, and
    otherwise within 1e-12, since rounding follows the pivot order."""
    assert same_bits(C, warshall_closure(m, T))
    fixpoint = squaring_closure(m, T)
    if T.family == "minimum":
        assert same_bits(C, fixpoint)
    np.testing.assert_allclose(C, fixpoint, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "n, norm",
    # rows per block: 65536 (n = 1, 2), 47 of 37, 6 of 100, 2 of 181 (a
    # partial last block each time) and a single row of exactly one block
    [(1, ("product", None)), (2, ("lukasiewicz", None)), (37, ("hamacher", 2.0)),
     (100, ("schweizer_sklar", 0.5)), (181, ("minimum", None)), (SIDE, ("product", None))],
)
def test_closure_and_transitivity_match_whole_array(n, norm):
    T = make_norm(*norm)
    R = random_relation(np.random.default_rng(n), n, grid=n % 2 == 0)
    C = t_transitive_closure(R, T)
    assert_closure_matches(C.degrees, R.degrees, T)
    assert is_t_transitive(C, T)
    if n > 1:
        m = R.degrees
        comp = np.asarray(T.evaluator(m[:, :, None], m[None, :, :]), dtype=float).max(axis=1)
        assert is_t_transitive(R, T) == bool(np.all(m >= comp - EPSILON))


def test_closure_matches_whole_array_across_tiny_blocks(block):
    T = make_norm("hamacher", 0.5)
    for n in (1, 2, 3, 9, 16):
        R = random_relation(np.random.default_rng(n), n)
        C = t_transitive_closure(R, T)
        assert_closure_matches(C.degrees, R.degrees, T)
        m = R.degrees
        comp = np.asarray(T.evaluator(m[:, :, None], m[None, :, :]), dtype=float).max(axis=1)
        assert is_t_transitive(C, T)
        assert is_t_transitive(R, T) == bool(np.all(m >= comp - EPSILON))


# ---------------------------------------------------------------------------
# decomposition and verification


CONORMS = [("minimum", None), ("product", None), ("hamacher", 2.0), ("schweizer_sklar", 0.5),
           ("ordinal_sum", None)]


@pytest.mark.parametrize("n", [1, 2, SIDE - 1, SIDE, SIDE + 1, 300])
@pytest.mark.parametrize("conorm", CONORMS, ids=[c[0] for c in CONORMS])
def test_decomposition_matches_whole_array(n, conorm):
    S = make_conorm(*conorm)
    R = random_relation(np.random.default_rng(n), n, grid=n % 2 == 1)
    p, i, bad = ref_decompose(R.degrees, S)
    assert bad is None
    d = canonical_decompose(R, S)
    assert same_bits(d.strict.degrees, p) and same_bits(d.indifference.degrees, i)
    assert not d.strict.degrees.flags.writeable
    assert verify_weak(R, d).passed


def test_decomposition_matches_whole_array_across_tiny_blocks(block):
    for n in (1, 5, 8, 13):
        for conorm in CONORMS:
            S = make_conorm(*conorm)
            R = random_relation(np.random.default_rng(n), n)
            p, i, _ = ref_decompose(R.degrees, S)
            d = canonical_decompose(R, S)
            assert same_bits(d.strict.degrees, p) and same_bits(d.indifference.degrees, i)


def jump_conorm():
    """The maximum raised by 0.02 off the axes: a jump the sampled continuity
    scan (tolerance 0.05) lets through, so no strict degree reconstructs
    R = 0.51 over I = 0.5."""
    return make_custom(
        lambda x, y: np.where(np.minimum(x, y) > 0.0, np.minimum(np.maximum(x, y) + 0.02, 1.0), np.maximum(x, y)),
        Kind.CONORM,
    )


@pytest.mark.parametrize("n, cells", [(12, [(9, 2), (3, 7)]), (SIDE + 1, [(SIDE, 0), (200, 4)]),
                                      (300, [(299, 1), (2, 250), (2, 251)])])
def test_unattained_residual_names_the_first_pair_in_row_major_order(n, cells, block):
    S = jump_conorm()
    m = np.random.default_rng(0).integers(0, 5, size=(n, n)) / 10
    np.fill_diagonal(m, 1.0)
    for a, b in cells:
        m[a, b], m[b, a] = 0.51, 0.5
    R = FuzzyRelation(labels(n), m)
    a, b = ref_decompose(m, S)[2]
    assert (a, b) == min(cells)
    with pytest.raises(DecompositionError) as exc:
        canonical_decompose(R, S)
    assert str(exc.value) == f"residual infimum not attained at pair (x{a},x{b}): S(P,I) = 0.52 but R = 0.51"


def test_a_hit_in_the_first_block_builds_no_later_block(monkeypatch):
    monkeypatch.setattr(verdicts_module, "_BLOCK_CELLS", 7)  # one row per block at n = 12
    n, built = 12, []

    def mask_of(rows):
        built.append(rows)
        return np.ones((rows.stop - rows.start, n), dtype=bool)

    assert verdicts_module._first_cell(n, mask_of) == (0, 0)
    assert len(built) == 1

    # the decomposition is built whole, then its verifier evaluates S(P, I)
    # on no block after the first that fails to reconstruct
    m = np.full((n, n), 0.25)
    m[0, 1], m[1, 0] = 0.51, 0.5
    residuals, checked = [], []

    def counted(S, i, r):
        residuals.append(r)
        return residual_array(S, i, r)

    gap = decompose_module._gap

    def counted_gap(*args):
        mask_of = gap(*args)
        return lambda rows: checked.append(rows) or mask_of(rows)

    monkeypatch.setattr(decompose_module, "residual_array", counted)
    monkeypatch.setattr(decompose_module, "_gap", counted_gap)
    with pytest.raises(DecompositionError, match=r"pair \(x0,x1\)"):
        canonical_decompose(FuzzyRelation(labels(n), m), jump_conorm())
    assert len(residuals) == n
    assert checked and all(rows == slice(0, 1) for rows in checked)


def tampered(R, S, n, rng):
    """The canonical decomposition with a few strict degrees moved, so that
    several checks fail at scattered cells."""
    d = canonical_decompose(R, S)
    P = d.strict.degrees.copy()
    cells = rng.integers(0, n, size=(3, 2))
    for a, b in cells:
        P[a, b] = P[b, a] = 0.25 if a != b else 0.5
    return Decomposition(FuzzyRelation(R.universe, P), d.indifference, S)


@pytest.mark.parametrize("n", [3, 40, SIDE + 1])
def test_verification_witnesses_match_whole_array(n, block):
    rng = np.random.default_rng(n)
    S, T = make_conorm("lukasiewicz"), make_norm("lukasiewicz")
    m = rng.integers(0, 21, size=(n, n)) / 20
    np.fill_diagonal(m, 1.0)
    m[-1, 0], m[0, -1] = 0.6, 0.3  # a strict pair with a positive indifference
    R = FuzzyRelation(labels(n), m)
    d = tampered(R, S, n, rng)
    P, I = d.strict.degrees, d.indifference.degrees
    a, b = first((P > 0.0) & (P.T > 0.0))
    got = verify_weak(R, d)
    assert got.witness == (P[a, b], P[b, a]) and f"at (x{a},x{b})" in got.detail
    assert asymmetry_violation(P) == (a, b) and symmetry_violation(I) is None

    # the canonical strict part, with an indifference no longer symmetric
    I1 = I.copy()
    for a, b in [*rng.integers(0, n, size=(3, 2)), (n - 1, 1)]:
        if a != b:
            I1[a, b] = (I1[b, a] + 0.5) % 1.0
    d1 = Decomposition(canonical_decompose(R, S).strict, FuzzyRelation(R.universe, I1), S)
    a, b = first(I1 != I1.T)
    assert symmetry_violation(I1) == (a, b)
    got = verify_weak(R, d1)
    assert got.witness == (I1[a, b], I1[b, a]) and got.detail == f"indifference not symmetric at (x{a},x{b})"

    # asymmetric again, but no longer reconstructing R
    P2 = np.zeros_like(P)
    d2 = Decomposition(FuzzyRelation(R.universe, P2), d.indifference, S, T)
    recon = np.asarray(S.evaluator(P2, I), dtype=float)
    a, b = first(np.abs(recon - m) > EPSILON)
    got = verify_strong(R, d2, T)
    assert got.witness == (recon[a, b], m[a, b]) and f"at (x{a},x{b})" in got.detail

    # reconstructing under the maximum, with T(P, I) > 0 somewhere
    S_max, T_prod = make_conorm("minimum"), make_norm("product")
    d3 = canonical_decompose(R, S_max)
    d3 = Decomposition(d3.strict, d3.indifference, S_max, T_prod)
    P3, I3 = d3.strict.degrees, d3.indifference.degrees
    tvals = np.asarray(T_prod.evaluator(P3, I3), dtype=float)
    a, b = first(tvals > EPSILON)
    got = verify_strong(R, d3, T_prod)
    assert got.witness == (P3[a, b], I3[a, b])
    assert f"= {tvals[a, b]:g} != 0 at (x{a},x{b})" in got.detail


@pytest.mark.parametrize("n", [1, 6, 30, SIDE + 1])
def test_connectedness_matches_whole_array(n, block):
    R = random_relation(np.random.default_rng(n), n, grid=True)
    for spec in ("lukasiewicz", "drastic", "minimum"):
        S = make_conorm(spec)
        m = R.degrees
        expected = bool(np.all(np.asarray(S.evaluator(m, m.T), dtype=float) >= 1.0 - EPSILON))
        assert is_s_connected(R, S) == expected


# ---------------------------------------------------------------------------
# FP audit


@pytest.mark.parametrize("n", [7, 40, SIDE - 1, SIDE + 1, 300])
def test_fp_witnesses_match_whole_array(n, block):
    rng = np.random.default_rng(n)
    R = random_relation(rng, n, grid=True)
    d = canonical_decompose(R, make_conorm("lukasiewicz"))
    assert all(v.passed for k, v in audit_fp(triplet_from_decomposition(R, d)).verdicts.items()
               if k != "FP6")
    # break each of FP1-FP5 at scattered cells
    P, I = d.strict.degrees.copy(), d.indifference.degrees.copy()
    for a, b in rng.integers(0, n, size=(4, 2)):
        P[a, b] = P[b, a] = min(1.0, R.degrees[a, b] + 0.05)
        I[a, b] = 0.5 * I[a, b]
    t = PreferenceTriplet(R, FuzzyRelation(R.universe, P), FuzzyRelation(R.universe, I))
    report = audit_fp(t)
    refs = ref_fp_witnesses(R.degrees, P, I)
    # the pair scans behind FP1 and FP2 compare only the cells on and above the diagonal
    assert asymmetry_violation(P) == refs["FP1"] and symmetry_violation(I) == refs["FP2"]
    for axiom, cell in refs.items():
        verdict = report.verdicts[axiom]
        assert verdict.passed == (cell is None)
        assert verdict.witness == (None if cell is None else (f"x{cell[0]}", f"x{cell[1]}"))


# ---------------------------------------------------------------------------
# region rasters and the connectedness mask


def capped_sum():
    return make_custom(lambda x, y: np.minimum(x + y, 1.0), Kind.CONORM)


@pytest.mark.parametrize("cells", [2, SIDE, SIDE + 1, 300])
@pytest.mark.parametrize(
    "norm, conorm",
    [(("lukasiewicz", None), ("lukasiewicz", None)),
     (("drastic", None), ("schweizer_sklar", 0.5)),
     (("product", None), ("drastic", None)),
     (("hamacher", 2.0), ("hamacher", 2.0))],
)
def test_rasters_match_whole_array(cells, norm, conorm, block):
    check_rasters(make_norm(*norm), make_conorm(*conorm), cells)


@pytest.mark.parametrize("cells", [2, 41])
def test_custom_conorm_rasters_match_whole_array(cells, block):
    # a custom conorm's residual is bisected; 41 cells span many tiny blocks
    check_rasters(make_norm("lukasiewicz"), capped_sum(), cells)


def check_rasters(T, S, cells):
    ax, A, B, weak, strong = ref_rasters(T, S, cells)
    assert np.array_equal(weak_region(S, 1 / (cells - 1)).membership, weak)
    assert np.array_equal(strong_region(T, S, 1 / (cells - 1)).membership, strong)
    builtins = map(make_conorm, ("lukasiewicz", "drastic", "ordinal_sum"))
    for S_prime in (*builtins, skewed_connector(), lower_connector()):
        # the connectedness mask over the whole square: S' need not commute,
        # and a pair is connected when S' reaches 1 in both orders
        connected = (np.asarray(S_prime.evaluator(A, B), dtype=float) >= 1.0 - EPSILON) & (
            np.asarray(S_prime.evaluator(B, A), dtype=float) >= 1.0 - EPSILON
        )
        for norm_op, member in ((None, weak), (T, strong)):
            cell = first(connected & ~member)
            got = restricted_decomposability(S_prime, S, norm_op, 1 / (cells - 1))
            assert got.passed == (cell is None)
            if cell is not None:
                assert got.witness == (ax[cell[0]], ax[cell[1]])


def test_restricted_stops_at_the_first_escaping_block(monkeypatch):
    # Lukasiewicz-connected pairs escape the drastic sum's weak region in the
    # first row block (the row-major first is (1/n, 1 - 1/n)); 1/2000 has 64
    calls = []
    cell_test = regions_module._decomposable
    monkeypatch.setattr(regions_module, "_decomposable", lambda *a: calls.append(a) or cell_test(*a))
    got = restricted_decomposability(make_conorm("lukasiewicz"), make_conorm("drastic"), None, 1 / 2000)
    assert got.witness == (1 / 2000, 1999 / 2000) and len(calls) == 1


@pytest.mark.parametrize("conn", ["ordinal_sum", "lukasiewicz"])
def test_restricted_tests_only_connected_cells(monkeypatch, conn):
    # the maximum is continuous, so every block is walked; only the cells of
    # each block's rectangle (its rows, from its first row's diagonal on)
    # that S' connects reach the cell test
    cells = []
    cell_test = regions_module._decomposable
    monkeypatch.setattr(
        regions_module, "_decomposable", lambda S, T, i, r, m: cells.append(i.size) or cell_test(S, T, i, r, m)
    )
    S_prime = make_conorm(conn)
    assert restricted_decomposability(S_prime, make_conorm("max"), None, 1 / 400).passed
    if conn == "ordinal_sum":  # pairs (i, 1) only: the last column and the last row
        assert 0 < sum(cells) <= 2 * 401
    else:
        ax = np.linspace(0.0, 1.0, 401)
        connected = np.asarray(S_prime.evaluator(ax[:, None], ax), dtype=float) >= 1.0 - EPSILON
        assert sum(cells) == sum(int(connected[s, s.start:].sum()) for s in verdicts_module._row_blocks(401, 401))


def test_builtin_connectors_commute_bit_for_bit(monkeypatch):
    # restricted evaluates a built-in S' once per block and reads S'(b,a)
    # from S'(a,b): every built-in conorm spec the benchmark workloads name,
    # and the infinite lambdas, on the finest grid
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    specs = {*workloads.CONNECTORS, *workloads.REGION_CONORMS, *workloads.WEAK_CONORMS}
    specs |= {"schweizer_sklar:lambda=inf", "schweizer_sklar:lambda=-inf", "hamacher:lambda=inf"}
    ax = np.linspace(0.0, 1.0, 2001)
    for spec in sorted(specs):
        S = parse_op_spec(spec, Kind.CONORM)
        for s in verdicts_module._row_blocks(ax.size, ax.size):
            fwd = np.asarray(S.evaluator(ax[s, None], ax), dtype=float)
            bwd = np.asarray(S.evaluator(ax, ax[s, None]), dtype=float)
            assert same_bits(fwd, bwd), (spec, s)


# ---------------------------------------------------------------------------
# the operator axiom sweep


def dented_max(dents):
    """The maximum, with delta added on the box of half-width 0.025 around
    (x, y) for each (x, y, delta) of ``dents``."""

    def fn(x, y):
        out = np.maximum(x, y)
        for px, py, delta in dents:
            out = np.where((np.abs(x - px) < 0.025) & (np.abs(y - py) < 0.025), out + delta, out)
        return out

    return make_custom(fn, Kind.CONORM)


def ref_axiom_witness(op, g):
    X, Y = np.meshgrid(g, g, indexing="ij")
    fwd = np.asarray(op.evaluator(X, Y), dtype=float)
    bwd = np.asarray(op.evaluator(Y, X), dtype=float)
    for mask, what in (
        (np.abs(fwd - np.clip(fwd, 0.0, 1.0)) > 0, "output escapes [0,1]"),
        (np.abs(fwd - bwd) > EPSILON, "commutativity violated"),
    ):
        if (cell := first(mask)) is not None:
            return (g[cell[0]], g[cell[1]]), what
    cell = first(np.diff(fwd, axis=0) < -EPSILON)
    if cell is not None:
        return (g[cell[0]], g[cell[0] + 1], g[cell[1]]), "monotonicity violated in the first argument"
    return None, None


@pytest.mark.parametrize(
    "dents",
    [
        [(0.2, 0.6, 0.1), (0.8, 0.3, 2.0)],  # a range escape below an earlier commutativity one
        [(0.6, 0.2, 0.1), (0.7, 0.9, -0.5)],
        [(0.6, 0.4, -0.2), (0.4, 0.6, -0.2)],  # symmetric: monotonicity only
        [(0.3, 0.5, -0.2), (0.5, 0.3, -0.2), (0.9, 0.6, 0.05)],  # commutativity below monotonicity
        [],
    ],
    ids=["range", "commutativity", "monotonicity", "commutativity-later", "none"],
)
def test_axiom_sweep_witnesses_match_whole_grid(dents, block):
    # at step 1/200 the 201-point grid is one row a block under the tiny sizes
    op = dented_max(dents)
    witness, what = ref_axiom_witness(op, operators_module._as_grid(0.005, op))
    got = check_norm_axioms(op, 0.005)
    if what is None:
        assert got.verdict is Verdict.UNKNOWN
    else:
        assert (got.witness, got.detail) == (witness, what)


# ---------------------------------------------------------------------------
# memory bounds


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_closure_memory_is_bounded():
    # the whole-array composition held 256^3 cells (128 MB) per temporary
    R = random_relation(np.random.default_rng(1), 256)
    assert peak_bytes(lambda: t_transitive_closure(R, make_norm("lukasiewicz"))) < 16 * 2**20


def test_restricted_memory_is_bounded():
    # walked in row blocks, without the 2001 x 2001 Boolean raster (4 MB)
    S_prime, S = make_conorm("lukasiewicz"), make_conorm("max")
    assert peak_bytes(lambda: restricted_decomposability(S_prime, S, None, 1 / 2000)) < 2001 * 2001


def test_decompose_and_audit_memory_is_bounded():
    n = 1000
    R = random_relation(np.random.default_rng(2), n)
    S = make_conorm("hamacher", 2.0)
    peak = peak_bytes(lambda: audit_fp(triplet_from_decomposition(R, canonical_decompose(R, S))))
    assert peak < 5 * n * n * 8


@pytest.mark.parametrize("grid", [False, True])
def test_decompose_command_memory_is_bounded(tmp_path, grid):
    # the relation, its two parts and one row block of text and temporaries;
    # printing each part whole held its ~15 MB of text and a list of its lines
    n = 1000
    path = tmp_path / "r.rel"
    save_relation(random_relation(np.random.default_rng(3), n, grid), path)
    argv = ["decompose", "--relation", str(path), "--conorm", "lukasiewicz", "--norm", "lukasiewicz"]
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        peak = peak_bytes(lambda: main(argv))
    assert peak < 4 * n * n * 8


def test_axiom_sweep_memory_is_bounded():
    # sweeping the whole grid held the 2001 x 2001 arguments, both orders of
    # S(x, y) and their temporaries at once: 402 MB for this table
    n = 2001
    argv = ["check-norm", "--op", f"custom:table={LUK4}", "--kind", "conorm", "--grid-step", "0.0005"]
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        peak = peak_bytes(lambda: main(argv))
    assert peak < n * n * 8 / 2


def test_weak_region_memory_is_bounded():
    # the Boolean raster (1 byte a cell), its axis and one block of floats
    cells = 2001
    peak = peak_bytes(lambda: weak_region(make_conorm("schweizer_sklar", 2.0), 1 / 2000))
    assert peak < 3 * cells**2 + 8 * BLOCK
