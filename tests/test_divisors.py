import math

import numpy as np
import pytest

from fuzzdec import (
    DegreeInterval,
    Kind,
    Verdict,
    bisection_one_interval,
    bisection_zero_interval,
    check_collapse_implies_absorption,
    check_first_coordinate_continuity,
    check_strict_near_zero,
    check_strictly_increasing_first,
    degree_grid,
    make_conorm,
    make_custom,
    make_family,
    make_norm,
    mj_counterexample,
    one_interval,
    residual,
    residual_array,
    strong_existence,
    strong_uniqueness,
    verify_weak,
    zero_interval,
)
from fuzzdec.divisors import _CLASSIFIED_PROBES, _classified, intersection
from fuzzdec.families import _zero_end
from fuzzdec.tables import LAMBDA_SAMPLES
from oracles import least_saturating

CONORMS = [
    ("minimum", None),
    ("product", None),
    ("lukasiewicz", None),
    ("drastic", None),
    ("schweizer_sklar", -1.0),
    ("schweizer_sklar", 0.5),
    ("schweizer_sklar", 2.0),
    ("hamacher", 0.5),
    ("ordinal_sum_lukasiewicz_half", None),
]


def test_interval_basics():
    iv = DegreeInterval(0.2, 0.8, False, True)
    assert not iv.contains(0.2) and iv.contains(0.8) and iv.contains(0.5)
    assert DegreeInterval.singleton(0.3).is_singleton
    assert DegreeInterval(empty=True).empty
    with pytest.raises(ValueError):
        DegreeInterval(0.5, 0.5, False, True)
    with pytest.raises(ValueError):
        DegreeInterval(0.7, 0.2)


def test_array_interval_rejects_one_bad_entry():
    ok = DegreeInterval(np.array([0.1, 0.2]), np.array([0.5, 0.2]))
    assert ok.is_singleton.tolist() == [False, True]
    with pytest.raises(ValueError, match="0 <= lower <= upper <= 1"):
        DegreeInterval(np.array([0.1, 0.7, 0.0]), np.array([0.5, 0.2, 1.0]))
    with pytest.raises(ValueError, match="0 <= lower <= upper <= 1"):
        DegreeInterval(0.0, np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match="degenerate"):
        DegreeInterval(np.array([0.2, 0.5]), np.array([0.4, 0.5]), np.array([True, False]), True)
    # an empty entry's endpoints are not read
    DegreeInterval(np.array([0.0, 0.9]), np.array([1.0, 0.1]), empty=np.array([False, True]))


def test_array_interval_prints_each_entry_as_its_scalar_text():
    T, S = make_norm("lukasiewicz"), make_conorm("schweizer_sklar", 2.0)
    ws = [0.0, 0.25, 0.5, 1.0]
    texts = [str(intersection(T, S, w)) for w in ws]
    assert str(intersection(T, S, np.array(ws))) == "; ".join(texts)
    assert texts[1:3] == ["[0.3385621722338523, 0.75]", "[0.1339745962155614, 0.5]"]
    SD = make_conorm("drastic")
    drastic = "; ".join(str(one_interval(SD, w)) for w in ws)
    assert str(one_interval(SD, np.array(ws))) == drastic == "{1}; (0, 1]; (0, 1]; [0, 1]"
    assert str(intersection(make_norm("min"), make_conorm("max"), np.array([0.5, 1.0]))) == "{}; {0}"


def test_array_intervals_compare_field_by_field():
    S = make_conorm("lukasiewicz")
    ws = np.array([0.2, 0.3])
    assert one_interval(S, ws) == one_interval(S, ws.copy())
    assert one_interval(S, ws) != one_interval(S, ws[::-1])
    assert one_interval(S, ws) != one_interval(S, 0.2)
    assert one_interval(S, 0.3) == DegreeInterval.closed(0.7, 1.0)
    assert len({one_interval(S, 0.3), DegreeInterval.closed(0.7, 1.0)}) == 1


def test_interval_intersection_openness():
    a = DegreeInterval(0.0, 0.5, True, True)
    b = DegreeInterval(0.5, 1.0, False, True)
    assert a.intersect(b).empty  # touching endpoints but 0.5 excluded by b
    c = DegreeInterval(0.5, 1.0, True, True)
    inter = a.intersect(c)
    assert inter.is_singleton and inter.lower == 0.5


def test_one_interval_closed_forms():
    SL = make_conorm("lukasiewicz")
    assert one_interval(SL, 0.3) == DegreeInterval.closed(0.7, 1.0)
    assert one_interval(make_conorm("max"), 0.5) == DegreeInterval.singleton(1.0)
    assert one_interval(make_conorm("drastic"), 0.5) == DegreeInterval(0.0, 1.0, False, True)
    assert one_interval(make_conorm("drastic"), 0.0) == DegreeInterval.singleton(1.0)
    assert one_interval(make_conorm("drastic"), 1.0) == DegreeInterval.closed(0.0, 1.0)


def test_zero_interval_closed_forms():
    assert zero_interval(make_norm("lukasiewicz"), 0.3) == DegreeInterval.closed(0.0, 0.7)
    assert zero_interval(make_norm("min"), 0.4) == DegreeInterval.singleton(0.0)
    assert zero_interval(make_norm("drastic"), 1.0) == DegreeInterval.singleton(0.0)
    assert zero_interval(make_norm("drastic"), 0.5) == DegreeInterval(0.0, 1.0, True, False)


@pytest.mark.parametrize("family,lam", CONORMS)
def test_endpoints_always_present(family, lam):
    S = make_family(family, Kind.CONORM, lam)
    T = make_family(family, Kind.NORM, lam)
    for w in degree_grid(0.05):
        assert one_interval(S, w).contains(1.0)
        assert zero_interval(T, w).contains(0.0)


@pytest.mark.parametrize("family,lam", CONORMS)
def test_one_interval_grows_with_w(family, lam):
    S = make_family(family, Kind.CONORM, lam)
    grid = degree_grid(0.05)
    for w1, w2 in zip(grid, grid[1:]):
        a, b = one_interval(S, w1), one_interval(S, w2)
        # D1(w1) subseteq D1(w2) for w1 <= w2
        for t in np.linspace(0, 1, 21):
            if a.contains(float(t)):
                assert b.contains(float(t))


@pytest.mark.parametrize("family,lam", CONORMS)
def test_membership_matches_evaluation(family, lam):
    # inside the interval the operator reaches its absorbing value (up to
    # one ulp of formula rounding, far below the package tolerance);
    # outside it stays clearly away.  Points within tolerance of an
    # endpoint are the endpoint itself and are skipped.
    S = make_family(family, Kind.CONORM, lam)
    T = make_family(family, Kind.NORM, lam)
    for w in (0.0, 0.25, 0.5, 0.9, 1.0):
        iv1 = one_interval(S, w)
        iv0 = zero_interval(T, w)
        for t in np.linspace(0, 1, 41):
            t = float(t)
            if abs(t - iv1.lower) > 1e-9:
                assert iv1.contains(t) == (S(t, w) >= 1.0 - 1e-9)
            if abs(t - iv0.upper) > 1e-9:
                assert iv0.contains(t) == (T(t, w) <= 1e-9)


@pytest.mark.parametrize("family,lam", CONORMS)
def test_bisection_agrees_with_closed_forms(family, lam):
    # 1e-9 for the standard families; the lam < 1 Schweizer-Sklar sections
    # approach their absorbing value with zero slope, which smears the
    # floating-point threshold the bisection sees by ~sqrt(eps)
    tol = 1e-7 if family == "schweizer_sklar" and lam is not None and 0 < lam < 1 else 1e-9
    S = make_family(family, Kind.CONORM, lam)
    T = make_family(family, Kind.NORM, lam)
    for w in np.linspace(0, 1, 11):
        w = float(w)
        a, b = one_interval(S, w), bisection_one_interval(S, w)
        assert abs(a.lower - b.lower) <= tol and a.upper == b.upper == 1.0
        a, b = zero_interval(T, w), bisection_zero_interval(T, w)
        assert abs(a.upper - b.upper) <= tol and a.lower == b.lower == 0.0


def test_custom_operator_uses_bisection():
    S = make_custom(lambda x, y: np.minimum(np.asarray(x) + np.asarray(y), 1.0), Kind.CONORM)
    iv = one_interval(S, 0.25)
    assert abs(iv.lower - 0.75) <= 1e-9 and iv.upper == 1.0


def test_boundary_violation_names_the_first_w_and_value():
    # x + y - x*y rounds S(1, 0.001) to 0.9999999999999999
    S = make_custom(lambda x, y: x + y - x * y, Kind.CONORM)
    with pytest.raises(ValueError, match=r"S\(1,w\) = 1 at w=0\.001: got 0\.9999999999999999$"):
        one_interval(S, degree_grid(0.001))
    with pytest.raises(ValueError, match=r"at w=0\.3: got 0\.1$"):
        zero_interval(make_custom(lambda x, y: np.where(y == 0.3, 0.1, x * y), Kind.NORM), np.array([0.5, 0.3]))
    iv = one_interval(S, 0.5)
    assert type(iv.lower) is float and type(iv.lower_closed) is bool


VIEW_OPS = [(f, None) for f in ("minimum", "product", "lukasiewicz", "drastic", "ordinal_sum")]
VIEW_OPS += [(f, lam) for f in ("schweizer_sklar", "hamacher") for lam in (0.05, 0.22, 0.5, 1.0, 1.5, 3.0, 50.0)]
VIEW_OPS += [("schweizer_sklar", lam) for lam in (-math.inf, -1.0, 0.0, math.inf)] + [("hamacher", math.inf)]
FIELDS = ("lower", "upper", "lower_closed", "upper_closed", "empty")


def _view_ops():
    for family, lam in VIEW_OPS:
        yield make_family(family, Kind.NORM, lam), make_family(family, Kind.CONORM, lam)
    yield (
        make_custom(lambda x, y: np.maximum(x + y - 1.0, 0.0), Kind.NORM),
        make_custom(lambda x, y: 1.0 - np.maximum((1 - x) ** 2 + (1 - y) ** 2 - 1, 0.0) ** 0.5, Kind.CONORM),
    )


def test_array_intervals_match_the_single_w_view():
    # bit for bit, closedness and emptiness included: one value rounds as it
    # does in an array, so the scalar calls of the evaluators, the residual
    # and both interval ends agree with the array calls entry by entry
    rng = np.random.default_rng(7)
    ws = np.concatenate((
        degree_grid(0.01), [1e-300, 2.0 ** -54, 9.3e-10, 1e-9, 0.5 + 2.0 ** -53, 1.0 - 2.0 ** -53, 0.512],
        rng.random(60), rng.random(20) * 1e-6, 1.0 - rng.random(20) * 1e-6,
    ))
    ts = rng.permutation(ws)
    i, r = np.minimum(ts, ws), np.maximum(ts, ws)
    # at w = 0.512 the lambda = 20 conorm's one-interval starts at the point below
    pairs = [*_view_ops(), (make_norm("schweizer_sklar", 50.0), make_conorm("schweizer_sklar", 20.0))]
    for T, S in pairs:
        one, zero = one_interval(S, ws), zero_interval(T, ws)
        inter = one.intersect(zero)
        lo, hi = np.broadcast_to(one.lower, ws.shape), np.broadcast_to(zero.upper, ws.shape)
        at_ends = S.evaluator(lo, ws), T.evaluator(hi, ws)
        at_ts = S.evaluator(ts, ws), T.evaluator(ts, ws)
        res = residual_array(S, i, r)
        for k, w in enumerate(ws.tolist()):
            i1, i0 = one_interval(S, w), zero_interval(T, w)
            for vec, iv in ((one, i1), (zero, i0), (inter, i1.intersect(i0))):
                got = tuple(np.asarray(getattr(vec, f))[k].item() for f in FIELDS)
                assert got == tuple(getattr(iv, f) for f in FIELDS), (T, S, w)
            assert inter.is_singleton[k] == i1.intersect(i0).is_singleton
            t = ts[k].item()
            assert (S(i1.lower, w), T(i0.upper, w)) == (at_ends[0][k], at_ends[1][k]), (T, S, w)
            assert (S(t, w), T(t, w)) == (at_ts[0][k], at_ts[1][k]), (T, S, t, w)
            assert residual(S, i[k].item(), r[k].item()) == res[k], (S, i[k], r[k])
    S20 = make_conorm("schweizer_sklar", 20.0)
    assert S20(2.9333681039744874e-08, 0.512) == 1.0


REPLAY_OPS = [(f, None) for f in ("minimum", "product", "lukasiewicz", "drastic", "ordinal_sum")]
REPLAY_OPS += [("hamacher", lam) for lam in LAMBDA_SAMPLES if lam >= 0.0]
REPLAY_OPS += [("schweizer_sklar", lam) for lam in (*LAMBDA_SAMPLES, 0.001, 0.01, 0.05, 3.0, 5.0, 7.0, 20.0, 1e300)]


@pytest.mark.parametrize("family,lam", REPLAY_OPS)
def test_every_closed_interval_end_replays(family, lam):
    # a closed end is a member in floats: S(lower, w) = 1 and T(upper, w) = 0;
    # Schweizer-Sklar's closed forms round out of the interval at lambda = 2
    # (S(0.18538352582334794, 0.42) = 0.9999999850988388), and at 1e300 print
    # [0, 1] for both, where S(0, 0.001) = 0.001 and T(1, 0.5) = 0.5
    ws = np.concatenate((degree_grid(0.0005), np.random.default_rng(11).random(10_000)))
    S, T = make_family(family, Kind.CONORM, lam), make_family(family, Kind.NORM, lam)
    one, zero = one_interval(S, ws), zero_interval(T, ws)
    lo, hi = np.broadcast_to(one.lower, ws.shape), np.broadcast_to(zero.upper, ws.shape)
    assert ws[one.lower_closed & (S.evaluator(lo, ws) != 1.0)].tolist() == []
    assert ws[zero.upper_closed & (T.evaluator(hi, ws) != 0.0)].tolist() == []


@pytest.mark.parametrize("lam", [1e-4, 1e-3, 0.01, 0.05])
def test_rounded_up_conorm_end_is_the_least_saturating_float(lam):
    # where the closed end rounds to 1 (here at 1,929-1,999 of the 1,999
    # interior w), the search brackets the least saturating float below 1
    # before bisecting, and must land where a bisection over all of [0, 1] does
    S = make_conorm("schweizer_sklar", lam)
    ws = degree_grid(0.0005)[1:-1]
    rounded = 1.0 - _zero_end(1.0 - ws, lam) == 1.0
    lower = one_interval(S, ws[rounded]).lower
    assert rounded.sum() >= 1900 and (lower < 1.0).any()
    assert lower.tobytes() == least_saturating(S, ws[rounded]).tobytes()


@pytest.mark.parametrize("family,lam", CONORMS)
def test_every_custom_interval_end_is_an_exact_float_edge(family, lam):
    # a custom end is reached, and the next float outside the interval is
    # not; a value bisection stopped 2^-60 short of the drastic conorm's
    # end, [8.673617379884035e-19, 1] at w = 0.5, though 5e-324 saturates
    ws = np.concatenate((degree_grid(0.001), np.random.default_rng(5).random(2_000)))
    for kind, interval, a, toward in (
        (Kind.CONORM, bisection_one_interval, 1.0, 0.0),
        (Kind.NORM, bisection_zero_interval, 0.0, 1.0),
    ):
        op = make_custom(make_family(family, kind, lam).evaluator, kind)
        iv = interval(op, ws)
        end = iv.lower if kind is Kind.CONORM else iv.upper
        assert (iv.lower_closed & iv.upper_closed).all()
        assert ws[op.evaluator(end, ws) != a].tolist() == []
        edge = end != toward  # the interval is all of [0, 1] where the end is the far end
        outside = np.nextafter(end[edge], toward)
        assert ws[edge][op.evaluator(outside, ws[edge]) == a].tolist() == []


def test_a_nan_end_is_refused_not_walked():
    # a NaN w gives a NaN closed end, which no step moves
    record = make_conorm("schweizer_sklar", 2.0).record
    for interval in (record.one_interval, record.zero_interval):
        with pytest.raises(ValueError, match="0 <= lower <= upper <= 1"):
            interval(np.array([0.5, np.nan]))


@pytest.mark.parametrize("lam", [0.01, 0.001])
def test_tiny_lambda_collapse_witness_gives_two_decompositions(lam):
    # the one-interval at w = 0.5 starts below 1 here, though its closed form
    # rounds to 1, so its thirds are two floats
    S = make_conorm("schweizer_sklar", lam)
    v = check_collapse_implies_absorption(S)
    w, t, s = v.witness
    R, d1, d2 = mj_counterexample(S, w, t, s)
    assert v.verdict is Verdict.FAILS and t < s and S(t, w) == S(s, w) == 1.0
    assert all(verify_weak(R, d).verdict is Verdict.HOLDS for d in (d1, d2))


# ---------------------------------------------------------------------------
# existence and uniqueness


def test_strong_existence_cases():
    TL, SL = make_norm("lukasiewicz"), make_conorm("lukasiewicz")
    assert strong_existence(TL, SL).verdict is Verdict.HOLDS

    v = strong_existence(make_norm("min"), make_conorm("max"))
    assert v.verdict is Verdict.FAILS
    (w,) = v.witness
    assert one_interval(make_conorm("max"), w).intersect(
        zero_interval(make_norm("min"), w)
    ).empty

    assert strong_existence(make_norm("drastic"), SL).verdict is Verdict.HOLDS


def test_strong_existence_needs_continuity():
    v = strong_existence(make_norm("drastic"), make_conorm("drastic"))
    assert v.verdict is Verdict.FAILS
    assert "discontinuous" in v.detail


def test_strong_uniqueness_cases():
    TL, SL = make_norm("lukasiewicz"), make_conorm("lukasiewicz")
    assert strong_uniqueness(TL, SL).verdict is Verdict.HOLDS
    # every intersection is exactly {1-w}
    for w in np.linspace(0, 1, 11):
        inter = one_interval(SL, float(w)).intersect(zero_interval(TL, float(w)))
        assert inter.is_singleton and abs(inter.lower - (1.0 - w)) <= 1e-12

    v = strong_uniqueness(make_norm("drastic"), SL)
    assert v.verdict is Verdict.FAILS
    w, t1, t2 = v.witness
    SD_norm = make_norm("drastic")
    for t in (t1, t2):
        assert SL(t, w) == 1.0 and SD_norm(t, w) == 0.0

    ss1n = make_norm("schweizer_sklar", 1.0)
    ss1c = make_conorm("schweizer_sklar", 1.0)
    assert strong_uniqueness(ss1n, ss1c).verdict is Verdict.HOLDS


def test_uniqueness_witness_is_printed_in_full():
    # one rounding apart: :g printed both as 0.5
    S = make_custom(lambda x, y: np.minimum(1.0, x + y), Kind.CONORM)
    v = strong_uniqueness(make_norm("lukasiewicz"), S)
    assert v.verdict is Verdict.FAILS
    w, t1, t2 = v.witness
    assert t1 != t2 and f"at w={w!r} both t={t1!r} and t={t2!r} decompose" in v.detail


def test_strong_uniqueness_is_unknown_where_every_probe_meets_in_one_point():
    # S saturates exactly on t >= 1 - w and T vanishes exactly on t <= 1 - w,
    # so each probe's intersection is {1 - w}; a custom pair has no proof
    S = make_custom(lambda x, y: np.where(x >= 1 - y, 1.0, np.minimum(x + y, 0.9999999999999999)), Kind.CONORM)
    T = make_custom(lambda x, y: np.where(x <= 1 - y, 0.0, np.maximum(x + y - 1, 5e-324)), Kind.NORM)
    v = strong_uniqueness(T, S)
    assert v.verdict is Verdict.UNKNOWN
    assert v.detail == "no w among w = 0.5 and the 1001-point grid of step 0.001 shows two points that decompose the pair"


def test_existence_witness_is_printed_in_full():
    # the capped sum up to w = 0.7, the probabilistic sum above: the first
    # disjoint sweep probe is the grid value 0.7000000000000001, which :g
    # printed as 0.7, where the intervals meet
    def conorm(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.where(y <= 0.7, np.minimum(1.0, x + y), np.where(x >= 1.0, 1.0, x + y - x * y))

    T = make_norm("lukasiewicz")
    v = strong_existence(T, make_custom(conorm, Kind.CONORM))
    (w,) = v.witness
    assert v.verdict is Verdict.FAILS and w != 0.7
    assert v.detail.startswith(f"at w={w!r}: one-interval ")


def test_ss_lambda_regimes_against_interval_math():
    SL = make_conorm("lukasiewicz")
    for lam, expect in ((0.5, Verdict.FAILS), (1.0, Verdict.HOLDS), (2.0, Verdict.HOLDS)):
        assert strong_existence(make_norm("schweizer_sklar", lam), SL).verdict is expect
    TL = make_norm("lukasiewicz")
    for lam, expect in ((0.5, Verdict.FAILS), (1.0, Verdict.HOLDS), (2.0, Verdict.HOLDS)):
        assert strong_existence(TL, make_conorm("schweizer_sklar", lam)).verdict is expect
    # direct decomposition witness for the lam > 1 column cell
    S2 = make_conorm("schweizer_sklar", 2.0)
    assert S2(0.5, 0.25) == 1.0 and TL(0.5, 0.25) == 0.0


def test_mixed_lambda_pairs_are_swept_not_certified():
    v = strong_existence(
        make_norm("schweizer_sklar", 0.5), make_conorm("schweizer_sklar", 3.0)
    )
    assert str(v) == (
        "UNKNOWN -- divisor intervals intersect at w = 0.5 and the 1001-point grid of step 0.001; "
        "pair not analytically classified"
    )


@pytest.mark.parametrize("lam_t, lam_s", [(2.0, 3.0), (3.0, 2.0), (1.5, 4.0)])
def test_mixed_lambda_pairs_of_lambdas_at_least_one_hold(lam_t, lam_s):
    T, S = make_norm("schweizer_sklar", lam_t), make_conorm("schweizer_sklar", lam_s)
    assert str(strong_existence(T, S)) == "HOLDS -- divisor intervals intersect for every w"
    v = strong_uniqueness(T, S)
    assert v.verdict is Verdict.FAILS and v.witness[0] == 0.5


def test_mixed_lambda_proof_holds_in_floats():
    # the analytic HOLDS for min(lambda) >= 1 rests on real arithmetic: the
    # float intervals must meet too, on the sweep grid, the classified
    # probes and every dyadic w toward 1 and toward 0 through the subnormals
    rng = np.random.default_rng(23)
    lams = 1.0 + 10.0 ** rng.uniform(-9.0, 1.7, size=(300, 2))
    lams[:20, 0] = 1.0 + 1e-9
    lams[20:40, 1] = 1.0 + 1e-9
    ws = np.concatenate(
        [degree_grid(1e-3), _CLASSIFIED_PROBES, 1.0 - 2.0 ** -np.arange(1, 54), 2.0 ** -np.arange(1, 1075)]
    )
    assert ws[-1] == 5e-324
    for lam_t, lam_s in lams.tolist():
        assert lam_t != lam_s
        T, S = make_norm("schweizer_sklar", lam_t), make_conorm("schweizer_sklar", lam_s)
        assert strong_existence(T, S).verdict is Verdict.HOLDS, (lam_t, lam_s)
        empty = intersection(T, S, ws).empty
        assert not empty.any(), (lam_t, lam_s, ws[empty][:3])


@pytest.mark.parametrize("lam", [0.05, 0.1, 0.2, 0.22])
def test_drastic_schweizer_sklar_existence_holds_at_small_lambda(lam):
    # the closed-form one-interval rounds to {1} at w = 0.5 for lambda = 0.05,
    # yet the intersections are proper intervals for every interior w
    T, S = make_norm("drastic"), make_conorm("schweizer_sklar", lam)
    assert strong_existence(T, S).verdict is Verdict.HOLDS
    v = strong_uniqueness(T, S)
    assert v.verdict is Verdict.FAILS
    w, t1, t2 = v.witness
    assert t1 != t2
    for t in (t1, t2):
        assert S(t, w) == 1.0 and T(t, w) == 0.0


LAMBDAS = (-math.inf, -2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, math.inf)


def builtin_ops(kind, lambdas=LAMBDAS):
    ops = [make_family(f, kind) for f in ("minimum", "product", "lukasiewicz", "drastic", "ordinal_sum")]
    ops += [make_family("schweizer_sklar", kind, lam) for lam in lambdas]
    return ops + [make_family("hamacher", kind, lam) for lam in lambdas if lam >= 0.0]


def test_grid_sweep_agrees_with_the_analytic_verdicts():
    grid = degree_grid(0.01)
    classified = 0
    for T in builtin_ops(Kind.NORM):
        for S in builtin_ops(Kind.CONORM):
            known = _classified(T, S)
            if known is None:
                continue
            classified += 1
            inter = intersection(T, S, grid)
            empty, multi = inter.empty.any(), (~inter.empty & ~inter.is_singleton).any()
            assert (not empty) is known[0], (T, S)
            if not empty and check_first_coordinate_continuity(S).verdict is Verdict.HOLDS:
                assert (not multi) is (strong_uniqueness(T, S).verdict is Verdict.HOLDS), (T, S)
    # all but the Schweizer-Sklar pairs of two lambdas in (0, +inf) other
    # than 1, the smaller below 1: 6 * 5 such pairs, less the 4 * 3 of two
    # lambdas > 1
    assert classified == 27 * 27 - (6 * 5 - 4 * 3)


PROPERTY_LAMBDAS = (-math.inf, -2.0, -1.0, -0.5, 0.0, 0.05, 0.22, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, math.inf)


def test_every_witness_replays_in_floats():
    # 35 x 35 built-in pairs: an interval witness shows disjoint intervals at
    # its w, and both points of a uniqueness witness decompose the pair
    # through the scalar calls
    norms, conorms = builtin_ops(Kind.NORM, PROPERTY_LAMBDAS), builtin_ops(Kind.CONORM, PROPERTY_LAMBDAS)
    pairs = [(T, S) for T in norms for S in conorms]
    assert len(pairs) == 1225
    for T, S in pairs:
        for v in (strong_existence(T, S), strong_uniqueness(T, S)):
            if v.verdict is not Verdict.FAILS or "discontinuous" in v.detail:
                continue
            if "disjoint" in v.detail:
                (w,) = v.witness
                assert intersection(T, S, w).empty, (T, S, v)
            else:
                w, t1, t2 = v.witness
                assert t1 != t2 and all(S(t, w) == 1.0 and T(t, w) == 0.0 for t in (t1, t2)), (T, S, v)


def test_every_property_witness_of_a_builtin_record_replays():
    # each FAILS of the four property checks, on norms and conorms, shows
    # t < s in floats: a jump across a gap of 0.001, a flat section, or a
    # collapse above w that gives two weak decompositions of one relation
    checked = 0
    for op in builtin_ops(Kind.NORM, PROPERTY_LAMBDAS) + builtin_ops(Kind.CONORM, PROPERTY_LAMBDAS):
        v = check_first_coordinate_continuity(op)
        if v.verdict is Verdict.FAILS:
            t, s, w = v.witness
            assert t < s <= t + 1e-3 and abs(op(s, w) - op(t, w)) > 0.05, (op, v)
            checked += 1
        v = check_strictly_increasing_first(op)
        if v.verdict is Verdict.FAILS:
            t, s, w = v.witness
            assert t < s and op(t, w) == op(s, w) and (w < 1.0 if op.kind is Kind.CONORM else w > 0.0), (op, v)
            checked += 1
        if op.kind is Kind.NORM:
            continue
        v = check_strict_near_zero(op)
        if v.verdict is Verdict.FAILS:
            w, t, s = v.witness
            assert w < 1.0 and t < s and op(t, w) == op(s, w), (op, v)
            checked += 1
        v = check_collapse_implies_absorption(op)
        if v.verdict is Verdict.FAILS:
            w, t, s = v.witness
            assert t < s and op(t, w) == op(s, w) > w, (op, v)
            R, d1, d2 = mj_counterexample(op, w, t, s)
            assert d1.strict.degrees.tobytes() != d2.strict.degrees.tobytes()
            assert all(verify_weak(R, d).verdict is Verdict.HOLDS for d in (d1, d2)), (op, v)
            checked += 1
    assert checked == 64


def test_custom_copies_of_the_builtin_operators_agree_with_their_records():
    # a custom copy is swept on the section grid, so it never HOLDS; where the
    # record HOLDS it never FAILS either, except across two adjacent floats
    # where the float evaluator itself jumps (Schweizer-Sklar at lambda 20 and
    # 50: for continuity, and for strictness near zero from t = 0 to the least
    # positive float, after which the float section is flat at 1); every FAILS
    # witness of a copy replays.  Where the record is not strict near zero the
    # copy FAILS too, from a jump at 0 (drastic sum, lambda = +inf) as from a
    # flat start
    float_jumps = []
    for op in builtin_ops(Kind.NORM, PROPERTY_LAMBDAS) + builtin_ops(Kind.CONORM, PROPERTY_LAMBDAS):
        copy = make_custom(op.evaluator, op.kind)
        checks = [check_first_coordinate_continuity, check_strictly_increasing_first]
        if op.kind is Kind.CONORM:
            checks += [check_strict_near_zero, check_collapse_implies_absorption]
        for check in checks:
            record, swept = check(op), check(copy)
            assert swept.verdict is not Verdict.HOLDS, (op, check)
            if check is check_strict_near_zero and record.verdict is Verdict.FAILS:
                assert swept.verdict is Verdict.FAILS, (op, swept)
            if swept.verdict is not Verdict.FAILS:
                continue
            if check is check_first_coordinate_continuity:
                t, s, w = swept.witness
                assert t < s and abs(copy(s, w) - copy(t, w)) > 0.05, (op, swept)
                if record.verdict is Verdict.HOLDS:
                    assert s == np.nextafter(t, 1.0), (op, swept)
                    float_jumps.append((op.kind, op.family, op.parameter))
                continue
            if check is check_strict_near_zero:
                w, t, s = swept.witness
                assert w < 1.0 and 0.0 <= t < s <= 1e-3 and abs(copy(s, w) - copy(t, w)) <= 1e-15, (op, swept)
                if record.verdict is Verdict.HOLDS:
                    assert copy(0.0, w) + 0.05 < copy(5e-324, w) == copy(s, w), (op, swept)
                    float_jumps.append(("at zero", op.family, op.parameter))
                continue
            assert record.verdict is Verdict.FAILS, (op, check, swept)
            if check is check_strictly_increasing_first:
                t, s, w = swept.witness
                assert t < s and copy(s, w) <= copy(t, w), (op, swept)
                assert w < 1.0 if op.kind is Kind.CONORM else w > 0.0
            else:
                w, t, s = swept.witness
                R, d1, d2 = mj_counterexample(copy, w, t, s)
                assert t < s and d1.strict.degrees.tobytes() != d2.strict.degrees.tobytes()
                assert all(verify_weak(R, d).verdict is Verdict.HOLDS for d in (d1, d2)), (op, swept)
    assert sorted(float_jumps, key=str) == [
        (kind, "schweizer_sklar", lam) for kind in ("at zero", Kind.CONORM, Kind.NORM) for lam in (20.0, 50.0)
    ]
