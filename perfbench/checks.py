"""Output checks for the benchmark's jobs.

The checks are semantic and independent of the library's code: operator
formulas and the relation-file reader below are the benchmark's own.  Each check returns ``None`` when the output is right, or
a short reason when it is not.

``known_defect`` names the defects of the library that the workloads
reproduce on purpose.  A job that fails in one of these ways is still
counted as failed; it only does not make the run incorrect.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np

EPS = 1e-9


# ---------------------------------------------------------------------------
# operator formulas (standard definitions, boundaries pinned exactly)


def _pin_conorm(x, y, val):
    val = np.where((x == 1.0) | (y == 1.0), 1.0, val)
    val = np.where(x == 0.0, y, val)
    return np.where(y == 0.0, x, val)


def _pin_norm(x, y, val):
    val = np.where((x == 0.0) | (y == 0.0), 0.0, val)
    val = np.where(x == 1.0, y, val)
    return np.where(y == 1.0, x, val)


def _interior(x, y):
    """x and y with boundary entries replaced by 1/2, which the formulas
    below handle safely; the pinning puts the boundary values back."""
    inside = (x > 0) & (y > 0) & (x < 1) & (y < 1)
    return np.where(inside, x, 0.5), np.where(inside, y, 0.5)


def _ss_norm(lam, x, y):
    if lam == 0.0:
        return x * y
    xs, ys = _interior(x, y)
    with np.errstate(all="ignore"):
        val = np.maximum(xs ** lam + ys ** lam - 1.0, 0.0) ** (1.0 / lam)
    return _pin_norm(x, y, np.clip(val, 0.0, 1.0))


def _hamacher_norm(lam, x, y):
    xs, ys = _interior(x, y)
    val = xs * ys / (lam + (1.0 - lam) * (xs + ys - xs * ys))
    return _pin_norm(x, y, np.clip(val, 0.0, 1.0))


def _norm_fn(spec):
    family, lam = split_spec(spec)
    if family == "minimum":
        return np.minimum
    if family == "product":
        return lambda x, y: x * y
    if family == "lukasiewicz":
        return lambda x, y: np.maximum(x + y - 1.0, 0.0)
    if family == "drastic":
        return lambda x, y: _pin_norm(x, y, np.zeros(np.broadcast(x, y).shape))
    if family == "schweizer_sklar":
        return lambda x, y: _ss_norm(lam, x, y)
    if family == "hamacher":
        return lambda x, y: _hamacher_norm(lam, x, y)
    raise ValueError(f"no reference formula for norm {spec!r}")


def _conorm_fn(spec):
    """Maximum, Lukasiewicz and the ordinal sum directly; the other conorms
    as De Morgan duals of their norms, with the boundary pinned exactly."""
    family, _ = split_spec(spec)
    if family == "minimum":
        return np.maximum
    if family == "lukasiewicz":
        return lambda x, y: np.minimum(x + y, 1.0)
    if family == "ordinal_sum":
        return lambda x, y: np.where(
            (x <= 0.5) & (y <= 0.5), np.minimum(0.5, x + y), np.maximum(x, y)
        )
    norm = _norm_fn(spec)
    return lambda x, y: _pin_conorm(x, y, 1.0 - norm(1.0 - x, 1.0 - y))


def split_spec(spec):
    """``schweizer_sklar:lambda=2`` -> ("schweizer_sklar", 2.0)."""
    aliases = {"max": "minimum", "prob": "product"}
    family, _, tail = spec.partition(":lambda=")
    lam = None
    if tail:
        lam = {"+inf": math.inf, "-inf": -math.inf}.get(tail)
        lam = float(tail) if lam is None else lam
    return aliases.get(family, family), lam


def evaluate(spec, kind, x, y):
    fn = _norm_fn(spec) if kind == "norm" else _conorm_fn(spec)
    return np.asarray(fn(np.asarray(x, float), np.asarray(y, float)), dtype=float)


# ---------------------------------------------------------------------------
# relation files


def read_relations(text):
    """Every ``fuzzrel v1`` block in ``text`` as (labels, matrix)."""
    out = []
    lines = text.split("\n")
    k = 0
    while k < len(lines):
        if lines[k].strip() != "fuzzrel v1":
            k += 1
            continue
        labels = lines[k + 1].split()[1:]
        n = len(labels)
        body = " ".join(lines[k + 2:k + 2 + n])
        mat = np.array(body.split(), dtype=float)
        if mat.size != n * n:
            raise ValueError(f"relation block has {mat.size} degrees, expected {n * n}")
        out.append((labels, mat.reshape(n, n)))
        k += 2 + n
    return out


# ---------------------------------------------------------------------------
# relation-level checks


def check_decomposition(R, text, conorm, norm=None):
    blocks = read_relations(text)
    if len(blocks) != 2:
        return f"expected P and I in the output, found {len(blocks)} relations"
    (lp, P), (li, I) = blocks
    n = R.shape[0]
    if P.shape != (n, n) or I.shape != (n, n) or lp != li:
        return "P or I has the wrong shape or universe"
    if np.any((P > 0.0) & (P.T > 0.0)):
        return "P is not asymmetric"
    if not np.array_equal(I, np.minimum(R, R.T)):
        return "I differs from min(R, R^t)"
    gap = np.abs(evaluate(conorm, "conorm", P, I) - R)
    if gap.max() > EPS:
        return f"S(P,I) differs from R by {gap.max():.3g}"
    if norm is not None and evaluate(norm, "norm", P, I).max() > EPS:
        return "T(P,I) is not 0"
    return None


def sup_t_composition_excess(C, norm, chunk=16):
    """Largest amount by which sup_y T(C[x,y], C[y,z]) exceeds C[x,z]."""
    worst = 0.0
    for lo in range(0, C.shape[0], chunk):
        rows = C[lo:lo + chunk]
        comp = evaluate(norm, "norm", rows[:, :, None], C[None, :, :]).max(axis=1)
        worst = max(worst, float((comp - rows).max()))
    return worst


def check_closure(R, C, norm, reported_transitive):
    if not reported_transitive:
        return "is_t_transitive rejected the closure"
    if C.shape != R.shape or np.any(C < R):
        return "closure is not above R"
    if sup_t_composition_excess(C, norm) > EPS:
        return "closure is not T'-transitive"
    return None


# ---------------------------------------------------------------------------
# tables


def tables_mismatches(text):
    m = re.search(r"^(\d+) mismatches against the reference table", text, re.M)
    return int(m.group(1)) if m else None


# ---------------------------------------------------------------------------
# regions


def membership_digest(membership):
    bits = np.packbits(np.ascontiguousarray(membership, dtype=bool))
    return f"{membership.shape[0]}:{hashlib.sha256(bits.tobytes()).hexdigest()[:24]}"


def csv_membership(path, cells_per_axis):
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    if lines[0] != b"a,b,member" or lines[-1] != b"":
        raise ValueError("CSV header or final newline missing")
    body = lines[1:-1]
    if len(body) != cells_per_axis * cells_per_axis:
        raise ValueError(f"CSV has {len(body)} cells, expected {cells_per_axis ** 2}")
    last = np.frombuffer(b"".join(line[-1:] for line in body), dtype=np.uint8)
    if not np.all((last == ord("0")) | (last == ord("1"))):
        raise ValueError("membership column is not 0/1")
    return (last == ord("1")).reshape(cells_per_axis, cells_per_axis)


# ---------------------------------------------------------------------------
# defects of the library that the workloads keep in their data


def known_defect(job, rc, stdout, stderr):
    """Name of the documented defect that explains a failed job, or None.

    ``ss-residual``: for a Schweizer-Sklar conorm with lambda > 1,
    ``canonical_decompose`` raises "residual infimum not attained" on some
    value pairs (i, 1), e.g. (0.85, 1) at lambda = 2.
    """
    lams = [lam for family, lam in map(split_spec, job.conorms) if family == "schweizer_sklar"]
    if rc == 2 and "residual infimum not attained" in stderr and any(l > 1.0 for l in lams):
        return "ss-residual"
    return None
