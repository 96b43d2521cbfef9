"""Job sequences of the two workloads.

Each workload is a generator of jobs made from the workload seed.  The kinds
and sizes of the jobs follow a fixed pattern (a short prefix of large jobs,
then a repeated round of smaller ones), so that runs with different seeds
do the same work on different data; only the data come from the seed.  No
job input repeats within a run.  A run makes ``job_count`` jobs, a number
fixed by the workload and the run length alone, so that two runs with one
seed make the same jobs however fast the machine is.

relations  relation-file pipeline: decompose, audit and transitive closure
           at n = 48 .. 2000 on grid-valued (step 1/20) and continuous
           degrees.  Relation I/O, decomposition, the FP audit and array
           evaluators do the work; divisor intervals do almost none.
regions    both reference tables once, then region rasters, weak and
           strong, written as CSV at resolutions 100 .. 450 and 1000, and
           restricted-decomposability checks up to 2000 that rasterise
           without writing.  Rasters, the CSV writer and (in the tables)
           the divisor-interval sweep and rule classification do the work;
           relation I/O does none.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

import checks

GRID = 20  # grid-valued degrees are k/GRID

WEAK_CONORMS = (
    "max", "prob", "lukasiewicz",
    "schweizer_sklar:lambda=-1", "schweizer_sklar:lambda=0.5", "schweizer_sklar:lambda=2",
    "hamacher:lambda=0.5", "hamacher:lambda=2", "ordinal_sum",
)
# (norm, conorm) pairs whose strong existence holds
STRONG_PAIRS = (
    ("lukasiewicz", "lukasiewicz"),
    ("lukasiewicz", "schweizer_sklar:lambda=2"),
    ("schweizer_sklar:lambda=2", "schweizer_sklar:lambda=2"),
    ("drastic", "lukasiewicz"),
)
CLOSURE_NORMS = ("minimum", "product", "lukasiewicz", "hamacher:lambda=2", "schweizer_sklar:lambda=0.5")


@dataclass
class Job:
    kind: str
    label: str
    cells: int
    argv: Optional[List[str]] = None
    conorms: Tuple[str, ...] = ()
    prepare: Optional[Callable[[], None]] = None  # writes inputs, untimed
    run: Optional[Callable[[], int]] = None  # library-level jobs
    check: Callable[[int, str, str], Optional[str]] = None  # (rc, stdout, stderr) -> reason
    files: List[str] = field(default_factory=list)  # removed after the check


def write_relation(path, matrix, numerators=None):
    """Write a ``fuzzrel v1`` file.  Grid-valued matrices pass their integer
    numerators, which are written through a lookup table."""
    n = matrix.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("fuzzrel v1\nuniverse " + " ".join(f"x{i}" for i in range(n)) + "\n")
        if numerators is not None:
            words = [repr(k / GRID) for k in range(GRID + 1)]
            for row in numerators.tolist():
                fh.write(" ".join([words[k] for k in row]) + "\n")
        else:
            for row in matrix.tolist():
                fh.write(" ".join(map(repr, row)) + "\n")


def _random_relation(rng, n, grid):
    if grid:
        num = rng.integers(0, GRID + 1, size=(n, n))
        np.fill_diagonal(num, GRID)
        return num / GRID, num
    mat = rng.random((n, n))
    np.fill_diagonal(mat, 1.0)
    return mat, None


def _cycle_combos(items):
    """Endless (item, grid?) pairs covering every item with both degree kinds."""
    return itertools.cycle([(it, grid) for grid in (True, False) for it in items])


# ---------------------------------------------------------------------------
# relations


# (job, smallest n, largest n); the prefix runs once, then whole rounds.
# Sizes are spread evenly on a log scale over wide ranges, so that job costs
# form a smooth band about twenty-fold wide with the median and the 90th
# percentile well inside it.  A quantile of such a band moves with the share
# of a run the machine spends slowed down, as a mean does; in a narrow band
# it would jump to the slowed-down cost as soon as that share passed 10%.
RELATIONS_PREFIX = (("audit", 2000, 2000), ("decompose", 1000, 1000), ("closure", 256, 256))
RELATIONS_ROUND = (
    ("decompose", 80, 480), ("audit", 200, 800), ("closure", 48, 128),
    ("decompose-strong", 80, 480), ("audit", 200, 800), ("decompose", 80, 480),
    ("audit-strong", 200, 800), ("decompose", 80, 480), ("closure", 48, 128),
    ("audit", 200, 800), ("decompose", 80, 480), ("decompose", 80, 480),
)


def _rounds(rng, prefix, round_slots):
    """(slot, value) for the prefix, then endless rounds.  A slot's (lo, hi)
    range is covered evenly on a log scale by a golden-ratio sequence whose
    phase comes from the seed, so every run sees the same spread of sizes."""
    phase = rng.random(len(round_slots))
    for slot in prefix:
        yield slot, slot[-1]
    for r in itertools.count():
        for i, slot in enumerate(round_slots):
            lo, hi = slot[-2], slot[-1]
            frac = (phase[i] + r * 0.6180339887498949) % 1.0
            yield slot, round(lo * (hi / lo) ** frac)


def relations(seed: int, tmp: str) -> Iterator[Job]:
    import fuzzdec

    rng = np.random.default_rng(seed)
    weak = _cycle_combos(WEAK_CONORMS)
    strong = _cycle_combos(STRONG_PAIRS)
    closure = _cycle_combos(CLOSURE_NORMS)
    for k, ((kind, _, _), n) in enumerate(_rounds(rng, RELATIONS_PREFIX, RELATIONS_ROUND)):
        if kind == "closure":
            norm, grid = next(closure)
            if n > 128:  # the parametric norms need about 1 GB at n = 256
                norm = "lukasiewicz"
            job = _closure_job(fuzzdec, rng, n, norm, grid)
        else:
            if kind.endswith("strong"):
                (norm, conorm), grid = next(strong)
            else:
                (conorm, grid), norm = next(weak), None
            job = _relation_job(rng, tmp, k, kind.split("-")[0], n, conorm, norm, grid)
        yield job


def _relation_job(rng, tmp, k, cmd, n, conorm, norm, grid):
    path = os.path.join(tmp, f"rel{k}.txt")
    R, num = _random_relation(rng, n, grid)
    argv = [cmd, "--relation", path, "--conorm", conorm] + (["--norm", norm] if norm else [])

    def check(rc, out, err):
        if cmd == "audit":
            return None if rc == 0 and "\noverall: pass" in out else f"audit rc={rc}"
        if rc != 0:
            return f"decompose rc={rc}"
        return checks.check_decomposition(R, out, conorm, norm)

    kind_name = f"{cmd}-{'strong' if norm else 'weak'}"
    return Job(
        kind=cmd,
        label=f"{kind_name} n={n} {'grid' if grid else 'continuous'} {norm or ''}/{conorm}",
        cells=n * n,
        argv=argv,
        conorms=(conorm,),
        prepare=lambda: write_relation(path, R, num),
        check=check,
        files=[path],
    )


def _closure_job(fuzzdec, rng, n, norm, grid):
    R, _ = _random_relation(rng, n, grid)
    family, lam = checks.split_spec(norm)
    state = {}

    def prepare():
        state["R"] = fuzzdec.FuzzyRelation(tuple(f"x{i}" for i in range(n)), R)
        state["T"] = fuzzdec.make_norm(family, lam)

    def run():
        C = fuzzdec.regions.t_transitive_closure(state["R"], state["T"])
        state["C"] = C.degrees
        state["transitive"] = fuzzdec.relations.is_t_transitive(C, state["T"])
        return 0

    def check(rc, out, err):
        return checks.check_closure(R, state["C"], norm, state["transitive"])

    return Job(
        kind="closure",
        label=f"closure n={n} {'grid' if grid else 'continuous'} {norm}",
        cells=n * n,
        prepare=prepare,
        run=run,
        check=check,
    )


# ---------------------------------------------------------------------------
# regions


REGION_CONORMS = (
    "max", "prob", "lukasiewicz", "drastic", "ordinal_sum",
    *(f"schweizer_sklar:lambda={lam}" for lam in (-2, -1, -0.5, 0.5, 1, 2, 3, 5)),
    *(f"hamacher:lambda={lam}" for lam in (0, 0.5, 1, 2, 5)),
)
REGION_PAIRS = (
    ("lukasiewicz", "lukasiewicz"), ("lukasiewicz", "schweizer_sklar:lambda=2"),
    ("schweizer_sklar:lambda=2", "schweizer_sklar:lambda=2"), ("drastic", "lukasiewicz"),
    ("drastic", "schweizer_sklar:lambda=0.5"), ("minimum", "max"), ("product", "prob"),
    ("lukasiewicz", "prob"), ("schweizer_sklar:lambda=2", "lukasiewicz"),
    ("hamacher:lambda=2", "hamacher:lambda=2"), ("drastic", "drastic"),
    ("lukasiewicz", "schweizer_sklar:lambda=3"), ("schweizer_sklar:lambda=0.5", "schweizer_sklar:lambda=0.5"),
    ("ordinal_sum", "ordinal_sum"), ("product", "lukasiewicz"),
)
CONNECTORS = ("lukasiewicz", "drastic", "ordinal_sum")

# (job kind, weak or strong, resolutions).  Each slot walks through its own
# pool of (operators, resolution) pairs without repeating one; the operators
# come in a fixed order and the seed shifts the resolutions.  Pool sizes are
# coprime with the 11 resolutions, so the walk covers every pair.  The
# resolutions of a slot are spread evenly on a log scale, for a wide, smooth
# band of job costs as in ``relations``.
def _G11(lo, hi):
    return tuple(round(lo * (hi / lo) ** (k / 10)) for k in range(11))



REGIONS_PREFIX = (
    ("region", "strong", (1000,)), ("region", "weak", (1000,)),
    ("restricted", "weak", (2000,)), ("restricted", "strong", (1000,)),
)
REGIONS_ROUND = (
    ("region", "weak", _G11(100, 450)), ("region", "strong", _G11(100, 450)),
    ("restricted", "weak", _G11(300, 1200)), ("region", "weak", _G11(100, 450)),
    ("region", "strong", _G11(100, 450)), ("restricted", "strong", _G11(150, 600)),
    ("region", "weak", _G11(100, 450)), ("region", "strong", _G11(100, 450)),
    ("restricted", "weak", _G11(300, 1200)), ("region", "weak", _G11(100, 450)),
    ("restricted", "strong", _G11(150, 600)), ("region", "strong", _G11(100, 450)),
)


def _region_ops(kind, mode):
    ops = REGION_CONORMS if mode == "weak" else REGION_PAIRS
    conns = (None,) if kind == "region" else CONNECTORS
    return [(conn, op) for conn in conns for op in ops]


def region_pool(kind, mode, resolutions):
    """Every (connector, operators, resolution) a slot can draw."""
    return [(conn, op, res) for res in resolutions for conn, op in _region_ops(kind, mode)]


def golden_key(kind, mode, conn, op, res):
    ops = op if mode == "weak" else "/".join(op)
    return f"{kind}|{ops}|{conn or ''}|{res}"


def region_slots():
    return tuple(dict.fromkeys(REGIONS_PREFIX + REGIONS_ROUND))


def _slot_walk(kind, mode, resolutions, shift):
    ops = _region_ops(kind, mode)
    for k in range(len(ops) * len(resolutions)):
        conn, op = ops[k % len(ops)]
        yield conn, op, resolutions[(k + shift) % len(resolutions)]


def _tables_job(seed, which):
    extra = ["--seed", str(seed)] if which == 2 else []

    def check(rc, out, err):
        got = checks.tables_mismatches(out)
        return None if rc == 0 and got == 0 else f"tables rc={rc} mismatches={got}"

    # whole tables enter the latencies but not cells_per_s; table 2 includes
    # the Schweizer-Sklar conorm at lambda = 2 (see checks.known_defect)
    return Job("tables", f"tables --which {which}", 0, ["tables", "--which", str(which), *extra],
               conorms=("schweizer_sklar:lambda=2",), check=check)


def regions(seed: int, tmp: str, golden: dict) -> Iterator[Job]:
    yield _tables_job(seed, 1)
    yield _tables_job(seed, 2)
    rng = np.random.default_rng(seed)
    walks = {slot: _slot_walk(*slot, int(rng.integers(len(slot[2])))) for slot in region_slots()}
    for k, slot in enumerate(itertools.chain(REGIONS_PREFIX, itertools.cycle(REGIONS_ROUND))):
        try:
            conn, op, res = next(walks[slot])
        except StopIteration:
            return
        yield _region_job(tmp, k, slot[0], slot[1], res, conn, op, golden)


def _region_job(tmp, k, kind, mode, res, conn, op, golden):
    norm, conorm = (None, op) if mode == "weak" else op
    expected = golden[golden_key(kind, mode, conn, op, res)]
    argv = [kind] + (["--connected-by", conn] if conn else []) + ["--conorm", conorm]
    argv += (["--norm", norm] if norm else []) + ["--resolution", str(res)]
    files = []
    if kind == "region":
        path = os.path.join(tmp, f"region{k}.csv")
        argv += ["--out", path]
        files.append(path)

        def check(rc, out, err):
            if rc != 0:
                return f"region rc={rc}"
            got = checks.membership_digest(checks.csv_membership(path, res + 1))
            return None if got == expected else "region raster differs from the golden digest"
    else:
        def check(rc, out, err):
            got = "FAILS" if rc == 1 else "HOLDS" if rc == 0 else f"rc={rc}"
            return None if got == expected else f"restricted: {got} != {expected}"

    return Job(kind, f"{kind} {mode} {conn or ''} {norm or ''}/{conorm} 1/{res}",
               (res + 1) ** 2, argv, conorms=(conorm,), check=check, files=files)



# ---------------------------------------------------------------------------
# run length

# Whole rounds per second of run length.  A run makes its prefix (in
# ``regions`` also the two tables) and round(seconds * rate) rounds, which on
# a 2-core Xeon take about ``seconds``, writing inputs and checking outputs
# included.
RATES = {"relations": 0.35, "regions": 0.4}


def job_count(name: str, seconds: float) -> int:
    prefix, one_round = {
        "relations": (len(RELATIONS_PREFIX), len(RELATIONS_ROUND)),
        "regions": (2 + len(REGIONS_PREFIX), len(REGIONS_ROUND)),
    }[name]
    return prefix + max(1, round(seconds * RATES[name])) * one_round
