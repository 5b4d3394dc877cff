"""The three workloads: seeded, stratified, non-repeating lists of qmult CLI jobs.

A workload is a fixed class mix.  One *round* holds ``count`` jobs of every
class, in a seeded order; a run plays rounds until its time is up.  The seed
picks the inputs inside each class (without replacement, so no input repeats
within a run) and never how many jobs a class gets.  Every job carries the
oracle's expectation, computed here without qmult.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial
from pathlib import Path
from typing import Callable

from oracle import (
    Expect,
    binomial_poly,
    binomial_series,
    herbrand_diff,
    honest_anchor,
    koszul_rejects,
    length_fn,
    poly_add,
    poly_affine,
    poly_json,
    poly_scale,
    reflected_json,
    reflected_polys,
    two_factor_series,
)

LIMIT_N = 10**12


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``"{input}"`` in ``argv`` stands for the path of
    the job's input file, which holds ``payload``; a verify job runs on its
    own fixture directory holding the ``corpus`` files."""

    cls: str
    argv: tuple[str, ...]
    expect: Expect
    payload: str = ""
    corpus: tuple[tuple[str, str], ...] = ()

    @property
    def key(self) -> tuple:
        return (self.argv, self.payload, self.corpus)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mix: tuple[tuple[str, int], ...]  # (class, jobs per round)
    pool: Callable[[str], list | None]  # a class's input parameters, cheapest first; None: drawn freely
    make: Callable[[str, object, random.Random, "Context"], Job]
    rounds: int  # rounds generated; a run ends early if it plays them all
    trace_rounds: int  # rounds played by a traced run


@dataclass(frozen=True)
class Context:
    """Read-only inputs a workload's job maker may need besides its random stream."""

    corpus: tuple[tuple[str, dict], ...]  # the shipped fixture files, by name


@dataclass(frozen=True)
class Plan:
    rounds: tuple[tuple[Job, ...], ...]
    warmup: tuple[Job, ...]

    @property
    def jobs(self) -> list[Job]:
        return [job for rnd in self.rounds for job in rnd]


def build_plan(workload: Workload, seed: int, ctx: Context) -> Plan:
    """Every job of every round plus one warm-up job per subcommand.

    Each class draws from its own random stream, so the inputs of one class do
    not depend on the mix of the others.  A class with a parameter pool takes
    a stratified seeded sample of it; a class without one draws inputs until
    they are new.  The warm-up job of a subcommand is one extra draw of its
    first class, which is its cheapest.
    """
    seen: set = set()
    per_class: dict[str, list[Job]] = {}
    warmup: dict[str, Job] = {}
    for cls, count in workload.mix:
        rng = random.Random(f"{workload.name}/{cls}/{seed}")
        need = count * workload.rounds + 1
        pool = workload.pool(cls)
        if pool is None:
            params = iter(range(10**9))
        else:
            # Stratified: one seeded pick from each of ``need`` consecutive
            # slices of the cost-ordered pool, dealt to job slots in an order
            # that does not depend on the seed.
            cuts = [len(pool) * k // need for k in range(need + 1)]
            picks = [pool[rng.randrange(cuts[k], cuts[k + 1])] for k in range(need)]
            random.Random(f"{workload.name}/{cls}/slots").shuffle(picks)
            params = iter(picks)
        jobs: list[Job] = []
        while len(jobs) < need:
            job = workload.make(cls, next(params), rng, ctx)
            if job.key not in seen:
                seen.add(job.key)
                jobs.append(job)
        per_class[cls] = jobs[:-1]
        warmup.setdefault(jobs[-1].argv[0], jobs[-1])
    order = random.Random(f"{workload.name}/order/{seed}")
    rounds = []
    for r in range(workload.rounds):
        rnd = [job for cls, count in workload.mix for job in per_class[cls][r * count : (r + 1) * count]]
        order.shuffle(rnd)
        rounds.append(tuple(rnd))
    return Plan(tuple(rounds), tuple(warmup.values()))


# -- high_cx ---------------------------------------------------------------------

HIGH_CX_PROBE = 80  # the CLI's default --probe


# The sign scan of a tail evaluates every integer up to its Cauchy root bound.
# Inputs whose two residue polynomials need 250..5000 evaluations in all keep
# that scan on the blocking path and the cost of a job within a narrow range.
SCAN_BAND = (250, 5000)


@cache
def _shifted_rising(c: int, shift: int) -> list[int]:
    """Integer coefficients in m of R(2m + shift), R(x) = (x+1)(x+2)...(x+c-1)."""
    acc: list[int] = [1]
    for j in range(1, c):
        nxt = [0] * (len(acc) + 1)
        for e, coef in enumerate(acc):  # times (2m + shift + j)
            nxt[e] += coef * (shift + j)
            nxt[e + 1] += coef * 2
        acc = nxt
    return acc


def scan_horizon(a: int, b: int, c: int) -> int:
    """Sum over both residues of the Cauchy bound of the d = 2 tail of
    t^a (1+t)^b / (1-t)^c: (c-1)! lam(n) = sum_k C(b,k) R(n - a - k)."""
    total = 0
    for i in range(2):
        g = [0] * c
        for k in range(b + 1):
            for e, coef in enumerate(_shifted_rising(c, i - a - k)):
                g[e] += comb(b, k) * coef
        total += 1 + max(abs(x) // abs(g[-1]) for x in g[:-1])
    return total


@cache
def _high_cx_pairs(c: int) -> list[tuple[int, int]]:
    ranked = sorted((scan_horizon(a, b, c), a, b) for a in range(16) for b in range(26))
    return [(a, b) for h, a, b in ranked if SCAN_BAND[0] <= h <= SCAN_BAND[1]]


def _high_cx_pool(cls: str) -> list | None:
    if cls == "verify/paper":
        return None
    return _high_cx_pairs(int(cls.split("/c")[1]))


def _high_cx(cls: str, param, rng: random.Random, ctx: Context) -> Job:
    if cls == "verify/paper":
        return _verify_job(cls, rng, ctx)
    cmd, c = cls.split("/c")
    c = int(c)
    a, b = param
    d, s = 2, c
    lam, P = binomial_series(a, b, c)
    polys = [poly_affine(P, d, r) for r in range(d)]
    e = herbrand_diff(lam, s, d, 2 * HIGH_CX_PROBE)
    if e != 0:  # d = 2 and a period-1 function: the top multiplicity vanishes
        raise AssertionError(f"high_cx oracle: e = {e} for {cls} a={a} b={b}")
    expr = f"t^{a}*(1+t)^{b}/(1-t)^{c}"
    spec = ("binomial", a, b, c)
    leading = tuple(_coef(p, s - 1) for p in polys)
    if cmd == "e":
        # lam is nondecreasing, so |sum_{j<=n} (-1)^j lam(j)| <= lam(n): the
        # estimators are within C * lam(n) / n^s of their target 0.
        bound = Fraction(lam(LIMIT_N), LIMIT_N**s) * factorial(s)
        tol = (bound * d ** (2 * s - 1), bound * d**s)
        argv = ("e", "--json", "--limit-n", str(LIMIT_N), "--expr", expr)
        return Job(cls, argv, Expect("e", d, s, e, spec, leading, tol))
    if cmd == "koszul":
        return Job(cls, ("koszul", "--expr", expr), Expect("koszul", d, s, e, spec))
    values = [lam(n) for n in range(HIGH_CX_PROBE + 1)]
    anchor = honest_anchor(lam, polys, d, 0, HIGH_CX_PROBE)
    return _reflected_job(cls, d, s, e, spec, 0, values, polys, anchor)


HIGH_CX = Workload(
    name="high_cx",
    why="t^a(1+t)^b/(1-t)^c, d=2; round of 27: e c4-9, koszul c4-8, e-neg c4-7, verify. The degree-c sign scan, fit and Faulhaber limit block; the period is trivial",
    mix=(
        ("e-neg/c4", 1), ("e-neg/c5", 1), ("e-neg/c6", 1), ("e-neg/c7", 1),
        ("e/c4", 1), ("koszul/c4", 1),
        ("e/c5", 1), ("koszul/c5", 1),
        ("e/c6", 2), ("koszul/c6", 2),
        ("e/c7", 3), ("koszul/c7", 2),
        ("e/c8", 2), ("koszul/c8", 2),
        ("e/c9", 5),
        ("verify/paper", 1),
    ),
    pool=_high_cx_pool,
    make=_high_cx,
    rounds=8,
    trace_rounds=1,
)


# -- long_period -----------------------------------------------------------------


def _divisors(d: int) -> list[int]:
    return [k for k in range(1, d + 1) if d % k == 0]


def _long_period_pool(cls: str) -> list | None:
    if cls == "verify/paper":
        return None
    d = int(cls.split("/d")[1])
    # k1 in {1, 2} keeps every (or every other) residue class populated, so
    # the residue profiles, and the cost of a job, are alike inside a class.
    # The classes with one job a round vary only the shift: their cost sets
    # much of a round's, so it must not depend on which factors the seed drew.
    if d >= 60:
        return [(2, d // 2, a) for a in range(2 * d)]
    ks = _divisors(d)
    return [(k1, k2, a) for k1 in (1, 2) for k2 in ks if k1 <= k2 and k1 + k2 <= d for a in range(2 * d)]


def _long_period(cls: str, param, rng: random.Random, ctx: Context) -> Job:
    if cls == "verify/paper":
        return _verify_job(cls, rng, ctx)
    cmd, d = cls.split("/d")
    d = int(d)
    k1, k2, a = param
    probe, s = 7 * d, 2
    seq = two_factor_series(a, k1, k2, probe + 4 * d)
    lam = seq.__getitem__
    # Each residue class is linear in the block index from n = a on; fit it
    # through the two top blocks of the probe window.
    polys = []
    for r in range(d):
        m = (probe - r) // d
        hi, lo = seq[d * m + r], seq[d * (m - 1) + r]
        polys.append(poly_add([Fraction(hi - (hi - lo) * m)], [Fraction(0), Fraction(hi - lo)]))
    anchor = honest_anchor(lam, polys, d, 0, probe)
    if anchor > a:
        raise AssertionError(f"long_period oracle: anchor {anchor} above {a} for {cls}")
    e = herbrand_diff(lam, s, d, probe + d)
    expr = f"t^{a}/((1-t^{k1})*(1-t^{k2}))"
    spec = ("two_factor", a, k1, k2)
    leading = tuple(_coef(p, s - 1) for p in polys)
    flags = ("--expr", expr, "--d", str(d), "--probe", str(probe))
    if cmd == "e":
        # #{k1*i + k2*j = n - a} <= n + 1; over whole blocks the alternating
        # sum is a quadratic in the block index whose remainder, and the
        # partial last block, stay below 4d lambda(n).
        bound = Fraction(8 * d * (LIMIT_N + 1), LIMIT_N**s) * factorial(s)
        tol = (bound * d ** (2 * s - 1), bound * d**s)
        argv = ("e", "--json", "--limit-n", str(LIMIT_N)) + flags
        return Job(cls, argv, Expect("e", d, s, e, spec, leading, tol))
    if cmd == "koszul":
        return Job(cls, ("koszul",) + flags, Expect("koszul", d, s, e, spec))
    return _reflected_job(cls, d, s, e, spec, 0, seq[: probe + 1], polys, anchor)


LONG_PERIOD = Workload(
    name="long_period",
    why="t^a/((1-t^k1)(1-t^k2)), k1,k2 | d, cx=2; round of 100: e, koszul, e-neg at d=12,24; e, e-neg at 60; e at 120; verify. O(d^2) residue profiles and scans block",
    mix=(
        ("e-neg/d12", 30),
        ("e/d12", 20), ("koszul/d12", 20),
        ("e-neg/d24", 12),
        ("e/d24", 7), ("koszul/d24", 7),
        ("verify/paper", 1), ("e-neg/d60", 1), ("e/d60", 1), ("e/d120", 1),
    ),
    pool=_long_period_pool,
    make=_long_period,
    rounds=7,
    trace_rounds=1,
)


# -- small_models ----------------------------------------------------------------

SMALL_SHAPES = tuple(product((2, 4, 6), (0, 1, 2, 3)))  # (d, top tail degree)


def _small_model(rng: random.Random, d: int, top: int, chain: bool = False) -> tuple:
    """A random length function: vanishing below, quasi-polynomial above.

    Tails are nonnegative integer combinations of C(m, k), so they are
    nonnegative integers for every block m >= 0; the core is under 40 wide.
    With ``chain`` each tail is c_i * C(m, top) continued by 0 below n = 0:
    every reduction step of such a function is nonnegative, so Koszul accepts
    it.  Otherwise the core below the tail is random and most are rejected.
    """
    if chain:
        scales = [rng.randint(0, 4) for _ in range(d)]
        scales[rng.randrange(d)] = rng.randint(1, 4)
        polys = [tuple(poly_scale(binomial_poly(0, top), c)) for c in scales]
    else:
        degrees = [rng.randint(-1, top) for _ in range(d)]
        degrees[rng.randrange(d)] = top
        polys = []
        for deg in degrees:
            coeffs = [rng.randint(0, 4) for _ in range(deg)] + [rng.randint(1, 4)] if deg >= 0 else []
            p: list = []
            for k, ck in enumerate(coeffs):
                p = poly_add(p, poly_scale(binomial_poly(0, k), ck))
            polys.append(tuple(p))
    while True:
        valid_from = d * rng.randint(0, 1)
        start = -rng.randint(0, 3)
        end = valid_from + d * (top + 2) + rng.randint(0, d)
        if end - start + 1 < 40:
            break
    tail = length_fn(("model", d, start, (), tuple(polys), 0))  # evaluated at n >= 0 only
    if chain:
        core = [tail(n) if n >= 0 else 0 for n in range(start, valid_from)]
    else:
        core = [rng.randint(0, 6) for _ in range(start, valid_from)]
    values = tuple(core + [tail(n) for n in range(valid_from, end + 1)])
    return ("model", d, start, values, tuple(polys), valid_from)


def _model_json(spec: tuple) -> str:
    _, d, start, values, polys, valid_from = spec
    return json.dumps(
        {
            "d": d,
            "core": {"start": start, "values": list(values)},
            "pos_tail": {"kind": "quasipoly", "valid_from": valid_from, "polys": [poly_json(list(p)) for p in polys]},
            "neg_tail": {"kind": "vanishing"},
        }
    )


def _small_models(cls: str, i, rng: random.Random, ctx: Context) -> Job:
    if cls == "verify/paper":
        return _verify_job(cls, rng, ctx)
    d, top = SMALL_SHAPES[i % len(SMALL_SHAPES)]
    s = top + 1
    while True:
        spec = _small_model(rng, d, top, chain=cls == "koszul/accept")
        lam = length_fn(spec)
        start, values, valid_from = spec[2], spec[3], spec[5]
        # Below start - s*d every step is 0; from valid_from on every step is
        # a difference of nonnegative binomial combinations.
        if cls.startswith("koszul") and koszul_rejects(lam, d, s, start - s * d - 1, valid_from) != (
            cls == "koszul/reject"
        ):
            if cls == "koszul/accept":
                raise AssertionError(f"small_models oracle: a chain model is rejected: {spec}")
            continue
        break
    e = herbrand_diff(lam, s, d, start + len(values) + d)
    polys = [list(p) for p in spec[4]]
    leading = tuple(_coef(p, s - 1) for p in polys)
    if cls == "e":
        return Job(cls, ("e", "--json", "--input", "{input}"), Expect("e", d, s, e, spec, leading), _model_json(spec))
    if cls == "cx":
        return Job(cls, ("cx", "--input", "{input}"), Expect("cx", d, s), _model_json(spec))
    if cls.startswith("koszul"):
        expect = Expect("koszul", d, s, e, spec, reject=cls == "koszul/reject")
        return Job(cls, ("koszul", "--input", "{input}"), expect, _model_json(spec))
    return _reflected_job(cls, d, s, e, spec, start, list(values), polys, valid_from)


SMALL_MODELS = Workload(
    name="small_models",
    why="random JSON length functions, d in {2,4,6}, tail degree <= 3, core < 40; round of 41: cx, e, e-neg, koszul, verify. Per-call cost (argparse, JSON, validation) dominates",
    mix=(
        ("cx", 10),
        ("e", 10),
        ("e-neg", 10),
        ("koszul/reject", 4),
        ("koszul/accept", 6),
        ("verify/paper", 1),
    ),
    pool=lambda cls: None,
    make=_small_models,
    rounds=40,
    trace_rounds=2,
)


# -- shared job makers -------------------------------------------------------------


def _coef(p: list, k: int) -> Fraction:
    return p[k] if k < len(p) else Fraction(0)


def _reflected_job(cls, d, s, e, spec, start, values, polys, anchor) -> Job:
    """e-neg on n -> lam(-n): reflection duality makes e_delta equal lam's."""
    doc = reflected_json(d, start, list(values), polys, anchor)
    leading = tuple(_coef(p, s - 1) for p in reflected_polys(d, polys))
    return Job(cls, ("e-neg", "--json", "--input", "{input}"), Expect("e-neg", d, s, e, spec, leading), json.dumps(doc))


def _verify_job(cls: str, rng: random.Random, ctx: Context) -> Job:
    """verify --suite paper on the shipped corpus with one seeded check
    dropped from every file, so that no two verify jobs share an input."""
    files, count = [], 0
    for name, doc in ctx.corpus:
        checks = [(ci, k) for ci, case in enumerate(doc["cases"]) for k in range(len(case["expected"]))]
        drop = rng.choice(checks)
        cases = [
            dict(case, expected=[chk for k, chk in enumerate(case["expected"]) if (ci, k) != drop])
            for ci, case in enumerate(doc["cases"])
        ]
        files.append((name, json.dumps(dict(doc, cases=cases))))
        count += len(checks) - 1
    return Job(cls, ("verify", "--suite", "paper"), Expect("verify", count=count), corpus=tuple(files))


def load_corpus(fixture_dir: Path) -> tuple[tuple[str, dict], ...]:
    return tuple((p.name, json.loads(p.read_text())) for p in sorted(fixture_dir.glob("*.json")))


WORKLOADS = {w.name: w for w in (HIGH_CX, LONG_PERIOD, SMALL_MODELS)}
