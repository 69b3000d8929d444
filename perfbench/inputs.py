"""Seeded inputs for the ``membership`` workload, with their expected verdicts.

Every query is built so that its verdict follows from how it was made, not
from the package under test:

* Cantor-dust points, drawn exactly as criterion 2 of the acceptance suite
  draws them: ``x`` and ``y`` are 12-digit triadics with digits 0 and 2, so no
  digit position can hold two 1s, and ``z = randint(0, den) / den`` with
  ``den = randint(1, 10**6)``; every such point lies in the sponge;
* planted points ``(N + 1/4) / 3**L``: ``N`` has the chosen ``L`` ternary
  digits and ``1/4 = 0.(02)`` in base 3 adds a tail with no digit 1, so the
  point is non-triadic and its verdict at every stage is decided by the
  planted digits alone;
* 1-free periodic points ``B / (3**p - 1)`` with digits 0 and 2 and distinct
  prime periods ``p``: members of the carpet face and of the sponge whose
  joint period is the product of the periods.

The cost of a dust query at the seed is about linear in its joint period,
which spans three orders of magnitude, so a few hundred plain draws give a
median that moves by tens of percent from seed to seed. Each cycle therefore
takes one dust point from each ventile of the joint period (stratified
sampling): draws are made as criterion 2 makes them and a draw is kept only
if its ventile is still empty in the cycle. Peak memory follows the longest
period in a run, so the top ventile is split further into sixteenths: cycle
``c`` takes its top-ventile point from sixteenth ``15 - c % 16``, which puts
the longest periods in the first cycle of every run and keeps the mix of 16
cycles that of the ventile. The bounds in ``DUST_VENTILES`` and
``DUST_TOP_SIXTEENTHS`` come from 100 000 and 300 000 such draws (seeded
``random.Random(0)``); ``python3 perfbench/inputs.py`` recomputes them.

Cycles are made one at a time from ``(seed, cycle index)``, so a run never
repeats an input however many cycles it reaches.
"""

from __future__ import annotations

import bisect
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

DIMS = {"cantor": 1, "carpet-face": 2, "sponge": 3, "carpet2": 3}
_LIBRARY_SPACE = {"cantor": "cantor", "carpet-face": "carpet_face", "sponge": "sponge", "carpet2": "carpet2"}

# upper bounds of the first 19 ventiles of the joint period of criterion-2 dust points
DUST_VENTILES = (
    251, 611, 1084, 1758, 2741, 3972, 5512, 7611, 10352, 13872,
    18491, 24432, 32502, 43144, 58170, 79645, 114172, 170765, 296610,
)
# upper bounds of the first 15 sixteenths of the top ventile
DUST_TOP_SIXTEENTHS = (
    309642, 323621, 338044, 354810, 372425, 388973, 406368, 425824,
    446320, 465810, 486170, 543868, 653890, 768784, 882472,
)
COPRIME_LCM = (100_000, 130_000)  # joint-period band of the 1-free periodic points

# the known refutation crash: first violation at position 6, depth 6 scanned
CRASH_ARGV = ("predicate", "--space", "sponge", "1/8", "1/26", "0")

# one cycle of the closed loop, in query kinds; shuffled per cycle by the seed
CYCLE = (
    ["stage"] * 2
    + ["predicate-member", "predicate-stage", "predicate-refute", "predicate-crash"]
    + ["dust"] * (len(DUST_VENTILES) + 1)
    + ["coprime"]
)


def _bad(space: str, digits) -> bool:
    """Removal rule of each space at one digit position (README, 'What is in the box')."""
    ones = sum(d == 1 for d in digits)
    if space == "cantor":
        return ones == 1
    if space == "carpet-face":
        return ones == 2
    if space == "sponge":
        return ones >= 2
    return ones == 3  # carpet2


@dataclass
class Query:
    """One timed call: ``kind`` names its class, ``call`` says how to make it."""

    kind: str
    call: str  # "in_sponge", "membership", "membership_stage" or "cli"
    args: tuple
    expected: bool
    joint_period: int  # computed pre + lcm(periods) of a limit query, else 0


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _order_of_3(m: int) -> int:
    """Multiplicative order of 3 modulo m > 1, m coprime to 3."""
    order = 1  # Carmichael's lambda(m), which the order divides
    for p, k in _factor(m).items():
        if p == 2:
            order = lcm(order, 2 if k == 2 else 2 ** max(0, k - 2))
        else:
            order = lcm(order, (p - 1) * p ** (k - 1))
    for q in _factor(order):
        while order % q == 0 and pow(3, order // q, m) == 1:
            order //= q
    return order


def _pre_period(x: Fraction, period: int | None = None) -> tuple[int, int]:
    """(preperiod, period) of the base-3 expansion of x, from its denominator."""
    den, pre = x.denominator, 0
    while den % 3 == 0:
        den //= 3
        pre += 1
    if period is None:
        period = 1 if den == 1 else _order_of_3(den)
    return pre, period


def _joint_period(coords, periods=None) -> int:
    """pre + lcm(periods); pass the periods where the denominator is too big to factor."""
    pp = [_pre_period(c, None if periods is None else periods[i]) for i, c in enumerate(coords)]
    return max(p for p, _ in pp) + lcm(*(q for _, q in pp))


def _planted(rng: random.Random, space: str, length: int, member: bool):
    """Digits for every coordinate, with or without a violating position."""
    dim = DIMS[space]
    bad_at = None if member else rng.randrange(length)
    cols = []
    for i in range(length):
        while True:
            ds = tuple(rng.randrange(3) for _ in range(dim))
            if _bad(space, ds) == (i == bad_at):
                break
        cols.append(ds)
    return [[col[a] for col in cols] for a in range(dim)]


def _planted_point(digits) -> Fraction:
    n = 0
    for d in digits:
        n = 3 * n + d
    return (n + Fraction(1, 4)) / 3 ** len(digits)


def _stage_verdict(space: str, digit_rows, k: int) -> bool:
    return not any(_bad(space, col) for col in list(zip(*digit_rows))[:k])


def _dust_point(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """One draw of criterion 2 (tests/test_acceptance.py)."""
    x = Fraction(sum(rng.choice((0, 2)) * 3**i for i in range(12)), 3**12)
    y = Fraction(sum(rng.choice((0, 2)) * 3**i for i in range(12)), 3**12)
    den = rng.randint(1, 10**6)
    z = Fraction(rng.randint(0, den), den)
    return x, y, z


def _dust_queries(rng: random.Random, cycle: int) -> list[Query]:
    """One criterion-2 dust point from each ventile of the joint period."""
    slots: list[Query | None] = [None] * (len(DUST_VENTILES) + 1)
    top = len(DUST_TOP_SIXTEENTHS) - cycle % (len(DUST_TOP_SIXTEENTHS) + 1)
    missing = len(slots)
    while missing:
        point = _dust_point(rng)
        jp = _joint_period(point)
        s = bisect.bisect_left(DUST_VENTILES, jp)
        if s == len(DUST_VENTILES) and bisect.bisect_left(DUST_TOP_SIXTEENTHS, jp) != top:
            continue
        if slots[s] is None:
            slots[s] = Query("dust", "in_sponge", point, True, jp)
            missing -= 1
    return slots


def _one_free_periodic(rng: random.Random, p: int) -> Fraction:
    while True:
        block = [rng.choice((0, 2)) for _ in range(p)]
        if 0 in block and 2 in block:
            break
    b = 0
    for d in block:
        b = 3 * b + d
    return Fraction(b, 3**p - 1)


_SMALL_PRIMES = [p for p in range(30, 500) if _factor(p) == {p: 1}]


def _coprime_periods(rng: random.Random, count: int) -> list[int]:
    lo, hi = COPRIME_LCM
    pool = [p for p in _SMALL_PRIMES if p ** count < 4 * hi and p ** count > lo // 4]
    while True:
        ps = rng.sample(pool, count)
        prod = 1
        for p in ps:
            prod *= p
        if lo <= prod <= hi:
            return ps


def _query(rng: random.Random, kind: str, cycle: int) -> Query:
    if kind == "coprime":
        space = "carpet_face" if cycle % 2 == 0 else "sponge"
        periods = _coprime_periods(rng, 2 if space == "carpet_face" else 3)
        point = tuple(_one_free_periodic(rng, p) for p in periods)
        return Query(kind, "membership", (point, space), True, _joint_period(point, periods))
    if kind == "predicate-crash":
        coords = tuple(Fraction(c) for c in CRASH_ARGV[3:])
        return Query(kind, "cli", CRASH_ARGV, False, _joint_period(coords))
    space = rng.choice(sorted(DIMS))
    length = rng.randrange(8, 15)
    member = kind == "predicate-member" or (kind != "predicate-refute" and rng.random() < 0.5)
    rows = _planted(rng, space, length, member)
    point = tuple(_planted_point(r) for r in rows)
    if kind == "stage":
        k = rng.randrange(1, length + 3)
        expected = _stage_verdict(space, rows, k)
        return Query(kind, "membership_stage", (point, k, _LIBRARY_SPACE[space]), expected, 0)
    argv = ["predicate", "--space", space]
    if kind == "predicate-stage":
        k = rng.randrange(1, length + 3)
        argv += ["--stage", str(k)]
        expected, jp = _stage_verdict(space, rows, k), 0
    else:
        expected, jp = member, _joint_period(point)
    argv += [f"{c.numerator}/{c.denominator}" for c in point]
    return Query(kind, "cli", tuple(argv), expected, jp)


def membership_cycle(seed: int, cycle: int) -> list[Query]:
    """The queries of one cycle, in seeded order: CYCLE with fresh inputs."""
    rng = random.Random(f"{seed}/{cycle}")
    queries = _dust_queries(rng, cycle)
    queries += [_query(rng, kind, cycle) for kind in CYCLE if kind != "dust"]
    rng.shuffle(queries)
    return queries


if __name__ == "__main__":
    rng = random.Random(0)
    jps = [_joint_period(_dust_point(rng)) for _ in range(300_000)]
    print("DUST_VENTILES", tuple(round(q) for q in statistics.quantiles(jps[:100_000], n=20, method="inclusive")))
    top = [jp for jp in jps if jp > DUST_VENTILES[-1]]
    print("DUST_TOP_SIXTEENTHS", tuple(round(q) for q in statistics.quantiles(top, n=16, method="inclusive")))
