"""Numerical pole analysis of exactly computed zeta functions.

The rational poles +-1 and +-1/c, for the c the caller names (the CLI names
the graph's q and each cusp's ray_q), are divided out of the denominator
first, in integers (:func:`pole_report`), and reported as the nearest
doubles to their values.  The other roots are located by Aberth-Ehrlich
simultaneous iteration in double precision as in Bini, "Numerical
computation of polynomial zeros by means of Aberth's method", Numer.
Algorithms 13 (1996): the iteration starts from the circles of the Newton
polygon of p, and a root stops once |p(z)| is within rounding noise of
sum |c_k| |z|**k, the size of the terms of p(z).  The quotient is first
split into square-free parts by Yun's algorithm
(:func:`square_free_parts`, which runs in integers in :mod:`cuspzeta.exact`),
so the iteration only ever sees simple roots (a multiple root would cap
double precision at eps**(1/m) accuracy, far coarser than the deliberately
tiny root gaps of the loop family).  The split costs one gcd of p and p'
in the common square-free case.  Each part's integer coefficients are
converted to floats once, as c / lead.  Multiplicities come from the exact
split alone: each root of a part of multiplicity m is reported once with
multiplicity m, and no distance between float roots ever merges them.  A
root at 0 is read off the exact constant term.

Four constants fix the precision: Aberth gives up after ``MAX_ITERATIONS``
sweeps and stops when no root moves by more than ``SHIFT_TOL`` (relative);
a polished root fails unless |p(z)| is within ``RESIDUAL_BOUND`` of
sum |c_k| |z|**k; and ``MODULUS_TOL`` is the tolerance for clustering the
moduli of those numeric roots and for the critical circle of the Ramanujan
test.  No tolerance touches an exact pole: it never clusters with a numeric
one, and the trivial poles of the Ramanujan test are exact ones.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

# No src/ path calls poly_gcd; only perfbench's test_restore_puts_originals_back
# pins the name here, by rebinding it in this namespace.
from cuspzeta.exact import (  # noqa: F401
    Poly, RatFunc, poly_gcd, square_free_parts,
)

__all__ = [
    "PoleReport",
    "RamanujanVerdict",
    "RootFindingError",
    "complex_roots",
    "pole_report",
    "ramanujan_check",
]

MAX_ITERATIONS = 400
RESIDUAL_BOUND = 1e-8
SHIFT_TOL = 1e-12
MODULUS_TOL = 1e-9


class RootFindingError(RuntimeError):
    """Raised when the simultaneous iteration fails to converge or verify."""


def _horner(coeffs: Sequence[float], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _pole_order(pole: tuple[complex, int]) -> tuple[float, float, float]:
    return abs(pole[0]), pole[0].real, pole[0].imag


def complex_roots(p: Poly) -> list[tuple[complex, int]]:
    """All complex roots of p with multiplicities, as (value, multiplicity).

    The exact square-free splitting supplies the multiplicities, so the
    simultaneous iteration always runs on simple roots.  Raises
    :class:`RootFindingError` if a nonzero constant term underflows to 0.0
    (which would fake a root at 0), if the iteration cap is reached before
    convergence, if an approximation fails the scaled residual check or if
    a root is not finite.
    """
    result: list[tuple[complex, int]] = []
    for part, mult in square_free_parts(p):
        coeffs = list(part.coeffs)
        if coeffs[0] == 0:  # u divides a square-free part at most once
            result.append((0j, mult))
            coeffs = coeffs[1:]
        if len(coeffs) < 2:
            continue
        # int / int rounds correctly: each float is the nearest double to c / lead
        floats = [c / coeffs[-1] for c in coeffs]
        if floats[0] == 0.0:
            raise RootFindingError("a nonzero constant term underflows to 0.0")
        roots = _aberth(floats)
        if not all(map(cmath.isfinite, roots)):
            raise RootFindingError("a root is not finite")
        result.extend((value, mult) for value in roots)
    result.sort(key=_pole_order)
    return result


def _aberth(monic: Sequence[float]) -> list[complex]:
    """Simultaneous iteration on a monic square-free float polynomial.

    A root stops moving once its residual reaches the evaluation noise
    floor; requiring further shrinking steps there would spin forever.  Its
    residual cannot change after that, so it is never evaluated again.

    Every root lies within r_F = 2 max_k |c_k|**(1 / (n - k)) (Fujiwara's
    bound).  A step that lands beyond max(r_F, 10**(250 / n)), where Horner's
    rule may overflow, or on NaN, is pulled back onto |z| = r_F along the
    new iterate's direction, or the old one's if the new one is not finite,
    and the sweep does not count as converged.  Ordinary iterates cross r_F
    on their way in, so a clamp at r_F alone would move roots that converge
    without one; the second bound keeps every such root, and the printed
    poles, as they were.
    """
    deriv = [i * c for i, c in enumerate(monic)][1:]
    sizes = [abs(c) for c in monic]
    degree = len(monic) - 1
    fujiwara = 2.0 * max(c ** (1.0 / (degree - k)) for k, c in enumerate(sizes[:-1]))
    limit = max(fujiwara, 10.0 ** (250 / degree))
    z = _newton_polygon_starts(sizes)
    noise = 8.0 * degree * 2.3e-16
    moving = list(range(degree))
    for _ in range(MAX_ITERATIONS):
        shift = 0.0
        still_moving = []
        for i in moving:
            zi = z[i]
            pv = _horner(monic, zi)
            if abs(pv) <= noise * _evaluation_scale(sizes, zi):
                continue
            still_moving.append(i)
            dv = _horner(deriv, zi)
            ratio = pv / dv if dv != 0 else pv
            rep = sum(1.0 / (zi - zj) for j, zj in enumerate(z) if j != i)
            denom = 1.0 - ratio * rep
            delta = ratio / denom if denom != 0 else ratio
            z[i] = zi - delta
            if abs(z[i]) <= limit:
                shift = max(shift, abs(delta) / max(1.0, abs(z[i])))
            else:  # a clamped step never counts as settled
                toward = z[i] if cmath.isfinite(z[i]) else zi
                z[i] = fujiwara * toward / abs(toward)
                shift = math.inf
        moving = still_moving
        if shift <= SHIFT_TOL:
            break
    else:
        raise RootFindingError(
            f"Aberth iteration did not converge within {MAX_ITERATIONS} steps"
        )
    for i in range(degree):
        z[i] = _polish(monic, deriv, z[i])
        if not abs(_horner(monic, z[i])) <= RESIDUAL_BOUND * _evaluation_scale(sizes, z[i]):
            raise RootFindingError(f"root candidate {z[i]} failed the residual check")
    return z


def _newton_polygon_starts(sizes: Sequence[float]) -> list[complex]:
    """Bini's starting points, for a nonzero constant term.  Each segment of the
    upper convex hull of the points (k, log|c_k|), from k_i to k_j, puts starts
    k_i..k_j - 1 on the circle of radius (|c_{k_i}| / |c_{k_j}|)**(1 / (k_j - k_i));
    start k sits at the angle 2 pi k / n + 0.4."""
    hull: list[tuple[int, float]] = []
    for k, log_size in ((k, math.log(c)) for k, c in enumerate(sizes) if c):
        while len(hull) > 1:
            (k0, l0), (k1, l1) = hull[-2], hull[-1]
            if (k1 - k0) * (log_size - l0) < (l1 - l0) * (k - k0):
                break
            hull.pop()
        hull.append((k, log_size))
    degree = len(sizes) - 1
    return [
        math.exp((l0 - l1) / (k1 - k0)) * cmath.exp(2j * math.pi * (k / degree) + 0.4j)
        for (k0, l0), (k1, l1) in zip(hull, hull[1:])
        for k in range(k0, k1)
    ]


def _evaluation_scale(sizes: Sequence[float], z: complex) -> float:
    """sum |c_k| |z|**k by Horner's rule: the size of the terms of p(z)."""
    r = abs(z)
    acc = 0.0
    for c in reversed(sizes):
        acc = acc * r + c
    return acc


def _polish(monic: Sequence[float], deriv: Sequence[float], z: complex) -> complex:
    for _ in range(3):
        dv = _horner(deriv, z)
        if dv == 0:
            break
        step = _horner(monic, z) / dv
        z = z - step
        if abs(step) <= 1e-17 * max(1.0, abs(z)):
            break
    return z


@dataclass(frozen=True)
class PoleReport:
    """Poles of a zeta function with their moduli and the spectral gap.

    ``exact`` holds the rational poles divided out of the denominator
    exactly, each as the nearest double to its value; ``numeric`` holds the
    roots that Aberth found, and ``poles`` all of them, ordered by modulus.
    ``q_values`` are the c whose poles +-1/c were tried exactly.
    """

    exact: tuple[tuple[complex, int], ...]
    numeric: tuple[tuple[complex, int], ...]
    moduli_clusters: tuple[float, ...]
    radius: float
    gap: float | None
    q_values: tuple[int, ...]

    @property
    def poles(self) -> tuple[tuple[complex, int], ...]:
        return tuple(sorted(self.exact + self.numeric, key=_pole_order))

    def to_json(self) -> dict:
        return {
            "poles": [
                {"value": [z.real, z.imag], "multiplicity": m} for z, m in self.poles
            ],
            "moduli": list(self.moduli_clusters),
            "R": self.radius if math.isfinite(self.radius) else None,
            "gap": self.gap,
        }


def pole_report(z: RatFunc, q_values: Iterable[int]) -> PoleReport:
    """Locate the poles (denominator roots) and cluster their moduli.

    First the rational poles +-1 and +-1/c, for each c in ``q_values``, are
    divided out of the denominator as often as ``Poly``'s exact ``/`` by the
    primitive c u -+ 1 succeeds (by Gauss's lemma, that is the root test);
    only the quotient goes to :func:`complex_roots`, which rejects a zero
    denominator.  Each exact modulus is its own cluster, and
    numeric moduli within ``MODULUS_TOL`` relative form one, so an exact
    pole never merges with a numeric one however close.  Pass a graph's q
    and every cusp's ``ray_q``, as the CLI does; a pole +-1/c with c left
    out goes to Aberth, which may merge it with a neighbour.  A zeta
    function without poles reports an infinite radius of convergence.
    """
    q_values = tuple(sorted(set(q_values)))
    den, exact = z.den, []
    for c in sorted({1, *q_values}):
        for a in (1, -1):
            root, mult = Poly([-a, c]), 0
            try:
                while den:  # the zero polynomial is a multiple of everything
                    den, mult = den / root, mult + 1
            except ArithmeticError:
                pass
            if mult:
                exact.append((complex(a / c), mult))
    numeric = complex_roots(den)
    clusters: list[list[float]] = []
    for v in sorted(abs(value) for value, _ in numeric):
        if clusters and v - clusters[-1][-1] <= MODULUS_TOL * max(v, clusters[-1][-1]):
            clusters[-1].append(v)
        else:
            clusters.append([v])
    moduli = sorted([*{abs(value) for value, _ in exact}, *(sum(c) / len(c) for c in clusters)])
    radius = moduli[0] if moduli else math.inf
    gap = moduli[1] - moduli[0] if len(moduli) > 1 else None
    return PoleReport(tuple(exact), tuple(numeric), tuple(moduli), radius, gap, q_values)


@dataclass(frozen=True)
class RamanujanVerdict:
    """Pole classification against the critical circle |u| = 1/sqrt(q)."""

    is_ramanujan: bool
    trivial: tuple[complex, ...]
    critical: tuple[complex, ...]
    offending: tuple[complex, ...]


def ramanujan_check(report: PoleReport, q: int) -> RamanujanVerdict:
    """Flag the graph Ramanujan iff every nontrivial pole has |u| = 1/sqrt(q).

    The trivial poles are the exact poles at |u| = 1 or 1/q, so q must be
    among the report's ``q_values``; this matches the factor structure
    (1 - u), (1 + u), (1 - qu) of the regular families and is a convention
    of this package.  A numeric pole is never trivial, however close to 1/q.
    """
    if q < 2:
        raise ValueError("ramanujan check requires q >= 2")
    if q not in report.q_values:
        raise ValueError(f"the pole report did not try the poles +-1/{q} exactly")
    trivial, critical, offending = [], [], []
    for poles, exact in ((report.exact, True), (report.numeric, False)):
        for value, _mult in poles:
            m = abs(value)
            if exact and m in (1.0, 1.0 / q):
                trivial.append(value)
            elif abs(m - 1.0 / math.sqrt(q)) < MODULUS_TOL:
                critical.append(value)
            else:
                offending.append(value)
    return RamanujanVerdict(not offending, tuple(trivial), tuple(critical), tuple(offending))
