"""Numerical pole analysis of exactly computed zeta functions.

Roots are located by Aberth-Ehrlich simultaneous iteration in double
precision as in Bini, "Numerical computation of polynomial zeros by means of
Aberth's method", Numer. Algorithms 13 (1996): the iteration starts from the
circles of the Newton polygon of p, and a root stops once |p(z)| is within
rounding noise of sum |c_k| |z|**k, the size of the terms of p(z).  The
polynomial is first split into square-free parts by Yun's algorithm
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
sum |c_k| |z|**k; and ``MODULUS_TOL`` is the tolerance for clustering
moduli and for classifying poles in the Ramanujan test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

# No src/ path calls poly_gcd any more; the name stays here for the public API
# and because perfbench's tracer test rebinds it in this namespace.
from cuspzeta.exact import Poly, RatFunc, poly_gcd, square_free_parts  # noqa: F401
from cuspzeta.families import loop_family
from cuspzeta.zeta import bass_ihara_zeta

__all__ = [
    "PoleReport",
    "RamanujanVerdict",
    "SweepRow",
    "RootFindingError",
    "complex_roots",
    "square_free_parts",
    "pole_report",
    "ramanujan_check",
    "pole_gap_sweep",
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


def complex_roots(p: Poly) -> list[tuple[complex, int]]:
    """All complex roots of p with multiplicities, as (value, multiplicity).

    The exact square-free splitting supplies the multiplicities, so the
    simultaneous iteration always runs on simple roots.  Raises
    :class:`RootFindingError` if a nonzero constant term underflows to 0.0
    (which would fake a root at 0), if the iteration cap is reached before
    convergence or if an approximation fails the scaled residual check.
    """
    result: list[tuple[complex, int]] = []
    for part, mult in square_free_parts(p):
        coeffs = [c.numerator for c in part.coeffs]
        if coeffs[0] == 0:  # u divides a square-free part at most once
            result.append((0j, mult))
            coeffs = coeffs[1:]
        if len(coeffs) < 2:
            continue
        # int / int rounds correctly: each float is the nearest double to c / lead
        floats = [c / coeffs[-1] for c in coeffs]
        if floats[0] == 0.0:
            raise RootFindingError("a nonzero constant term underflows to 0.0")
        result.extend((value, mult) for value in _aberth(floats))
    result.sort(key=lambda pair: (abs(pair[0]), pair[0].real, pair[0].imag))
    return result


def _aberth(monic: Sequence[float]) -> list[complex]:
    """Simultaneous iteration on a monic square-free float polynomial.

    A root stops moving once its residual reaches the evaluation noise
    floor; requiring further shrinking steps there would spin forever.  Its
    residual cannot change after that, so it is never evaluated again.
    """
    deriv = [i * c for i, c in enumerate(monic)][1:]
    sizes = [abs(c) for c in monic]
    degree = len(monic) - 1
    z = _newton_polygon_starts(sizes)
    noise = 8.0 * degree * 2.3e-16
    moving = list(range(degree))
    converged = False
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
            shift = max(shift, abs(delta) / max(1.0, abs(z[i])))
        moving = still_moving
        if shift <= SHIFT_TOL:
            converged = True
            break
    if not converged:
        raise RootFindingError(
            f"Aberth iteration did not converge within {MAX_ITERATIONS} steps"
        )
    for i in range(degree):
        z[i] = _polish(monic, deriv, z[i])
        if abs(_horner(monic, z[i])) > RESIDUAL_BOUND * _evaluation_scale(sizes, z[i]):
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
    """Poles of a zeta function with clustered moduli and the spectral gap."""

    poles: tuple[tuple[complex, int], ...]
    moduli_clusters: tuple[float, ...]
    radius: float
    gap: float | None

    def to_json(self) -> dict:
        return {
            "poles": [
                {"value": [z.real, z.imag], "multiplicity": m} for z, m in self.poles
            ],
            "moduli": list(self.moduli_clusters),
            "R": self.radius if math.isfinite(self.radius) else None,
            "gap": self.gap,
        }


def pole_report(z: RatFunc) -> PoleReport:
    """Locate the poles (denominator roots) and cluster their moduli.

    Moduli within ``MODULUS_TOL`` relative form one cluster; a zeta function
    without poles reports an infinite radius of convergence.
    """
    if z.den.degree < 1:
        return PoleReport((), (), math.inf, None)
    poles = tuple(complex_roots(z.den))
    clusters: list[list[float]] = []
    for v in sorted(abs(value) for value, _ in poles):
        if clusters and v - clusters[-1][-1] <= MODULUS_TOL * max(v, clusters[-1][-1]):
            clusters[-1].append(v)
        else:
            clusters.append([v])
    moduli = [sum(c) / len(c) for c in clusters]
    radius = moduli[0]
    gap = moduli[1] - moduli[0] if len(moduli) > 1 else None
    return PoleReport(poles, tuple(moduli), radius, gap)


@dataclass(frozen=True)
class RamanujanVerdict:
    """Pole classification against the critical circle |u| = 1/sqrt(q)."""

    is_ramanujan: bool
    trivial: tuple[complex, ...]
    critical: tuple[complex, ...]
    offending: tuple[complex, ...]


def ramanujan_check(report: PoleReport, q: int) -> RamanujanVerdict:
    """Flag the graph Ramanujan iff every nontrivial pole has |u| = 1/sqrt(q).

    Poles with |u| = 1 or |u| = 1/q (within ``MODULUS_TOL``) are the trivial
    ones; this matches the factor structure (1 - u), (1 + u), (1 - qu) of
    the regular families and is a convention of this package.
    """
    if q < 2:
        raise ValueError("ramanujan check requires q >= 2")
    trivial, critical, offending = [], [], []
    for value, _mult in report.poles:
        m = abs(value)
        if abs(m - 1.0) <= MODULUS_TOL or abs(m - 1.0 / q) <= MODULUS_TOL:
            trivial.append(value)
        elif abs(m - 1.0 / math.sqrt(q)) < MODULUS_TOL:
            critical.append(value)
        else:
            offending.append(value)
    return RamanujanVerdict(not offending, tuple(trivial), tuple(critical), tuple(offending))


@dataclass(frozen=True)
class SweepRow:
    n: int
    radius: float
    second_modulus: float | None
    is_ramanujan: bool


def pole_gap_sweep(q: int, n_values: Sequence[int]) -> list[SweepRow]:
    """Radius and second pole modulus of the loop family across N.

    The radius stays pinned at 1/q while the second modulus decreases
    towards it, shrinking the pole-free annulus.
    """
    if not n_values:
        raise ValueError("sweep needs a nonempty range of N values")
    rows = []
    for n in n_values:
        z = bass_ihara_zeta(loop_family(q, n)).bass_ihara
        report = pole_report(z)
        second = report.moduli_clusters[1] if len(report.moduli_clusters) > 1 else None
        rows.append(SweepRow(n, report.radius, second, ramanujan_check(report, q).is_ramanujan))
    return rows
