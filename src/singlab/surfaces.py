"""Weighted-homogeneous surface germs in C^3 and their fiber algebra.

A surface is the zero set of a polynomial f(x,y,z) all of whose monomials
x^a y^b z^c satisfy a*w1 + b*w2 + c*w3 = d for integer weights w1 >= w2 > w3
and quasidegree d.  The positive reals act by
T((x,y,z),t) = (t^(w1/w3) x, t^(w2/w3) y, t z), and f(T(p,t)) = t^(d/w3) f(p),
which is what makes links, cones and scaling flows computable here.

The module owns everything downstream code needs about fibers of the
projection (x,y,z) -> (y,z): solving them, continuing their roots along the
base loops that covering.lift_loop lifts, and the exact combinatorics of the
z=0 slice, whose monodromy around the y-circle is a closed-form rotation of
the roots of one polynomial.  The samplers and probes take their sheet
points, along any coordinate axis, from ``fiber_sheets``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .util import component_labels

__all__ = [
    "WeightedSurface",
    "SliceStructure",
    "FiberSolveError",
    "ContinuationError",
    "DegenerateSliceError",
    "BranchPointError",
    "SurfaceFormatError",
    "briancon_speder",
    "brieskorn",
    "evaluate",
    "gradient",
    "fiber_coefficients",
    "all_roots",
    "fiber_sheets",
    "sphere_project",
    "milnor_number",
    "slice_structure",
    "implicit_derivatives",
    "surface_to_text",
    "surface_from_text",
]

Term = tuple[tuple[int, int, int], complex]


class FiberSolveError(RuntimeError):
    """Root finding for a fiber polynomial did not converge."""


class ContinuationError(RuntimeError):
    """Root matching along a path stayed ambiguous after maximal step halving."""


class DegenerateSliceError(ValueError):
    """The z=0 slice polynomial vanishes identically."""


class BranchPointError(ValueError):
    """Implicit derivative requested where the fiber is ramified (f_x ~ 0)."""


class SurfaceFormatError(ValueError):
    """Malformed surface text representation."""


@dataclass(frozen=True)
class WeightedSurface:
    """Weighted-homogeneous polynomial surface germ.

    ``terms`` holds ((a,b,c), coefficient) monomials with nonzero
    coefficients; exponents are nonnegative and every term has weighted degree
    equal to ``quasidegree``.
    """

    weights: tuple[int, int, int]
    quasidegree: int
    terms: tuple[Term, ...]
    label: str = ""

    def __post_init__(self):
        w = self.weights
        if len(w) != 3 or any(int(v) != v or v <= 0 for v in w):
            raise ValueError(f"weights must be three positive integers, got {w!r}")
        w = (int(w[0]), int(w[1]), int(w[2]))
        if not (w[0] >= w[1] > w[2]):
            raise ValueError(f"weights must satisfy w1 >= w2 > w3, got {w}")
        d = int(self.quasidegree)
        if d <= 0:
            raise ValueError(f"quasidegree must be positive, got {self.quasidegree!r}")
        if not self.terms:
            raise ValueError("surface needs at least one term")
        seen = set()
        terms = []
        for expo, coeff in self.terms:
            a, b, c = (int(e) for e in expo)
            if min(a, b, c) < 0:
                raise ValueError(f"negative exponent in term {expo!r}")
            if a * w[0] + b * w[1] + c * w[2] != d:
                raise ValueError(
                    f"term x^{a} y^{b} z^{c} has weighted degree "
                    f"{a * w[0] + b * w[1] + c * w[2]}, expected {d}"
                )
            cc = complex(coeff)
            if cc == 0:
                raise ValueError(f"term {expo!r} has zero coefficient")
            if not (math.isfinite(cc.real) and math.isfinite(cc.imag)):
                raise ValueError(f"non-finite coefficient in term {expo!r}")
            if (a, b, c) in seen:
                raise ValueError(f"duplicate term exponents {(a, b, c)}")
            seen.add((a, b, c))
            terms.append(((a, b, c), cc))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "quasidegree", d)
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def x_degree(self) -> int:
        return max(a for (a, _, _), _ in self.terms)

    @property
    def scaling_exponents(self) -> tuple[float, float, float]:
        """Per-coordinate exponents (w1/w3, w2/w3, 1) of the scaling action."""
        w1, w2, w3 = self.weights
        return (w1 / w3, w2 / w3, 1.0)


def briancon_speder(t: complex = 0.0) -> WeightedSurface:
    """Family x^5 + z^15 + y^7 z + t*x*y^6 with weights (3,2,1), quasidegree 15.

    Every member has the same Milnor number (364) while the metric geometry
    changes between t = 0 and t != 0; that contrast is what the rest of the
    package measures.
    """
    t = complex(t)
    terms: list[Term] = [((5, 0, 0), 1.0), ((0, 0, 15), 1.0), ((0, 7, 1), 1.0)]
    if t != 0:
        terms.append(((1, 6, 0), t))
    if t == 0:
        label = "briancon-speder(t=0)"
    else:
        label = f"briancon-speder(t={t.real:g}{t.imag:+g}j)" if t.imag else f"briancon-speder(t={t.real:g})"
    return WeightedSurface((3, 2, 1), 15, tuple(terms), label)


def brieskorn(p: int, q: int, r: int) -> WeightedSurface:
    """Surface x^p + y^q + z^r = 0 with p <= q < r.

    Weights are d/p, d/q, d/r for d = lcm(p,q,r), the smallest choice making
    all three integral.
    """
    p, q, r = int(p), int(q), int(r)
    if not (2 <= p <= q < r):
        raise ValueError(f"exponents must satisfy 2 <= p <= q < r, got ({p},{q},{r})")
    d = math.lcm(p, q, r)
    weights = (d // p, d // q, d // r)
    terms: tuple[Term, ...] = (((p, 0, 0), 1.0), ((0, q, 0), 1.0), ((0, 0, r), 1.0))
    return WeightedSurface(weights, d, terms, f"brieskorn({p},{q},{r})")


def _coords(points):
    pts = np.asarray(points, dtype=complex)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != 3:
        raise ValueError(f"points must have shape (...,3), got {pts.shape}")
    return pts[:, 0], pts[:, 1], pts[:, 2], scalar


def evaluate(s: WeightedSurface, points):
    """f(p) for one point (shape (3,)) or a batch (shape (n,3))."""
    x, y, z, scalar = _coords(points)
    out = np.zeros(x.shape, dtype=complex)
    for (a, b, c), coeff in s.terms:
        out += coeff * x**a * y**b * z**c
    return out[0] if scalar else out


def gradient(s: WeightedSurface, points):
    """(f_x, f_y, f_z) at one point or a batch, shape matching ``points``."""
    x, y, z, scalar = _coords(points)
    out = np.zeros((x.shape[0], 3), dtype=complex)
    for (a, b, c), coeff in s.terms:
        if a:
            out[:, 0] += a * coeff * x ** (a - 1) * y**b * z**c
        if b:
            out[:, 1] += b * coeff * x**a * y ** (b - 1) * z**c
        if c:
            out[:, 2] += c * coeff * x**a * y**b * z ** (c - 1)
    return out[0] if scalar else out


def fiber_coefficients(s: WeightedSurface, u, v, axis: int = 0) -> np.ndarray:
    """Coefficients [c_0, ..., c_deg] of the fiber polynomial along ``axis``.

    The other two coordinates, in index order, are fixed at ``u`` and ``v``
    (y and z for the default x-fiber); batched over u, v.
    """
    scalar = np.ndim(u) == 0
    u, v = np.atleast_1d(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex))
    i, j = (k for k in range(3) if k != axis)
    out = np.zeros((u.shape[0], max(e[axis] for e, _ in s.terms) + 1), dtype=complex)
    for e, coeff in s.terms:
        out[:, e[axis]] += coeff * u ** e[i] * v ** e[j]
    return out[0] if scalar else out


def fiber_sheets(s: WeightedSurface, u, v, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Fiber sheets along ``axis`` over base rows (u, v): points (m, deg, 3), ok (m,).

    ``ok`` and the ``axis`` coordinates are all_roots' result, the other two
    coordinates are u and v bitwise, and a non-finite root (only a failed
    row has one) reads 1, so that every point is finite.
    """
    u, v = np.atleast_1d(u, v)
    roots, ok = all_roots(fiber_coefficients(s, u, v, axis))
    bad = ~ok
    roots[bad] = np.where(np.isfinite(roots[bad]), roots[bad], 1.0)
    i, j = (k for k in range(3) if k != axis)
    pts = np.empty(roots.shape + (3,), dtype=complex)
    pts[..., axis] = roots
    pts[..., i] = u[:, None]
    pts[..., j] = v[:, None]
    return pts, ok


def _polyval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner evaluation; ``coeffs[k]`` multiplies x^k and broadcasts against x (degree-major)."""
    p = np.empty(x.shape, np.result_type(coeffs, x))
    p[...] = coeffs[-1]
    for k in range(coeffs.shape[0] - 2, -1, -1):
        p *= x
        p += coeffs[k]
    return p


def _newton_start(ck: np.ndarray) -> np.ndarray:
    """Aberth starts (n, m) for degree-major coefficients ``ck`` (n+1, m).

    Column j holds row j's c_0, ..., c_n, with a nonzero coefficient below
    c_n.  Bini's start (Numer. Algorithms 13, 1996) at the exact roots of
    each edge's binomial: k is a vertex of the upper hull of (k, log|c_k|),
    c_k != 0, if its slopes in all exceed its slopes out by 0.1, and slot
    a + j of the edge (a, b) starts at the j-th root of c_a + c_b x^(b-a).
    Exact zero roots start apart at half the smallest edge radius.  Rows of
    three or more terms turn by 1e-3 rad, or a real row's starts, closed
    under conjugation as the iteration is, could not split a pair onto the
    real axis.
    """
    n = ck.shape[0] - 1
    size = np.abs(ck)
    nz = size > 0
    logs = np.log(np.where(nz, size, 1.0))
    del size
    k = np.arange(n + 1)[:, None]
    into, out = np.full(ck.shape, np.inf), np.full(ck.shape, -np.inf)
    for i in range(n):
        # Slopes from vertex i to every k > i; fmin and fmax are exact in any order.
        slope = np.where(nz[i] & nz[i + 1 :], (logs[i + 1 :] - logs[i]) / (k[i + 1 :] - i), np.nan)
        np.fmin(into[i + 1 :], slope, out=into[i + 1 :])
        np.fmax.reduce(slope, axis=0, out=out[i], initial=-np.inf)
    del logs, slope
    vertex = nz & (into > out + 0.1)
    del into, out
    a = np.maximum.accumulate(np.where(vertex, k, -1), axis=0)[:-1]
    b = np.minimum.accumulate(np.where(vertex, k, n)[::-1], axis=0)[-2::-1]
    del vertex
    zero, a = a < 0, np.maximum(a, 0)
    ratio = -np.take_along_axis(ck, a, 0) / np.take_along_axis(ck, b, 0)
    e, turn = b - a, 1e-3 * (nz.sum(axis=0) > 2)
    del b, nz
    r = np.abs(ratio) ** (1 / e)
    r = np.where(zero, 0.5 * np.where(zero, np.inf, r).min(axis=0), r)
    return r * np.exp(1j * ((np.angle(ratio) + 2 * np.pi * (k[:-1] - a)) / e + turn))


def all_roots(coeffs, max_iter: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """All complex roots of each row's polynomial by Aberth-Ehrlich iteration.

    ``coeffs`` is (m, n+1) in ascending order with nonvanishing leading
    column.  Returns (roots (m,n), ok (m,)); ok flags rows that stopped
    converged with every root x meeting _roots_meet_residual.

    Each root moves by w_i = p/(p' - p*S_i), S_i = sum_{j != i} 1/(x_i - x_j)
    (Aberth 1973), from _newton_start: the roots of the binomials on the
    edges of the row's Newton polygon, so a binomial row starts at its
    roots, and an x^n row, whose start is all zeros, is not iterated.  A row
    stops converged once every root is at roundoff backward error,
    |p(x)| <= 8 eps * sum_k |c_k| |x|^k (MPSolve's rule), or once its step
    |w| <= 1e-13 * (1 + max |x|), which also stops a root converging to an
    exact zero; it stops unconverged at a non-finite iterate.  Multiple
    roots end as tight clusters, which slice_structure's _cluster_roots
    resolves.

    Only rows the roundoff test did not stop take _roots_meet_residual:
    rows stopped by the step test and rows never iterated (those whose
    coefficients below c_n are all zero or NaN).  A roundoff-stopped row
    keeps the roots it was tested at, and its test evaluated p and
    sum_k |c_k| |x|^k with the residual's own Horner steps, so
    |p| <= 8 eps * sum already meets the residual's 1e-10 bound.

    The working set is degree-major, coefficients (n+1, rows) and roots
    (n, rows), so each Horner step and each pair term of S is one operation
    across the rows.  Once half the rows have stopped, the set is compacted
    right after the roundoff test, so rows that stop there build no pair
    sums; until then a stopped row's step is zeroed.  Every operation is
    elementwise across rows, so a row's result does not depend on the rest
    of the batch.
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    n = c.shape[1] - 1
    if n < 1:
        raise ValueError("polynomial degree must be >= 1")
    if np.any(c[:, -1] == 0):
        raise ValueError("leading coefficient vanishes; trim the input")
    size = np.abs(c)
    converged = ~(size[:, :-1] > 0).any(axis=1)  # until checked: never iterated or step-stopped
    exact = np.zeros_like(converged)  # stopped by the roundoff test
    rows = np.flatnonzero(~converged)
    ck, bk = c[rows].T.copy(), size[rows].T.copy()
    xk = _newton_start(ck)
    roots = np.zeros((n, c.shape[0]), dtype=complex)
    dk = ck[1:] * np.arange(1, n + 1)[:, None]
    live = np.ones(rows.size, dtype=bool)
    tol = 8.0 * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            p = _polyval(ck, xk)
            ax = np.abs(xk)
            scale = 1.0 + ax.max(axis=0)
            live &= np.isfinite(scale)
            done = live & (np.abs(p) <= tol * _polyval(bk, ax)).all(axis=0)
            exact[rows[done]] = True
            live &= ~done
            if 2 * live.sum() <= live.size:
                roots[:, rows] = xk
                rows, ck, bk, dk, xk, p, scale = (
                    v[..., live] for v in (rows, ck, bk, dk, xk, p, scale)
                )
                live = live[live]
                if not rows.size:
                    break
            s = np.zeros_like(xk)
            for i in range(n):
                for j in range(i + 1, n):
                    inv = np.reciprocal(xk[i] - xk[j])
                    s[i] += inv
                    s[j] -= inv
            w = p / (_polyval(dk, xk) - p * s)
            w[:, ~live] = 0.0
            xk -= w
            done = live & (np.abs(w).max(axis=0) <= 1e-13 * scale)
            converged[rows[done]] = True
            live &= ~done
            if not live.any():
                break
        roots[:, rows] = xk
    # Rows still live ran out of iterations; a non-finite row stopped unconverged.
    x = np.ascontiguousarray(roots.T)
    check = np.flatnonzero(converged)
    converged[check] = _roots_meet_residual(c[check], x[check])
    return x, converged | exact


def _roots_meet_residual(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Per row: |p(x)| <= 1e-10 * (1 + max(max_k |c_k|, sum_k |c_k| |x|^k)) at every root x.

    The sum is the size of the terms at the root, so a large root is held
    to a backward error near 1e-10 instead of an absolute residual.
    """
    cols = coeffs.T[:, :, None]  # (n+1, m, 1): degree-major, broadcast over each row's roots
    resid = np.abs(_polyval(cols, roots))
    size = np.maximum(np.abs(coeffs).max(axis=1)[:, None], _polyval(np.abs(cols), np.abs(roots)))
    return (resid <= 1e-10 * (1.0 + size)).all(axis=1)


# Roots closer than CLUSTER_REL * (1 + largest |root| of their row) are one root.
CLUSTER_REL = 1e-7


def _cluster_roots(roots: np.ndarray):
    """Single-linkage clustering of a small root set at tolerance CLUSTER_REL.

    Returns (representatives, multiplicities); each representative is the mean
    of its cluster, which for a perturbed multiple root cancels the leading
    error term.
    """
    n = roots.size
    scale = 1.0 + float(np.abs(roots).max()) if n else 1.0
    tol = CLUSTER_REL * scale
    close = (
        (i, j) for i in range(n) for j in range(i + 1, n)
        if abs(roots[i] - roots[j]) <= tol
    )
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(component_labels(n, close)):
        groups.setdefault(label, []).append(i)
    reps = np.array([roots[g].mean() for g in groups.values()])
    mult = np.array([len(g) for g in groups.values()], dtype=int)
    order = np.lexsort((reps.imag, reps.real))
    return reps[order], mult[order]


def _root_gaps(roots: np.ndarray) -> np.ndarray:
    """(m, deg) distance from each root of a row to its nearest sibling (inf if deg < 2).

    Each of the deg(deg-1)/2 sibling distances is computed once, on the
    degree-major roots, and serves both ends: |a - b| and |b - a| are the
    same bits.
    """
    cols = np.ascontiguousarray(roots.T)
    gaps = np.full(cols.shape, np.inf)
    for i in range(cols.shape[0]):
        for j in range(i + 1, cols.shape[0]):
            dist = np.abs(cols[i] - cols[j])
            np.minimum(gaps[i], dist, out=gaps[i])
            np.minimum(gaps[j], dist, out=gaps[j])
    return gaps.T


def _residual_bound(s: WeightedSurface, radius: float) -> float:
    """Largest |f| accepted at a sample within ``radius``: 1e-9 * (1 + radius^(d/w3))."""
    return 1e-9 * (1.0 + radius ** (s.quasidegree / s.weights[2]))


def sphere_project(s: WeightedSurface, points, radius: float):
    """Flow each point along its scaling orbit onto the sphere |p| = radius.

    Solves sum_i |p_i|^2 t^(2 e_i) = radius^2 for the unique t > 0 by Newton
    on the log of the left side as a function of u = log t.  That function is
    convex and increasing with slope between 2*min(e) and 2*max(e), so every
    Newton step is well scaled and convergence is fast from any start.
    A coordinate that is exactly zero enters as log 0 = -inf.  Each point stops
    once its own step is at most 1e-15 * (1 + |u|), roundoff in u (80 steps is
    a guard), so its result does not depend on the batch.  Returns (points, t).
    Orbits stay on the surface, so projected points inherit membership up
    to roundoff.
    """
    pts = np.asarray(points, dtype=complex)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    sq = np.abs(pts) ** 2
    norms = np.sqrt(sq.sum(axis=1))
    if np.any(norms == 0):
        raise ValueError("cannot project the origin onto a sphere")
    e = np.array(s.scaling_exponents)
    with np.errstate(divide="ignore"):
        log_sq = np.log(sq)
    target = 2.0 * math.log(radius)
    u = np.log(radius / norms)  # exact when all exponents equal 1
    active = np.arange(u.shape[0])
    u_a = u.copy()
    for _ in range(80):
        expo = 2.0 * u_a[:, None] * e[None, :] + log_sq
        peak = expo.max(axis=1)
        terms = np.exp(expo - peak[:, None])
        total = terms.sum(axis=1)
        h = peak + np.log(total) - target
        dh = (2.0 * e[None, :] * terms).sum(axis=1) / total
        step = h / dh
        u_a -= step
        u[active] = u_a
        going = np.abs(step) > 1e-15 * (1.0 + np.abs(u_a))
        if not going.all():
            active, u_a, log_sq = active[going], u_a[going], log_sq[going]
            if active.size == 0:
                break
    t = np.exp(u)
    out = pts * t[:, None] ** e
    err = np.abs(np.linalg.norm(out, axis=1) - radius)
    if np.any(err > 1e-9 * radius):
        raise RuntimeError("sphere projection failed to converge")
    return (out[0], float(t[0])) if scalar else (out, t)


def milnor_number(s: WeightedSurface) -> int:
    """Milnor number (d/w1 - 1)(d/w2 - 1)(d/w3 - 1), in exact rationals.

    Raises if any factor is nonpositive (no isolated singularity with these
    weights) or if the product is not an integer.
    """
    d = s.quasidegree
    prod = Fraction(1)
    for w in s.weights:
        factor = Fraction(d, w) - 1
        if factor <= 0:
            raise ValueError(
                f"degenerate weight data: d/w - 1 = {factor} for w={w}, d={d}"
            )
        prod *= factor
    if prod.denominator != 1:
        raise ValueError(f"Milnor product {prod} is not an integer")
    return int(prod)


def _match_rows(prev, nxt):
    """Match a stack of steps at once: (assign, accepted).

    Row k of each (steps, width) argument is one step; ``assign[k, i]`` is
    the new root nearest to trajectory i.  A step is accepted when these
    nearest roots are distinct and no trajectory's two nearest candidates
    lie within a factor 2 of each other (unless the nearest lies at
    distance 0).  An accepted assignment is then the unique optimal one.
    """
    width = prev.shape[1]
    dist = np.abs(prev[:, :, None] - nxt[:, None, :])
    assign = dist.argmin(axis=2)
    accepted = (np.sort(assign, axis=1) == np.arange(width)).all(axis=1)
    if width > 1:
        d_sorted = np.sort(dist, axis=2)
        d1, d2 = d_sorted[:, :, 0], d_sorted[:, :, 1]
        accepted &= ~((d2 < 2.0 * d1) & (d1 > 0)).any(axis=1)
    return assign, accepted


def _simple_rows(roots: np.ndarray, ok: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The rows of ``roots`` sorted by (Re, Im), which must hold simple roots.

    Raises ContinuationError naming the least parameter in ``t`` at which a
    solved row (``ok``) has two roots within CLUSTER_REL * (1 + max |root|).
    """
    gap = _root_gaps(roots).min(axis=1)
    meet = ok & (gap <= CLUSTER_REL * (1.0 + np.abs(roots).max(axis=1)))
    if meet.any():
        raise ContinuationError(f"roots coincide at path parameter t={float(t[meet].min())}")
    return np.take_along_axis(roots, np.lexsort((roots.imag, roots.real), axis=1), axis=1)


# Bisection levels below a grid interval before its matching is given up.
MAX_HALVINGS = 12


def _continue_roots(coeff_rows, t_grid, node_coeffs):
    """Continue simple roots along ``t_grid``: the one continuation routine.

    ``node_coeffs`` holds the coefficient rows at the grid nodes and
    ``coeff_rows(ts)`` the rows at a list of other parameters.  Returns
    (t, steps, perm, dphase, n_solves).  ``t[k]`` and ``steps[k]`` give the
    parameter and the roots after accepted step k (``t[0]`` is the first
    node, ``t[-1]`` the last), bisection substeps included; the columns are
    trajectories in the first node's (Re, Im) order.  ``perm[i]`` is the
    (Re, Im) index at the last node where trajectory i ends, ``dphase[i]``
    sums its argument increments over every step, and ``n_solves`` counts
    solved rows: nodes, midpoints and bisection points, each once.

    1. Every node and every interval midpoint is solved in one all_roots
       batch; a node that fails raises FiberSolveError naming its t.  Each
       row is sorted by (Re, Im).
    2. The first node's roots must lie more than 1e-6 * (1 + max |root|)
       apart, or BranchPointError reports their separation.  A node, a
       solved midpoint or a bisection point with two roots within
       CLUSTER_REL * (1 + max |root|) raises ContinuationError naming its t.
    3. All intervals are matched at once (_match_rows).  An interval is
       accepted when its direct step and both half-steps through its
       midpoint are accepted and the half-steps compose to the direct
       assignment, so a step long enough for nearest-root matching to alias
       is not accepted.  A midpoint that fails to solve cannot confirm its
       interval, which then stands on its direct step alone.  A rejected
       interval is bisected at its midpoint, and a substep _match_rows
       finds ambiguous is bisected again, up to MAX_HALVINGS levels,
       before ContinuationError; a bisection point that fails to solve
       raises FiberSolveError naming its t.  Substeps are accepted on
       their direct match alone: the midpoint check covers whole grid
       intervals.
    4. The per-interval assignments are composed into trajectory order and
       the argument increments are summed in step order.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    n_int = t_grid.size - 1
    t_mid = 0.5 * (t_grid[:-1] + t_grid[1:])
    coeffs = np.concatenate([node_coeffs, coeff_rows(t_mid.tolist())])
    roots, ok = all_roots(coeffs)
    node_ok, mid_ok = ok[: n_int + 1], ok[n_int + 1 :]
    if not node_ok.all():
        t_bad = float(t_grid[~node_ok].min())
        raise FiberSolveError(f"fiber solve failed at path parameter t={t_bad}")
    sep = _root_gaps(roots[:1]).min()
    if not sep > 1e-6 * (1.0 + np.abs(roots[0]).max()):
        raise BranchPointError(f"start fiber is ramified or nearly so (root separation {sep:.3e})")
    roots = _simple_rows(roots, ok, np.concatenate([t_grid, t_mid]))
    width = roots.shape[1]

    a, b = np.arange(n_int), np.arange(1, n_int + 1)
    m = b + n_int  # midpoint rows follow the node rows
    sigma, accepted = _match_rows(roots[a], roots[b])
    first, first_ok = _match_rows(roots[a], roots[m])
    second, second_ok = _match_rows(roots[m], roots[b])
    confirmed = first_ok & second_ok
    confirmed &= (np.take_along_axis(second, first, axis=1) == sigma).all(axis=1)
    accepted &= confirmed | ~mid_ok

    n_solves = coeffs.shape[0]

    def solve(t):
        nonlocal n_solves
        n_solves += 1
        r, good = all_roots(coeff_rows([t]))
        if not good[0]:
            raise FiberSolveError(f"fiber solve failed at path parameter t={t}")
        return _simple_rows(r, good, np.array([t]))[0]

    # Subintervals still to match, as (t0, t1, depth, roots at t1 or None),
    # deepest first.
    pending = []

    def bisect(t0, t1, depth, end, mid):
        if depth >= MAX_HALVINGS:
            raise ContinuationError(
                f"ambiguous root matching on [{t0}, {t1}] after {depth} halvings"
            )
        tm = 0.5 * (t0 + t1)
        pending.append((tm, t1, depth + 1, end))
        pending.append((t0, tm, depth + 1, mid))

    # Rejected intervals, in order, from the sorted roots at their left node.
    substeps = {}
    for j in np.flatnonzero(~accepted):
        cur, mid = roots[j], roots[m[j]] if mid_ok[j] else None
        bisect(float(t_grid[j]), float(t_grid[j + 1]), 0, roots[j + 1], mid)
        t_sub, roots_sub = [], []
        while pending:
            t0, t1, depth, end = pending.pop()
            nxt = solve(t1) if end is None else end
            assign, good = _match_rows(cur[None], nxt[None])
            if not good[0]:
                bisect(t0, t1, depth, nxt, None)
                continue
            cur = nxt[assign[0]]
            t_sub.append(t1)
            roots_sub.append(cur)
        sigma[j] = assign[0]
        substeps[j] = (t_sub[:-1], np.array(roots_sub[:-1]))

    perm = np.empty((n_int + 1, width), dtype=int)
    perm[0] = np.arange(width)
    for j in range(n_int):
        perm[j + 1] = sigma[j][perm[j]]
    nodes = np.take_along_axis(roots[: n_int + 1], perm, axis=1)

    t_parts, step_parts, done = [], [], 0
    for j, (t_sub, roots_sub) in substeps.items():
        t_parts += [t_grid[done : j + 1], t_sub]
        step_parts += [nodes[done : j + 1], roots_sub[:, perm[j]]]
        done = j + 1
    t_parts.append(t_grid[done:])
    step_parts.append(nodes[done:])
    steps = np.concatenate(step_parts)

    prev = steps[:-1]
    ratio = np.where(prev != 0, steps[1:] / np.where(prev == 0, 1, prev), 1.0)
    # A running sum from zero, step by step, as a sequential loop would add.
    increments = np.concatenate([np.zeros((1, width)), np.angle(ratio)])
    dphase = np.add.accumulate(increments, axis=0)[-1]
    return np.concatenate(t_parts), steps, perm[-1], dphase, n_solves


@dataclass(frozen=True)
class SliceStructure:
    """Branch decomposition of the z=0 slice curve f(x,y,0) = 0.

    The slice polynomial factors as x^k * y^m * h(x,y) with h divisible by
    neither coordinate (exact exponent arithmetic; quasi-homogeneity makes
    every x-power coefficient a single y-monomial).  Components are the x-axis
    branch (k>0), the y-axis branch (m>0), and the monodromy orbits of the
    roots of h around the unit y-circle.  h is weighted-homogeneous in (x, y),
    so one turn maps each root xi of h(x, 1) to zeta * xi,
    zeta = e^(2 pi i w1/w2).  Branch labels number components in that order.
    """

    surface_label: str
    x_mult: int
    y_mult: int
    h_terms: tuple[tuple[int, int, complex], ...]
    roots: np.ndarray  # roots of h(x, 1), by argument then modulus
    multiplicity: np.ndarray
    orbit_of_trajectory: np.ndarray  # label for each root in ``roots``
    n_components: int

    @property
    def labels(self) -> list[int]:
        return list(range(self.n_components))

    @property
    def has_x_branch(self) -> bool:
        return self.x_mult > 0

    @property
    def has_y_branch(self) -> bool:
        return self.y_mult > 0


def _slice_terms(s: WeightedSurface):
    terms = [(a, b, coeff) for (a, b, c), coeff in s.terms if c == 0]
    if not terms:
        raise DegenerateSliceError(
            f"slice z=0 of {s.label or 'surface'} is identically zero"
        )
    return terms


def slice_structure(s: WeightedSurface) -> SliceStructure:
    """Compute the branch structure of the z=0 slice, its monodromy in closed form.

    The roots of h(x, 1) come from one all_roots solve; _match_rows reads the
    loop permutation xi -> zeta * xi (see SliceStructure), whose orbits are
    the h-branches, and it must carry each root to one of equal multiplicity.
    """
    terms = _slice_terms(s)
    k = min(a for a, _, _ in terms)
    m = min(b for _, b, _ in terms)
    h_terms = tuple((a - k, b - m, coeff) for a, b, coeff in terms)
    deg_h = max(a for a, _, _ in h_terms)

    if deg_h == 0:
        roots = np.zeros(0, dtype=complex)
        mult = np.zeros(0, dtype=int)
        orbit = np.zeros(0, dtype=int)
        n_comp = (1 if k else 0) + (1 if m else 0)
        if n_comp == 0:
            # f(x,y,0) is a nonzero constant: the slice is empty, not a curve.
            raise DegenerateSliceError("slice z=0 contains no branches")
        return SliceStructure(s.label, k, m, h_terms, roots, mult, orbit, n_comp)

    coeffs = np.zeros(deg_h + 1, dtype=complex)
    for a, _, coeff in h_terms:
        coeffs[a] += coeff
    solved, ok = all_roots(coeffs[None])
    if not ok[0]:
        raise FiberSolveError(f"root solve of h(x, 1) failed for {s.label or 'surface'}")
    roots, mult = _cluster_roots(solved[0])
    order = np.lexsort((np.abs(roots), np.round(np.angle(roots), 12)))  # argument, modulus
    roots, mult = roots[order], mult[order]

    w1, w2 = s.weights[:2]
    assign, ok = _match_rows(cmath.exp(2j * math.pi * w1 / w2) * roots[None], roots[None])
    assign = assign[0]
    if not ok[0] or not np.array_equal(mult, mult[assign]):
        raise ContinuationError("could not close the slice monodromy loop")
    n_traj = mult.size
    orbit = np.full(n_traj, -1, dtype=int)
    base = (1 if k else 0) + (1 if m else 0)
    next_label = base
    for i in range(n_traj):
        if orbit[i] >= 0:
            continue
        j = i
        while orbit[j] < 0:
            orbit[j] = next_label
            j = int(assign[j])
        next_label += 1
    return SliceStructure(s.label, k, m, h_terms, roots, mult, orbit, next_label)


def implicit_derivatives(s: WeightedSurface, points):
    """Graph derivatives (dx/dy, dx/dz) = (-f_y/f_x, -f_z/f_x) on the surface.

    Requires |f(p)| <= 1e-9.  Raises BranchPointError where p is near-ramified,
    |f_x(p)| <= 1e-6 * max_k |df/dk (p)|: p sits over, or next to, the branch
    locus of the (y,z)-projection, or at a singular point (gradient 0).
    """
    pts = np.asarray(points, dtype=complex)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    vals = np.abs(evaluate(s, pts))
    if np.any(vals > 1e-9):
        raise ValueError(f"point not on surface: |f| = {float(vals.max()):.3e} > 1.0e-09")
    grad = gradient(s, pts)
    fx = grad[:, 0]
    near = np.abs(fx) <= 1e-6 * np.abs(grad).max(axis=1)
    if np.any(near):
        raise BranchPointError(
            f"{int(near.sum())} point(s) are near-ramified: "
            "df/dx vanishes relative to the gradient"
        )
    dxdy = -grad[:, 1] / fx
    dxdz = -grad[:, 2] / fx
    if scalar:
        return complex(dxdy[0]), complex(dxdz[0])
    return dxdy, dxdz


# -- plain-text serialization -------------------------------------------------

def surface_to_text(s: WeightedSurface) -> str:
    """Render a surface in the line-oriented text format.

    Grammar (one record per line, '#' starts a comment):
        label <free text>          (optional)
        weights <w1> <w2> <w3>
        quasidegree <d>
        term <a> <b> <c> <re> <im>   (one per monomial)
    """
    lines = ["# singlab surface v1"]
    if s.label:
        lines.append(f"label {s.label}")
    lines.append("weights {} {} {}".format(*s.weights))
    lines.append(f"quasidegree {s.quasidegree}")
    for (a, b, c), coeff in s.terms:
        lines.append(f"term {a} {b} {c} {coeff.real!r} {coeff.imag!r}")
    return "\n".join(lines) + "\n"


def surface_from_text(text: str) -> WeightedSurface:
    label = ""
    weights = None
    quasidegree = None
    terms: list[Term] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        key, rest = fields[0], fields[1:]
        try:
            if key == "label":
                label = " ".join(rest)
            elif key == "weights":
                if len(rest) != 3:
                    raise ValueError("expected three weights")
                weights = tuple(int(v) for v in rest)
            elif key == "quasidegree":
                if len(rest) != 1:
                    raise ValueError("expected one value")
                quasidegree = int(rest[0])
            elif key == "term":
                if len(rest) != 5:
                    raise ValueError("expected 'term a b c re im'")
                a, b, c = (int(v) for v in rest[:3])
                coeff = complex(float(rest[3]), float(rest[4]))
                terms.append(((a, b, c), coeff))
            else:
                raise ValueError(f"unknown record {key!r}")
        except ValueError as exc:
            raise SurfaceFormatError(f"line {lineno}: {exc}") from exc
    if weights is None or quasidegree is None:
        raise SurfaceFormatError("missing weights or quasidegree record")
    try:
        return WeightedSurface(weights, quasidegree, tuple(terms), label)
    except ValueError as exc:
        raise SurfaceFormatError(str(exc)) from exc
