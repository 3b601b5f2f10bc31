"""The focusing restriction and its solution through the dual on the simplex.

Each focusing step maximizes the minimum linearized output voltage
``v_m(q) = v_m(q0) + 2 Re{c_m^H (q - q0)}`` over the Lorentzian disks
``|q_k - j/2| <= 1/2``. With ``q = j/2 + u`` and receiver prices ``lam`` on
the simplex, the largest value of ``2 Re{d_k^* u_k}`` over a disk is
``|d_k|`` (its support function), so the dual (Boyd & Vandenberghe, *Convex
Optimization*, section 5.6) is

    f(lam) = lam . beta + sum_k |d_k|,   d = sum_m lam_m c_m,
    beta_m = v_m(q0) + 2 Re{c_m^H (j/2 - q0)},

minimized over the simplex. Its primal point is the rim point
``q_k = j/2 + exp(j arg d_k)/2``, and the gradient of ``f`` is the vector of
linearized voltages there. ``f`` is positively homogeneous, so
``f(lam) = lam . grad f(lam)``: the gap ``f(lam) - min_m v_m(q)`` is the
``lam``-weighted spread of the voltages above their minimum, and it vanishes
where every priced receiver sees one voltage.

:func:`focusing_step` minimizes ``f`` by the projected Newton of
:mod:`wptopt.dual_newton` on the simplex. With one receiver the simplex is
the point ``lam = [1]``: the step settles at its start, on the rim point
``q_k = j/2 + exp(j arg c_k)/2`` that maximizes each term alone. The Hessian
is ``sum_k a_k a_k^T / |d_k|``, where ``a_k`` is the derivative of ``d_k``
across its own direction; it is singular along ``lam`` itself, so the step
is taken in the simplex's tangent space (the null space of the row
``sum lam = 1``). Where that step fails to descend, the step goes toward
the vertex of the lowest voltage, whose slope is minus the gap.

``f`` is not differentiable where some ``d_k = 0`` (a kink), and a minimizer
can sit on one; for three receivers that is an isolated point of the
simplex, which Newton only creeps towards. Once an element's ``d_k`` has
nearly cancelled, its kink is solved directly: ``d_k(lam) = 0`` and
``sum lam = 1``, with ``u_k`` inside its disk from the equalization
``v_m = t`` over the receivers with ``lam_m > 0``. The same certificate
judges every candidate, so a wrong guess costs only its own evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual_newton
from .dual_newton import GAP_STOP, GAP_TOL, MAX_NEWTON, ExitReason
from .linearize import LinearizedVoltage
from .transmitter import LORENTZIAN_CENTER, LORENTZIAN_RADIUS

_KINK = 1e-2        # |d_k| / sum_m lam_m |c_mk| below which the kink at d_k = 0 is tried
_MAX_KINK = 20


@dataclass(frozen=True)
class FocusingStep:
    """A solved focusing restriction.

    ``q`` holds the element weights (flat), ``multipliers`` the receiver
    prices ``lam`` on the simplex, ``primal`` the minimum linearized voltage
    at ``q`` and ``dual`` the dual function at ``lam``, an upper bound on
    it. ``kkt_residual`` is the largest voltage above the minimum among the
    priced receivers, relative to ``1 + |primal|``."""

    q: np.ndarray
    multipliers: np.ndarray
    primal: float
    dual: float
    kkt_residual: float
    iterations: int
    exit_reason: ExitReason

    @property
    def gap(self) -> float:
        return self.dual - self.primal


@dataclass(slots=True)
class _Point:
    """``f`` and its gradient at one price vector."""

    lam: np.ndarray
    dr: np.ndarray       # Re d, over the live elements
    di: np.ndarray       # Im d
    mag: np.ndarray      # |d|
    inv: np.ndarray      # 1/|d|, 0 where d = 0
    value: float
    grad: np.ndarray     # the voltages at the rim point


@dataclass(slots=True)
class _Face:
    """``f`` on the manifold of one kink, ``d_k = 0`` (or on the whole
    simplex, ``k = None``): the gradient of its smooth part, the rows of the
    equalities that hold there, and the voltages ``v`` of its primal point
    with their common level ``t`` and the kink element's ``u_k``."""

    k: int | None
    grad: np.ndarray
    rows: np.ndarray
    v: np.ndarray
    t: float
    u: complex = 0j

    def settled(self, pt: _Point) -> bool:
        """``f - min_m v_m`` below ``GAP_STOP``: the gap of the face's
        primal point, up to rounding."""
        return pt.value - float(self.v.min()) <= GAP_STOP * (1.0 + abs(pt.value))


class _Dual:
    """The dual of one restriction. Elements whose coefficient is zero for
    every receiver do not enter it and keep their expansion weight."""

    def __init__(self, lins: list[LinearizedVoltage]):
        self.q0 = lins[0].expansion_point
        coeffs = np.array([lin.coeffs.reshape(-1) for lin in lins])
        self.live = (coeffs != 0).any(axis=0)
        coeffs = coeffs[:, self.live]
        self.cr, self.ci = coeffs.real.copy(), coeffs.imag.copy()
        self.size = np.abs(coeffs)
        self.beta = np.array([lin.base_value + 2.0 * np.vdot(
            lin.coeffs, LORENTZIAN_CENTER - lin.expansion_point).real for lin in lins])
        self.simplex = np.ones((1, len(lins)))   # the row of sum lam = 1

    def at(self, lam: np.ndarray) -> _Point:
        dr, di = lam @ self.cr, lam @ self.ci
        mag = np.hypot(dr, di)
        inv = np.divide(1.0, mag, out=np.zeros(len(mag)), where=mag > 0)
        grad = self.beta + self.cr @ (dr * inv) + self.ci @ (di * inv)
        return _Point(lam, dr, di, mag, inv, float(lam @ self.beta + mag.sum()), grad)

    def rounding(self, pt: _Point) -> float:
        """A bound on the rounding error of ``f(lam)``."""
        return 4.0 * np.finfo(float).eps * (float(np.abs(pt.lam) @ np.abs(self.beta))
                                            + float(pt.mag.sum()))

    def across(self, pt: _Point, k: int | None = None) -> np.ndarray:
        """Columns ``a_k / sqrt|d_k|`` [M, K], so that the Hessian of ``f``
        is ``across @ across.T``; zero where ``d_k = 0`` and, if given, for
        the kink element ``k``."""
        inv = pt.inv if k is None else np.where(np.arange(len(pt.inv)) == k, 0.0, pt.inv)
        return (self.ci * pt.dr - self.cr * pt.di) * inv ** 1.5

    def grad(self, pt: _Point, k: int | None = None) -> np.ndarray:
        """The gradient of ``f``, or of its smooth part without element ``k``."""
        if k is None or pt.mag[k] == 0:
            return pt.grad
        return pt.grad - (self.cr[:, k] * pt.dr[k] + self.ci[:, k] * pt.di[k]) / pt.mag[k]

    def face(self, pt: _Point, k: int | None = None) -> _Face:
        """Without a kink, the rim point's voltages ``grad`` at the level
        ``f = lam . grad``. At the kink of ``k``, ``u_k`` and ``t`` solve
        the equalization ``v_m = t`` over the priced receivers (least
        squares), and ``u_k`` is then projected onto its disk."""
        if k is None:
            return _Face(None, pt.grad, self.simplex, pt.grad, pt.value)
        ck = np.stack([self.cr[:, k], self.ci[:, k]])
        rest = self.grad(pt, k)
        priced = pt.lam > 0
        eq = np.column_stack([2.0 * ck.T, -np.ones(len(pt.lam))])[priced]
        ur, ui, t = np.linalg.lstsq(eq, -rest[priced], rcond=None)[0]
        u = complex(ur, ui)
        if abs(u) > LORENTZIAN_RADIUS:
            u *= LORENTZIAN_RADIUS / abs(u)
        v = rest + 2.0 * (ck.T @ np.array([u.real, u.imag]))
        return _Face(k, rest, np.vstack([self.simplex, ck]), v, float(t), u)

    def kink_candidate(self, pt: _Point) -> int | None:
        """The element whose ``d_k`` has cancelled most, if below ``_KINK``."""
        scale = pt.lam @ self.size
        ratio = np.divide(pt.mag, scale, out=np.full(len(scale), np.inf), where=scale > 0)
        k = int(ratio.argmin())
        return k if ratio[k] < _KINK else None

    def primal_point(self, pt: _Point, face: _Face | None = None) -> np.ndarray:
        """The rim point of ``pt``; at a kink its element sits at
        ``j/2 + u_k``, and an element with ``d_k = 0`` otherwise keeps its
        expansion weight."""
        q_live = self.q0[self.live]
        on = pt.mag > 0
        # exp(j*arg d) is a unit phasor also where d/|d| would round off it
        q_live[on] = LORENTZIAN_CENTER + LORENTZIAN_RADIUS * np.exp(
            1j * np.arctan2(pt.di[on], pt.dr[on]))
        if face is not None and face.k is not None:
            q_live[face.k] = LORENTZIAN_CENTER + face.u
        q = self.q0.copy()
        q[self.live] = q_live
        return q


def _direction(dual: _Dual, pt: _Point, face: _Face) -> np.ndarray | None:
    """Projected Newton direction on the face's manifold; a zero price is
    freed while its voltage is below the level ``t``. If that fails to
    descend, the direction points to the vertex of the lowest voltage, or,
    on a kink's manifold, there is none."""
    across = dual.across(pt, face.k)
    p = dual_newton.direction(pt.lam, face.grad, across @ across.T,
                              (pt.lam > 0) | (face.v < face.t), face.rows)
    if p is not None or face.k is not None:
        return p
    p = -pt.lam
    p[int(face.grad.argmin())] += 1.0
    return p


def _search(dual: _Dual, pt: _Point, p: np.ndarray, k: int | None) -> _Point:
    """The search of :mod:`wptopt.dual_newton` on the simplex, for ``f`` or,
    on a kink's manifold, its smooth part; ``f`` may rise past the
    minimizer by its rounding."""
    return dual_newton.search(
        pt, p, lambda lam: dual.at(lam / lam.sum()), lambda pt: dual.grad(pt, k),
        lambda pt, p: float(((dual.across(pt, k).T @ p) ** 2).sum()), dual.rounding)


def _kink(dual: _Dual, pt: _Point, k: int) -> tuple[_Point, _Face, int] | None:
    """Minimize ``f`` on the manifold ``d_k = 0`` of the simplex, where it
    is smooth (Overton, *Math. Program.* 27, 1983, for sums of norms): the
    prices are first moved onto it by the least change, then Newton steps
    follow it. For three priced receivers the manifold is one point.
    Returns the point, its face and the iterations taken, or ``None`` when
    the priced receivers cannot cancel ``d_k``."""
    idx = np.flatnonzero(pt.lam > 0)
    rows = np.stack([np.ones(len(idx)), dual.cr[idx, k], dual.ci[idx, k]])
    target = np.array([1.0, 0.0, 0.0])
    lam = pt.lam.copy()
    lam[idx] += np.linalg.lstsq(rows, target - rows @ lam[idx], rcond=None)[0]
    if lam.min() < 0.0:
        return None
    cur = dual.at(lam / lam.sum())
    if cur.mag[k] > 1e-12 * float(cur.lam @ dual.size[:, k]):
        return None
    iterations = 0
    face = dual.face(cur, k)
    while iterations < _MAX_KINK and not face.settled(cur):
        p = _direction(dual, cur, face)
        if p is None:
            break
        nxt = _search(dual, cur, p, k)
        iterations += 1
        moved = abs(nxt.lam - cur.lam).max()
        cur, face = nxt, dual.face(nxt, k)
        if moved <= 4.0 * np.finfo(float).eps:
            break
    return cur, face, iterations


def _finish(lins: list[LinearizedVoltage], q: np.ndarray, lam: np.ndarray, dual: float,
            iterations: int, reason: ExitReason) -> FocusingStep:
    """The step that ends on ``q`` and ``lam``, judged by its certificate."""
    v = np.array([lin.base_value + float(2.0 * np.vdot(lin.coeffs, q - lin.expansion_point).real)
                  for lin in lins])   # each lin.predict(q)
    primal = float(v.min())
    if dual - primal <= GAP_TOL * (1.0 + abs(primal)):
        reason = ExitReason.TOLERANCE
    elif reason is ExitReason.TOLERANCE:
        reason = ExitReason.SHORT_STEP
    kkt = float(v[lam > 0].max() - primal) / (1.0 + abs(primal))
    return FocusingStep(q, lam, primal, dual, kkt, iterations, reason)


def _capped(lins: list[LinearizedVoltage], dead: np.ndarray,
            start: np.ndarray | None) -> FocusingStep:
    """Receivers with all-zero coefficients see a constant ``base_value``: they leave the
    dual, and the lowest caps primal and dual. Where it binds, the prices sit on its vertex."""
    live = np.flatnonzero(~dead)
    cap = min(np.flatnonzero(dead), key=lambda m: lins[m].base_value)
    bound, lam = lins[cap].base_value, np.zeros(len(lins))
    # with no receiver left, the cap's own step keeps q0 at its bound
    sub = focusing_step([lins[m] for m in live] or [lins[cap]],
                        None if start is None or not start[live].any() else start[live])
    if bound <= sub.dual:
        lam[cap] = 1.0
    else:
        lam[live] = sub.multipliers
    return _finish(lins, sub.q, lam, min(sub.dual, bound), sub.iterations, sub.exit_reason)


def focusing_step(lins: list[LinearizedVoltage],
                  start: np.ndarray | None = None) -> FocusingStep:
    """Solve a focusing restriction through its dual (module docstring).

    ``lins`` are the receivers' linearizations at one expansion point;
    ``start`` optionally warm-starts the prices, nonnegative and not all 0."""
    m_count = len(lins)
    lam = np.full(m_count, 1.0 / m_count) if start is None else np.asarray(start, float)
    if start is not None and not (lam.shape == (m_count,) and lam.min() >= 0.0
                                  and 0.0 < lam.sum() < np.inf):
        raise ValueError("the warm start must be one finite, non-negative price per receiver, "
                         "not all 0")
    # a lone receiver is not capped, which would recur on it: with no live
    # element its dual settles at q0
    if m_count > 1 and (dead := np.array([not lin.coeffs.any() for lin in lins])).any():
        return _capped(lins, dead, None if start is None else lam)
    dual = _Dual(lins)
    pt = dual.at(lam / lam.sum())
    face = dual.face(pt)
    tried = set()
    iterations = 0
    reason = ExitReason.ITER_CAP
    while True:
        if face.settled(pt):
            reason = ExitReason.TOLERANCE
            break
        k = dual.kink_candidate(pt)
        if k is not None and (k, tuple(pt.lam > 0)) not in tried:
            tried.add((k, tuple(pt.lam > 0)))   # its minimizer does not depend on the start
            at_kink = _kink(dual, pt, k)
            if at_kink is not None:
                iterations += at_kink[2]
                done = _finish(lins, dual.primal_point(*at_kink[:2]), at_kink[0].lam,
                               at_kink[0].value, iterations, ExitReason.ITER_CAP)
                if done.exit_reason is ExitReason.TOLERANCE:
                    return done
        if iterations >= MAX_NEWTON:
            break
        nxt = _search(dual, pt, _direction(dual, pt, face), None)
        iterations += 1
        moved = abs(nxt.lam - pt.lam).max()
        pt, face = nxt, dual.face(nxt)
        if moved <= 4.0 * np.finfo(float).eps:
            reason = ExitReason.SHORT_STEP   # the prices are as good as they get
            break
    return _finish(lins, dual.primal_point(pt, face), pt.lam, pt.value, iterations, reason)
