"""The waveform restriction and its solution through the M-dimensional dual.

Each waveform step minimizes ``sum_i s_i ||w_i|| + ||w||^2`` over the stacked
real tone weights (chain i's block ``w_i``) subject to one affine row
``g_m . w >= r_m`` per receiver. For multipliers ``lam >= 0`` the Lagrangian
separates by chain: with ``G = sum_m lam_m g_m`` its minimizer is the group
soft threshold ``w_i = (||G_i|| - s_i)_+ / 2 * G_i / ||G_i||`` (Parikh & Boyd,
*Proximal Algorithms*, 2014), and the dual function

    d(lam) = lam . r - 1/4 sum_i (||G_i|| - s_i)_+^2

is concave with gradient ``r - g . w(lam)`` (Boyd & Vandenberghe, *Convex
Optimization*, ch. 5). Its Hessian is built from the per-chain Gram matrices
``K_i = g_i g_i^T`` (M x M), so with one row per receiver the problem is
tiny whatever the array size. ``||G_i||`` is taken from ``G`` itself, not
from ``lam^T K_i lam``, which loses its accuracy when rows cancel.

:func:`dual_step` maximizes ``d`` over ``lam >= 0`` by the projected Newton
of :mod:`wptopt.dual_newton`, with no equality rows. The Hessian is singular
where no chain is live, where a chain turns on or off, and when the live
chains span fewer directions than there are free rows; the kernel then
descends the gradient in those flat directions. Where its direction fails
to descend, the step takes the projected gradient. The start is the exact
minimizer of ``-d`` along a ray, found by sorting the chains' breakpoints;
with one receiver that ray is the whole problem, so the start is the
answer. The returned point is scaled up to meet every row
(``max_m r_m / (g_m . w)`` when that exceeds 1), so it is feasible, and
``primal - dual`` certifies how far it is from the optimum.

The restriction is infeasible exactly when some ``lam >= 0`` has
``sum_m lam_m g_m = 0`` and ``lam . r > 0``; such a ``lam`` lies in the null
space of the total Gram matrix, and for M <= 3 rows the extreme rays of that
null space within the orthant are enumerated directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import dual_newton
from .dual_newton import FLAT, GAP_STOP, GAP_TOL, MAX_NEWTON, ExitReason
from .linearize import LinearizedVoltage
from .transmitter import Waveform


# ---------------------------------------------------------------------------
# the restriction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveformRestriction:
    """``min sum_i scales_i ||x_i|| + ||x||^2  s.t.  rows[m] . x >= rhs[m]``.

    ``x`` is [n_rf, 2 n_f]: chain-major, each tone's real and imaginary part
    side by side; ``rows`` is [M, n_rf, 2 n_f] in the same layout."""

    rows: np.ndarray
    rhs: np.ndarray
    scales: np.ndarray

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x).reshape(self.rows.shape[1:])
        return float(self.scales @ np.linalg.norm(x, axis=1) + np.sum(x * x))

    def row_values(self, x: np.ndarray) -> np.ndarray:
        return self.rows.reshape(len(self.rhs), -1) @ np.asarray(x).reshape(-1)

    def max_violation(self, x: np.ndarray) -> float:
        return float(np.max(self.rhs - self.row_values(x), initial=0.0))


def waveform_restriction(linearizations: list[LinearizedVoltage], w0: Waveform,
                         scales: np.ndarray, targets: np.ndarray) -> WaveformRestriction:
    """Minimum-consumption restriction at the expansion point ``w0``.

    The variables are the per-chain tone weights (DMA replication is
    eliminated by working in the chain variables). The objective is the
    consumption bound: per chain ``scales[i] ||w_i||``
    (``power.chain_norm_scales``) plus the squared norm, whose sum is the
    input power. Each receiver contributes one row: its linearized output
    voltage must reach its voltage target ``sqrt(R_L * Pbar_m)``. Targets
    carry a 1e-7 relative margin so that a solver's slack can never leave
    the exact non-linear constraint violated.
    """
    n_rf, n_f = w0.omega.shape
    m_count = len(linearizations)
    if any(lin.coeffs.size != n_rf * n_f for lin in linearizations):
        raise ValueError("linearization size does not match the waveform")
    # the voltage of 2*Re{c^H w} reads c as [n_f, n_rf]; rows are chain-major
    coeffs = np.array([np.asarray(lin.coeffs).reshape(n_f, n_rf).T
                       for lin in linearizations])
    rows = 2.0 * np.stack([coeffs.real, coeffs.imag], axis=-1).reshape(m_count, n_rf, -1)
    base = np.array([lin.base_value for lin in linearizations])
    targets = targets * (1.0 + 1e-7)
    # target <= base + g.(w - w0)   ->   g.w >= target - (base - g.w0)
    w0_flat = np.stack([w0.omega.real, w0.omega.imag], axis=-1).reshape(-1)
    at_w0 = rows.reshape(m_count, -1) @ w0_flat
    return WaveformRestriction(rows=rows, rhs=targets - (base - at_w0), scales=scales)


# ---------------------------------------------------------------------------
# the dual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveformStep:
    """A solved waveform restriction, or its infeasibility certificate.

    ``x`` is the feasible point (``None`` when infeasible), ``multipliers``
    the dual point ``lam`` (when infeasible, a certificate: ``lam >= 0``,
    ``sum_m lam_m g_m = 0``, ``lam . r > 0``), ``primal`` the objective at
    ``x`` and ``dual`` the dual function at ``lam``, a lower bound on it.
    ``kkt_residual`` is the projected dual gradient relative to
    ``1 + max |r|``."""

    x: np.ndarray | None
    multipliers: np.ndarray
    primal: float
    dual: float
    kkt_residual: float
    iterations: int
    exit_reason: ExitReason

    @property
    def gap(self) -> float:
        return self.primal - self.dual

    @property
    def omega(self) -> np.ndarray:
        """The point as complex [n_rf, n_f] tone weights."""
        return self.x[:, 0::2] + 1j * self.x[:, 1::2]


@dataclass(slots=True)
class _Point:
    """``f = -d`` and its derivatives at one multiplier vector."""

    lam: np.ndarray
    combo: np.ndarray    # G = sum_m lam_m g_m, [n_rf, 2 n_f]
    rho: np.ndarray      # ||G_i||
    excess: np.ndarray   # (||G_i|| - s_i)_+
    half: np.ndarray     # excess / (2 rho), so that w_i(lam) = half_i G_i
    kl: np.ndarray       # K_i lam = g_i . G_i, [n_rf, M]
    value: float
    grad: np.ndarray     # g . w(lam) - r


class _Dual:
    """The dual of one restriction, as ``f = -d`` to be minimized."""

    def __init__(self, restriction: WaveformRestriction):
        self.rows = restriction.rows
        self.stacked = self.rows.reshape(len(restriction.rhs), -1)   # [M, n_rf * 2 n_f]
        self.r = restriction.rhs
        self.s = restriction.scales
        self.gram = np.einsum("mik,lik->iml", self.rows, self.rows)
        self.no_rows = np.empty((0, len(self.r)))   # the orthant has no equality rows

    def at(self, lam: np.ndarray) -> _Point:
        combo = np.dot(lam.reshape(1, -1), self.stacked).reshape(self.rows.shape[1:])
        rho = np.sqrt(np.add.reduce(combo * combo, axis=1))
        excess = np.maximum(rho - self.s, 0.0)
        half = np.divide(excess, 2.0 * rho, out=np.zeros(len(rho)), where=excess > 0)
        kl = np.einsum("mik,ik->im", self.rows, combo)
        value = 0.25 * float(excess @ excess) - float(lam @ self.r)
        return _Point(lam, combo, rho, excess, half, kl, value, half @ kl - self.r)

    def hessian(self, pt: _Point) -> np.ndarray:
        """Of ``-d``: per live chain ``((1 - s/rho) K + (s/rho^3) v v^T) / 2``
        with ``v = K lam``; piecewise, it jumps where a chain turns on or off."""
        live = pt.excess > 0
        rho, s, kl = pt.rho[live], self.s[live], pt.kl[live]
        return 0.5 * (np.einsum("i,iml->ml", 1.0 - s / rho, self.gram[live])
                      + np.einsum("i,im,il->ml", s / rho ** 3, kl, kl))

    def certified_gap(self, pt: _Point) -> float:
        """``(primal - dual) / (1 + primal)`` for ``w(lam)`` scaled up to meet
        every row; infinite while a row it must meet reads 0 or less."""
        reach = pt.grad + self.r
        need = self.r > 0
        if (need & (reach <= 0)).any():
            return np.inf
        c = max(1.0, float((self.r[need] / reach[need]).max(initial=1.0)))
        primal = (c * 0.5 * float(self.s @ pt.excess)
                  + c * c * 0.25 * float(pt.excess @ pt.excess))
        return (primal + pt.value) / (1.0 + primal)


def _ray_minimizer(a: np.ndarray, s: np.ndarray, rate: float) -> float:
    """Exact minimizer over ``t >= 0`` of ``1/4 sum_i (t a_i - s_i)_+^2 - t rate``
    (``a >= 0``, some ``a_i > 0``, ``rate > 0``). Its slope is piecewise linear
    with breakpoints ``s_i / a_i``: sort them and take the first piece whose
    root lies before the next breakpoint."""
    live = a > 0
    a, s = a[live], s[live]
    order = np.argsort(s / a, kind="stable")
    a, s = a[order], s[order]
    roots = (2.0 * rate + np.cumsum(a * s)) / np.cumsum(a * a)
    nxt = np.append((s / a)[1:], np.inf)
    return float(roots[np.argmax(roots <= nxt)])


def _certificate(gram_total: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """A ``lam >= 0`` with ``sum_m lam_m g_m = 0`` and ``lam . r > 0``, or
    ``None``. The candidates are the extreme rays of the null space of the
    total Gram matrix within the orthant: for a k-dimensional null space,
    each ray has k - 1 coordinates at zero."""
    vals, vecs = np.linalg.eigh(gram_total)
    null = vecs[:, vals <= FLAT * max(vals[-1], 0.0)]
    k = null.shape[1]
    if k == 0:
        return None
    for zero in itertools.combinations(range(len(r)), k - 1):
        if k == 1:
            lam = null[:, 0]
        else:
            lam = null @ np.linalg.svd(null[list(zero)])[2][-1]
        for cand in (lam, -lam):
            size = float(np.max(np.abs(cand)))
            if (cand.min() >= -1e-12 * size
                    and cand @ r > 1e-12 * size * float(np.max(np.abs(r)))):
                return np.maximum(cand, 0.0) / size
    return None


def _feasible_point(restriction: WaveformRestriction, pt: _Point) -> tuple[np.ndarray, float]:
    """``w(lam)``, scaled up by ``max_m r_m / (g_m . w)`` when that exceeds 1.
    A row that still falls short by its rounding is met by a further
    scaling of a few times that rounding."""
    x = pt.half[:, None] * pt.combo
    r = restriction.rhs
    terms = np.abs(restriction.rows.reshape(len(r), -1)) @ np.abs(x.reshape(-1))
    for k in range(4):
        reach = restriction.row_values(x)
        short = reach < r
        if not short.any() or np.any(short & (reach <= 0)):
            break
        slack = 2.0 ** k * np.finfo(float).eps * terms
        x = x * float(np.max((r + slack)[short] / reach[short]))
    return x, restriction.objective(x)


def _start(dual: _Dual) -> tuple[np.ndarray | None, np.ndarray]:
    """An infeasibility certificate, if there is one, and the start: the
    minimizer of ``-d`` along the ray of the rows with ``r_m > 0``."""
    r = dual.r
    ray = (r > 0).astype(float)
    if (cert := _certificate(dual.gram.sum(axis=0), r)) is not None or not ray.any():
        return cert, ray   # with no such row, w = 0 meets every row
    return None, ray * _ray_minimizer(dual.at(ray).rho, dual.s, float(ray @ r))


def _one_row_start(dual: _Dual) -> tuple[np.ndarray | None, np.ndarray]:
    """:func:`_start` for one row, bit for bit and without an eigensolve or
    a dual evaluation: the 1 x 1 Gram matrix is its own eigenvalue, and the
    ray's chain norms are the row's."""
    r, gram = dual.r, dual.gram.sum(axis=0)[0, 0]
    ray = (r > 0).astype(float)
    if gram <= FLAT * max(gram, 0.0) and r[0] > 1e-12 * abs(r[0]):
        return np.ones(1), ray
    if not ray[0]:
        return None, ray
    rho = np.sqrt(np.add.reduce(dual.rows[0] * dual.rows[0], axis=1))
    return None, ray * _ray_minimizer(rho, dual.s, float(ray @ r))


def dual_step(restriction: WaveformRestriction) -> WaveformStep:
    """Solve a waveform restriction through its dual (module docstring)."""
    dual = _Dual(restriction)
    r = dual.r
    cert, lam = (_one_row_start if len(r) == 1 else _start)(dual)
    if cert is not None:
        return WaveformStep(None, cert, np.inf, np.inf, np.inf, 0, ExitReason.INFEASIBLE)
    pt = dual.at(lam)
    iterations = 0
    reason = ExitReason.ITER_CAP
    while True:
        if dual.certified_gap(pt) <= GAP_STOP:
            reason = ExitReason.TOLERANCE
            break
        if iterations == MAX_NEWTON:
            break
        lam, grad = pt.lam, pt.grad
        p = dual_newton.direction(lam, grad, dual.hessian(pt),
                                  ~((lam == 0) & (grad >= 0)), dual.no_rows)
        if p is None:
            p = np.where((lam == 0) & (grad > 0), 0.0, -grad)   # projected gradient
        nxt = dual_newton.search(pt, p, dual.at, lambda pt: pt.grad,
                                 lambda pt, p: float(p @ dual.hessian(pt) @ p), lambda pt: 0.0)
        iterations += 1
        moved = abs(nxt.lam - pt.lam).max()
        pt = nxt
        if moved <= 4.0 * np.finfo(float).eps * pt.lam.max():
            reason = ExitReason.SHORT_STEP   # the multipliers are as good as they get
            break
    x, primal = _feasible_point(restriction, pt)
    dual_value = -pt.value
    if (restriction.max_violation(x) == 0.0
            and primal - dual_value <= GAP_TOL * (1.0 + primal)):
        reason = ExitReason.TOLERANCE
    elif reason is ExitReason.TOLERANCE:
        reason = ExitReason.SHORT_STEP
    projected = np.where(pt.lam > 0, pt.grad, np.minimum(pt.grad, 0.0))
    kkt = float(np.max(np.abs(projected))) / (1.0 + float(np.max(np.abs(r))))
    return WaveformStep(x, pt.lam, primal, dual_value, kkt, iterations, reason)
