"""Projected Newton on a small dual, shared by both restriction steps.

The waveform step minimizes its negated dual over the orthant of receiver
multipliers, the focusing step its dual over the simplex of receiver
prices; both are convex in M variables. :func:`direction` is a Newton step
on the variables off their bound (Bertsekas, *Nonlinear Programming*),
within the null space of the set's equality rows, and :func:`search` ends
it on the monotone slope. Each step passes its set and its problem in as
data and callables, and keeps its own start, fallback and certificate.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

GAP_TOL = 1e-12     # certified (primal - dual) / (1 + |primal|) of a TOLERANCE exit
GAP_STOP = 1e-14    # the Newton loops stop once the certified gap is this small
FLAT = 1e-12        # Hessian eigenvalues below this fraction of the largest are flat
MAX_NEWTON = 50
_MAX_SEARCH = 60


class ExitReason(enum.Enum):
    """Why a restriction solve stopped. The dual waveform step exits on
    ``TOLERANCE``, ``INFEASIBLE``, ``SHORT_STEP`` or ``ITER_CAP``, the
    focusing step on ``TOLERANCE``, ``SHORT_STEP`` or ``ITER_CAP``; the
    interior-point method of :mod:`wptopt.socp` uses every member."""

    TOLERANCE = "tolerance met"
    INFEASIBLE = "infeasibility certificate"
    LOST_INTERIOR = "iterate left the cone interior"
    FACTORIZATION = "Newton block or Schur factorization failed"
    FLOATING_POINT = "floating-point error in the search direction"
    SHORT_STEP = "step too short to make progress"
    ITER_CAP = "iteration cap"


@functools.lru_cache(maxsize=64)
def _null_space(n: int, rows: bytes) -> np.ndarray:
    """Orthonormal, read-only basis [n, n - rank] of ``{x : rows @ x = 0}`` (n columns)."""
    _, sv, vt = np.linalg.svd(np.frombuffer(rows).reshape(-1, n))
    basis = vt[int(np.sum(sv > FLAT * sv[0])):].T
    basis.flags.writeable = False
    return basis


def direction(lam: np.ndarray, grad: np.ndarray, hess: np.ndarray,
              free: np.ndarray, rows: np.ndarray) -> np.ndarray | None:
    """Projected Newton direction at ``lam >= 0`` for gradient ``grad`` and
    Hessian ``hess``, over the variables ``free`` and in the null space of
    the equality ``rows`` (M columns, none for the orthant). Where the
    reduced Hessian is flat, the step descends the gradient instead, scaled
    to the variables. A zero variable the step would push below its bound
    is fixed and the step taken again. ``None`` when the result does not
    descend or leaves the set."""
    zero = lam == 0
    bounded = zero.any()   # a variable on its bound, which the step may push below it
    for _ in range(len(lam)):
        idx = free.nonzero()[0]
        p = np.zeros(len(lam))
        # with no rows the free variables are their own basis
        basis = _null_space(len(idx), rows[:, idx].tobytes()) if len(rows) else None
        h_red, g_red = hess[idx[:, None], idx], grad[idx]
        if basis is not None:
            h_red, g_red = basis.T @ h_red @ basis, basis.T @ g_red
        if len(g_red):
            vals, vecs = np.linalg.eigh(h_red)
            comp = vecs.T @ g_red
            curved = vals > FLAT * max(vals[-1], 0.0)
            step = -vecs[:, curved] @ (comp[curved] / vals[curved])
            flat = 0.0   # the empty flat part where every eigenvalue is curved
            if not curved[0]:   # they ascend
                flat = -vecs[:, ~curved] @ comp[~curved]
                size = np.linalg.norm(flat)
                if size > 0:
                    flat *= max(np.linalg.norm(lam[idx]), np.linalg.norm(step), size) / size
            p[idx] = step + flat if basis is None else basis @ (step + flat)
        if not bounded or not (blocked := zero & (p < 0)).any():
            break
        free = free & ~blocked
    if grad @ p < 0 and (not bounded or (p[zero] >= 0).all()):
        return p
    return None


def search(pt, p: np.ndarray, at, gradient, curvature, rise):
    """Along ``lam + t p`` up to the bound ``lam >= 0``. ``at(lam)``
    evaluates the point (with ``.lam`` and ``.value``) after mapping ``lam``
    onto the set, ``gradient(point) @ p`` is the slope, nondecreasing in
    ``t``, and ``curvature(point, p)`` is ``p^T H p``. While the slope is
    still negative the step lowers the value whatever its rounding. Stop
    where the slope is at most a tenth of its start in size (past the
    minimizer only if the value rose by no more than ``rise(pt)``), or at
    the bound while still negative. Trial steps are Newton steps on the
    slope, bisection when those leave the bracket."""
    ratios = np.divide(-pt.lam, p, out=np.full(len(p), np.inf), where=p < 0)
    bound = float(ratios.min())
    slope0 = float(gradient(pt) @ p)
    lo, hi = 0.0, np.inf
    t = min(1.0, bound)
    best = pt
    for _ in range(_MAX_SEARCH):
        lam = np.maximum(pt.lam + t * p, 0.0)
        if t == bound:
            lam[ratios == bound] = 0.0
        trial = at(lam)
        slope = float(gradient(trial) @ p)
        if slope <= 0.0:
            if slope >= 0.1 * slope0 or t == bound:
                return trial
            lo, best = t, trial
        elif slope <= -0.1 * slope0 and trial.value <= pt.value + rise(pt):
            return trial
        else:
            hi = t
        curv = curvature(trial, p)
        nxt = t - slope / curv if curv > 0 else np.inf
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < np.inf else 2.0 * t
        nxt = min(nxt, bound)
        if nxt == t:
            break
        t = nxt
    return best
