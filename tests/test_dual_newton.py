"""The projected-Newton kernel that both restriction steps share: every search
either step makes starts downhill and ends no higher than it began, up to
the rise the step allows (none for the waveform step, the rounding of the
dual's value for the focusing step).

A search also ends at a point where the slope along its direction is still
negative, whatever the computed value there: by convexity the value is
lower. Near a waveform step's optimum that value can read a few ulps above
the start (up to 15 in a probe of 600 draws), far below the Newton loops'
relative gap tolerance ``GAP_STOP``; the test allows a rise below that
tolerance only at such a point.

The kernel's direction is also checked bit for bit against the plain
version it was trimmed from, and its cached null spaces against fresh
SVDs."""

import collections

import numpy as np
import pytest
from hypothesis import event, given, settings

from test_focusing_step import restrictions as focusing_restrictions
from test_waveform_step import restrictions as waveform_restrictions
from wptopt import dual_newton
from wptopt.dual_newton import FLAT, GAP_STOP
from wptopt.focusing_step import focusing_step
from wptopt.waveform_step import dual_step


def _reference_null_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis [n, n - rank] of ``{x : rows @ x = 0}``."""
    _, sv, vt = np.linalg.svd(rows)
    return vt[int(np.sum(sv > FLAT * sv[0])):].T


def reference_direction(lam, grad, hess, free, rows):
    """``dual_newton.direction`` before its dispatch was trimmed: the same
    floating-point operations, an SVD on every call."""
    for _ in range(len(lam)):
        idx = np.flatnonzero(free)
        p = np.zeros_like(lam)
        # with no rows the free variables are their own basis
        basis = _reference_null_space(rows[:, idx]) if len(rows) else None
        h_red, g_red = hess[np.ix_(idx, idx)], grad[idx]
        if basis is not None:
            h_red, g_red = basis.T @ h_red @ basis, basis.T @ g_red
        if len(g_red):
            vals, vecs = np.linalg.eigh(h_red)
            comp = vecs.T @ g_red
            curved = vals > FLAT * max(vals[-1], 0.0)
            step = -vecs[:, curved] @ (comp[curved] / vals[curved])
            flat = -vecs[:, ~curved] @ comp[~curved]
            size = np.linalg.norm(flat)
            if size > 0:
                flat *= max(np.linalg.norm(lam[idx]), np.linalg.norm(step), size) / size
            p[idx] = step + flat if basis is None else basis @ (step + flat)
        blocked = (lam == 0) & (p < 0)
        if not blocked.any():
            break
        free = free & ~blocked
    if grad @ p < 0 and np.all(p[lam == 0] >= 0):
        return p
    return None


def traced_reference(lam, grad, hess, free, rows):
    """The reference's result, whether it blocked a variable (a second
    pass) and whether some reduced Hessian had a flat eigenvalue."""
    passes, flat = [], []
    real_eigh, real_flatnonzero = np.linalg.eigh, np.flatnonzero

    def eigh(a):
        vals, vecs = real_eigh(a)
        flat.append(not np.all(vals > FLAT * max(vals[-1], 0.0)))
        return vals, vecs

    def flatnonzero(a):
        passes.append(1)
        return real_flatnonzero(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", eigh)
        mp.setattr(np, "flatnonzero", flatnonzero)
        p = reference_direction(lam, grad, hess, free, rows)
    return p, len(passes) > 1, any(flat)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(waveform_restrictions(), focusing_restrictions())
def test_every_search_descends(waveform, focusing):
    search = dual_newton.search
    searches = []

    def recorded(pt, p, at, gradient, curvature, rise):
        end = search(pt, p, at, gradient, curvature, rise)
        searches.append((float(gradient(pt) @ p), float(gradient(end) @ p),
                         pt.value, end.value, rise(pt)))
        return end

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dual_newton, "search", recorded)
        dual_step(waveform[1])
        focusing_step(focusing[0])
    event(f"{len(searches)} searches")
    for slope0, slope, start, end, rise in searches:
        assert slope0 < 0.0
        assert end <= start + rise or (
            slope <= 0.0 and end - start <= GAP_STOP * (1.0 + abs(start)))


def test_direction_is_the_reference_bit_for_bit():
    """Every direction the two steps ask for on the restrictions above equals
    the reference's, bit for bit (or both are ``None``), blocked and flat
    cases included."""
    newton = dual_newton.direction
    cases = collections.Counter()

    def checked(lam, grad, hess, free, rows):
        want, blocked, flat = traced_reference(lam.copy(), grad.copy(), hess.copy(),
                                               free.copy(), rows.copy())
        got = newton(lam, grad, hess, free, rows)
        assert (got is None) == (want is None)
        assert got is None or got.tobytes() == want.tobytes()
        cases.update(["call"] + ["blocked"] * blocked + ["flat"] * flat)
        return got

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(waveform_restrictions(), focusing_restrictions())
    def steps(waveform, focusing):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dual_newton, "direction", checked)
            dual_step(waveform[1])
            focusing_step(focusing[0])

    steps()
    assert cases["blocked"] > 0 and cases["flat"] > 0, cases


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 3), (1, 4), (3, 2), (3, 3), (3, 4)])
def test_cached_null_space_is_a_read_only_fresh_svd(shape):
    rows = np.ones(shape)
    rows[1:] = np.random.default_rng(shape[1]).normal(size=(shape[0] - 1, shape[1]))
    dual_newton._null_space.cache_clear()
    basis = dual_newton._null_space(shape[1], rows.tobytes())
    fresh = _reference_null_space(rows)
    assert basis.shape == fresh.shape and basis.strides == fresh.strides
    assert basis.tobytes() == fresh.tobytes()
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[...] = 0.0
    assert dual_newton._null_space(shape[1], rows.tobytes()) is basis


@settings(derandomize=True, max_examples=30, deadline=None)
@given(focusing_restrictions())
def test_focusing_steps_do_not_depend_on_the_cache(focusing):
    """A step gives the same bits whether its null spaces are computed
    afresh or taken from the cache."""
    dual_newton._null_space.cache_clear()
    cold = focusing_step(focusing[0])
    warm = focusing_step(focusing[0])
    assert cold.q.tobytes() == warm.q.tobytes()
    assert cold.multipliers.tobytes() == warm.multipliers.tobytes()
    assert (cold.primal, cold.dual, cold.kkt_residual, cold.iterations, cold.exit_reason) == \
        (warm.primal, warm.dual, warm.kkt_residual, warm.iterations, warm.exit_reason)
