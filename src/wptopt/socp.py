"""Second-order-cone subproblems and the embedded primal-dual solver.

No design solves a restriction here: every waveform restriction goes
through its dual in ``waveform_step.dual_step``, every focusing restriction
through its dual in ``focusing_step.focusing_step``, and the tests certify
both by weak duality; the module stays only for the names the benchmark's
tracer wraps. :func:`assemble_w_subproblem` and :func:`assemble_q_subproblem`
express the two restrictions over stacked real variables in a structured
:class:`ConeProgram` (linear cost, sum-of-norm groups, squared-norm
epigraphs, affine rows, disk constraints).
:func:`solve` lowers the structure to a standard conic form
``min c^T x  s.t.  A x + s = b,  s in K`` and runs a homogeneous self-dual
Mehrotra predictor-corrector with Nesterov-Todd scaling.
Problem sizes here are a few hundred to a few thousand variables, solved
hundreds of times per run, so an embedded deterministic solver with
contractual tolerances is preferred over an external dependency.

Each Newton step solves ``A^T W^-2 A dx = r`` through its structure
(Vandenberghe, "The CVXOPT linear and quadratic cone program solvers", 2010):
a cone's NT term is a diagonal plus a low-rank term on the variables its rows
read. Every cone the optimizer poses reads one block's variables, so the
blocks are small and dense, factored in one batched call per block size (2x2
per Lorentzian disk, one block per chain's norm and squared norm with their
epigraph variables). The orthant rows (one per receiver) and the variables
no cone reads form one bordered Schur system, LU-solved by
``numpy.linalg.solve`` (an exactly zero pivot stops with ``FACTORIZATION``).
Iterative refinement against the exact KKT operator checks the accuracy of
every solve.
That block plan depends only on the program's structure (cone dimensions,
the cone rows' columns and coefficients, the orthant row count); each solve
builds it once and reuses it in every iteration.

Cones of one dimension sit back to back, so each run of them is read and
written as one ``[n_blocks, dim]`` view of the stacked vector. The step to
the cone boundary has a closed form per block (as in ECOS, Domahidi, Chu &
Boyd, ECC 2013): rotate the iterate to the identity and read the step off
the rotated direction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .dual_newton import ExitReason
from .linearize import LinearizedVoltage
from .power import chain_norm_scales
from .scenario import ScenarioConfig
from .transmitter import (LORENTZIAN_CENTER, LORENTZIAN_RADIUS, DmaState,
                          Waveform)
from .waveform_step import WaveformRestriction, waveform_restriction


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITER_LIMIT = "iter_limit"


@dataclass(frozen=True)
class NormGroup:
    indices: np.ndarray   # variable indices entering the two-norm
    scale: float          # objective weight of the norm


@dataclass(frozen=True)
class QuadGroup:
    indices: np.ndarray   # ||x[idx] - offset||^2 enters the objective
    offset: np.ndarray


@dataclass(frozen=True)
class Disk:
    ix_re: int
    ix_im: int
    center: complex
    radius: float


@dataclass
class ConeProgram:
    """Structured convex program over ``n_vars`` stacked real variables."""

    n_vars: int
    linear_cost: np.ndarray = None
    norm_groups: list[NormGroup] = field(default_factory=list)
    quad_groups: list[QuadGroup] = field(default_factory=list)
    ineq_lhs: np.ndarray = None   # rows C with C x <= d
    ineq_rhs: np.ndarray = None
    disks: list[Disk] = field(default_factory=list)

    def __post_init__(self):
        if self.linear_cost is None:
            self.linear_cost = np.zeros(self.n_vars)
        if self.ineq_lhs is None:
            self.ineq_lhs = np.zeros((0, self.n_vars))
            self.ineq_rhs = np.zeros(0)
        self.validate()

    def validate(self):
        n = self.n_vars
        if len(self.linear_cost) != n:
            raise ValueError("linear cost length mismatch")
        for g in self.norm_groups:
            if g.scale < 0:
                raise ValueError("norm group scale must be >= 0")
            if np.any(g.indices < 0) or np.any(g.indices >= n):
                raise ValueError("norm group index out of range")
        for g in self.quad_groups:
            if np.any(g.indices < 0) or np.any(g.indices >= n):
                raise ValueError("quad group index out of range")
            if len(g.offset) != len(g.indices):
                raise ValueError("quad group offset length mismatch")
        for dsk in self.disks:
            if not (0 <= dsk.ix_re < n and 0 <= dsk.ix_im < n):
                raise ValueError("disk index out of range")
            if dsk.radius <= 0:
                raise ValueError("disk radius must be positive")
        if self.ineq_lhs.shape != (len(self.ineq_rhs), n):
            raise ValueError("inequality block shape mismatch")

    # -- direct evaluation against the original structure -------------------
    def objective_value(self, x: np.ndarray) -> float:
        val = float(self.linear_cost @ x)
        for g in self.norm_groups:
            val += g.scale * float(np.linalg.norm(x[g.indices]))
        for g in self.quad_groups:
            val += float(np.sum((x[g.indices] - g.offset) ** 2))
        return val

    def constraint_violations(self, x: np.ndarray) -> dict:
        out = {}
        if len(self.ineq_rhs):
            out["ineq"] = float(np.max(self.ineq_lhs @ x - self.ineq_rhs, initial=0.0))
        if self.disks:
            worst = 0.0
            for dsk in self.disks:
                dist = np.hypot(x[dsk.ix_re] - dsk.center.real,
                                x[dsk.ix_im] - dsk.center.imag)
                worst = max(worst, dist - dsk.radius)
            out["disk"] = worst
        return out

    def max_violation(self, x: np.ndarray) -> float:
        return max(self.constraint_violations(x).values(), default=0.0)


@dataclass(frozen=True)
class ConeSolution:
    x: np.ndarray
    objective: float
    kkt_residual: float
    duality_gap: float
    status: SolveStatus
    iterations: int
    exit_reason: ExitReason
    violation_report: str = ""


# ---------------------------------------------------------------------------
# subproblem assembly
# ---------------------------------------------------------------------------

def stack_complex(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=complex).reshape(-1)
    out = np.empty(2 * len(v))
    out[0::2] = v.real
    out[1::2] = v.imag
    return out


def unstack_complex(x: np.ndarray) -> np.ndarray:
    return x[0::2] + 1j * x[1::2]


def _gradient_row(coeffs: np.ndarray, n_vars: int) -> np.ndarray:
    """Row of the real-linear action ``2*Re{c^H w}`` over stacked variables."""
    c = np.asarray(coeffs, dtype=complex).reshape(-1)
    row = np.zeros(n_vars)
    row[0:2 * len(c):2] = 2.0 * c.real
    row[1:2 * len(c):2] = 2.0 * c.imag
    return row


def waveform_cone_program(res: WaveformRestriction) -> ConeProgram:
    """A waveform restriction as a cone program: per chain its norm and its
    squared norm (so every cone reads one chain's variables), one inequality
    row per receiver. It is the interior-point reference of
    :func:`waveform_step.dual_step`."""
    m_count, n_rf, width = res.rows.shape
    groups = [NormGroup(np.arange(i * width, (i + 1) * width), float(res.scales[i]))
              for i in range(n_rf)]
    quad = [QuadGroup(g.indices, np.zeros(width)) for g in groups]
    return ConeProgram(n_vars=n_rf * width, norm_groups=groups, quad_groups=quad,
                       ineq_lhs=-res.rows.reshape(m_count, -1), ineq_rhs=-res.rhs)


def assemble_w_subproblem(scenario: ScenarioConfig, dma: DmaState | None,
                          linearizations: list[LinearizedVoltage],
                          w0: Waveform) -> ConeProgram:
    """The waveform restriction at ``w0`` (posed by
    :func:`waveform_step.waveform_restriction`) as a cone program."""
    dev = scenario.device
    scales = chain_norm_scales(dma, w0.n_rf, dev.hpa_gain, dev.hpa_saturation_power,
                               dev.hpa_max_efficiency)
    return waveform_cone_program(waveform_restriction(linearizations, w0, scales,
                                                      scenario.voltage_targets()))


def assemble_q_subproblem(linearizations: list[LinearizedVoltage],
                          q0: np.ndarray) -> ConeProgram:
    """Max-min-voltage restriction over the element weights at ``q0``.

    Maximizes the worst-case linearized output voltage subject to each weight
    staying inside its Lorentzian disk.
    """
    nq = len(np.asarray(q0).reshape(-1))
    n_vars = 2 * nq + 1
    r_ix = 2 * nq
    cost = np.zeros(n_vars)
    cost[r_ix] = -1.0  # maximize R
    q0_flat = stack_complex(q0)
    rows = np.zeros((len(linearizations), n_vars))
    rhs = np.zeros(len(linearizations))
    for m, lin in enumerate(linearizations):
        if lin.coeffs.size != nq:
            raise ValueError("linearization size does not match q")
        grow = _gradient_row(lin.coeffs, n_vars)
        # R <= base + grad.(q - q0)   ->   R - grad.q <= base - grad.q0
        rows[m] = -grow
        rows[m, r_ix] = 1.0
        rhs[m] = lin.base_value - grow[:2 * nq] @ q0_flat
    disks = [Disk(2 * k, 2 * k + 1, LORENTZIAN_CENTER, LORENTZIAN_RADIUS)
             for k in range(nq)]
    return ConeProgram(n_vars=n_vars, linear_cost=cost, ineq_lhs=rows,
                       ineq_rhs=rhs, disks=disks)


# ---------------------------------------------------------------------------
# standard-form lowering
# ---------------------------------------------------------------------------

class _AffineRows:
    """The standard form's ``A = [C; S]``.

    ``C`` holds the dense orthant rows (the program's affine inequalities).
    Every cone row that ``_lower`` emits reads at most one variable, so ``S``
    is stored as one column index and one coefficient per row; a constant
    row, such as a disk's radius, has coefficient 0.
    """

    def __init__(self, lin: np.ndarray, col: np.ndarray, coef: np.ndarray):
        self.lin, self.col, self.coef = lin, col, coef
        self.n = lin.shape[1]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([self.lin @ x, self.coef * x[self.col]])

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        """``A^T z``."""
        p = len(self.lin)
        return self.lin.T @ z[:p] + np.bincount(self.col, self.coef * z[p:],
                                                minlength=self.n)


def _lower(prog: ConeProgram):
    """Lower the structure to ``min c.x; A x + s = b, s in K``.

    Epigraph variables are appended after the originals: one per norm group
    (``||x_g|| <= t``) and one per quad group (``||x_g - o||^2 <= t`` via the
    rotated-cone identity ``||(2(x-o), t-1)|| <= t+1``). The disks' cones
    ``(radius, x - center)`` come last, so cones of one dimension are emitted
    back to back.
    """
    n0 = prog.n_vars
    n = n0 + len(prog.norm_groups) + len(prog.quad_groups)
    c = np.zeros(n)
    c[:n0] = prog.linear_cost
    cols, coefs, rhs = [np.zeros(0, dtype=int)], [np.zeros(0)], [prog.ineq_rhs]
    soc_dims = []
    t = n0
    for g in prog.norm_groups:
        c[t] = g.scale
        cols.append(np.r_[t, g.indices])                # s = (t, x_g)
        coefs.append(np.full(1 + len(g.indices), -1.0))
        rhs.append(np.zeros(1 + len(g.indices)))
        soc_dims.append(1 + len(g.indices))
        t += 1
    for g in prog.quad_groups:
        c[t] = 1.0
        cols.append(np.r_[t, t, g.indices])             # s = (t + 1, t - 1, 2(x - o))
        coefs.append(np.r_[-1.0, -1.0, np.full(len(g.indices), -2.0)])
        rhs.append(np.r_[1.0, -1.0, -2.0 * np.asarray(g.offset, dtype=float)])
        soc_dims.append(2 + len(g.indices))
        t += 1
    k = len(prog.disks)
    if k:
        ix = np.array([(dsk.ix_re, dsk.ix_im) for dsk in prog.disks])
        cols.append(np.column_stack([np.zeros(k, dtype=int), ix]).ravel())
        coefs.append(np.tile([0.0, -1.0, -1.0], k))
        rhs.append(np.array([(dsk.radius, -dsk.center.real, -dsk.center.imag)
                             for dsk in prog.disks]).ravel())
        soc_dims += [3] * k
    m_lin = len(prog.ineq_rhs)
    lin = np.hstack([prog.ineq_lhs, np.zeros((m_lin, n - n0))])
    a_op = _AffineRows(lin, np.concatenate(cols), np.concatenate(coefs))
    return c, a_op, np.concatenate(rhs), _ConeLayout(m_lin, soc_dims), n0


# ---------------------------------------------------------------------------
# cone arithmetic
# ---------------------------------------------------------------------------

def _soc_det(blk: np.ndarray) -> np.ndarray:
    """``u0^2 - |u1|^2`` of each ``[n_blocks, dim]`` row, formed as
    ``(u0 - |u1|)(u0 + |u1|)`` so that it stays positive wherever
    ``u0 > |u1|`` holds in floating point, also at rounding distance from
    the cone's boundary."""
    norm1 = np.sqrt((blk[:, 1:] ** 2).sum(axis=1))
    return (blk[:, 0] - norm1) * (blk[:, 0] + norm1)


class _ConeLayout:
    """Orthant rows followed by second-order cone blocks.

    Consecutive blocks of equal dimension form one run, rows ``a:b``, which
    every Jordan-algebra operation reads and writes as the ``[n_blocks, dim]``
    view ``x[a:b].reshape(-1, dim)`` instead of looping over blocks.
    """

    def __init__(self, n_nonneg: int, soc_dims):
        self.p = n_nonneg
        self.soc = tuple(soc_dims)
        self.m = n_nonneg + sum(self.soc)
        self.degree = n_nonneg + len(self.soc)
        self.runs: list[tuple[int, int, int]] = []   # (first row, end row, dim)
        a = n_nonneg
        for d in self.soc:
            if self.runs and self.runs[-1][2] == d:
                self.runs[-1] = (self.runs[-1][0], a + d, d)
            else:
                self.runs.append((a, a + d, d))
            a += d

    def identity(self) -> np.ndarray:
        e = np.zeros(self.m)
        e[:self.p] = 1.0
        for a, b, d in self.runs:
            e[a:b:d] = 1.0
        return e

    def interior(self, u: np.ndarray) -> bool:
        if self.p and u[:self.p].min() <= 0.0:
            return False
        for a, b, d in self.runs:
            blk = u[a:b].reshape(-1, d)
            if (blk[:, 0] <= np.sqrt((blk[:, 1:] ** 2).sum(axis=1))).any():
                return False
        return True

    def max_step(self, u: np.ndarray, du: np.ndarray) -> float:
        """Largest step keeping ``u + alpha*du`` inside the closed cone, for
        ``u`` in the interior.

        Per cone block, the hyperbolic rotation that takes
        ``ubar = u / sqrt(det u)`` to ``e`` takes ``du`` to ``(rho0, rho1)``
        with ``rho0 = ubar0 du0 - ubar1.du1`` and
        ``rho1 = du1 - (rho0 + du0) / (ubar0 + 1) ubar1``, so the step is
        ``sqrt(det u) / max(0, |rho1| - rho0)`` (ECOS, Domahidi et al. 2013).
        """
        alpha = np.inf
        if self.p:
            neg = du[:self.p] < 0
            if neg.any():
                alpha = float((-u[:self.p][neg] / du[:self.p][neg]).min())
        for a, b, d in self.runs:
            ub, db = u[a:b].reshape(-1, d), du[a:b].reshape(-1, d)
            root_det = np.sqrt(_soc_det(ub))
            ubar = ub / root_det[:, None]
            rho0 = ubar[:, 0] * db[:, 0] - (ubar[:, 1:] * db[:, 1:]).sum(axis=1)
            rho1 = db[:, 1:] - ((rho0 + db[:, 0]) / (ubar[:, 0] + 1.0))[:, None] * ubar[:, 1:]
            den = np.sqrt((rho1 ** 2).sum(axis=1)) - rho0
            steps = np.divide(root_det, den, out=np.full(len(den), np.inf), where=den > 0)
            alpha = min(alpha, float(steps.min()))
        return alpha

    def prod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        w = np.empty(self.m)
        w[:self.p] = u[:self.p] * v[:self.p]
        for a, b, d in self.runs:
            ub, vb, wb = u[a:b].reshape(-1, d), v[a:b].reshape(-1, d), w[a:b].reshape(-1, d)
            wb[:, 0] = (ub * vb).sum(axis=1)
            wb[:, 1:] = ub[:, :1] * vb[:, 1:] + vb[:, :1] * ub[:, 1:]
        return w

    def solve_prod(self, lam: np.ndarray, v: np.ndarray) -> np.ndarray:
        """x with ``lam o x = v`` (Jordan product inverse)."""
        x = np.empty(self.m)
        x[:self.p] = v[:self.p] / lam[:self.p]
        for a, b, d in self.runs:
            lb, vb, xb = lam[a:b].reshape(-1, d), v[a:b].reshape(-1, d), x[a:b].reshape(-1, d)
            x0 = (lb[:, 0] * vb[:, 0] - (lb[:, 1:] * vb[:, 1:]).sum(axis=1)) / _soc_det(lb)
            xb[:, 0] = x0
            xb[:, 1:] = (vb[:, 1:] - x0[:, None] * lb[:, 1:]) / lb[:, :1]
        return x


class _NTScaling:
    """Nesterov-Todd scaling point W with ``W z = W^{-1} s``.

    Per cone, ``W = eta [[w0, w1^T], [w1, I + w1 w1^T / (1 + w0)]]`` with
    ``w0^2 - |w1|^2 = 1``, so ``W^2 = eta^2 (2 wbar wbar^T - J)`` and
    ``W^{-2} = eta^{-2} (2 u u^T - J)`` with ``u = J wbar``,
    ``J = diag(1, -1, ..., -1)``. ``eta``, ``wbar`` and ``u`` hold one
    array per cone run.
    """

    def __init__(self, cones: _ConeLayout, s: np.ndarray, z: np.ndarray):
        self.cones = cones
        p = cones.p
        self.diag = np.sqrt(s[:p] / z[:p])
        self.diag2 = self.diag ** 2
        self.eta, self.wbar, self.u, self.eta2, self.eta_m2 = [], [], [], [], []
        for a, b, d in cones.runs:
            sb, zb = s[a:b].reshape(-1, d), z[a:b].reshape(-1, d)
            rs = np.sqrt(sb[:, 0] ** 2 - (sb[:, 1:] ** 2).sum(axis=1))
            rz = np.sqrt(zb[:, 0] ** 2 - (zb[:, 1:] ** 2).sum(axis=1))
            sn, zn = sb / rs[:, None], zb / rz[:, None]
            gamma = np.sqrt((1.0 + (sn * zn).sum(axis=1)) / 2.0)
            wb = np.empty_like(sn)
            wb[:, 0] = sn[:, 0] + zn[:, 0]
            wb[:, 1:] = sn[:, 1:] - zn[:, 1:]
            wb /= (2.0 * gamma)[:, None]
            eta = np.sqrt(rs / rz)
            self.eta.append(eta)
            self.eta2.append(eta ** 2.0)
            self.eta_m2.append(eta ** -2.0)
            self.wbar.append(wb)
            self.u.append(np.concatenate([wb[:, :1], -wb[:, 1:]], axis=1))

    def apply(self, x: np.ndarray, inv: bool = False) -> np.ndarray:
        """W x (or W^{-1} x)."""
        c = self.cones
        y = np.empty(c.m)
        y[:c.p] = x[:c.p] * (1.0 / self.diag if inv else self.diag)
        sgn = -1.0 if inv else 1.0
        for (a, b, d), wb, eta in zip(c.runs, self.wbar, self.eta):
            blk, out = x[a:b].reshape(-1, d), y[a:b].reshape(-1, d)
            x0, x1 = blk[:, 0], blk[:, 1:]
            w0, w1 = wb[:, 0], wb[:, 1:]
            dot = (w1 * x1).sum(axis=1)
            fac = 1.0 / eta if inv else eta
            out[:, 0] = fac * (w0 * x0 + sgn * dot)
            out[:, 1:] = fac[:, None] * (sgn * w1 * x0[:, None] + x1
                                         + w1 * (dot / (1.0 + w0))[:, None])
        return y

    def apply_sq(self, x: np.ndarray, inv: bool = False) -> np.ndarray:
        """W^2 x (or W^{-2} x) in one pass."""
        c = self.cones
        y = np.empty(c.m)
        y[:c.p] = x[:c.p] / self.diag2 if inv else x[:c.p] * self.diag2
        for (a, b, d), w, f in zip(c.runs, self.u if inv else self.wbar,
                                   self.eta_m2 if inv else self.eta2):
            blk = x[a:b].reshape(-1, d)
            out = w * (2.0 * (w * blk).sum(axis=1))[:, None] + blk
            out[:, 0] -= 2.0 * blk[:, 0]                  # - J x
            np.multiply(out, f[:, None], out=y[a:b].reshape(-1, d))
        return y


# ---------------------------------------------------------------------------
# structured Newton system
# ---------------------------------------------------------------------------

class _BlockPlan:
    """Static block structure of ``H = A^T W^{-2} A`` for one program structure.

    Each cone k adds ``A_k^T W_k^{-2} A_k`` on its support, the variables its
    rows read. Cones that share a variable form one dense block: one 2x2
    block per Lorentzian disk, and one block per chain holding its norm
    group, its squared norm and their two epigraph variables. A cone that
    spans several supports merges them into one block. The orthant rows and
    the variables no cone reads (``free``) form the border.

    The plan depends only on the cone layout, the cone rows' columns ``col``
    and coefficients ``coef`` and the variable count; each solve builds it
    once.
    """

    def __init__(self, cones: _ConeLayout, n: int, col: np.ndarray, coef: np.ndarray):
        p = cones.p
        self.n = n
        spans = [slice(a - p + j * d, a - p + (j + 1) * d)
                 for a, b, d in cones.runs for j in range((b - a) // d)]
        supports = [set(col[r][coef[r] != 0].tolist()) for r in spans]
        parent = list(range(n))   # union-find over the variables cones read

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for sup in supports:
            r = root(min(sup))
            for v in sup:
                parent[root(v)] = r
        touched = sorted(set().union(*supports))
        members: dict[int, list[int]] = {}
        for v in touched:
            members.setdefault(root(v), []).append(v)
        by_size: dict[int, list[list[int]]] = {}
        for vs in members.values():
            by_size.setdefault(len(vs), []).append(vs)
        self.free = np.setdiff1d(np.arange(n), touched)

        # blocks of equal size share one [n_blocks, size, size] slab of a
        # flat store; the store's last entry collects the unused products
        base = np.zeros(n, dtype=int)
        loc = np.zeros(n, dtype=int)
        width = np.ones(n, dtype=int)
        self.slabs = []
        off = 0
        for size in sorted(by_size):
            idx = np.array(by_size[size])
            base[idx] = off + size * size * np.arange(len(idx))[:, None]
            loc[idx] = np.arange(size)
            width[idx] = size
            self.slabs.append((size, len(idx), off))
            off += idx.size * size
        self.store_size = off
        self.perm = np.array([v for size in sorted(by_size) for vs in by_size[size]
                              for v in vs], dtype=int)

        def flat(i, j):
            return base[i] + loc[i] * width[i] + loc[j]

        self.diag_pos = flat(self.perm, self.perm)
        self.terms = []    # per cone run: (run, block targets, c c^T, c c^T J)
        for i, (a, b, d) in enumerate(cones.runs):
            rows = (a - p) + np.arange(b - a).reshape(-1, d)
            cb, cf = col[rows], coef[rows]
            live = (cf != 0)[:, :, None] & (cf != 0)[:, None, :]
            tgt = np.where(live, flat(cb[:, :, None], cb[:, None, :]), self.store_size)
            cc = cf[:, :, None] * cf[:, None, :]
            self.terms.append((i, tgt.ravel(), cc,
                               cc * np.diag(np.r_[1.0, -np.ones(d - 1)])))
        self.n_border = p   # the orthant rows
        self.schur_size = len(self.free) + self.n_border


class _NewtonSystem:
    """Factored reduced Newton system ``H + reg I``.

    ``H = B + V G V^T``: ``B`` block-diagonal after the permutation of
    :class:`_BlockPlan`, ``V = C^T`` the orthant rows' columns with
    ``G^-1 = W^2`` on those rows. With ``xi = G V^T dx`` the system is solved
    through the blocks and one small Schur complement in ``(dx_free, xi)``
    whose diagonal on ``xi`` is ``-G^-1``, LU-solved per right-hand side by
    ``numpy.linalg.solve`` (``LinAlgError`` on an exactly zero pivot).
    """

    def __init__(self, plan: _BlockPlan, W: _NTScaling, lin: np.ndarray):
        self.plan = plan
        n = plan.n
        tgts, vals = [np.zeros(0, dtype=int)], [np.zeros(0)]
        for i, tgt, cc, ccj in plan.terms:
            u = W.u[i]
            blk = 2.0 * cc * u[:, :, None] * u[:, None, :] - ccj
            tgts.append(tgt)
            vals.append((blk / W.eta[i][:, None, None] ** 2).ravel())
        store = np.bincount(np.concatenate(tgts), np.concatenate(vals),  # int if empty
                            minlength=plan.store_size + 1)[:plan.store_size].astype(float)
        if not np.isfinite(store).all():
            raise np.linalg.LinAlgError("non-finite Newton block")
        v_mat = lin.T
        ginv = W.diag2
        trace = store[plan.diag_pos].sum() + (v_mat * v_mat).sum(axis=0) @ (1.0 / ginv)
        self.reg = 1e-13 * (1.0 + trace / n)
        store[plan.diag_pos] += self.reg
        self.inverses = [np.linalg.inv(store[off:off + nb * size * size]
                                       .reshape(nb, size, size))
                         for size, nb, off in plan.slabs]
        self.k_mat = v_mat[plan.perm]
        self.p_mat = self._block_solve(self.k_mat)
        nf = len(plan.free)
        f_mat = v_mat[plan.free]
        schur = np.zeros((plan.schur_size, plan.schur_size))
        schur[:nf, :nf] = self.reg * np.eye(nf)
        schur[:nf, nf:] = f_mat
        schur[nf:, :nf] = f_mat.T
        schur[nf:, nf:] = -(self.k_mat.T @ self.p_mat) - np.diag(ginv)
        if not np.isfinite(schur).all():
            raise ValueError("non-finite Schur complement")
        self.schur = schur

    def _block_solve(self, v: np.ndarray) -> np.ndarray:
        """``B^{-1} v`` for ``v`` in block order (a vector or columns)."""
        out = np.empty_like(v)
        pos = 0
        for inv in self.inverses:
            nb, size = inv.shape[:2]
            seg = v[pos:pos + nb * size]
            out[pos:pos + nb * size] = (inv @ seg.reshape(nb, size, -1)).reshape(seg.shape)
            pos += nb * size
        return out

    def solve(self, rx: np.ndarray) -> np.ndarray:
        """``dx`` with ``(H + reg I) dx = rx``."""
        plan = self.plan
        nf = len(plan.free)
        t = self._block_solve(rx[plan.perm])
        rhs = np.concatenate([rx[plan.free], np.zeros(plan.n_border)])
        rhs[nf:] -= self.k_mat.T @ t
        if not np.isfinite(rhs).all():
            raise FloatingPointError("non-finite Schur right-hand side")
        sol = np.linalg.solve(self.schur, rhs)
        dx = np.empty(plan.n)
        dx[plan.perm] = t - self.p_mat @ sol[nf:]
        dx[plan.free] = sol[:nf]
        return dx


# ---------------------------------------------------------------------------
# homogeneous self-dual predictor-corrector
# ---------------------------------------------------------------------------

def _solve_standard(c, a_op: _AffineRows, b_vec, cones: _ConeLayout,
                    tol: float, max_iter: int):
    n = len(c)
    plan = _BlockPlan(cones, a_op.n, a_op.col, a_op.coef)
    x = np.zeros(n)
    s = cones.identity(); z = cones.identity()
    tau, kappa = 1.0, 1.0
    e = cones.identity()
    nu = cones.degree + 1.0
    bnorm = 1.0 + np.linalg.norm(b_vec)
    cnorm = 1.0 + np.linalg.norm(c)
    best = None

    def scaled_metrics():
        xh, zh, sh = x / tau, z / tau, s / tau
        pres = np.linalg.norm(a_op @ xh + sh - b_vec) / bnorm
        dres = np.linalg.norm(a_op.rmatvec(zh) + c) / cnorm
        pobj = c @ xh
        dobj = -(b_vec @ zh)
        gap = abs(pobj - dobj)
        relgap = gap / (1.0 + abs(pobj))
        return xh, pobj, gap, pres, dres, relgap

    it = 0
    reason = ExitReason.ITER_CAP
    while it < max_iter:
        r_x = a_op.rmatvec(z) + c * tau
        r_z = -(a_op @ x) + b_vec * tau - s
        r_tau = -c @ x - b_vec @ z - kappa
        mu = (s @ z + tau * kappa) / nu

        xh, pobj, gap, pres, dres, relgap = scaled_metrics()
        merit = max(pres, dres, relgap)
        if best is None or merit < best[0]:
            best = (merit, xh, pobj, gap, max(pres, dres), it)
        if merit <= tol:
            reason = ExitReason.TOLERANCE
            break
        # certificates: tau -> 0 with a strictly improving ray
        ct = -(b_vec @ z)
        if ct > 0 and tau <= 1e-9 * max(1.0, kappa):
            if np.linalg.norm(a_op.rmatvec(z)) / ct <= 1e-6:
                return None, ExitReason.INFEASIBLE, it
        if c @ x < 0 and tau <= 1e-9 * max(1.0, kappa):
            if np.linalg.norm(a_op @ x + s) / (-(c @ x)) <= 1e-6:
                raise FloatingPointError("cone program is unbounded below")
        if not (cones.interior(s) and cones.interior(z)):
            reason = ExitReason.LOST_INTERIOR
            break

        W = _NTScaling(cones, s, z)
        lam = W.apply(z)
        try:
            newton = _NewtonSystem(plan, W, a_op.lin)
        except (ValueError, np.linalg.LinAlgError):
            reason = ExitReason.FACTORIZATION
            break

        def kkt_solve(rx, rz):
            # [0 A^T; A -W^2] with iterative refinement
            dx = np.zeros(n); dz = np.zeros(cones.m)
            qx, qz = rx, rz
            scale = 1.0 + np.linalg.norm(np.concatenate([rx, rz]))
            for _ in range(3):
                if np.linalg.norm(np.concatenate([qx, qz])) <= 1e-14 * scale:
                    break
                ex = newton.solve(qx + a_op.rmatvec(W.apply_sq(qz, inv=True)))
                ez = W.apply_sq(a_op @ ex - qz, inv=True)
                dx = dx + ex; dz = dz + ez
                qx = rx - a_op.rmatvec(dz)
                qz = rz - (a_op @ dx) + W.apply_sq(dz)
            return dx, dz

        def direction(eta_r, vc, dtk_rhs, tau_dir):
            wvc = W.apply(vc)
            dx0, dz0 = kkt_solve(-eta_r * r_x, eta_r * r_z - wvc)
            dx1, dz1 = tau_dir
            num = -eta_r * r_tau + c @ dx0 + b_vec @ dz0 + dtk_rhs / tau
            den = kappa / tau - (c @ dx1 + b_vec @ dz1)
            if den == 0.0 or not np.isfinite(den):
                raise FloatingPointError("singular tau step")
            dtau = num / den
            dx = dx0 + dtau * dx1; dz = dz0 + dtau * dz1
            ds = wvc - W.apply_sq(dz)
            dkappa = (dtk_rhs - kappa * dtau) / tau
            return dx, dz, ds, dtau, dkappa

        def boundary_step(ds, dz, dtau, dkappa):
            a = min(cones.max_step(s, ds), cones.max_step(z, dz))
            if dtau < 0:
                a = min(a, -tau / dtau)
            if dkappa < 0:
                a = min(a, -kappa / dkappa)
            return a

        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                tau_dir = kkt_solve(-c, b_vec)  # shared by both directions
                vc_aff = cones.solve_prod(lam, -cones.prod(lam, lam))
                _, dza, dsa, dta, dka = direction(1.0, vc_aff, -tau * kappa, tau_dir)
                astep = min(1.0, boundary_step(dsa, dza, dta, dka))
                mu_aff = ((s + astep * dsa) @ (z + astep * dza)
                          + (tau + astep * dta) * (kappa + astep * dka)) / nu
                sigma = np.clip(mu_aff / mu, 0.0, 1.0) ** 3
                corr = cones.prod(W.apply(dsa, inv=True), W.apply(dza))
                vc = cones.solve_prod(lam, sigma * mu * e - cones.prod(lam, lam) - corr)
                corr_t = sigma * mu - tau * kappa - dta * dka
                dx, dz, ds, dtau, dkappa = direction(1.0 - sigma, vc, corr_t, tau_dir)
                step = min(1.0, 0.99 * boundary_step(ds, dz, dtau, dkappa))
        except FloatingPointError:
            reason = ExitReason.FLOATING_POINT
            break
        except np.linalg.LinAlgError:  # an exactly zero Schur pivot
            reason = ExitReason.FACTORIZATION
            break
        if not np.isfinite(step) or step <= 1e-11:
            reason = ExitReason.SHORT_STEP
            break
        x = x + step * dx
        z = z + step * dz; s = s + step * ds
        tau += step * dtau; kappa += step * dkappa
        it += 1

    merit, xh, pobj, gap, kkt_res, bit = best
    return (xh, pobj, gap, kkt_res, merit), reason, it


def solve(prog: ConeProgram, tol: float = 1e-9, max_iter: int = 200) -> ConeSolution:
    """Solve a structured cone program to the KKT tolerance ``tol``.

    An ``OPTIMAL`` status certifies primal and dual residuals and the duality
    gap at or below the tolerance; ``INFEASIBLE`` carries a separating
    certificate found by the homogeneous embedding. ``exit_reason`` says why
    the iteration stopped.
    """
    c, a_op, b_vec, cones, n0 = _lower(prog)
    result, reason, iters = _solve_standard(c, a_op, b_vec, cones, tol, max_iter)
    if reason is ExitReason.INFEASIBLE:
        return ConeSolution(x=np.full(prog.n_vars, np.nan), objective=np.nan,
                            kkt_residual=np.inf, duality_gap=np.inf,
                            status=SolveStatus.INFEASIBLE, iterations=iters,
                            exit_reason=reason,
                            violation_report="no point satisfies the affine/cone rows")
    xh, pobj, gap, kkt_res, merit = result
    x = xh[:n0]
    status = SolveStatus.OPTIMAL if reason is ExitReason.TOLERANCE else SolveStatus.ITER_LIMIT
    report = ""
    if status is not SolveStatus.OPTIMAL:
        report = f"stalled at KKT merit {merit:.3e} (tol {tol:.1e}): {reason.value}"
    return ConeSolution(x=x, objective=prog.objective_value(x),
                        kkt_residual=float(merit), duality_gap=float(gap),
                        status=status, iterations=iters, exit_reason=reason,
                        violation_report=report)
