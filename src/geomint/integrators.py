"""Lie group time steppers and step-size control.

Two explicit families operate on a :class:`~geomint.actions.HomogeneousAction`:
Runge--Kutta--Munthe-Kaas schemes, which integrate the pulled-back
equation sigma' = dexpinv_sigma(f(act(exp(sigma), y))) in the algebra,
and commutator-free schemes, which compose several exponentials per
step.  A method of either family is its table, a Butcher :class:`Tableau`
or a :class:`CFScheme` of exponent coefficients, and the table is its own
stepper.  A separate implicit one-parameter family provides symplectic
steps on right-trivialized cotangent groups G x g*; its nonlinear
equation is solved by one simplified-Newton loop whose J = I - dG/dx
takes dG/dx from the group record's ``jacobian`` (the heavy tops' carry
one) and dG/dx = 0 for a group without one.

Every stepper is pure: ``stepper(action, f, y, h) -> (y_next, estimate)``
where ``f`` maps a flat manifold point to a flat algebra element.
``estimate`` is None for a method without an embedded pair; for a pair
it is a zero-argument closure that returns the local error estimate as
a float.  The work only the estimate needs runs when it is first called,
so fixed-step runs, which never call it, skip that work; a later call
returns the stored float and does no work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from operator import add
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .actions import HomogeneousAction
from .kernels import SingularMatrixError, _product, _times, _transpose, inverse
from .lie import BranchError, _dexp_star, _exp_coeffs, _rotation, dexp_star_so3, exp_so3

__all__ = [
    "Tableau",
    "RK4",
    "KUTTA3",
    "DOPRI54",
    "rkmk4_two_commutator_step",
    "CFScheme",
    "METHODS",
    "MethodInfo",
    "CotangentGroup",
    "so3_cotangent_group",
    "so3rn_cotangent_group",
    "SolveConfig",
    "NonConvergenceError",
    "symplectic_step",
    "ControllerConfig",
    "controller_update",
    "StepAttempt",
    "AdaptiveResult",
    "StepSizeUnderflowError",
    "TooManyRejectsError",
    "adaptive_integrate",
    "fixed_integrate",
]


FieldMap = Callable[[np.ndarray], np.ndarray]
Step = Tuple[np.ndarray, Optional[Callable[[], float]]]


def _once(fn: Callable[[], float]) -> Callable[[], float]:
    """``fn`` as an estimate: the first call runs it, later calls return
    the stored float."""
    value = []

    def once():
        if not value:
            value.append(fn())
        return value[0]

    return once


# ---------------------------------------------------------------------------
# RKMK schemes


@dataclass(frozen=True)
class Tableau:
    """Explicit Runge--Kutta coefficients, optionally with an embedded
    second weight row for error estimation.  Called as a stepper, it takes
    one RKMK step."""

    name: str
    a: Tuple[Tuple[float, ...], ...]
    b: Tuple[float, ...]
    b_hat: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError(f"{self.name}: inconsistent stage count")
        for i, row in enumerate(self.a):
            if len(row) > i:
                raise ValueError(f"{self.name}: tableau not explicit (row {i})")
        if abs(sum(self.b) - 1.0) > 1e-14:
            raise ValueError(f"{self.name}: weights do not sum to 1")
        if self.b_hat is not None and abs(sum(self.b_hat) - 1.0) > 1e-14:
            raise ValueError(f"{self.name}: embedded weights do not sum to 1")

    @property
    def stages(self) -> int:
        return len(self.b)

    @cached_property
    def _rows(self):
        """The rows of ``a``, ``b`` and ``b_hat`` as arrays, and the number
        of stages the main update uses, built on first use.  A
        first-same-as-last stage (its row is b) sits at y1 and feeds only
        b_hat, so the update leaves it out."""
        fsal = self.b_hat is not None and self.a[-1] + (0.0,) == self.b
        return ([np.array(row) for row in self.a], np.array(self.b),
                np.array(self.b_hat or ()), self.stages - fsal)

    def __call__(self, action: HomogeneousAction, f: FieldMap, y, h: float) -> Step:
        """One RKMK step.  The algebra-valued stages solve the dexpinv
        equation from sigma = 0 with the action's exact dexpinv; the first
        stage sits at sigma = 0, where dexpinv is the identity."""
        a, b, b_hat, n = self._rows
        K = np.empty((len(a), action.algebra_dim))
        K[0] = f(y)
        for i in range(1, n):
            sigma = h * a[i].dot(K[:i])
            K[i] = action.dexpinv(sigma, f(action.act(action.exp(sigma), y)))
        sigma1 = h * b[:n].dot(K[:n])
        y1 = action.act(action.exp(sigma1), y)
        if self.b_hat is None:
            return y1, None

        def estimate():
            if n < len(a):
                K[-1] = action.dexpinv(sigma1, f(y1))
            return float(np.linalg.norm(sigma1 - h * b_hat.dot(K)))

        return y1, _once(estimate)


RK4 = Tableau(
    name="rk4",
    a=((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
    b=(1 / 6, 1 / 3, 1 / 3, 1 / 6),
)

KUTTA3 = Tableau(
    name="kutta3",
    a=((), (0.5,), (-1.0, 2.0)),
    b=(1 / 6, 2 / 3, 1 / 6),
)

# Dormand--Prince 5(4): the first-same-as-last stage doubles as the
# embedded method's seventh stage.
DOPRI54 = Tableau(
    name="dopri54",
    a=(
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    ),
    b=(35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0),
    b_hat=(
        5179 / 57600,
        0.0,
        7571 / 16695,
        393 / 640,
        -92097 / 339200,
        187 / 2100,
        1 / 40,
    ),
)


def rkmk4_two_commutator_step(action, f, y, h) -> Step:
    """Four-stage order-4 RKMK scheme needing only two commutators."""
    br = action.bracket
    k1 = h * f(y)
    k2 = h * f(action.act(action.exp(0.5 * k1), y))
    k3 = h * f(action.act(action.exp(0.5 * k2 - 0.125 * br(k1, k2)), y))
    k4 = h * f(action.act(action.exp(k3), y))
    sigma = (k1 + 2.0 * k2 + 2.0 * k3 + k4 - 0.5 * br(k1, k4)) / 6.0
    return action.act(action.exp(sigma), y), None


# ---------------------------------------------------------------------------
# Commutator-free schemes


@dataclass(frozen=True)
class CFScheme:
    """A commutator-free scheme as a table of exponential coefficients
    (Celledoni, Marthinsen and Owren 2003).  With Y_0 = y, the k-th entry
    ``(base, row)`` of ``points + aux`` is Y_k = act(exp(h sum_j row[j]
    F_j), Y_base), where F_j = f(Y_{stages[j]}) is stage j's field.  The
    last of ``points`` is y_next, the last of ``aux`` the auxiliary update
    y_hat; taking a point as a base reuses its exponentials.  The aux points
    and their stages run only when the estimate |y_next - y_hat| is called.
    Called as a stepper, the scheme takes one step."""

    name: str
    points: Tuple[Tuple[int, Tuple[float, ...]], ...]
    stages: Tuple[int, ...]
    aux: Tuple[Tuple[int, Tuple[float, ...]], ...] = ()

    def __post_init__(self):
        table = self.points + self.aux
        if list(self.stages) != sorted(set(self.stages) & set(range(len(table) + 1))):
            raise ValueError(f"{self.name}: stages must be increasing point indices")
        weight = [0.0]  # the coefficients summed along the chain from y to Y_k
        for k, (base, row) in enumerate(table, 1):
            if not 0 <= base < k:
                raise ValueError(f"{self.name}: point {k} has base {base}, not an earlier point")
            if not any(row) or any(row[sum(s < k for s in self.stages):]):
                raise ValueError(f"{self.name}: point {k} needs the fields of earlier stages")
            weight.append(weight[base] + sum(row))
        for k in {len(self.points), len(table)}:
            if abs(weight[k] - 1.0) > 1e-14:
                raise ValueError(f"{self.name}: weights up to point {k} do not sum to 1")

    @cached_property
    def _plan(self):
        """Per point: its base, its row over earlier stages, and the index
        of the stage evaluated there (0 for none)."""
        plan = [(base, np.array(row[: sum(s < k for s in self.stages)]),
                 self.stages.index(k) if k in self.stages else 0)
                for k, (base, row) in enumerate(self.points + self.aux, 1)]
        return plan[: len(self.points)], plan[len(self.points) :]

    def __call__(self, action: HomogeneousAction, f: FieldMap, y, h: float) -> Step:
        """One commutator-free step."""
        Y, F = [y], np.empty((len(self.stages), action.algebra_dim))
        F[0] = f(y)  # the first row can only use a stage at y
        main, aux = self._plan

        def advance(plan):
            for base, row, stage in plan:
                Y.append(action.act(action.exp(h * row.dot(F[: len(row)])), Y[base]))
                if stage:
                    F[stage] = f(Y[-1])
            return Y[-1]

        y1 = advance(main)
        if not aux:
            return y1, None
        return y1, _once(lambda: float(np.linalg.norm(y1 - advance(aux))))


LIE_EULER = CFScheme("lie-euler", ((0, (1.0,)),), stages=(0,))
HEUN = CFScheme("heun", ((0, (1.0,)), (0, (0.5, 0.5))), stages=(0, 1))
# the fourth stage exp(h F_2 - h/2 F_0) . Y_1 reuses the second stage's
# exponential, and the update runs through the half point Y_4
_CF4 = ((0, (0.5,)), (0, (0.0, 0.5)), (1, (-0.5, 0.0, 1.0)),
        (0, (3 / 12, 2 / 12, 2 / 12, -1 / 12)), (4, (-1 / 12, 2 / 12, 2 / 12, 3 / 12)))
CF4 = CFScheme("cf4", _CF4, stages=(0, 1, 2, 3))
# embedded 3(2) pairs whose order-3 update reuses the second (A) or the
# third (B) stage's exponential
CF32A = CFScheme("cf32a", ((0, (1 / 3,)), (0, (0.0, 2 / 3)), (1, (-1 / 12, 0.0, 3 / 4))),
                 stages=(0, 1, 2), aux=((0, (0.0, 0.5, 0.5)),))
CF32B = CFScheme("cf32b", ((0, (2 / 3,)), (0, (5 / 12, 1 / 4)), (2, (-1 / 6, -1 / 2, 1.0))),
                 stages=(0, 1, 2), aux=((0, (0.25, 0.0, 0.75)),))
# cf4 plus a stage at exp(3h/4 F_1) . y feeding an order-3 update
CF43 = CFScheme("cf43", _CF4, stages=(0, 1, 2, 3, 6),
                aux=((0, (0.0, 0.75)), (0, (1 / 3,)), (7, (-1 / 9, 3 / 9, 0.0, 0.0, 4 / 9))))


@dataclass(frozen=True)
class MethodInfo:
    """Registry entry: the stepper, a table for all but rkmk4-2c, plus
    its (main, auxiliary) orders."""

    stepper: Callable[..., Step]
    p: int
    p_hat: Optional[int] = None

    @property
    def alpha(self) -> Optional[float]:
        """The controller exponent 1 / (1 + min(p, p_hat)) of an embedded
        pair; None without an auxiliary order."""
        return None if self.p_hat is None else 1.0 / (1.0 + min(self.p, self.p_hat))


METHODS = {
    "lie-euler": MethodInfo(LIE_EULER, 1),
    "heun": MethodInfo(HEUN, 2),
    "rkmk3": MethodInfo(KUTTA3, 3),
    "rkmk4": MethodInfo(RK4, 4),
    "rkmk4-2c": MethodInfo(rkmk4_two_commutator_step, 4),
    "cf4": MethodInfo(CF4, 4),
    "cf32a": MethodInfo(CF32A, 3, 2),
    "cf32b": MethodInfo(CF32B, 3, 2),
    "cf43": MethodInfo(CF43, 4, 3),
    "rkmk54": MethodInfo(DOPRI54, 5, 4),
}


# ---------------------------------------------------------------------------
# Symplectic family on right-trivialized cotangent groups


@dataclass(frozen=True)
class CotangentGroup:
    """Group data for the implicit symplectic family on G x g*.

    ``coad`` is the coadjoint map Ad*_g on the dual, ``dexp_star`` the
    dual of the differential of exp.  Algebra and dual elements are float
    sequences of length ``algebra_dim``, since g* has the dimension of g;
    a group element is whatever ``exp`` returns, and ``compose`` takes and
    returns such elements.

    ``jacobian(g0, mu0, h, theta, x)``, when given, is the exact dG/dx of
    the step's residual map G (:func:`_symplectic_residual_map`) for the
    one field the group is built with; a system attaches it with
    ``dataclasses.replace``.  The solve takes J = I - dG/dx from it; without
    it, dG/dx = 0 and J = I, so the one Newton update is the sweep
    x <- G(x) to rounding.
    """

    algebra_dim: int
    exp: Callable[[Sequence[float]], Any]
    compose: Callable[[Any, Any], Any]
    coad: Callable[[Any, Sequence[float]], Sequence[float]]
    dexp_star: Callable[[Sequence[float], Sequence[float]], Sequence[float]]
    jacobian: Optional[Callable[..., np.ndarray]] = None


def so3_cotangent_group() -> CotangentGroup:
    """SO(3) x so(3)*: Ad*_R mu = R^T mu, on 3x3 rotation matrices."""
    return CotangentGroup(
        algebra_dim=3,
        exp=exp_so3,
        compose=lambda g1, g2: g1 @ g2,
        coad=lambda g, mu: g.T @ mu,
        dexp_star=dexp_star_so3,
    )


def so3rn_cotangent_group(n: int) -> CotangentGroup:
    """(SO(3) x R^n) x its dual, in closed form on floats.  An element is
    9 + n floats: R row by row, then the R^n part.  The translational
    factor is abelian, so its coadjoint and dexp* blocks are identities
    and ``compose`` adds the R^n parts."""

    def expmap(xi):
        x, y, z, *t = xi
        return _rotation(x, y, z, *_exp_coeffs(x * x + y * y + z * z), *t)

    def coad(g, mu):
        # R^T m on the rotational block
        m1, m2, m3, *t = mu
        return [*_times(_transpose(g[:9]), m1, m2, m3), *t]

    def dexp_star(u, mu):
        return _dexp_star(*u[:3], *mu)

    def compose(g1, g2):
        return (*_product(g1[:9], g2[:9]), *map(add, g1[9:], g2[9:]))

    return CotangentGroup(
        algebra_dim=3 + n,
        exp=expmap,
        compose=compose,
        coad=coad,
        dexp_star=dexp_star,
    )


_SOLVE_TOL = 1e-13
_SOLVE_MAX_ITER = 100


@dataclass(frozen=True)
class SolveConfig:
    """Accepted by the symplectic drivers and unused: the one solve is
    :func:`_simplified_newton`, so ``method`` can only be ``"newton"``.
    Its tolerance and iteration cap are the module constants
    ``_SOLVE_TOL`` and ``_SOLVE_MAX_ITER``."""

    method: str = "newton"

    def __post_init__(self):
        if self.method != "newton":
            raise ValueError(f"unknown solve method {self.method!r}")


class NonConvergenceError(RuntimeError):
    """The implicit solve did not contract; usually the step is too large."""


def _symplectic_residual_map(group, f, g0, mu0, h, theta):
    """Returns G(x) = h f(exp(theta xi) g0, M_theta) on the flat x = (xi, nbar),
    with the group maps and ``f`` called on float lists."""
    na = group.algebra_dim

    def gmap(x):
        x = x.tolist()
        xi, nbar = x[:na], x[na:]
        u = [theta * c for c in xi]
        e_theta = group.exp(u)
        ad_n = group.coad(e_theta, nbar)
        m_theta = group.dexp_star([-c for c in xi], [m + a for m, a in zip(mu0, ad_n)])
        if theta != 0.0:
            m_theta = [m - theta * d for m, d in
                       zip(m_theta, group.dexp_star([-c for c in u], ad_n))]
        f1, f2 = f(group.compose(e_theta, g0), m_theta)
        return np.array([h * c for c in (*f1, *f2)])

    return gmap


def _simplified_newton(G, n: int, dG) -> np.ndarray:
    """Solves x = G(x) on R^n by simplified Newton (Hairer, Lubich and Wanner,
    GNI VIII.6): predictor x0 = G(0), J = I - dG(G(x0)) formed once at the
    predictor's first image, which lies nearer the solution than x0 and
    costs no extra evaluation since the first update needs G(x0), then
    x <- x - J^-1 (x - G(x)) until the update is below _SOLVE_TOL (1 + |x|),
    for at most _SOLVE_MAX_ITER iterations; dG = 0 gives J = I and the sweep
    x <- G(x) to rounding.  It returns the last update, not G(x): near the
    solution the update contracts the error and G may amplify it, which on
    the heavy top shows as drift of the conserved Gamma0.pi."""
    x = G(np.zeros(n))
    xx = x.dot(x)
    if not math.isfinite(xx):
        raise NonConvergenceError("implicit solve: predictor is not finite")
    gx = G(x)
    # J is formed at gx, so a non-finite gx must stop here, before dG sees it
    if not all(map(math.isfinite, gx.tolist())):
        raise NonConvergenceError("implicit solve: iterate is not finite")
    J = np.eye(n)
    J -= dG(gx)
    try:
        J_inv = inverse(J)
    except SingularMatrixError as exc:
        raise NonConvergenceError(f"implicit solve: Jacobian is singular: {exc}") from None
    for _ in range(_SOLVE_MAX_ITER):
        r = x - gx
        dx = J_inv.dot(r)
        dd = dx.dot(dx)
        # fails on a non-finite x or dx, and on an |x|^2 that makes the bound inf
        if not math.isfinite(xx + dd):
            raise NonConvergenceError("implicit solve: iterate is not finite")
        bound = _SOLVE_TOL * (1.0 + math.sqrt(xx))
        x = x - dx
        if math.sqrt(dd) <= bound:
            r_norm = math.sqrt(r.dot(r))
            if r_norm > 100.0 * bound:
                raise NonConvergenceError(f"implicit solve: residual {r_norm:.3e} above tolerance")
            return x
        xx = x.dot(x)
        gx = G(x)
    raise NonConvergenceError(
        f"implicit solve did not converge in {_SOLVE_MAX_ITER} iterations"
    )


def symplectic_step(
    group: CotangentGroup,
    f: Callable[[Any, Sequence[float]], Tuple[Sequence[float], Sequence[float]]],
    g0,
    mu0: Sequence[float],
    h: float,
    theta: float,
    solve: SolveConfig = SolveConfig(),
):
    """One step of the one-parameter implicit symplectic family on G x g*.

    Solves (xi, nbar) = h f(exp(theta xi) g0, M_theta) and updates by the
    cotangent-group product, so mu1 = Ad*_{exp((theta-1)xi)} nbar +
    Ad*_{exp(-xi)} mu0.  ``f`` maps (group element, dual element) to an
    (algebra, dual) pair of float sequences.  Returns g1 as ``compose``
    returns it and mu1 as a float list.  ``solve`` is accepted and unused;
    see :class:`SolveConfig`.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    G = _symplectic_residual_map(group, f, g0, mu0, h, theta)
    jacobian = group.jacobian or (lambda *args: 0.0)
    x = _simplified_newton(G, 2 * group.algebra_dim, partial(jacobian, g0, mu0, h, theta))
    x = x.tolist()
    xi, nbar = x[: group.algebra_dim], x[group.algebra_dim :]

    g1 = group.compose(group.exp(xi), g0)
    a = group.coad(group.exp([(theta - 1.0) * c for c in xi]), nbar)
    b = group.coad(group.exp([-c for c in xi]), mu0)
    return g1, [p + q for p, q in zip(a, b)]


# ---------------------------------------------------------------------------
# Step-size controller and drivers


_H_MIN = 1e-12
_MAX_REJECTS = 30


@dataclass(frozen=True)
class ControllerConfig:
    """Tolerance, exponent and safety factor; the step floor and the limit
    on consecutive rejections are the constants _H_MIN and _MAX_REJECTS."""

    tol: float
    alpha: float
    theta: float = 0.9

    def __post_init__(self):
        if not (0.0 < self.tol < math.inf and 0.0 < self.alpha < math.inf):  # NaN fails
            raise ValueError("tol and alpha must be positive and finite")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("safety factor must lie in (0, 1)")


def controller_update(h: float, e: float, cfg: ControllerConfig) -> float:
    """h_next = max(theta (tol/e)^alpha h, _H_MIN); e = 0 maps to inf,
    so the next trial takes the rest of the interval, and a non-finite e
    (NaN, or inf from a branch error) halves h."""
    if not math.isfinite(e):
        return 0.5 * h
    if e < 0:
        raise ValueError("error estimate must be nonnegative")
    if e == 0.0:
        return math.inf
    return max(cfg.theta * (cfg.tol / e) ** cfg.alpha * h, _H_MIN)


@dataclass(frozen=True)
class StepAttempt:
    t: float
    h: float
    error_estimate: float
    accepted: bool


@dataclass
class AdaptiveResult:
    ts: np.ndarray
    ys: np.ndarray
    step_log: List[StepAttempt]


class StepSizeUnderflowError(RuntimeError):
    pass


class TooManyRejectsError(RuntimeError):
    pass


def adaptive_integrate(
    action: HomogeneousAction,
    f: FieldMap,
    stepper: Callable[..., Step],
    y0,
    t0: float,
    T: float,
    h0: float,
    cfg: ControllerConfig,
) -> AdaptiveResult:
    """Accept/reject loop: accept when e < tol, always update h by the
    controller formula, truncate the last step to land exactly on T.

    A trial step that raises :class:`BranchError` or, from a field at a
    non-finite stage, :class:`SingularMatrixError` (either logged with
    estimate inf), or returns a non-finite estimate, is a rejection, and
    :func:`controller_update` halves h.

    f is memoised on the identity of its argument, for the current point
    and the last one evaluated: the last stage of a first-same-as-last
    pair, f(y1), is also the next trial's first, and a trial after a
    reject reuses f(y) from the rejected one."""
    if T <= t0:
        raise ValueError("T must exceed t0")
    if not h0 > 0.0:
        raise ValueError(f"h0 must be positive, got {h0}")
    last = base = (None, None)

    def f_memo(m):
        nonlocal last, base
        if m is base[0]:
            return base[1]
        if m is not last[0]:
            last = (m, f(m))
        if m is y:
            base = last
        return last[1]

    t, y = t0, np.asarray(y0, dtype=float)
    h = h0
    ts, ys, log = [t], [y], []
    consecutive = 0
    while t < T:
        # the floor applies to the controller's h, not to a last step T cuts
        # short; a step too short to move t is refused at any size
        if h < _H_MIN or t + h == t:
            raise StepSizeUnderflowError(f"step size underflow at t = {t:.6g}")
        final = t + h >= T
        h_try = T - t if final else h
        try:
            y1, estimate = stepper(action, f_memo, y, h_try)
            if estimate is None:
                raise ValueError("adaptive integration requires an embedded stepper")
            e = estimate()  # called inside the try: the embedded part runs here
        except (BranchError, SingularMatrixError):
            e = math.inf
        accepted = math.isfinite(e) and e < cfg.tol
        log.append(StepAttempt(t=t, h=h_try, error_estimate=e, accepted=accepted))
        h = controller_update(h_try, e, cfg)
        if accepted:
            t = T if final else t + h_try
            y = np.asarray(y1, dtype=float)
            ts.append(t)
            ys.append(y)
            consecutive = 0
        else:
            consecutive += 1
            if consecutive > _MAX_REJECTS:
                raise TooManyRejectsError(
                    f"{consecutive} consecutive rejections at t = {t:.6g}"
                )
    return AdaptiveResult(ts=np.array(ts), ys=np.array(ys), step_log=log)


def fixed_integrate(
    action: HomogeneousAction,
    f: FieldMap,
    stepper: Callable[..., Step],
    y0,
    t0: float,
    T: float,
    n_steps: int,
):
    """Uniform-step driver; returns (times, states) with n_steps + 1 rows.

    A run that leaves a non-finite state raises ValueError naming the
    first such step."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    h = (T - t0) / n_steps
    ys = np.empty((n_steps + 1, np.asarray(y0).shape[0]))
    ys[0] = y0
    for n in range(n_steps):
        ys[n + 1] = stepper(action, f, ys[n], h)[0]
    bad = np.flatnonzero(~np.isfinite(ys).all(axis=1))
    if bad.size:
        raise ValueError(f"state not finite after step {bad[0]} of {n_steps}")
    ts = t0 + h * np.arange(n_steps + 1)
    ts[-1] = T
    return ts, ys
