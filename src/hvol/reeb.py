"""Minimization of the normalized volume over the Reeb cone.

The objective A(xi)^n vol(xi) is scale invariant, so both minimizers work on
the normalization slice {A(xi) = n}.

Toric cones.  On the slice the objective is n^n V(xi), where
V(xi) = sum_s |det U_s| / prod_{u in s} <u, xi> sums over the model's cached
triangulation of the dual cone (Martelli-Sparks-Yau, hep-th/0503183).  V is
strictly convex on the Reeb cone (hep-th/0603021), so its minimum on the
slice is unique and one start finds it.  V, its gradient and its Hessian are
closed forms over the triangulation; damped Newton steps on the slice's KKT
system run in floats, and a backtracking guard keeps every <u, xi> positive.
The final point x is rationalized and put on the slice exactly, and
convexity brackets the minimum with two exact rationals:

    n^n (V(x) + min_i <grad V(x), n rho_i - x>)  <=  min  <=  n^n V(x).

The slice of the closed Reeb cone (the cone sigma itself) is the polytope
with vertices n rho_i over the primitive rays rho_i of sigma, which pair to 1
with the Gorenstein vector m0, and a convex function lies above its tangent
plane there; the least value of that plane on the polytope is at a vertex.
The bracket is the certificate: it is 0 wide when x is the minimizer, and
exact-gradient Newton steps polish x while it is wider than `CERTIFIED_WIDTH`
relative to its upper end.

Hypersurfaces.  Descent runs on the slice: every accepted iterate is a
rational vector renormalized exactly, objective values are computed in exact
arithmetic and only compared as floats.  Gradients come from central finite
differences (the objective is only piecewise smooth), a backtracking line
search rejects steps that leave the valid weight region, and the final point
is snapped to nearby low-denominator rationals and re-verified exactly
whenever the snap does not increase the objective.  The minimum can sit at a
kink of the piecewise objective (the set of weight-minimal defining monomials
changes there), where no finite-difference gradient vanishes; a run that
stalls with no descent step available is reported as converged at
line-search resolution, and the multi-start driver is the practical
certificate that the stall point is the global minimum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import DomainError, NonFiniteObjective, NotInReebCone
from .exactgeom import RVector, rat
from .singularities import ToricConeSingularity
from .valuation import volume_gradient_toric

_SNAP_DENOMINATOR = 10**6
_ITERATE_DENOMINATOR = 10**12


@dataclass(frozen=True)
class ReebCone:
    """Strict-positivity region of the weight monoid generators."""

    gamma_generators: tuple[RVector, ...]

    def contains(self, xi: Sequence) -> bool:
        xi = RVector(xi)
        return all(gen.dot(xi) > 0 for gen in self.gamma_generators)


def reeb_membership(rc: ReebCone, xi: Sequence) -> bool:
    return rc.contains(xi)


def normalize_reeb(model, xi: Sequence) -> RVector:
    """(n / A(xi)) * xi, exactly; idempotent, and A of the output equals n."""
    xi = RVector(xi)
    logdisc = model.logdisc(xi)
    if logdisc <= 0:
        raise NotInReebCone(f"log discrepancy {logdisc} is not positive")
    return xi.scale(Fraction(model.n) / logdisc)


def rescaling_law_check(model, xi: Sequence, lam) -> bool:
    """vol(lam * xi) * lam^n == vol(xi) exactly."""
    xi = RVector(xi)
    lam = rat(lam)
    if lam <= 0:
        raise DomainError("scaling factor must be positive")
    return model.volume(xi.scale(lam)) * lam**model.n == model.volume(xi)


# -- the objective over reduced coordinates -----------------------------------


class _Objective:
    """Exact scale-invariant objective of a hypersurface in symmetry-reduced
    coordinates."""

    def __init__(self, model):
        self.model = model
        self.n = model.n
        self._cache: dict[tuple, Fraction] = {}
        self._classes = model.symmetry_classes()
        self.dim = len(self._classes)
        self._index_of = [0] * sum(len(cls) for cls in self._classes)
        for ci, cls in enumerate(self._classes):
            for i in cls:
                self._index_of[i] = ci
        self.default_init = self._equal_weight_point(model)

    def _equal_weight_point(self, model) -> RVector:
        """A reduced point where every defining monomial has the same weight.

        All monomials tying puts the start in the interior of the valid
        region; falls back to all-ones when no positive tie point exists.
        """
        from .exactgeom import nullspace

        rows = []
        first = model.monomials[0]
        for mono in model.monomials[1:]:
            row = [Fraction(0)] * self.dim
            for i in range(model.nvars):
                row[self._index_of[i]] += mono[i] - first[i]
            rows.append(row)
        for basis in (nullspace(rows, self.dim) if rows else []):
            candidate = basis
            if all(c > 0 for c in candidate):
                return RVector(candidate)
        fallback = RVector([Fraction(1)] * self.dim)
        return fallback

    def _stretched_tie_point(self, rng: random.Random) -> RVector:
        """A random coordinate stretch of the all-ties point, pulled back
        toward it while the weight region is invalid; the tie point itself is
        always valid, so fall back to it."""
        factors = [Fraction(rng.randint(50, 300), 100) for _ in range(self.dim)]
        for _ in range(20):
            candidate = RVector([f * c for f, c in zip(factors, self.default_init)])
            if self.feasible(candidate):
                return candidate
            factors = [(f + 1) / 2 for f in factors]
        return self.default_init

    def expand(self, x: RVector) -> RVector:
        return RVector([x[ci] for ci in self._index_of])

    def reduce(self, weights: Sequence) -> RVector:
        weights = RVector(weights)
        if len(weights) != len(self._index_of):
            raise DomainError("weight vector has the wrong length")
        reduced = []
        for cls in self._classes:
            vals = {weights[i] for i in cls}
            if len(vals) != 1:
                raise DomainError("initial point must respect the variable symmetry")
            reduced.append(weights[cls[0]])
        return RVector(reduced)

    def feasible(self, x: RVector) -> bool:
        try:
            self.value(x)
            return True
        except NonFiniteObjective:
            return False

    def value(self, x: RVector) -> Fraction:
        # (numerator, denominator) pairs hash without the modular inverse
        # that Fraction.__hash__ takes
        key = tuple((c.numerator, c.denominator) for c in x)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        full = self.expand(x)
        logdisc = self.model.domain_logdisc(full)
        if logdisc is None:
            raise NonFiniteObjective("weights left the model's domain")
        vol = self.model.volume(full)
        if logdisc <= 0 or vol <= 0:
            raise NonFiniteObjective("objective left its finite range")
        result = logdisc**self.n * vol
        self._cache[key] = result
        return result

    def normalize(self, x: RVector) -> RVector:
        logdisc = self.model.domain_logdisc(self.expand(x))
        if logdisc is None:
            raise NonFiniteObjective("cannot normalize: weights left the model's domain")
        if logdisc <= 0:
            raise NonFiniteObjective("cannot normalize: nonpositive log discrepancy")
        return x.scale(Fraction(self.n) / logdisc)


@dataclass
class MinimizeResult:
    argmin: RVector  # full weight vector on the A = n slice
    min_nvol: float  # the objective at argmin, as a float
    # the exact objective at argmin, an upper bound on the minimum; None when a
    # hypersurface run's snapped point raised the objective
    min_nvol_upper: Fraction | None
    # toric: the exact convexity bound below the minimum (module docstring);
    # None for hypersurfaces, whose runs carry no certificate
    min_nvol_lower: Fraction | None
    iterations: int  # Newton steps and polishing steps, or descent iterations
    trajectory: list[tuple[tuple[float, ...], float]]
    grad_norm: float  # of the objective at argmin (toric: exact, then rounded)
    # toric: the bracket is at most CERTIFIED_WIDTH wide relative to its upper end;
    # hypersurface: the gradient fell below tol or no descent step was left
    converged: bool
    stalled_at_kink: bool = False  # hypersurfaces only


# -- toric cones: Newton steps and an exact bracket ----------------------------

CERTIFIED_WIDTH = Fraction(1, 10**12)  # widest bracket, relative to its upper end, that certifies
_POLISH_STEPS = 3


def _volume_derivatives(model: ToricConeSingularity, x: list[float]):
    """(V, grad V, Hessian of V, pairings <u, x>) at a float point x of the
    Reeb cone, over `volume_triangulation`: with t_s = |det U_s| / prod_{u in s}
    <u, x> and w_s = sum_{u in s} u / <u, x>, V = sum t_s, grad V = -sum t_s w_s
    and the Hessian is sum t_s (w_s w_s^T + sum_{u in s} u u^T / <u, x>^2)."""
    n = model.n
    gens = model.reeb_generators
    pairings = [sum(map(mul, u, x)) for u in gens]
    value = 0.0
    grad = [0.0] * n
    hess = [[0.0] * n for _ in range(n)]
    for d, rays in model.volume_triangulation:
        t = d / math.prod(pairings[i] for i in rays)
        w = [sum(gens[i][k] / pairings[i] for i in rays) for k in range(n)]
        value += t
        for k in range(n):
            grad[k] -= t * w[k]
            for j in range(n):
                hess[k][j] += t * (
                    w[k] * w[j] + sum(gens[i][k] * gens[i][j] / pairings[i] ** 2 for i in rays)
                )
    return value, grad, hess, pairings


def _kkt_step(hess, grad, m0: list[float], residual: float) -> list[float]:
    """The Newton step dx of min V subject to <m0, x> = n: the first n entries
    of the solution of [[H, m0], [m0^T, 0]] (dx, mu) = (-grad, residual), by
    Gaussian elimination with partial pivoting.  Plain float arithmetic makes
    the iterates, and so the reports, the same on every platform."""
    n = len(grad)
    rows = [hess[k] + [m0[k], -grad[k]] for k in range(n)] + [m0 + [0.0, residual]]
    size = n + 1
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    out = [0.0] * size
    for r in reversed(range(size)):
        tail = sum(rows[r][k] * out[k] for k in range(r + 1, size))
        out[r] = (rows[r][size] - tail) / rows[r][r]
    return out[:n]


def _bracket(model: ToricConeSingularity, x: RVector) -> tuple[Fraction, Fraction, RVector]:
    """(lower, upper, grad V(x)) for x on the slice, exactly: upper is
    n^n V(x) and lower n^n (V(x) + min_i <grad V(x), n rho_i - x>)."""
    n = model.n
    volume = model.volume(x)
    grad = volume_gradient_toric(model, x)
    # every primitive ray pairs to 1 with m0 (_gorenstein_vector), so the
    # slice of sigma has the vertices n rho_i
    drop = min(grad.dot(ray.scale(n) - x) for ray in model.sigma.rays)
    return n**n * (volume + drop), n**n * volume, grad


def _minimize_toric(model: ToricConeSingularity, init, max_iter: int) -> MinimizeResult:
    """Damped Newton steps on the slice, then the exact bracket, polished by
    exact-gradient steps while it is wider than CERTIFIED_WIDTH."""
    n = model.n
    if init is None:
        init = [sum(c, Fraction(0)) for c in zip(*model.sigma.rays)]
    m0 = [float(c) for c in model.m0]
    x = [float(c) for c in normalize_reeb(model, init)]
    trajectory = []
    last_step = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        value, grad, hess, pairings = _volume_derivatives(model, x)
        trajectory.append((tuple(x), n**n * value))
        step = _kkt_step(hess, grad, m0, n - sum(map(mul, m0, x)))
        size = max(map(abs, step))
        # stop once a step moves only the last bits of x, or stops shrinking
        # while small (rounding noise)
        if size <= 2.2e-16 * max(map(abs, x)) or last_step <= size < 1e-8:
            break
        decrement = -sum(map(mul, grad, step))
        along = [sum(map(mul, u, step)) for u in model.reeb_generators]
        t = 1.0
        while any(p + t * q <= 0 for p, q in zip(pairings, along)):
            t /= 2
        # Armijo backtracking while V is far from its minimum; near it the
        # decrease sinks below float resolution and full steps converge
        while decrement > 1e-10 * value:
            candidate = [a + t * b for a, b in zip(x, step)]
            if _volume_derivatives(model, candidate)[0] <= value - 1e-4 * t * decrement:
                break
            t /= 2
        x = [a + t * b for a, b in zip(x, step)]
        last_step = t * size
    point = normalize_reeb(
        model, [Fraction(c).limit_denominator(_ITERATE_DENOMINATOR) for c in x]
    )
    lower, upper, grad = _bracket(model, point)
    for _ in range(_POLISH_STEPS):
        if upper - lower <= CERTIFIED_WIDTH * upper:
            break
        hess = _volume_derivatives(model, [float(c) for c in point])[2]
        step = _kkt_step(hess, [float(g) for g in grad], m0, 0.0)
        point = normalize_reeb(model, point + RVector(map(Fraction, step)))
        lower, upper, grad = _bracket(model, point)
        trajectory.append((point.as_floats(), float(upper)))
        iterations += 1
    # the objective's gradient on the slice, n^n (V m0 + grad V), vanishes at the minimizer
    volume = upper / n**n
    grad_norm = math.hypot(*(float(n**n * (volume * m + g)) for m, g in zip(model.m0, grad)))
    return MinimizeResult(
        argmin=point,
        min_nvol=float(upper),
        min_nvol_upper=upper,
        min_nvol_lower=lower,
        iterations=iterations,
        trajectory=trajectory,
        grad_norm=grad_norm,
        converged=upper - lower <= CERTIFIED_WIDTH * upper,
    )


# -- hypersurfaces: finite-difference descent ----------------------------------


def _rationalize(value: float) -> Fraction:
    return Fraction(value).limit_denominator(_ITERATE_DENOMINATOR)


def _perturb(x: RVector, i: int, delta: float) -> RVector:
    coords = list(x)
    coords[i] = _rationalize(float(coords[i]) + delta)
    return RVector(coords)


def _gradient(obj: _Objective, x: RVector, f_x: float) -> list[float]:
    grad = []
    for i in range(obj.dim):
        h = 1e-6 * max(1.0, abs(float(x[i])))
        hi = _perturb(x, i, h)
        lo = _perturb(x, i, -h)
        try:
            f_hi = float(obj.value(hi))
        except NonFiniteObjective:
            f_hi = None
        try:
            f_lo = float(obj.value(lo))
        except NonFiniteObjective:
            f_lo = None
        if f_hi is not None and f_lo is not None:
            grad.append((f_hi - f_lo) / (float(hi[i]) - float(lo[i])))
        elif f_hi is not None:
            grad.append((f_hi - f_x) / (float(hi[i]) - float(x[i])))
        elif f_lo is not None:
            grad.append((f_x - f_lo) / (float(x[i]) - float(lo[i])))
        else:
            grad.append(0.0)
    return grad


def minimize_nvol(
    model,
    init: Sequence | None = None,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> MinimizeResult:
    """Minimize A^n vol over the Reeb cone from one start.

    `init` is a full weight vector in the model's domain (for symmetric
    hypersurfaces it must respect the symmetry).  A toric cone takes Newton
    steps from `init`, by default the sum of the cone's rays, and returns the
    exact bracket of the module docstring; `tol` is not used there.  A
    hypersurface runs projected-gradient descent from `init`, by default the
    point where every monomial has the same weight, until the
    finite-difference gradient norm on the slice drops below `tol` or no
    descending step remains at line-search resolution (a kink minimum).
    """
    if isinstance(model, ToricConeSingularity):
        return _minimize_toric(model, init, max_iter)
    obj = _Objective(model)
    if init is None:
        x = obj.default_init
    else:
        x = obj.reduce(RVector(init))
    if not obj.feasible(x):
        raise NotInReebCone(f"initial point {tuple(map(float, x))} is not admissible")
    x = obj.normalize(x)
    f_x = float(obj.value(x))
    trajectory = [(obj.expand(x).as_floats(), f_x)]
    converged = False
    stalled = False
    grad_norm = math.inf
    iterations = 0
    warm_t = None
    flat_streak = 0
    for iterations in range(1, max_iter + 1):
        grad = _gradient(obj, x, f_x)
        grad_norm = math.sqrt(sum(g * g for g in grad))
        if grad_norm < tol:
            converged = True
            break
        scale = max(abs(float(c)) for c in x)
        t = min(1.0, 0.5 * scale / grad_norm)
        if warm_t is not None:
            t = min(t, 4.0 * warm_t)
        accepted = None
        while t > 1e-16 * scale:
            candidate = RVector(
                _rationalize(float(c) - t * g) for c, g in zip(x, grad)
            )
            try:
                candidate = obj.normalize(candidate)
                f_cand = float(obj.value(candidate))
            except NonFiniteObjective:
                t *= 0.5
                continue
            if f_cand <= f_x - 1e-4 * t * grad_norm**2:
                accepted = (candidate, f_cand, t)
                break
            t *= 0.5
        if accepted is None:
            converged = True  # no descent step available: kink minimum
            stalled = True
            break
        step = max(abs(float(a) - float(b)) for a, b in zip(accepted[0], x))
        drop = f_x - accepted[1]
        x, f_x, warm_t = accepted
        trajectory.append((obj.expand(x).as_floats(), f_x))
        if step < 1e-13 * (1.0 + scale):
            converged = True
            stalled = True
            break
        flat_streak = flat_streak + 1 if drop <= 1e-14 * (1.0 + abs(f_x)) else 0
        if flat_streak >= 3:
            converged = True  # objective numerically stationary
            stalled = True
            break
    x, f_x, exact = _snap(obj, x, f_x)
    grad = _gradient(obj, x, f_x)
    grad_norm = math.sqrt(sum(g * g for g in grad))
    if grad_norm < tol:
        converged = True
        stalled = False
    return MinimizeResult(
        argmin=obj.expand(x),
        min_nvol=f_x,
        min_nvol_upper=exact,
        min_nvol_lower=None,
        iterations=iterations,
        trajectory=trajectory,
        grad_norm=grad_norm,
        converged=converged,
        stalled_at_kink=stalled,
    )


def _snap(obj: _Objective, x: RVector, f_x: float):
    """Snap to low-denominator rationals when that preserves or lowers f."""
    snapped = RVector(
        Fraction(float(c)).limit_denominator(_SNAP_DENOMINATOR) for c in x
    )
    try:
        snapped = obj.normalize(snapped)
        exact = obj.value(snapped)
    except NonFiniteObjective:
        return x, f_x, None
    if float(exact) <= f_x + 1e-12 * (1.0 + abs(f_x)):
        return snapped, float(exact), exact
    return x, f_x, None


def minimize_nvol_multistart(
    model,
    seeds: int = 5,
    base_seed: int = 0,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> tuple[MinimizeResult, float, list[MinimizeResult]]:
    """Run from `seeds` random interior starts; returns (best, spread, all).

    The spread is the max pairwise infinity-distance between the normalized
    minimizers, the practical certificate that the runs agree.  A toric model
    makes one Newton run, certified by its bracket, and returns
    (best, 0.0, [best]); `seeds` and `base_seed` are not used there.
    """
    if isinstance(model, ToricConeSingularity):
        best = minimize_nvol(model, tol=tol, max_iter=max_iter)
        return best, 0.0, [best]
    obj = _Objective(model)
    rng = random.Random(base_seed)
    results = []
    for _ in range(max(1, seeds)):
        start = obj._stretched_tie_point(rng)
        results.append(
            minimize_nvol(model, init=obj.expand(start), tol=tol, max_iter=max_iter)
        )
    best = min(results, key=lambda r: r.min_nvol)
    spread = 0.0
    for r in results:
        for a, b in zip(r.argmin, best.argmin):
            spread = max(spread, abs(float(a) - float(b)))
    return best, spread, results


# -- arithmetic transfers ------------------------------------------------------


def link_volume_from_nvol(nvol_ord: float, n: int) -> float:
    """Contact volume of the link from the normalized volume: (2 pi / n)^n * nvol."""
    if nvol_ord < 0:
        raise DomainError("normalized volume must be nonnegative")
    return (2 * math.pi) ** n / n**n * nvol_ord


def ricci_bound_transfer(R: float, m: int) -> float:
    """(m - 1) R / (m - R): lower Ricci bound after moving the divisor weight."""
    if not (0 < R <= 1) or m < 2 or m <= R:
        raise DomainError(f"need 0 < R <= 1 and integer m >= 2 > R, got R={R}, m={m}")
    return (m - 1) * R / (m - R)


def hvol_lower(R: float, nvol_ord: float, n: int) -> float:
    """Lower bound R^n * nvol(ord) for the minimal normalized volume."""
    if not (0 < R <= 1):
        raise DomainError("R must lie in (0, 1]")
    if nvol_ord < 0:
        raise DomainError("normalized volume must be nonnegative")
    return R**n * nvol_ord
