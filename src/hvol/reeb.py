"""Minimization of the normalized volume over the Reeb cone.

The objective A(w)^n vol(w) is scale invariant, so the minimizer works on the
normalization slice {A(w) = n}.  It reads the model's `convex_pieces`
(singularities.py): convex programs whose least minimum is the minimum.  On a
piece, A(w) = <row, w> is linear and vol(w) = F(w) = sum_s d_s /
prod_{u in s} <u, w> is convex wherever every <u, w> > 0, so the objective on
the slice is n^n F.

* A toric cone is one piece, its Reeb cone: F is the Martelli-Sparks-Yau
  volume over the cached triangulation of the dual cone (hep-th/0503183),
  strictly convex on the Reeb cone (hep-th/0603021), and the slice of the
  closed cone has the vertices n rho_i over the primitive rays rho_i of sigma.
* A hypersurface is one piece per face of its domain, the weights where a set
  S of monomials ties at the least weight d(w): there vol = <m, w> / prod w =
  sum_i m_i / prod_{k != i} w_k for m in S (unit-vector generators, weights
  m_i).  Every face is the interior of a polyhedral cell; the least minimum
  over the faces that lies inside its face is the minimum over the domain.
  Faces are taken over weights constant on the classes of interchangeable
  variables, so a hypersurface result is the minimum among monomial
  valuations in these coordinates with such weights.

Each piece runs damped Newton steps in floats on its slice, in its own
coordinates, with F, grad F and the Hessian in closed form; a backtracking
guard keeps every pairing positive.  The final point x is rationalized and put
on the slice exactly; the least exact objective over the runs is the upper end
of the bracket.  Convexity gives the lower end: F lies above its tangent plane
at any point where it is convex, and the least value of that plane on a
piece's slice is at a vertex, so

    n^n min over pieces of (F(x) + min_v <grad F(x), v - x>)  <=  min

with x the best run point for that piece.  Pieces run from the smallest
faces up, and a piece whose bound at the runs so far reaches their least
objective holds no better point, so it is not run.  The bracket is the
certificate: it
is 0 wide when the runs found the minimizer exactly, and exact-gradient Newton
steps polish the winning point while it is wider than `CERTIFIED_WIDTH`
relative to its upper end.  The pieces fix every run, so `minimize_nvol`
takes no seed and no tolerance; an initial point only starts a toric cone's
run (a hypersurface checks it lies in the domain, then drops it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import DomainError, NotInReebCone
from .exactgeom import RVector, rat
from .singularities import ConvexPiece
from .valuation import simplex_sum

_ITERATE_DENOMINATOR = 10**12


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


@dataclass
class MinimizeResult:
    argmin: RVector  # full weight vector on the A = n slice
    min_nvol: float  # the objective at argmin, as a float
    min_nvol_upper: Fraction  # the exact objective at argmin, an upper bound on the minimum
    min_nvol_lower: Fraction  # the exact convexity bound below the minimum (module docstring)
    iterations: int  # Newton steps over all pieces, and polishing steps
    trajectory: list[tuple[tuple[float, ...], float]]  # of the winning piece's Newton run
    grad_norm: float  # of the objective in the winning piece's coordinates (exact, then rounded)
    converged: bool  # the bracket is at most CERTIFIED_WIDTH wide relative to its upper end
    stalled_at_kink: bool = False  # no run stalls; kept for the report's schema


CERTIFIED_WIDTH = Fraction(1, 10**12)  # widest bracket, relative to its upper end, that certifies
_POLISH_STEPS = 3


@dataclass
class _Run:
    """The end of one piece's Newton run: an exact point of the piece on the
    slice, the exact objective A^n vol there, and how the run got there."""

    piece: ConvexPiece
    point: RVector
    value: Fraction
    iterations: int
    trajectory: list[tuple[tuple[float, ...], float]]


def _pullback(piece: ConvexPiece, row) -> list[float]:
    """A covector on the weights, in the piece's coordinates z."""
    return [float(b.dot(row)) for b in piece.basis]


def _volume_derivatives(gens: list[list[float]], simplices, x: list[float]):
    """(F, grad F, Hessian of F) at a float point x where every <u, x> > 0:
    with t_s = d_s / prod_{u in s} <u, x> and w_s = sum_{u in s} u / <u, x>,
    F = sum t_s, grad F = -sum t_s w_s and the Hessian is
    sum t_s (w_s w_s^T + sum_{u in s} u u^T / <u, x>^2)."""
    dim = len(x)
    pairings = [sum(map(mul, u, x)) for u in gens]
    value = 0.0
    grad = [0.0] * dim
    hess = [[0.0] * dim for _ in range(dim)]
    for d, rays in simplices:
        t = d / math.prod(pairings[i] for i in rays)
        w = [sum(gens[i][k] / pairings[i] for i in rays) for k in range(dim)]
        value += t
        for k in range(dim):
            grad[k] -= t * w[k]
            for j in range(dim):
                hess[k][j] += t * (
                    w[k] * w[j] + sum(gens[i][k] * gens[i][j] / pairings[i] ** 2 for i in rays)
                )
    return value, grad, hess


def _kkt_step(hess, grad, m0: list[float], residual: float) -> list[float]:
    """The Newton step dx of min F subject to <m0, x> = n: the first entries
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


def _on_slice(piece: ConvexPiece, n: int, z) -> RVector:
    """The weights sum_j z_j basis_j, scaled exactly to <row, w> = n."""
    w = sum((b.scale(c) for b, c in zip(piece.basis, z)), RVector([0] * len(piece.row)))
    logdisc = piece.row.dot(w)
    if logdisc <= 0:
        raise NotInReebCone(f"log discrepancy {logdisc} is not positive")
    return w.scale(Fraction(n) / logdisc)


def _newton(model, piece: ConvexPiece, start: RVector, max_iter: int) -> _Run | None:
    """Damped Newton steps on the piece's slice in its coordinates z, from
    `start`, then the exact rational point; None when that point is outside
    the piece.  A backtracking guard keeps every generator and bound pairing
    positive, so a run whose minimum lies on the piece's boundary stops there
    (the smaller face through that boundary has its own run)."""
    n = model.n
    gens = [_pullback(piece, u) for u in piece.generators]
    guards = gens + [_pullback(piece, b) for b in piece.bounds]
    row = _pullback(piece, piece.row)
    expand = [[float(c) for c in column] for column in zip(*piece.basis)]
    x = [float(start[f]) for f in piece.free]
    trajectory = []
    last_step = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        value, grad, hess = _volume_derivatives(gens, piece.simplices, x)
        trajectory.append((tuple(sum(map(mul, e, x)) for e in expand), n**n * value))
        step = _kkt_step(hess, grad, row, n - sum(map(mul, row, x)))
        size = max(map(abs, step))
        # stop once a step moves only the last bits of x, or stops shrinking
        # while small (rounding noise)
        if size <= 2.2e-16 * max(map(abs, x)) or last_step <= size < 1e-8:
            break
        decrement = -sum(map(mul, grad, step))
        # a pairing positive at x and at x + step stays positive in between
        pairs = ((sum(map(mul, u, x)), sum(map(mul, u, step))) for u in guards)
        blocking = [(p, q) for p, q in pairs if p <= 0 or p + q <= 0]
        t = 1.0
        pinned = 1e-9 * max(map(abs, x))
        while any(p + t * q <= 0 for p, q in blocking) and t * size > pinned:
            t /= 2
        if t < 1 and t * size <= pinned:
            break  # pinned against the boundary of the piece
        # Armijo backtracking while F is far from its minimum; near it the
        # decrease sinks below float resolution and full steps converge
        while decrement > 1e-10 * value:
            candidate = [a + t * b for a, b in zip(x, step)]
            pairings = [sum(map(mul, u, candidate)) for u in gens]
            trial = sum(d / math.prod(pairings[i] for i in rays) for d, rays in piece.simplices)
            if trial <= value - 1e-4 * t * decrement:
                break
            t /= 2
        x = [a + t * b for a, b in zip(x, step)]
        last_step = t * size
    point = _on_slice(piece, n, [Fraction(c).limit_denominator(_ITERATE_DENOMINATOR) for c in x])
    if not _inside(piece, point):
        return None
    return _Run(piece, point, _objective(model, point), iterations, trajectory)


def _inside(piece: ConvexPiece, w: RVector) -> bool:
    return all(w.dot(u) > 0 for u in piece.generators) and all(w.dot(b) >= 0 for b in piece.bounds)


def _objective(model, w: RVector) -> Fraction:
    return model.logdisc(w) ** model.n * model.volume(w)


def _rank(run: _Run) -> tuple[Fraction, int]:
    """The least objective wins; on a tie, the piece of fewest coordinates,
    the face where the most monomials tie, where the gradient vanishes."""
    return run.value, len(run.piece.free)


def _convexity_bound(n: int, piece: ConvexPiece, runs: list[_Run], upper: Fraction) -> Fraction:
    """n^n times a bound below F on the piece's slice: F(x) + min over its
    vertices v of <grad F(x), v - x>, which holds at any x where F is convex.
    The run points x are tried from the least objective up, and the largest
    bound is kept, until one reaches `upper`."""
    best = None
    for run in sorted(runs, key=lambda run: run.value):
        value, grad = simplex_sum(piece.generators, piece.simplices, run.point)
        bound = n**n * (value + min(grad.dot(v - run.point) for v in piece.vertices))
        best = bound if best is None else max(best, bound)
        if best >= upper:
            break
    return best


def _lower_bound(model, runs: list[_Run]) -> Fraction:
    """The least convexity bound over the model's pieces."""
    upper = min(run.value for run in runs)
    return min(_convexity_bound(model.n, piece, runs, upper) for piece in model.convex_pieces)


def minimize_nvol(
    model,
    init: Sequence | None = None,
    max_iter: int = 500,
) -> MinimizeResult:
    """Minimize A^n vol over the model's domain, with an exact bracket.

    One damped Newton run per piece of `model.convex_pieces` that could hold
    a better point than the runs before it, each from the centre of its
    slice's vertices, then the exact bracket of the module docstring,
    polished by exact-gradient steps on the winning piece while it is wider
    than CERTIFIED_WIDTH.  `init` must lie in the model's domain; it starts
    the run of a piece whose coordinates are all the weights (a toric cone's
    only piece), and is checked but not used on a hypersurface, whose pieces
    lie in tie hyperplanes.
    """
    n = model.n
    if init is not None and model.domain_logdisc(init) is None:
        point = tuple(map(float, RVector(init)))
        raise NotInReebCone(f"initial point {point} is not in the model's domain")
    runs = []
    # the smallest faces first: a piece whose bound at the runs so far reaches
    # their least objective holds no better point, and needs no run
    for piece in sorted(model.convex_pieces, key=lambda piece: len(piece.free)):
        if runs:
            upper = min(run.value for run in runs)
            if _convexity_bound(n, piece, runs, upper) >= upper:
                continue
        start = sum(piece.vertices, RVector([0] * len(piece.row)))
        if init is not None and len(piece.free) == len(init):
            start = RVector(init)
        run = _newton(model, piece, _on_slice(piece, n, [start[f] for f in piece.free]), max_iter)
        if run is not None:
            runs.append(run)
    if not runs:
        raise NotInReebCone("no Newton run ended inside its piece of the domain")
    iterations = sum(run.iterations for run in runs)
    best = min(runs, key=_rank)
    lower = _lower_bound(model, runs)
    for _ in range(_POLISH_STEPS):
        if best.value - lower <= CERTIFIED_WIDTH * best.value:
            break
        piece, point = best.piece, best.point
        gens = [_pullback(piece, u) for u in piece.generators]
        hess = _volume_derivatives(gens, piece.simplices, [float(point[f]) for f in piece.free])[2]
        grad = _pullback(piece, simplex_sum(piece.generators, piece.simplices, point)[1])
        step = _kkt_step(hess, grad, _pullback(piece, piece.row), 0.0)
        point = _on_slice(piece, n, [point[f] + Fraction(c) for f, c in zip(piece.free, step)])
        if not _inside(piece, point):
            break
        best.point, best.value = point, _objective(model, point)
        best.trajectory.append((point.as_floats(), float(best.value)))
        lower = _lower_bound(model, runs)
        iterations += 1
        best = min(runs, key=_rank)
    upper = best.value
    # the objective's gradient in the piece's coordinates, the pullback of
    # n^n (F row + grad F); it vanishes at the piece's minimizer
    volume, grad = simplex_sum(best.piece.generators, best.piece.simplices, best.point)
    slope = best.piece.row.scale(volume) + grad
    grad_norm = math.hypot(*(float(n**n * b.dot(slope)) for b in best.piece.basis))
    return MinimizeResult(
        argmin=best.point,
        min_nvol=float(upper),
        min_nvol_upper=upper,
        min_nvol_lower=lower,
        iterations=iterations,
        trajectory=best.trajectory,
        grad_norm=grad_norm,
        converged=upper - lower <= CERTIFIED_WIDTH * upper,
    )


def minimize_nvol_multistart(
    model,
    seeds: int = 5,
    base_seed: int = 0,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> tuple[MinimizeResult, float, list[MinimizeResult]]:
    """(best, 0.0, [best]) from one `minimize_nvol` run: its bracket certifies
    the minimum, so there are no starts to agree; `seeds`, `base_seed` and
    `tol` are not used."""
    best = minimize_nvol(model, max_iter=max_iter)
    return best, 0.0, [best]
