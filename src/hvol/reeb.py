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
of the bracket.  Every run first tests its exact start: where the slope of
the objective on the piece's slice vanishes (below), the start is the
piece's minimizer, since F is convex there, and the run ends on it with 0
Newton steps.  On a simplicial cone the start sum rho_i always is (AM-GM),
as is the vertex of a hypersurface face whose slice is a point.
The exact objective at a point P / Q of the slice is (n Q)^n vol(P), since
A = n there.  Convexity gives the lower end: F lies above its tangent plane
at any point where it is convex, and the least value of that plane on a
piece's slice is at a vertex, so

    n^n min over pieces of (F(x) + min_v <grad F(x), v - x>)  <=  min

with x the best run point for that piece.  Pieces run from the smallest
faces up, and a piece whose bound at the runs so far reaches their least
objective holds no better point, so it is not run.  The bracket is the
certificate: it is 0 wide when the runs found the minimizer exactly, and
exact-gradient Newton steps polish the winning point while it is wider than
`CERTIFIED_WIDTH` relative to its upper end.  The pieces fix every run, so
`minimize_nvol` takes no seed and no tolerance; an initial point only starts a
toric cone's run (a hypersurface checks it lies in the domain, then drops it).

The exact side runs on the pieces' integers.  A run's point is a pair (P, Q),
w = P / Q; the interior test, bound and gradient are integer sums at P, every
float for Newton an int / int quotient, rounded as float(Fraction) is.  With
F(P) = N / C and grad F(P) = -T / C^2 (`simplex_sum`) and the row (R, r), the
slope is n^n Q^n (N C R - r Q T) / (r C^2) in the weights; pulled back to
the piece's coordinates it is <x, N C R - r Q T> / s on each basis pair
(x, s).  Every run keeps its (N, C, T) for its stationarity test, bound,
polishing and final slope, and the bound of every piece at its point, so
pruning and the bracket compute it once; a polishing step that moves the
point drops them.
The bracket's width is compared once, in integers (`_certified`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DomainError, NotInReebCone
from .exactgeom import RVector, _integral, _vector, rat
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


class MinimizeResult(NamedTuple):
    argmin: RVector  # full weight vector on the A = n slice
    min_nvol: float  # the objective at argmin, as a float
    min_nvol_upper: Fraction  # the exact objective at argmin, an upper bound on the minimum
    min_nvol_lower: Fraction  # the exact convexity bound below the minimum (module docstring)
    iterations: int  # Newton and polishing steps over all pieces; 0 from stationary starts
    trajectory: list[tuple[tuple[float, ...], float]]  # of the winning piece's Newton run
    grad_norm: float  # of the objective in the winning piece's coordinates (exact, then rounded)
    converged: bool  # the bracket is at most CERTIFIED_WIDTH wide relative to its upper end
    stalled_at_kink: bool = False  # no run stalls; hvolbench/tracing.py and tests/test_trace_targets.py read it


CERTIFIED_WIDTH = Fraction(1, 10**12)  # widest bracket, relative to its upper end, that certifies
_POLISH_STEPS = 3


class _Run(NamedTuple):
    """The end of one piece's Newton run."""

    piece: ConvexPiece
    point: tuple[tuple[int, ...], int]  # (P, Q): the exact point P / Q on the slice
    value: Fraction  # the exact objective A^n vol there
    iterations: int
    trajectory: list[tuple[tuple[float, ...], float]]
    bounds: dict[int, Fraction]  # the convexity bounds at the point, by piece index
    sums: tuple[int, int, list[int]]  # the `simplex_sum` (N, C, T) at the point


def _pullback(piece: ConvexPiece, row: Sequence[int], den: int = 1) -> list[float]:
    """The covector row / den on the weights, in the piece's coordinates z:
    <x, row> / (s den) for each basis vector x / s, correctly rounded."""
    return [sum(map(mul, x, row)) / (s * den) for x, s in piece.basis]


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


def _on_slice(piece: ConvexPiece, n: int, z: Sequence[int], denom: int) -> tuple:
    """The weights sum_j (z_j / denom) basis_j, scaled exactly to A = n, as
    (P, Q) in lowest terms.  With basis_j = x_j / s_j and L = lcm(s_j), they
    are W / (denom L) for the integer W = sum_j z_j (L / s_j) x_j, and with
    row (R, r) the point is n r W / <R, W>."""
    top = math.lcm(*(s for _, s in piece.basis))
    (row, r), w = piece.row, [0] * len(piece.row[0])
    for c, (x, s) in zip(z, piece.basis):
        c *= top // s
        w = [a + c * b for a, b in zip(w, x)]
    height = sum(map(mul, row, w))
    if height <= 0:
        raise NotInReebCone(f"log discrepancy {Fraction(height, r * denom * top)} is not positive")
    point = [n * r * c for c in w]
    g = math.gcd(height, *point)
    return tuple(c // g for c in point), height // g


def _slope(piece: ConvexPiece, height: int, sums: tuple) -> list[int]:
    """N C R - r Q T at a point (P, Q) of a piece's slice, from its row (R, r)
    and the `simplex_sum` (N, C, T) at P: the slope of the objective in the
    weights times r C^2 / (n^n Q^n), 0 exactly where it is stationary."""
    (row, r), (volume, common, total) = piece.row, sums
    return [volume * common * a - r * height * t for a, t in zip(row, total)]


def _newton(model, piece: ConvexPiece, z: Sequence[int], denom: int, max_iter: int) -> _Run | None:
    """Damped Newton steps on the piece's slice in its coordinates, from
    `_on_slice(z, denom)`, then the rationalized end; None when that is
    outside the piece.  A backtracking guard keeps every generator and bound
    pairing positive, so a run whose minimum lies on the piece's boundary
    stops there (the smaller face through that boundary has its own run).
    A start where the slope pulled back to the piece's coordinates vanishes
    exactly is the piece's minimizer: the run ends there with 0 steps and a
    trajectory of the start alone."""
    n = model.n
    start = _on_slice(piece, n, z, denom)
    point, height = start
    sums = simplex_sum(piece.generators, piece.simplices, point)
    slope = _slope(piece, height, sums)
    if not any(sum(map(mul, x, slope)) for x, _ in piece.basis):
        value = _objective(model, start)
        trajectory = [(tuple(c / height for c in point), float(value))]
        return _Run(piece, start, value, 0, trajectory, {}, sums)
    gens = [_pullback(piece, u) for u in piece.generators]
    guards = gens + [_pullback(piece, b) for b in piece.bounds]
    row = _pullback(piece, *piece.row)
    expand = [[x[k] / s for x, s in piece.basis] for k in range(len(piece.row[0]))]
    x = [point[f] / height for f in piece.free]
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
    z = (Fraction(c).limit_denominator(_ITERATE_DENOMINATOR) for c in x)
    end = _on_slice(piece, n, *_integral(z))
    if not _inside(piece, end[0]):
        return None
    sums = simplex_sum(piece.generators, piece.simplices, end[0])
    return _Run(piece, end, _objective(model, end), iterations, trajectory, {}, sums)


def _inside(piece: ConvexPiece, point: Sequence[int]) -> bool:
    """Every <u, P> > 0 over the generators and <b, P> >= 0 over the bounds,
    for a point P / Q with Q > 0."""
    return all(sum(map(mul, point, u)) > 0 for u in piece.generators) and all(
        sum(map(mul, point, b)) >= 0 for b in piece.bounds
    )


def _objective(model, end: tuple) -> Fraction:
    """A^n vol at a point (P, Q) inside a piece and on its slice A = n, as
    `_on_slice` builds it, equal to its value at P / Q (A has degree 1, vol
    -n): the piece's row is A on the closed piece, so A(P) = n Q, and the
    value is (n Q)^n vol(P), one `volume` call."""
    point, height = end
    return (model.n * height) ** model.n * model.volume(point)


def _certified(upper: Fraction, lower: Fraction) -> bool:
    """upper - lower <= CERTIFIED_WIDTH * upper, in integers: with upper =
    a / b, lower = c / d and CERTIFIED_WIDTH = p / q, (a d - c b) q <= a d p."""
    (a, b), (c, d) = upper.as_integer_ratio(), lower.as_integer_ratio()
    p, q = CERTIFIED_WIDTH.as_integer_ratio()
    return (a * d - c * b) * q <= a * d * p


def _rank(run: _Run) -> tuple[Fraction, int]:
    """The least objective wins; on a tie, the piece of fewest coordinates,
    the face where the most monomials tie, where the gradient vanishes."""
    return run.value, len(run.piece.free)


def _convexity_bound(n: int, piece: ConvexPiece, run: _Run) -> Fraction:
    """n^n times a bound below F on the piece's slice: F(w) + min over its
    vertices v of <grad F(w), v - w> at the run's point w = P / Q, which
    holds wherever F is convex.  With F(P) = N / C and grad F(P) = -T / C^2
    (`simplex_sum`) and F of degree -n, the least vertex V / h is the one of
    largest <T, V> / h, and the bound is n^n Q^n (h (N C + <T, P>) - Q <T, V>)
    / (C^2 h)."""
    point, height = run.point
    if piece is run.piece:
        value, common, total = run.sums
    else:
        value, common, total = simplex_sum(piece.generators, piece.simplices, point)
    (top, over), *rest = piece.vertices
    top = sum(map(mul, total, top))
    for vertex, h in rest:
        pairing = sum(map(mul, total, vertex))
        if pairing * over > top * h:
            top, over = pairing, h
    slack = over * (value * common + sum(map(mul, total, point))) - height * top
    return Fraction(n**n * height**n * slack, common * common * over)


def _lower_bound(n: int, pieces, runs: list[_Run]) -> Fraction:
    """The least over the (index, piece) pairs of `pieces` of the largest
    convexity bound of the piece at the run points, tried from the least
    objective up until one reaches it.  A run keeps the bounds at its point
    by piece index, so each is computed once."""
    runs = sorted(runs, key=lambda run: run.value)
    least = None
    for index, piece in pieces:
        best = None
        for run in runs:
            bound = run.bounds.get(index)
            if bound is None:
                bound = run.bounds[index] = _convexity_bound(n, piece, run)
            best = bound if best is None else max(best, bound)
            if best >= runs[0].value:
                break
        least = best if least is None else min(least, best)
    return least


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
    a toric cone's run, the one piece whose coordinates are all the weights,
    and is checked but not used on a hypersurface.  A run from `init` that
    ends outside its piece, or whose float arithmetic breaks down because
    `init` lies too near the boundary, is run again from the default start.
    """
    n = model.n
    if init is not None and model.domain_logdisc(init) is None:
        point = tuple(map(float, RVector(init)))
        raise NotInReebCone(f"initial point {point} is not in the model's domain")
    runs = []
    # the smallest faces first: a piece whose bound at the runs so far reaches
    # their least objective holds no better point, and needs no run
    for index, piece in sorted(enumerate(model.convex_pieces), key=lambda it: len(it[1].free)):
        if runs and _lower_bound(n, [(index, piece)], runs) >= min(run.value for run in runs):
            continue
        run, free = None, piece.free
        if init is not None and len(free) == len(init):
            try:
                run = _newton(model, piece, *_integral([init[f] for f in free]), max_iter)
            except (ZeroDivisionError, OverflowError):
                pass  # float pairings vanish or overflow at a start this near the boundary
        if run is None:  # no init for this piece, or its run ended outside the piece
            common = math.lcm(*(h for _, h in piece.vertices))
            centre = [sum(v[f] * (common // h) for v, h in piece.vertices) for f in free]
            run = _newton(model, piece, centre, common, max_iter)
        if run is not None:
            runs.append(run)
    if not runs:
        raise NotInReebCone("no Newton run ended inside its piece of the domain")
    iterations = sum(run.iterations for run in runs)
    best = min(runs, key=_rank)
    lower = _lower_bound(n, enumerate(model.convex_pieces), runs)
    converged = _certified(best.value, lower)
    for _ in range(_POLISH_STEPS):
        if converged:
            break
        piece, (point, height) = best.piece, best.point
        gens = [_pullback(piece, u) for u in piece.generators]
        x = [point[f] / height for f in piece.free]
        hess = _volume_derivatives(gens, piece.simplices, x)[2]
        _, common, total = best.sums
        grad = _pullback(piece, [-(height ** (n + 1)) * t for t in total], common * common)
        # each step coordinate is a dyadic p / q, added to P_f / Q exactly
        step = _kkt_step(hess, grad, _pullback(piece, *piece.row), 0.0)
        step = [c.as_integer_ratio() for c in step]
        top = math.lcm(*(q for _, q in step))
        z = [point[f] * top + p * (top // q) * height for f, (p, q) in zip(piece.free, step)]
        moved = _on_slice(piece, n, z, height * top)
        if not _inside(piece, moved[0]):
            break
        value = _objective(model, moved)
        sums = simplex_sum(piece.generators, piece.simplices, moved[0])
        index = runs.index(best)
        runs[index] = best = best._replace(point=moved, value=value, bounds={}, sums=sums)
        best.trajectory.append((tuple(c / moved[1] for c in moved[0]), float(best.value)))
        lower = _lower_bound(n, enumerate(model.convex_pieces), runs)
        iterations += 1
        best = min(runs, key=_rank)
        converged = _certified(best.value, lower)
    # the pullback of the objective's gradient n^n (F R / r + grad F), the
    # `_slope` times n^n Q^n / (r C^2), which vanishes at the minimizer
    (point, height), piece, sums = best.point, best.piece, best.sums
    slope = [n**n * height**n * s for s in _slope(piece, height, sums)]
    grad_norm = math.hypot(*_pullback(piece, slope, piece.row[1] * sums[1] ** 2))
    return MinimizeResult(
        argmin=_vector(Fraction(c, height) for c in point),
        min_nvol=float(best.value),
        min_nvol_upper=best.value,
        min_nvol_lower=lower,
        iterations=iterations,
        trajectory=best.trajectory,
        grad_norm=grad_norm,
        converged=converged,
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
