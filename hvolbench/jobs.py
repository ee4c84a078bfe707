"""Seeded job streams for the three benchmark workloads.

A workload is a list of slots, and a slot is a list of jobs: round r runs
the r-th job of every slot, in an order shuffled by the run's seed.  The jobs
themselves are built from constant seeds, never from the run's seed, so every
run of a workload with the same number of rounds runs the same jobs and only
their order depends on the seed.  Job costs here spread over two orders of
magnitude and swing up to threefold with a minimize --seed, a valuation or a
polytope on one model; a mix drawn by the run's seed made the median job time
of a 25 s run measure the draw rather than the program.  Minimize jobs run
the fixed seeds 0, 1, 2, ... spread over the slots on one model and over the
rounds.  The jobs of a slot never coincide, so no two jobs of a run are
identical and a memo of whole results cannot stand in for computation.
`record.py` covers every job whose reference is recorded; a slot offers
`len(jobs)` rounds, and a run stops when one runs out.

Every input meets its command's documented preconditions: toric weights are
positive combinations of the cone's rays, so they lie in the Reeb cone;
hypersurface weights give every Brieskorn-Pham monomial's variable a
reduction monomial and tie at least two monomials where `compute` needs it.
Inputs are never filtered by whether the program's own checks pass on them.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from geometry import dual_rays

# -- models ----------------------------------------------------------------------------


def toric(rays) -> dict:
    return {"type": "toric_cone", "rays": [list(r) for r in rays]}


def cyclic_rays(r: int, a: int) -> list[list[int]]:
    """Rays of C^2/Z_r(1, a): the cone spanned by (0, 1) and (r, -a)."""
    return [[0, 1], [r, -a]] if r > 1 else [[1, 0], [0, 1]]


def ypq_rays(p: int, q: int) -> list[list[int]]:
    """Toric diagram (0,0), (1,0), (p,p), (p-q-1, p-q) of the cone over Y^{p,q}."""
    return [[1, 0, 0], [1, p - q - 1, p - q], [1, p, p], [1, 1, 0]]


C2 = [[1, 0], [0, 1]]
C3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
C3_Z3 = [[1, 0, 0], [0, 1, 0], [-1, -1, 3]]
CONIFOLD = [[1, 0, 0], [0, 1, 0], [-1, 0, 1], [0, -1, 1]]
ASYMMETRIC_DEGREES = (2, 3, 4, 12)
ASYMMETRIC = {
    "type": "hypersurface",
    "n": 3,
    "monomials": [
        [d if j == i else 0 for j in range(4)] for i, d in enumerate(ASYMMETRIC_DEGREES)
    ],
}
# (n, k) of the A_{k-1} cases whose minimizer is certified in hvol.selftest
AKM_CERTIFIED = [(2, 2), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2), (3, 4), (4, 3)]
AKM_CONJECTURED = [(3, 5)]
SMALL_CYCLIC = [(r, a) for r in range(2, 6) for a in range(1, r) if math.gcd(r, a) == 1]


def akm(n: int, k: int) -> dict:
    return {"type": "akm", "n": n, "k": k}


def akm_degrees(n: int, k: int) -> tuple[int, ...]:
    return (2,) * n + (k,)


# -- jobs ------------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One unit of work: CLI argv, or a direct library call.

    `kind` names the reference check (see check.py); `ref` carries what the
    closed-form checks need and is never passed to the program.
    """

    kind: str
    argv: tuple[str, ...] = ()
    call: str = ""  # JSON arguments of a library call
    ref: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def key(self) -> str:
        if self.argv:
            return " ".join(self.argv)
        return "oracle " + self.call


def _js(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _weights(values) -> str:
    return ",".join(str(Fraction(v)) for v in values)


def _flag(name: str, values) -> str:
    # one token, so that argparse never reads "-1,0,3" as an option
    return f"--{name}={_weights(values)}"


def minimize_job(model: dict, seed: int, ref: dict) -> Job:
    argv = ("minimize", "--model", _js(model), "--tol", "1e-8", "--seed", str(seed))
    return Job("minimize", argv=argv, ref=ref)


def _ray_combination(rays, coeffs) -> list[Fraction]:
    return [sum(Fraction(c) * ray[i] for c, ray in zip(coeffs, rays)) for i in range(len(rays[0]))]


def _tie_weights(degrees, target: Fraction, tied, stretch) -> list[Fraction]:
    """Weights under which exactly the monomials x_i^d_i with i in `tied` reach
    the minimal weight `target`; the others sit higher by the given stretch."""
    out = []
    for i, d in enumerate(degrees):
        w = target / d
        if i not in tied:
            w *= 1 + Fraction(stretch[i], 4)
        out.append(w)
    return out


# -- job lists ------------------------------------------------------------------------

# Job lists are built from these constant seeds, never from the run's seed.
_POOL_SEED = 1602_05094
SHORT_ROUNDS = 16  # rounds the recorded short-jobs slots offer
FILTRATION_ROUNDS = 8  # rounds the filtration slots offer


def _rounds_by_model(groups: list[list[Job]], rounds: int, salt: int) -> list[Job]:
    """Round r runs a job on the model of group r mod len(groups), the next
    one of that group in an order shuffled by `salt`."""
    rng = random.Random(_POOL_SEED + salt)
    groups = [rng.sample(g, len(g)) for g in (list(dict.fromkeys(g)) for g in groups)]
    out = []
    for r in range(rounds):
        group = groups[r % len(groups)]
        if r // len(groups) >= len(group):
            raise ValueError("too few jobs on one model to fill the rounds")
        out.append(group[r // len(groups)])
    return out


def _compute(model: dict, valuation=None) -> Job:
    argv = ("compute", "--model", _js(model))
    return Job("recorded", argv + ((_flag("valuation", valuation),) if valuation else ()))


def compute_toric(models, salt: int) -> list[Job]:
    groups = [
        [_compute(toric(rays), _ray_combination(rays, c)) for c in itertools.product(range(1, 5), repeat=len(rays))]
        for rays in models
    ]
    return _rounds_by_model(groups, SHORT_ROUNDS, salt)


def compute_hypersurface(salt: int) -> list[Job]:
    cases = [(akm(n, k), akm_degrees(n, k)) for n in (2, 3, 4) for k in range(2, 6)]
    cases.append((ASYMMETRIC, ASYMMETRIC_DEGREES))
    rng = random.Random(_POOL_SEED + salt)
    groups = []
    for model, degrees in cases:
        group = []
        for _ in range(12):
            m = len(degrees)
            tied = set(rng.sample(range(m), rng.randint(2, m)))
            stretch = [rng.randint(1, 4) for _ in range(m)]
            target = Fraction(rng.randint(2, 24), rng.randint(1, 3))
            group.append(_compute(model, _tie_weights(degrees, target, tied, stretch)))
        groups.append(group)
    return _rounds_by_model(groups, SHORT_ROUNDS, salt)


def compute_polarized(salt: int) -> list[Job]:
    groups = []
    for n in range(2, 7):
        group = []
        for q in range(1, 4):
            for p in range(1, n * q + 1):
                if math.gcd(p, q) == 1:
                    for deg in ("1", "2", "9/2", "3/7", "16/3"):
                        model = {"type": "polarized_cone", "n": n, "r": f"{p}/{q}", "degH": deg}
                        group.append(_compute(model))
        groups.append(group)
    return _rounds_by_model(groups, SHORT_ROUNDS, salt)


def _lattice_polytope(rng: random.Random, kind: str, dim: int) -> tuple[list[dict], Fraction]:
    """Facets of a unimodular image of a cube, cross-polytope or simplex, and an
    index r with r * l_i(barycenter) <= 1 on every facet.

    l_i at the barycenter is 1 on every facet of the cube and cross-polytope
    and dim/(dim+1) on every facet of the simplex; a unimodular affine map
    keeps those values, so the bound on r needs no geometry.
    """
    if kind == "cube":
        hrep = []
        for i in range(dim):
            e = [1 if j == i else 0 for j in range(dim)]
            hrep += [(e, 1), ([-v for v in e], 1)]
        r_max = Fraction(1)
    elif kind == "cross":
        hrep = [([1 if s >> i & 1 else -1 for i in range(dim)], 1) for s in range(2**dim)]
        r_max = Fraction(1)
    else:
        hrep = [([1 if j == i else 0 for j in range(dim)], 0) for i in range(dim)]
        hrep.append(([-1] * dim, dim))
        r_max = Fraction(dim + 1, dim)
    u = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(3):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i != j:
            c = rng.randint(-2, 2)
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    shift = [rng.randint(-3, 3) for _ in range(dim)]
    facets = []
    for normal, offset in hrep:
        pulled = [sum(normal[r] * u[r][col] for r in range(dim)) for col in range(dim)]
        const = sum(normal[r] * shift[r] for r in range(dim)) + offset
        facets.append({"normal": pulled, "offset": const})
    return facets, r_max * Fraction(rng.randint(1, 4), 4)


def compute_log_fano(kind: str, dim: int, salt: int) -> list[Job]:
    rng = random.Random(_POOL_SEED + salt)
    jobs: dict[Job, None] = {}
    while len(jobs) < SHORT_ROUNDS:
        facets, r = _lattice_polytope(rng, kind, dim)
        jobs[_compute({"type": "toric_log_fano", "facets": facets, "r": str(r)})] = None
    return list(jobs)


def asymmetric_minimize() -> list[Job]:
    # no closed form is known for this minimum, so the reference is recorded;
    # round r runs --seed r
    return [Job("recorded", minimize_job(ASYMMETRIC, r, {}).argv) for r in range(SHORT_ROUNDS)]


def quotient_rounds() -> list[Job]:
    """Round r acts by a cyclic group of order orders[r], with the weight a
    stepping through the units mod that order."""
    orders = [7, 11, 13, 8, 17, 9, 19, 10, 23, 12, 14, 15, 16, 18, 20, 21]
    jobs = []
    for i, r in enumerate(orders):
        units = [a for a in range(1, r) if math.gcd(r, a) == 1]
        a = units[i % len(units)]
        jobs.append(Job("quotient", ("quotient", "--group", _js({"type": "cyclic", "r": r, "a": a})), ref={"r": r}))
    return jobs


def oracle_rounds(salt: int) -> list[Job]:
    """Direct `lattice_count_oracle` calls; the CLI never reaches the oracle.

    The estimate converges like (sum of weights) / depth; these weights and
    depths keep it within the 5% check.  The oracle's arrays grow with its
    enumeration box, so the rounds on C^3 use permutations of two weight
    vectors only.
    """
    cases = [("toric", C2, list(a), depth) for a in itertools.product(range(1, 4), repeat=2) for depth in (200, 240)]
    c3_groups = [
        [Job("oracle", call=_js(["toric", C3, [str(w) for w in p], 240])) for p in dict.fromkeys(itertools.permutations(a))]
        for a in ((2, 2, 3), (2, 3, 3))
    ]
    for r, a in SMALL_CYCLIC:
        rays = cyclic_rays(r, a)
        for depth in (200, 240):
            cases += [("toric", rays, _ray_combination(rays, c), depth) for c in itertools.product(range(1, 3), repeat=2)]
    rng = random.Random(_POOL_SEED + salt)
    for n, k in [(2, 2), (2, 3)]:
        degrees = akm_degrees(n, k)
        for _ in range(12):
            tied = set(rng.sample(range(n + 1), 2))
            stretch = [rng.randint(1, 2) for _ in degrees]
            for depth in (200, 240):
                cases.append(("akm", [n, k], _tie_weights(degrees, Fraction(k), tied, stretch), depth))
    groups: dict[str, list[Job]] = {}
    for family, model, weights, depth in cases:
        call = _js([family, model, [str(Fraction(w)) for w in weights], depth])
        groups.setdefault(_js([family, model, depth]), []).append(Job("oracle", call=call))
    return _rounds_by_model(c3_groups + [g for g in groups.values() if len(set(g)) >= 4], SHORT_ROUNDS, salt)


def _dot(a, b) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(a, b)), Fraction(0))


def filtration_rounds(model: dict, v0, normalize: bool, salt: int, taken: list) -> list[Job]:
    """Round r filters by the r-th of a fixed list of v1.  `normalize`
    rescales v1 so that
    c1 = 1.  A v1 already in `taken` (drawn for another slot on this model)
    is skipped, so that no two jobs of a run coincide; the new ones are added
    to it."""
    rng = random.Random(_POOL_SEED + salt)
    if model["type"] == "toric_cone":
        rays = model["rays"]
        dual = dual_rays(rays)
        draw = lambda: _ray_combination(rays, [rng.randint(1, 6) for _ in rays])  # noqa: E731
        c1_of = lambda v1: min(_dot(u, v1) / _dot(u, v0) for u in dual)  # noqa: E731
    else:
        draw = lambda: [Fraction(rng.randint(1, 12), rng.randint(1, 3)) for _ in v0]  # noqa: E731
        c1_of = lambda v1: min(a / b for a, b in zip(v1, v0))  # noqa: E731
    bases: list[list[Fraction]] = []
    while len(bases) < FILTRATION_ROUNDS:
        v1 = draw()
        if normalize:
            c1 = c1_of(v1)
            v1 = [x / c1 for x in v1]
        if v1 not in taken:
            taken.append(v1)
            bases.append(v1)
    v0_flag = (_flag("v0", v0),) if model["type"] == "toric_cone" else ()
    return [Job("recorded", ("filtration", "--model", _js(model), _flag("v1", v1)) + v0_flag) for v1 in bases]


# -- workloads --------------------------------------------------------------------------


@dataclass
class Slot:
    """One position of a round: `jobs[r]` is its job in round r."""

    name: str
    jobs: list[Job]


TORIC_ROUNDS = 4  # rounds the toric-minimize slots offer


def fixed_seed_slots(name: str, model: dict, ref: dict, count: int, rounds: int) -> list[Slot]:
    """`count` slots of `hvol minimize` on one model; slot i runs --seed
    count*r + i in round r, so one round covers the seeds 0 .. count-1."""
    return [
        Slot(f"{name} #{i}", [minimize_job(model, count * r + i, ref) for r in range(rounds)])
        for i in range(count)
    ]


def toric_minimize_slots() -> list[Slot]:
    def cyclic(r: int) -> list[tuple[dict, dict]]:
        return [(toric(cyclic_rays(r, a)), {"closed": "cyclic", "r": r}) for rr, a in SMALL_CYCLIC if rr == r]

    # Surfaces.  Fifteen jobs on C^2/Z_3 sit in the middle of the job-time
    # range, with seven faster surfaces below them and eight slower jobs
    # above, so the median job is the middle of fifteen jobs spread over the
    # run rather than one job at one moment.
    slots = fixed_seed_slots("C2", toric(C2), {"closed": "affine", "n": 2}, 3, TORIC_ROUNDS)
    for a, count in ((1, 8), (2, 7)):
        slots += fixed_seed_slots(f"C2/Z3(1,{a})", *cyclic(3)[a - 1], count, TORIC_ROUNDS)
    slots += fixed_seed_slots("C2/Z2", *cyclic(2)[0], 4, TORIC_ROUNDS)
    # round r runs C^2/Z_5(1, a) with a = 1 + r mod 4
    z5 = cyclic(5)
    slots.append(Slot("C2/Z5", [minimize_job(z5[r % 4][0], r, z5[r % 4][1]) for r in range(TORIC_ROUNDS)]))
    # The 3-dimensional cones take most of a round (on Y^{3,1} some seeds end
    # early in an error, see notes.json).
    slots += fixed_seed_slots("C3", toric(C3), {"closed": "affine", "n": 3}, 2, TORIC_ROUNDS)
    slots += fixed_seed_slots("C3/Z3", toric(C3_Z3), {"closed": "c3_quotient", "order": 3}, 1, TORIC_ROUNDS)
    slots += fixed_seed_slots("conifold", toric(CONIFOLD), {"closed": "conifold"}, 1, TORIC_ROUNDS)
    for (p, q), count in (((3, 2), 1), ((3, 1), 2)):
        ref = {"closed": "ypq", "p": p, "q": q}
        slots += fixed_seed_slots(f"Y{p}{q}", toric(ypq_rays(p, q)), ref, count, TORIC_ROUNDS)
    return slots


def filtration_slots() -> list[Slot]:
    cases = [
        ("C2", toric(C2), [1, 1]),
        ("C2/Z3", toric(cyclic_rays(3, 1)), [Fraction(3, 2), Fraction(1, 2)]),
        ("C3", toric(C3), [1, 1, Fraction(3, 2)]),
        ("conifold", toric(CONIFOLD), [0, 0, 2]),
        ("A2 surface", akm(2, 3), [3, 3, 2]),
        ("A1 3-fold", akm(3, 2), [2, 2, 2, 2]),
    ]
    taken: dict[str, list] = {name: [] for name, _, _ in cases}
    return [
        Slot(f"{name} {'c1=1' if normalize else 'raw'}", filtration_rounds(model, v0, normalize, 10 + i, taken[name]))
        for normalize in (False, True)
        for i, (name, model, v0) in enumerate(cases, start=10 * normalize)
    ]


def short_jobs_slots() -> list[Slot]:
    slots = [
        Slot("compute toric simplicial", compute_toric([C2, C3, C3_Z3] + [cyclic_rays(r, a) for r, a in SMALL_CYCLIC], 1)),
        Slot("compute toric 4 rays", compute_toric([CONIFOLD, ypq_rays(2, 1), ypq_rays(3, 1)], 2)),
        Slot("compute hypersurface", compute_hypersurface(3)),
        Slot("compute polarized_cone", compute_polarized(4)),
        Slot("quotient", quotient_rounds()),
        Slot("minimize asymmetric", asymmetric_minimize()),
        Slot("oracle", oracle_rounds(5)),
    ]
    slots += [
        Slot(f"toric_log_fano {kind} {dim}", compute_log_fano(kind, dim, 10 + i))
        for i, (kind, dim) in enumerate(itertools.product(("cube", "cross", "simplex"), (2, 3)))
    ]
    # minimize on A_{k-1} takes most of a round
    closed = [("akm", nk) for nk in AKM_CERTIFIED] + [("akm_conjectured", nk) for nk in AKM_CONJECTURED]
    for c, (n, k) in closed:
        slots += fixed_seed_slots(f"minimize akm({n},{k})", akm(n, k), {"closed": c, "n": n, "k": k}, 1, SHORT_ROUNDS)
    return slots


WORKLOADS = {
    "toric-minimize": toric_minimize_slots,
    "filtration": filtration_slots,
    "short-jobs": short_jobs_slots,
}

# Seconds one round took on the 2-core Xeon VM the benchmark was calibrated
# on.  A run is a fixed number of rounds sized from --seconds with these, so
# that every run of a workload does the same amount of work whatever the
# machine's speed of the moment.
ROUND_SECONDS = {"toric-minimize": 27.0, "filtration": 5.0, "short-jobs": 2.2}
# Rounds in a traced run: a fixed number, so that every count repeats exactly.
TRACED_ROUNDS = {"toric-minimize": 1, "filtration": 2, "short-jobs": 2}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


class JobStream:
    """Rounds of jobs for one workload; the seed orders the jobs of a round."""

    def __init__(self, workload: str, seed: int):
        self.slots = WORKLOADS[workload]()
        self.rng = random.Random(seed)
        self.rounds = 0

    def next_round(self) -> list[Job] | None:
        """The next round, or None once a slot has no jobs left."""
        if any(self.rounds >= len(slot.jobs) for slot in self.slots):
            return None
        jobs = [slot.jobs[self.rounds] for slot in self.slots]
        self.rng.shuffle(jobs)
        self.rounds += 1
        return jobs


def recorded_jobs() -> list[Job]:
    """Every job whose reference is recorded, over all workloads."""
    out: list[Job] = []
    for build in WORKLOADS.values():
        for slot in build():
            out += [j for j in slot.jobs if j.kind == "recorded"]
    return list(dict.fromkeys(out))
