"""hvol: exact normalized-volume computations on cone singularities.

The package evaluates the scale-invariant functional A(v)^n * vol(v) on
monomial and toric valuations of desk-scale cone singularities, minimizes it
over the Reeb cone, and verifies the volume calculus identities (profiles,
interpolation derivatives, stability gaps) that certify the minimizers.
Import what you use from its modules, e.g. `hvol.singularities`.
"""

# `import hvol` loads the six library modules, though it re-exports none of
# their names, so that loading them stays part of `import hvol` (hvolbench's
# `setup_s`) and is not moved into the first job that a run times.
from . import exactgeom, filtration, molien, reeb, singularities, valuation  # noqa: F401

__version__ = "0.1.0"
