"""Exception hierarchy shared by all hvol modules."""


class HvolError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class UnboundedRegion(HvolError):
    code = "unbounded_region"


class EmptyRegion(HvolError):
    code = "empty_region"


class DegeneratePolytope(HvolError):
    code = "degenerate_polytope"


class NotFullDimensional(HvolError):
    code = "not_full_dimensional"


class NotInReebCone(HvolError):
    code = "not_in_reeb_cone"


class NotQGorenstein(HvolError):
    code = "not_q_gorenstein"


class InvalidIndex(HvolError):
    code = "invalid_index"


class AngleOutOfRange(HvolError):
    code = "angle_out_of_range"


class BudgetExceeded(HvolError):
    code = "budget_exceeded"


class NonIntegerDimension(HvolError):
    code = "non_integer_dimension"


class PreconditionViolated(HvolError):
    code = "precondition_violated"


class IntegralDivergence(HvolError):
    code = "integral_divergence"


class BoundViolated(HvolError):
    code = "bound_violated"


class DomainError(HvolError):
    code = "domain_error"


class ModelError(HvolError):
    code = "model_error"


class SchemaError(HvolError):
    code = "schema_error"
