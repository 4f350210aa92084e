"""deltamax: greatest delta-epsilon numbers and uniform-continuity evidence.

For a continuous f and a point p, delta(p, eps) is the distance from p
to the set of points whose image sits exactly eps away from f(p) -- the
largest delta that works in the epsilon-delta continuity condition.
This package computes it inside a certified bracket, and uses the
resulting delta field to gather numerical evidence for or against
uniform continuity.  On a line (a 1-d or radial problem) interval
enclosures of f prove the bracket; a grid oracle backs only the lower
end of the nD ray estimate and the `certify` command's sandwich.
"""

from .catalog import (
    CatalogEntry,
    catalog_lookup,
    catalog_names,
    load_manifest,
    register,
    serialize_manifest,
)
from .delta import (
    DeltaResult,
    compute_delta,
    delta_field,
    delta_ray_nd,
    direction_set,
    epsilon_bound,
    is_delta_epsilon_number,
)
from .domaintext import format_domain, parse_domain
from .errors import (
    ConstantFunction,
    DeltamaxError,
    DimensionMismatch,
    DomainParseError,
    DomainViolation,
    EmptySpherePreimage,
    FloatResolutionLimit,
    InvalidArgument,
    InvalidDomain,
    LexError,
    NonFinite,
    ParseError,
    UnboundVariable,
    UnknownCatalogEntry,
    WindowTooSmall,
    WitnessesStagnated,
)
from .model import (
    CatalogFn,
    DomainSpec,
    ExpressionFn,
    FunctionSpec,
    Monotone1DFn,
    NormTag,
    Point,
    RadialFn,
    distance,
    eval_fn,
)
from .oracle import GridSpec, brute_force_inf, grid_delta_bounds
from .uc import (
    InfTrace,
    StageRecord,
    UcVerdict,
    Verdict,
    WitnessPairs,
    default_schedule,
    infimum_delta,
    uc_verdict,
    witness_search,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
