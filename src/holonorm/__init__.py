"""holonorm: numerical certifiers for normal functions and normal families.

Submodules
----------
expr        expression DSL with exact first-order complex jets
series      sparse power series, line restrictions, root-test radii
metrics     chordal / Poincare / Bergman / Kobayashi metrics, automorphisms,
            verified analytic discs
normality   spherical-derivative and Levi-form certifiers with trend verdicts
linescan    line-slice tests on the ball and the Hartogs series sweep
cli         the ``holonorm`` command
"""

__version__ = "0.1.0"

from .errors import (
    ContainmentError,
    HolonormError,
    InputError,
    ParseError,
    PoleError,
)
from .expr import HoloExpr, Jet, eval_jet, parse, reciprocal, substitute
from .series import (
    PowerSeries,
    load_series,
    radius_estimate,
)
from .metrics import (
    INF,
    BallDomain,
    DiscMap,
    ball_automorphism,
    bergman_kernel_ball,
    bergman_norm_sq,
    bergman_tensor_ball,
    chordal_distance,
    disc_automorphism,
    kobayashi_closed_form_ball,
    kobayashi_upper,
    poincare_distance,
    poincare_tensor,
)
from .normality import (
    BOUNDED,
    INCONCLUSIVE,
    UNBOUNDED_TREND,
    SupEstimate,
    Verdict,
    ball_normal_ratio,
    ball_orbit,
    disc_family_probe,
    kobayashi_normality_check,
    levi_form,
    lipschitz_ratio,
    marty_sup,
    mu,
    mu_local_boundedness,
    sharp,
    translate_orbit,
    yosida_bound,
)
from .linescan import (
    CONVERGENT,
    DIVERGENT,
    DirectionSet,
    LineReport,
    alexander_family_test,
    alexander_function_test,
    canonical_direction,
    direction_set,
    hartogs_test,
)

__all__ = [
    "__version__",
    "HolonormError", "ParseError", "InputError", "PoleError", "ContainmentError",
    "HoloExpr", "Jet", "parse", "eval_jet", "reciprocal", "substitute",
    "PowerSeries", "radius_estimate", "load_series",
    "INF", "BallDomain", "DiscMap",
    "chordal_distance", "poincare_tensor", "poincare_distance",
    "bergman_kernel_ball", "bergman_tensor_ball", "bergman_norm_sq",
    "disc_automorphism", "ball_automorphism",
    "kobayashi_closed_form_ball", "kobayashi_upper",
    "BOUNDED", "UNBOUNDED_TREND", "INCONCLUSIVE",
    "SupEstimate", "Verdict",
    "mu", "levi_form", "sharp", "marty_sup", "yosida_bound",
    "mu_local_boundedness", "lipschitz_ratio",
    "translate_orbit", "ball_orbit", "ball_normal_ratio",
    "kobayashi_normality_check", "disc_family_probe",
    "CONVERGENT", "DIVERGENT",
    "DirectionSet", "LineReport", "direction_set", "canonical_direction",
    "alexander_function_test", "alexander_family_test", "hartogs_test",
]
