"""Spin-tensor calculus over four-dimensional charts.

Chiral (2-component) and Dirac (4-component) spin-tensor component
arithmetic, the double cover of the restricted Lorentz group, frame
fields with their transition machinery, and construction of the unique
metric spinor connection from a metric/tetrad scenario.  Everything the
library claims is checkable as a numerical residual; the test suite and
the CLI (spintensor.cli, or python -m spintensor) both drive the same
verifiers.
"""

from .tensor_core import TensorSignature
from .lorentz_cover import LorentzMatrix, phi, random_sl2c
from .frames import (
    MatrixField,
    FrameField,
    FrameTransition,
    ThetaParameters,
    structural_constants,
    theta_parameters,
    transform_components,
)
from .chiral import (
    ChiralScenario,
    SpinorConnection,
    canonical_chiral_constants,
    build_chiral_metric_connection,
    verify_chiral_identities,
    verify_concordance,
    transform_connection,
)
from .dirac import (
    DiracFrameKind,
    canonical_dirac_constants,
    embed_chiral_frame,
    frame_inversion,
    classify_frame,
    transform_table,
    verify_dirac_identities,
)
from .dirac_connection import (
    DiracScenario,
    chirality_split,
    build_dirac_metric_connection,
    restrict_to_chiral,
)
from .scenarios import (
    ScenarioSpec,
    SpecError,
    bundled_scenario,
    bundled_scenario_names,
    chiral_scenario_from_spec,
    dirac_scenario_from_spec,
    load_scenario_spec,
)
__version__ = "0.1.0"

__all__ = [
    "TensorSignature",
    "LorentzMatrix",
    "phi",
    "random_sl2c",
    "MatrixField",
    "FrameField",
    "FrameTransition",
    "ThetaParameters",
    "structural_constants",
    "theta_parameters",
    "transform_components",
    "ChiralScenario",
    "SpinorConnection",
    "canonical_chiral_constants",
    "build_chiral_metric_connection",
    "verify_chiral_identities",
    "verify_concordance",
    "transform_connection",
    "DiracFrameKind",
    "canonical_dirac_constants",
    "embed_chiral_frame",
    "frame_inversion",
    "classify_frame",
    "transform_table",
    "verify_dirac_identities",
    "DiracScenario",
    "chirality_split",
    "build_dirac_metric_connection",
    "restrict_to_chiral",
    "ScenarioSpec",
    "SpecError",
    "bundled_scenario",
    "bundled_scenario_names",
    "chiral_scenario_from_spec",
    "dirac_scenario_from_spec",
    "load_scenario_spec",
]
