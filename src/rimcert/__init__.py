"""Certified cyclicity checks for rim-surgered surface complements."""

from .abelian import AbelianInvariants, abelian_invariants, smith_normal_form
from .batch import batch_json, expand_config, run_batch
from .braids import BraidWord, KNOT_TABLE, parse_braid, resolve_knot
from .certify import CyclicityVerdict, certify_cyclic
from .diagrams import (
    Crossing,
    KnotDiagram,
    TangleDiagram,
    band_double,
    braid_closure_diagram,
)
from .enumeration import (
    DEFAULT_MAX_COSETS,
    EnumerationResult,
    todd_coxeter,
)
from .groups import (
    GroupPresentation,
    Word,
    collapse_presentation,
    commutator,
    format_word,
    parse_word,
    quotient,
)
from .invariants import (
    NormalInvariantReport,
    alexander_polynomial,
    arf_invariant,
    knot_determinant,
    normal_invariant_report,
    tangle_wirtinger,
    wirtinger,
)
from .laurent import LaurentPolynomial, poly_determinant
from .report import (
    CertificationReport,
    certify,
    conclusions_for,
    invariant_block,
    render_text,
)
from .surgery import (
    PlotnickMatrix,
    SurgerySpec,
    plotnick_matrix,
    spec_from_json,
    surgered_group,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianInvariants",
    "BraidWord",
    "Crossing",
    "CyclicityVerdict",
    "DEFAULT_MAX_COSETS",
    "EnumerationResult",
    "GroupPresentation",
    "KNOT_TABLE",
    "KnotDiagram",
    "LaurentPolynomial",
    "NormalInvariantReport",
    "PlotnickMatrix",
    "SurgerySpec",
    "TangleDiagram",
    "Word",
    "abelian_invariants",
    "alexander_polynomial",
    "arf_invariant",
    "CertificationReport",
    "band_double",
    "batch_json",
    "braid_closure_diagram",
    "certify",
    "certify_cyclic",
    "collapse_presentation",
    "commutator",
    "conclusions_for",
    "expand_config",
    "format_word",
    "invariant_block",
    "knot_determinant",
    "normal_invariant_report",
    "parse_braid",
    "parse_word",
    "plotnick_matrix",
    "poly_determinant",
    "quotient",
    "render_text",
    "resolve_knot",
    "run_batch",
    "smith_normal_form",
    "spec_from_json",
    "surgered_group",
    "tangle_wirtinger",
    "todd_coxeter",
    "wirtinger",
    "__version__",
]
