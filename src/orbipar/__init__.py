"""orbipar: exact truncated-series engine for semilinear Galois cocycles,
equivariant product modules, and parabolic data over local fields of
positive characteristic, with wild ramification as a first-class citizen.
"""

__version__ = "0.1.0"

from .equivariant import (Cocycle, assemble_product, invariants, is_induced,
                          make_connectors, trivialize, verify_cocycle)
from .fields import FieldSpec, make_field
from .local_galois import kummer_tower, make_artin_schreier, make_kummer, verify_extension
from .parabolic import (CoverScene, GluedBundle, ParabolicDatum, ScenePoint,
                        functor_S, functor_T, roundtrip_check, sign_twist_datum,
                        totally_ramified_scene, trivial_datum, validate_parabolic)
from .pvect import (RefinementMap, dual, dual_pairing_check, equiv_check,
                    extract_weights, pullback_refine, pushforward_local, tensor)
from .series import Laurent, Series

__all__ = [
    "__version__", "FieldSpec", "make_field", "Series", "Laurent",
    "make_kummer", "make_artin_schreier", "kummer_tower", "verify_extension",
    "Cocycle", "verify_cocycle", "assemble_product",
    "make_connectors", "invariants", "is_induced", "trivialize",
    "ParabolicDatum", "CoverScene", "ScenePoint", "GluedBundle",
    "functor_T", "functor_S", "roundtrip_check", "validate_parabolic",
    "trivial_datum", "sign_twist_datum", "totally_ramified_scene",
    "RefinementMap", "pullback_refine", "equiv_check", "tensor", "dual",
    "dual_pairing_check", "pushforward_local", "extract_weights",
]
