"""Boolean algebras, free products, place functions, and completeness
certificates, with a verification CLI."""

from .algebra import (Algebra, AlgebraError, Elem, Hom, HomCheck,
                      check_homomorphism, finite_cofinite, powerset,
                      trivial_algebra)
from .free_product import FreeProduct, Rectangle, RectForm, induced_hom
from .places import (PlaceFunction, add_formula, add_refine, canonicalize, chi,
                     check_regularity, is_component, scale)
from .tensor import (AtomVector, LinearLatticeMap, build_T, psi, pure_tensor,
                     verify_bimorphism, verify_T_onto_and_injective,
                     verify_universal_property)
from .bands import Band, band_algebra, bands_disjoint, compare_band_products, principal_band
from .certificates import (Certificate, check_finite_completeness,
                           improve_upper_bound_diagonal, improve_upper_bound_evens,
                           no_supremum_certificate)
from .validation import validate_certificate
from .config import ConfigError, SuiteConfig, default_config, parse_config
from .expr import ExprError, element_text, parse_element, parse_place, place_text
from .suites import Report, run_suites

__version__ = "0.1.0"
