"""Exact-arithmetic constructions around filtrations, twistor linear
algebra, rank-one connection families, jump loci, torus actions on
projective space, and semistable reduction on the projective line."""

from .errors import HodgekitError, InternalInvariantError, PreconditionError
from .scalars import Scalar, conj, format_scalar, parse_scalar
from .laurent import LaurentPoly, eval_character
from .linalg import minors, rank, smith_normal_form
from .univariate import RatFunc
from .birkhoff import (P1Bundle, factorization_certificate, h0_twist,
                       section_basis, splitting_type)
from .rees import (FilteredSpace, PurityReport, ReesModule, build_rees,
                   fiber, griffiths_check, recover_filtration, rees_p1)
from .twistor import (QuaternionicSpace, RealLinearOp, SectionO1, SpherePoint,
                      invariant_section_through, invariant_space_real_dimension,
                      inverse_stereographic, quaternionic_sff_space,
                      sigma_section, sphere_combination, stereographic,
                      structure_at, structure_at_closed, twistor_bundle)
from .lambda_family import (HarmonicLine, HodPoint, PolySection,
                            classify_invariant_section, from_harmonic, gm_act,
                            harmonic_from_point, prefered_section, sigma_prime)
from .jump_loci import (CWPresentation, SubtorusParam, betti_dims,
                        character_scan, contains_subtorus, jump_ideal,
                        jump_ideal_h3)
from .gm_action import (Arc, ArcSegment, ComponentOrder, Decomposition,
                        FixedComponent, ProjPoint, WeightedAction,
                        choose_gauge, comp_order, decompose,
                        invariant_monomials, limit0, limitinf, membership,
                        newton_limits, orbit_equivalent)
from .langton import (DiskFamily, HNRecord, StepCertificate,
                      generic_splitting, langton_reduce, langton_step,
                      special_splitting)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
