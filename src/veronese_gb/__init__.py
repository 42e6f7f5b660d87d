"""Exact Gröbner basis toolkit for Veronese pullbacks and toric ideals."""

from .errors import (BudgetExceededError, DimensionError, DomainError,
                     InternalCheckError, NonMonomialInitialError,
                     NotAConfigurationError, ParseError, RingMismatchError,
                     VeroneseGBError)
from .groebner import (Budget, GBCheck, Ideal, MonomialIdeal, buchberger,
                       eliminate, find_weight_vector, is_groebner_basis,
                       normal_form)
from .orders import (Block, GammaRevLex, GrevLex, Lex, TermOrder, Weighted,
                     gamma_profile, multi_indices)
from .polyring import (Polynomial, Ring, base_ring, format_polynomial,
                       generic_ring, joint_ring, parse_polynomial,
                       poly_from_json, poly_to_json, ring_from_json,
                       ring_to_json, veronese_ring)
from .toric import (Configuration, ToricVeroneseCertificate, certify_grading,
                    toric_groebner_basis, toric_ideal, veronese_layer,
                    verify_veronese_toric)
from .veronese import (BoundsReport, PullbackResult, VeroneseMap,
                       degree_bounds, exchange_binomials,
                       kernel_groebner_basis, kernel_initial,
                       kernel_oracle_basis, monomial_pullback_generators,
                       preimage_oracle, pullback_homogeneous_ideal,
                       pullback_monomial_ideal, quadratic_pullback_bound,
                       standard_monomials, verify_exchange_basis,
                       weight_pullback)

__version__ = "0.1.0"
