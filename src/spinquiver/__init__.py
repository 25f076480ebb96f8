"""Multiplicative quiver varieties of framed cyclic quivers, numerically.

The package realizes representation points as concrete block matrices,
evaluates the quasi-Poisson structure through the generator double-bracket
table, and verifies the integrable-systems structure (commuting Hamiltonian
families, explicit flows, independence counts, reductions, duality) at desk
scale.
"""

from .params import (ModelSpec, ParameterSet, RegularityResult, check_regularity,
                     derive_params, expected_dimension)
from .points import (LocalCoordinates, RepPoint, ReducedQuadruple, SpinData,
                     gauge_act, lax_matrix, moment_residual, point_from_coordinates,
                     quadruple_from_coordinates, random_coordinates, random_point,
                     reduced_quadruple, spin_data)
from .words import (WordSum, cycle_power_sum, parse_word, spin_trace_word,
                    u_power_word, word_to_text, x_power_word)
from .brackets import (double_bracket, generator_bracket, phi_word_terms,
                       trace_bracket_symbolic)
from .engine import Gradient, PointEngine
from .families import (EtaPolynomial, TotalMatrices, cy2_rank, family_gradients,
                       family_poly, family_value, independence_rank, qu_generator,
                       qu_gradients, power_trace_gradients, reduced_F, reduced_G,
                       reduced_H, reduced_poly, spect_residual, spectral_coeffs,
                       total_matrices)
from .tadpole import (chain_bracket, closed_form_fg_bracket, coord_bracket,
                      coordinate_ids, g_value)
from .flows import (FlowSpec, Trajectory, conservation_report, expm, flow_T, flow_Y,
                    flow_Z, ode_oracle, phi1)
from .reduction import (DualPoint, HElement, dual_params, dual_point, h_act,
                        h_invariant_value, lambda_gauge, minors_nonzero, random_h,
                        trY2_closed_form, trZ2_closed_form)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
