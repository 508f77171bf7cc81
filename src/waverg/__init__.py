"""Dispersion-matched biorthogonal wavelets and Gaussian renormalization circuits."""

from .dispersion import (Dispersion, Flat, Harmonic, Renormalized, Tabulated,
                         fitted_mass, flow, flow_report, mass_flow,
                         parse_dispersion)
from .errors import (DegenerateFactorization, FlowOutOfRange,
                     GaplessUnregulated, LatticeTooSmall, NegativeMass,
                     NonFiniteFilter, NoSolution, NotAdmissible, NotDivisible,
                     NotNonnegative, NoUnitEigenvalue, NormalizationFailure,
                     OutOfHypothesis, UnstableFilter, WavergError)
from .filters import (HAAR_SCALING, FilterPair, FirFilter, LatticeMap,
                      decomposition_map, haar_pair, kgrid, level_filters,
                      multi_layer_map, pr_residual, wavelet_from_scaling)
from .design import (DesignParams, DesignReport, design_pair, epsilon_of,
                     halfband_solve, rational_approx_fit,
                     rational_approx_massless, spectral_factorize,
                     stability_spectrum, thiran_allpass)
from .circuit import (BinaryCircuit, Gate2, compose, composed_wavelets,
                      decompose, to_lattice_symplectic)
from .mera import (CovariancePair, ErrorReport, LayerStack, build_stack,
                   error_report, exact_covariance, exact_p_profile,
                   exact_q_profile, mera_covariance, q_difference_norm,
                   ring_covariance, stack_amplitude_bound,
                   stack_operator_bound, theorem_bound,
                   wavelet_channel_deviation)
from .continuum import (AdaptiveFamily, SampledFunction, adaptive_family,
                        cascade, descendant_spectrum, discretize_smeared,
                        dual_wavelet_pairing, inner_product,
                        massless_relation_error, refinement_residual,
                        scaling_function, superoperator_check,
                        superoperator_spectrum, translate_gram,
                        wavelet_function)

__version__ = "0.1.0"
