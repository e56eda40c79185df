"""Nonstationary transfer-operator chains: eigendata via cone contraction."""

from .cones import (ConeParams, PairSet, birkhoff_rate, hilbert_gap_positive,
                    in_log_holder_cone, in_positive_cone, norm_theta_bound,
                    pair_set, sample_log_holder_field, theta_log_holder,
                    theta_positive)
from .errors import (CertificationError, ConvergenceError, DomainError,
                     StructuralError)
from .hypotheses import (ConeCertificate, ConstantsLedger, HypothesisParams,
                         RateConstants, certify_cone_conditions,
                         certify_map_hypotheses, contraction_constants,
                         default_Q, derive_constants, log_shift_seminorm_bound,
                         q_threshold)
from .rpf import (BackwardSolution, ForwardSolution, InvariantChain,
                  build_invariant_chain, headroom_steps, solve_backward,
                  solve_forward, verify_cone_contraction, verify_eigen_relations,
                  verify_exponential_rates, verify_independence,
                  verify_uniqueness)
from .spaces import (Field, MeasureVec, PointSpace, holder_seminorm, normalize,
                     pair, total_mass, unit_field)
from .systems import (CircleMapSpec, MatrixChainSpec, build_circle_chain,
                      build_matrix_chain, oracle_rpf_chain,
                      oracle_stationary_rpf)
from .transfer import (Stage, StageSeq, apply_L, apply_L_dual, compose_L,
                       normalize_stage)

__version__ = "0.1.0"
