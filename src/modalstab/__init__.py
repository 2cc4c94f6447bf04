"""Finite-dimensional stabilization of modal-form distributed plants.

The pipeline: build a plant in modal form (``plants``), split its spectrum
and truncate (``modal``), synthesize an observer-based controller for the
unstable part (``synthesis``), certify closed-loop exponential stability by
explicit small-gain bounds (``gains``), and cross-check by simulation and a
brute-force gain probe (``simulate``).
"""

from .errors import (CertificateNotFound, DegenerateTrajectory, DimensionMismatch,
                     EigensolverNoConvergence, InfiniteUnstablePart, KernelResonance,
                     LyapunovSolveFailed, ModalToolkitError, NoAdmissibleParameter,
                     NotDetectable, NotHurwitz, NotReachable, NotStabilizable,
                     QuadratureNotConverged, ResolventAtEigenvalue, RiccatiDivergence,
                     TailUnstable, UnstableModeDiscarded)
from .gains import (DecayEnvelope, GainBound, StabilityCertificate, certify_small_gain,
                    decay_envelope, gain_strong, gain_weak, scan_certificate)
from .modal import (ModalBlock, ModalSystem, SpectrumPartition, StateSpaceSystem,
                    TailModel, close_loop, closed_loop_matrix, partition_spectrum,
                    select_truncation, truncate)
from .plants import (BoundaryLiftData, SourceProfile, build_heat, build_heat_boundary,
                     build_wave, fourier_cos_coeffs, search_lift_parameter)
from .simulate import (GainProbe, Trajectory, brute_force_gain, estimate_decay_rate,
                       matrix_exponential, simulate_autonomous, simulate_closed_loop,
                       simulate_modal, spectral_abscissa)
from .synthesis import (ModeCheckReport, ObserverController, care_stabilizing_solution,
                        check_stabilizable, design_feedback, design_observer,
                        loop_system, matches_observer_structure, reduced_R_system,
                        synthesize_controller)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
