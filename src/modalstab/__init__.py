"""Finite-dimensional stabilization of modal-form distributed plants.

The pipeline: build a plant in modal form (``plants``), split its spectrum
and truncate (``modal``), synthesize an observer-based controller for the
unstable part (``synthesis``), certify closed-loop exponential stability by
explicit small-gain bounds (``gains``), and cross-check by simulation and a
brute-force gain probe (``simulate``).

Importing the package pins the BLAS thread pools to one thread unless the
environment already sets them: threaded GEMM and LU solves round differently
with the thread count, so the documents would depend on the host.  The pin
only takes effect when it runs before numpy loads.

``simulate`` is registered at import but runs on first use (its names resolve
through ``__getattr__``), so commands other than ``simulate`` never compile or run it.
"""

import importlib.util as _util
import os as _os
import sys as _sys

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_name, "1")

from .errors import (CertificateNotFound, DegenerateTrajectory, DimensionMismatch,
                     EigensolverNoConvergence, InfiniteUnstablePart, KernelResonance,
                     LyapunovSolveFailed, ModalToolkitError, NotDetectable, NotHurwitz,
                     NotReachable, NotStabilizable, QuadratureNotConverged,
                     ResolventAtEigenvalue, RiccatiDivergence, TailUnstable,
                     UnstableModeDiscarded)
from .gains import (DecayEnvelope, GainBound, StabilityCertificate, certify_small_gain,
                    decay_envelope, gain_strong, gain_weak, scan_certificate)
from .modal import (BlockStack, ModalBlock, ModalSystem, SpectrumPartition, StateSpaceSystem,
                    TailModel, close_loop, closed_loop_matrix, partition_spectrum,
                    select_truncation, truncate)
from .plants import (BoundaryLiftData, SourceProfile, build_heat, build_heat_boundary,
                     build_wave, fourier_cos_coeffs, search_lift_parameter)
from .synthesis import (ModeCheckReport, ObserverController, care_stabilizing_solution,
                        check_stabilizable, design_feedback, design_observer,
                        loop_system, matches_observer_structure, reduced_R_system,
                        synthesize_controller)

__version__ = "0.1.0"

_SIMULATE_NAMES = ("GainProbe Trajectory brute_force_gain estimate_decay_rate matrix_exponential"
                   " simulate_autonomous simulate_closed_loop simulate_modal spectral_abscissa"
                   ).split()
_spec = _util.find_spec(f"{__name__}.simulate")
_spec.loader = _util.LazyLoader(_spec.loader)
simulate = _sys.modules[_spec.name] = _util.module_from_spec(_spec)
_spec.loader.exec_module(simulate)


def __getattr__(name):
    if name in _SIMULATE_NAMES:
        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + _SIMULATE_NAMES
