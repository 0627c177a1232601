"""Generalized Collatz triplet maps: exact dynamics, trivial-cycle family
constructors, certified cycle-length lower bounds, and a checkpointed
range-verification engine."""

from .bounds import (BoundReport, ConvergentSequence, convergents,
                     farey_bound, hurwitz_bound, mu_bound, r_infinity_bound,
                     xi_value)
from .core import (MINUS, PLUS, Triplet, WellFormedness, apply_map,
                   apply_map_iter, check_wellformed, parse_triplet,
                   signed_residue)
from .dynamics import (Converged, Cycle, CycleBoundReport, CycleDetected,
                       EnteredKnownCycle, Limits, StepCapExceeded, Trajectory,
                       Undecided, ValueCapExceeded, canonicalize,
                       check_cycle_necessary_conditions, classify_seed,
                       closed_form_iterate, detect_cycle_from,
                       enumerate_cycles, trace)
from .errors import (BoundPreconditionError, CheckpointError,
                     CollatzKitError, CoprimalityError, DigestMismatchError,
                     InvalidFamilyParamsError, InvalidTargetsError,
                     InvalidTripletError, IterateFormulaDomainError,
                     MTooSmallError, NoApplicableCaseError, NotACycleError,
                     NotWellFormedError, PrecisionExhaustedError,
                     ShortcutUnsoundError)
from .families import (LadderParams, PredictedCycleSet, SquareGapParams,
                       TWO_POWER_EXCEPTIONS, build_dplus1_family,
                       build_ladder_family, build_mersenne_family,
                       build_square_gap_family, build_two_power_family,
                       parse_family_spec, scale_cycles)
from .intervals import CertifiedReal, PrecisionPolicy
from .verify import (Checkpoint, VerificationJob, load_checkpoint, resume,
                     save_checkpoint, verify_range)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
