"""Delayed-relay oscillator toolbox.

Simulation of hysteretic relay feedback with delay, the reduced
half-return map near a corner collision, bifurcation curves on the
collision surface, and Fourier continuation of the grazing
invariant-curve family.
"""

from .attractor import (AttractorRun, PolygonDescription, SweepRecord,
                        extract_circle_map, iterate_attractor, polygon_arcs,
                        sweep, visit_window)
from .continuation import (Branch, BranchPoint, FourierCurve, continue_branch,
                           continue_colliding_family, continue_ns_curve,
                           fixed_point_residual, fourier_error_estimate,
                           invariant_curve_residual, newton, solve_fixed_point)
from .errors import (BreakupDetected, CentroidOnCurve, DegenerateCrossing,
                     DegenerateDerivative, InitialPointFailed,
                     InsufficientSamples, LeftNeighborhood, NegativeEpsilon,
                     NoConvergence, NonTransversalCorner, NoRootInBracket,
                     NotAMaximum, NumericalError, ParametrizationBreakdown,
                     RelayDynError, SingularJacobian, SingularSurface,
                     ValidationError, WindowTooLarge)
from .flows import AffineOscillatorFlow
from .history import (BreakpointHistory, HybridState, SampledHistory,
                      Trajectory)
from .oscillator import (BifurcationMap, CollisionOrbit, CollisionStability,
                         CurvePoint, OscillatorParams, bifurcation_map,
                         collision_context, collision_curve, collision_epsilon,
                         collision_orbit, collision_point, find_nsc,
                         stability_at_collision, surface_alpha, surface_corner,
                         surface_table)
from .reduced import (CollisionContext, DomainTag, branch_of, classify,
                      crossing_time, jacobian_F, jacobian_F_branch, map_F,
                      map_F_branch, oscillator_context, reconstruct_history)
from .relay import (RelaySystem, SwitchBoundReport, check_weak_transversality,
                    evolve, hysteron, oscillator_system, strict_transversality_q,
                    switch_bound_report)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
