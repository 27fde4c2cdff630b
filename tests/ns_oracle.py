"""The Neimark-Sacker residual through a crossing-time solve, the tests'
oracle for the closed-form ``continuation.ns_residual``.

Its Jacobian is the generic ``reduced.jacobian_F_branch``, which solves
for the crossing offset of y0 instead of taking the unknown t0, so the two
residuals agree only on the locus, where that offset is t0.
"""

import numpy as np

from relaydyn.continuation import _minus_jacobian, fixed_point_residual


def ns_residual_oracle(y0, t0, tau, alpha, epsilon, zeta):
    """Fixed-point residual and det(DF_minus) - 1, with the trace of DF_minus."""
    fp = fixed_point_residual(y0, t0, tau, alpha, epsilon, zeta)
    J = _minus_jacobian(y0, tau, alpha, epsilon, zeta)
    return np.append(fp, float(np.linalg.det(J)) - 1.0), float(np.trace(J))
