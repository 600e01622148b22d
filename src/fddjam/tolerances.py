"""Numerical tolerances of the library's checks, in one place."""

# Largest accepted deviation from exact Hermitian symmetry, max |A - A^H| entry.
HERMITIAN_ATOL = 1e-10

# Frobenius tolerance for orthonormal column frames (U^H U = I).
ORTHONORMAL_TOL = 1e-10

# Covariance eigenvalues below this floor are a PSD violation; values in
# [PSD_EIG_FLOOR, 0] are round-off and get clamped to zero before sampling.
PSD_EIG_FLOOR = -1e-12

# Channel covariances carry unit path loss: diagonal entries must equal one.
UNIT_DIAGONAL_ATOL = 1e-12

# A closed-form MSE below this is an internal-consistency failure: the value
# is a trace of a PSD difference, so it can only go negative via round-off.
MSE_NEGATIVE_FLOOR = -1e-9

# Slack for the top-eigenvalue trace bound and MSE-counterexample detection.
KY_FAN_SLACK = 1e-9
