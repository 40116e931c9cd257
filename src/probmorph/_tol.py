"""Shared numeric tolerances, kept in one place.

INVARIANT_ATOL guards internal identities (row sums, round trips).
PSD_ATOL is how far below zero a Gram eigenvalue may sit before the
matrix is rejected as not positive semidefinite.
PROB_SUM_ATOL is the largest deviation of a weight-vector sum from 1
that probability-measure construction will silently renormalize.
"""

INVARIANT_ATOL = 1e-12
PSD_ATOL = 1e-9
PROB_SUM_ATOL = 1e-9
