"""Geometry of the positive semidefinite cone
=============================================

A tour of the matrix kernels everything else builds on: projection onto the
cone, the induced distance, the Moreau split, the eigenvalue exact penalty
with one of its subgradients, and the face of the cone exposed by a PSD
matrix.
"""

import numpy as np

from conic_alm import (dist_psd, dist_to_face, exact_penalty, face_basis,
                       moreau_split, penalty_subgrad, project_psd)
from conic_alm.symcone import inner

# An indefinite symmetric matrix: one positive and one negative eigenvalue.
X = np.array([[0.0, 1.0], [1.0, 0.0]])
print("eigenvalues:", np.linalg.eigvalsh(X))

# Projection clips the negative eigenvalue; the distance to the cone is the
# norm of what was clipped.
P = project_psd(X)
print("projection:\n", P)
print("dist to cone:", dist_psd(X))

# Moreau: X splits into orthogonal PSD parts, X = P - N.
P, N = moreau_split(X)
print("Moreau parts orthogonal:", abs(inner(P, N)) < 1e-12)
print("reconstruction error:", np.linalg.norm(X - (P - N)))

# The exact penalty rho * max(0, lambda_max(-X)) vanishes exactly on the
# cone and is dominated by rho * dist everywhere.
rho = 4.0
print("penalty at X:", exact_penalty(X, rho))
print("penalty at -I:", exact_penalty(-np.eye(2), rho))
print("penalty <= rho * dist:", exact_penalty(X, rho) <= rho * dist_psd(X))

# One subgradient: zero on the cone, outside it a rank-one extreme point
# built from an eigenvector of the smallest eigenvalue. The subgradient
# inequality holds against any probe point.
G = penalty_subgrad(X, rho)
probe = np.array([[2.0, 0.5], [0.5, 1.0]])
lhs = exact_penalty(probe, rho)
rhs = exact_penalty(X, rho) + inner(G, probe - X)
print("subgradient inequality:", lhs >= rhs - 1e-12)

# A PSD matrix exposes a face of the cone: the PSD matrices supported on its
# kernel. Distances to that face have a closed form in the eigenbasis.
Zbar = np.array([[1.0, -1.0], [-1.0, 1.0]])  # rank one
face = face_basis(Zbar)
print("face rank:", face.rank, " smallest positive eigenvalue:", face.lambda1_min)
member = np.array([[1.0, 1.0], [1.0, 1.0]])  # lies in the face
print("distance of a member:", dist_to_face(member, face))
print("distance of the identity:", dist_to_face(np.eye(2), face))
