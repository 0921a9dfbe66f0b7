"""Robust two-view relative pose from correspondences whose rays intersect:
minimal five-point solver, RANSAC, and the decomposition vote generalized to
rays that meet off the visible surface.

All point pairs here are normalized image coordinates (K already removed).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousCheiralityError,
    DegenerateSampleError,
    InsufficientCorrespondencesError,
    NoValidHypothesisError,
)
from .geometry import SE3Pose, decompose_essential, essential_from_pose, sampson_errors

MAX_ITERATIONS = 2000  # RANSAC samples drawn at most
CONFIDENCE = 0.999  # probability of an all-inlier sample behind the adaptive stop
# (cos t, sin t) of the angle t that five_point turns its pencil by
_TURN = (math.cos(0.5), math.sin(0.5))

# Monomials of degree <= 3 in the nullspace coordinates (x, y, z), degree by
# degree and lexicographic within a degree: the ten cubics
#   x3, x2y, x2z, xy2, xyz, xz2, y3, y2z, yz2, z3,
# then the quotient basis of the solver
#   x2, xy, xz, y2, yz, z2, x, y, z, 1.
_MONOMIALS = [
    (i, j, d - i - j) for d in (3, 2, 1, 0) for i in range(d, -1, -1) for j in range(d - i, -1, -1)
]
_COLUMN = {m: c for c, m in enumerate(_MONOMIALS)}
# (x, y, z, 1) as exponents; the constraint tensors below run over triples of
# these, and _FOLD sums each triple into the column of its product
_COORDS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
_FOLD = np.zeros((64, 20))
for _row, _triple in enumerate(itertools.product(_COORDS, repeat=3)):
    _FOLD[_row, _COLUMN[tuple(map(sum, zip(*_triple)))]] = 1.0
# column of x * m for each quotient-basis monomial m
_TIMES_X = [_COLUMN[(i + 1, j, k)] for i, j, k in _MONOMIALS[10:]]
# quotient-basis positions of w w^T, w = (x, y, z, 1): the basis evaluated at
# a solution holds this rank-one matrix, so its largest row is w up to scale
_OUTER = np.array([[_COLUMN[tuple(map(sum, zip(p, q)))] - 10 for q in _COORDS] for p in _COORDS])


def _homogeneous(points):
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return np.column_stack([pts, np.ones(len(pts))])


def _epipolar_matrix(x1, x2):
    """Rows of the linear system q2^T E q1 = 0, E flattened row-major."""
    q1 = _homogeneous(x1)
    q2 = _homogeneous(x2)
    return np.einsum("ni,nj->nij", q2, q1).reshape(len(q1), 9)


def trace_constraint_residual(e) -> float:
    """Frobenius norm of 2 E E^T E - tr(E E^T) E."""
    e = np.asarray(e, dtype=np.float64)
    eet = e @ e.T
    return float(np.linalg.norm(2.0 * eet @ e - np.trace(eet) * e))


def _constraint_matrix(basis):
    """10x20 coefficients over _MONOMIALS of det E and the nine entries of
    2 E E^T E - tr(E E^T) E, for E = x B0 + y B1 + z B2 + B3 with B the four
    rows of `basis` reshaped to 3x3."""
    b = np.asarray(basis, dtype=np.float64).reshape(4, 3, 3)
    # det E = row0 . (row1 x row2), and B_i B_j^T for the trace constraint
    det = np.tensordot(b[:, 0], np.cross(b[:, None, 1], b[None, :, 2]), axes=(1, 2))
    bbt = np.einsum("iab,jcb->ijac", b, b)
    trace = 2.0 * bbt[:, :, None] @ b - np.einsum("ijaa,kcd->ijkcd", bbt, b)
    return np.vstack([det.reshape(1, 64), trace.reshape(64, 9).T]) @ _FOLD


def five_point(x1, x2) -> list[np.ndarray]:
    """Essential-matrix candidates of a minimal 5-pair problem.

    Action-matrix solver (Stewenius, Engels & Nister, ISPRS J. 2006): E spans
    the 4-dim nullspace of the 5x9 epipolar system, E = x B0 + y B1 + z B2 +
    B3, and det E = 0 with the trace constraint gives ten cubics in (x, y, z).
    The monomial vectors of their ten solutions span the nullspace N of the
    10x20 cubic-constraint matrix. Multiplying the quotient basis
    [x2, xy, xz, y2, yz, z2, x, y, z, 1] by x lands on monomials again, so
    each solution is an eigenpair (x, c) of the pencil A c = x B c, with
    A = N[x * basis] and B = N[basis]. B, like the cubic block of the
    constraint matrix, is near singular when a solution lies far out in the
    (x, y, z) chart, and its inverse then loses that solution. So the pencil
    is turned by the fixed angle t of _TURN, to A' = cos t A - sin t B and
    B' = sin t A + cos t B, and B'^-1 A' goes to a plain eigensolver: the
    eigenvectors stay, each eigenvalue mu maps to x = tan(t + arctan mu),
    and B' is singular only at the finite root x = -cot t.

    Returns up to 10 matrices with unit Frobenius norm, each satisfying
    det(E) ~ 0, the trace constraint, and all five epipolar equations.
    Raises DegenerateSampleError when the 5x9 system or the constraint
    system is rank deficient, or the turned pencil cannot be solved.
    """
    x1 = np.asarray(x1, dtype=np.float64).reshape(-1, 2)
    x2 = np.asarray(x2, dtype=np.float64).reshape(-1, 2)
    if len(x1) != 5 or len(x2) != 5:
        raise ValueError("five_point needs exactly 5 pairs")
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise ValueError("pairs must be finite")
    q = _epipolar_matrix(x1, x2)
    _, s, vt = np.linalg.svd(q)
    if s[4] <= 1e-9 * max(s[0], 1e-30):
        raise DegenerateSampleError("5x9 data matrix is rank deficient")
    basis = vt[-4:][::-1]  # x, y, z, 1 coefficients of E
    _, s, vt = np.linalg.svd(_constraint_matrix(basis))
    if s[9] <= 1e-12 * s[0]:
        raise DegenerateSampleError("constraint system is rank deficient")
    null = vt[10:].T
    cos, sin = _TURN
    try:
        turned = np.linalg.solve(sin * null[_TIMES_X] + cos * null[10:],
                                 cos * null[_TIMES_X] - sin * null[10:])
    except np.linalg.LinAlgError:
        raise DegenerateSampleError("turned five-point pencil is singular") from None
    values, vectors = np.linalg.eig(turned)

    candidates = []
    for b in (null[10:] @ vectors[:, values.imag == 0.0].real).T:
        ww = b[_OUTER]
        w = ww[np.argmax(np.abs(np.diag(ww)))]  # (x, y, z, 1) up to scale
        e = (basis.T @ w).reshape(3, 3)
        norm = np.linalg.norm(e)
        if norm < 1e-12:
            continue
        e /= norm
        if abs(np.linalg.det(e)) > 1e-8:
            continue
        if trace_constraint_residual(e) > 1e-7:
            continue
        if np.abs(q @ e.ravel()).max() > 1e-8:  # |x2^T E x1| of the five pairs
            continue
        candidates.append(e)
    return candidates


def cheirality_votes(e, x1, x2):
    """The four decompositions of e, and per candidate the count of pairs
    whose closest-approach ray parameters are both positive (the cheirality
    test generalized to virtual pairs)."""
    poses = decompose_essential(e)
    q1 = _homogeneous(x1)
    q2 = _homogeneous(x2)
    u1 = q1 / np.linalg.norm(q1, axis=1, keepdims=True)
    votes = []
    for pose in poses:
        r, t = pose.rotation, pose.translation
        u2 = q2 @ r  # rows: R^T q2
        u2 = u2 / np.linalg.norm(u2, axis=1, keepdims=True)
        w = r.T @ t  # o1 - o2 with camera 1 at the origin
        b = np.einsum("ni,ni->n", u1, u2)
        d = u1 @ w
        ecomp = u2 @ w
        denom = 1.0 - b * b
        ok = denom > 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            d1 = (b * ecomp - d) / denom
            d2 = (ecomp - b * d) / denom
        votes.append(int(np.count_nonzero(ok & (d1 > 0.0) & (d2 > 0.0))))
    return poses, votes


def recover_pose(e, x1, x2) -> SE3Pose:
    """Pick the decomposition with the best generalized cheirality vote.

    Counts, per candidate, the pairs whose closest-approach parameters d1,
    d2 are both positive; classic cheirality (triangulated point in front of
    both cameras) is the special case of exactly intersecting rays. Raises
    AmbiguousCheiralityError when the two best candidates tie within 1% of
    the pair count.
    """
    poses, votes = cheirality_votes(np.asarray(e), x1, x2)
    order = np.argsort(votes)[::-1]
    best, second = order[0], order[1]
    n = len(np.atleast_2d(x1))
    if votes[best] - votes[second] <= 0.01 * n:
        raise AmbiguousCheiralityError(
            f"top cheirality votes {votes[best]} vs {votes[second]} of {n}"
        )
    return poses[best]


@dataclass(frozen=True)
class RansacParams:
    """Inlier threshold and sampling seed of the robust estimator."""

    inlier_threshold: float = 1e-4  # Sampson error, normalized coordinates
    seed: int = 0

    def __post_init__(self):
        if not self.inlier_threshold > 0.0:  # NaN fails this test
            raise ValueError("inlier threshold must be positive")


@dataclass
class RelativePoseEstimate:
    """Winning relative pose with its support."""

    pose: SE3Pose  # unit-baseline world(=camera a)-to-camera-b transform
    inlier_mask: np.ndarray
    iterations: int


def _adaptive_cap(inlier_ratio: float) -> float:
    w5 = inlier_ratio**5
    if w5 >= 1.0 - 1e-12:
        return 1.0
    if w5 <= 1e-12:
        return math.inf
    return math.log(1.0 - CONFIDENCE) / math.log(1.0 - w5)


def ransac_essential(x1, x2, params: RansacParams | None = None) -> RelativePoseEstimate:
    """Five-point RANSAC over normalized pairs with adaptive stopping.

    The best hypothesis maximizes the inlier count under the Sampson
    threshold; ties break on lower mean inlier error, then on the earlier
    iteration. Deterministic for a fixed seed.
    """
    params = params or RansacParams()
    x1 = np.asarray(x1, dtype=np.float64).reshape(-1, 2)
    x2 = np.asarray(x2, dtype=np.float64).reshape(-1, 2)
    n = len(x1)
    if n < 5:
        raise InsufficientCorrespondencesError(f"{n} pairs < minimal sample of 5")
    rng = np.random.default_rng(params.seed)

    best = None  # (score, -mean_err, -iteration, e, mask)
    cap = float(MAX_ITERATIONS)
    it = 0
    while it < min(cap, MAX_ITERATIONS):
        sample = rng.choice(n, size=5, replace=False)
        it += 1
        try:
            hypotheses = five_point(x1[sample], x2[sample])
        except DegenerateSampleError:
            continue
        for e in hypotheses:
            err = sampson_errors(e, x1, x2)
            mask = err < params.inlier_threshold
            score = int(np.count_nonzero(mask))
            if score == 0:
                continue
            mean_err = float(err[mask].mean())
            key = (score, -mean_err, -it)
            if best is None or key > best[0]:
                best = (key, e, mask)
                cap = _adaptive_cap(score / n)
    if best is None:
        raise NoValidHypothesisError("no sample produced a scorable hypothesis")

    _, e_best, mask = best
    pose = recover_pose(e_best, x1[mask], x2[mask])
    essential = essential_from_pose(pose)
    essential = essential / np.linalg.norm(essential)
    err = sampson_errors(essential, x1, x2)
    final_mask = err < params.inlier_threshold
    if not final_mask.any():
        final_mask = mask  # keep the hypothesis support if recomputation thins out
    return RelativePoseEstimate(pose=pose, inlier_mask=final_mask, iterations=it)
