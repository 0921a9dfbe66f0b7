"""Generalized bundle adjustment over point tuples.

Each track couples one world point X1 (observed in camera a) with the point
X2 observed in camera b through two thickness parameters:

    X2 = X1 + a * (X1 - o_a) + b * (o_b - o_a)

with o_* the camera centers. Points built this way keep the two viewing rays
co-planar, so epipolar geometry holds by construction; a = b = 0 collapses
the tuple to one co-visible point and the objective to classic bundle
adjustment. a and b take either sign: the only physical constraint is
positive depth of each point in its camera, which the smooth behind-camera
penalty of the objective enforces. Hard mode substitutes the expression
above into the reprojection objective; soft mode keeps X2 explicit and adds
a weighted consistency penalty, which tolerates slightly inconsistent
initializations.

Tracks are columnar (VcTracks; soft mode's X2 is one (n, 3) array), so each
track column is read with one gather and written with one scatter, through
an index that sends entries a track lacks to a zero slot (see _Layout).

The objective is a forward pass that keeps the per-track state its gradient
needs, and the gradient a backward pass over that state (_Forward). solve_ba
reuses an objective call's forward pass for a gradient at the same array
object, so each point the optimizer evaluates costs one forward pass. The
camera rows of the gradient are formed and summed for free cameras only.

Unless two fixed cameras fix the scale, one free camera keeps its translation
norm (the scale gauge; Triggs et al., "Bundle Adjustment - A Modern
Synthesis", 1999, section 9). Its translation is the chart exp([B phi]x) t0
on the sphere |t| = |t0|, a 2-parameter update on S^2 (Hertzberg et al.,
Information Fusion 2013), so every parameter vector satisfies the gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .geometry import (
    CameraIntrinsics,
    SE3Pose,
    camera_center,
    is_count,
    read_only,
    so3_exp,
    so3_left_jacobian,
)
from .mesh import batch_first_hits
from .optim import LbfgsReport, minimize_lbfgs

Z_MIN = 1e-6  # camera-frame depth below which the smooth penalty takes over
BEHIND_PENALTY = 1e6  # pixel^2 scale of that penalty
SOFT_WEIGHT = 1e2  # weight of soft mode's tuple-consistency penalty

_TRACK_COLUMNS = {  # name: (dtype, shape of one row)
    "x1": (float, (3,)), "a": (float, ()), "b": (float, ()), "cam_a": (int, ()), "cam_b": (int, ()),
    "obs_a": (float, (2,)), "obs_b": (float, (2,)), "classic": (bool, ()),
}


@dataclass(frozen=True)
class VcTracks:
    """Point tuples, one row per track: X1 (n, 3) seen by camera cam_a at
    pixel obs_a (n, 2), and thickness a, b of the X2 seen by cam_b at obs_b.
    Classic rows are co-visible points with a = b = 0 frozen. Every column
    is copied on construction into a read-only array."""

    x1: np.ndarray
    a: np.ndarray
    b: np.ndarray
    cam_a: np.ndarray
    cam_b: np.ndarray
    obs_a: np.ndarray
    obs_b: np.ndarray
    classic: np.ndarray

    def __post_init__(self):
        n = len(self.x1)
        for name, (dtype, row) in _TRACK_COLUMNS.items():
            column = np.array(getattr(self, name), dtype=dtype)
            if column.shape != (n, *row):
                raise ValueError(f"{name} has shape {column.shape}, expected {(n, *row)}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if np.any(self.classic & ((self.a != 0.0) | (self.b != 0.0))):
            raise ValueError("classic tracks freeze a = b = 0")
        if np.any(self.cam_a == self.cam_b):
            raise ValueError("a tuple spans two distinct cameras")
        if not all(np.isfinite(getattr(self, name)).all()
                   for name in ("x1", "a", "b", "obs_a", "obs_b")):
            raise ValueError("points, thickness and pixel coordinates must be finite")

    def __len__(self) -> int:
        return len(self.x1)


@dataclass(frozen=True)
class BaCamera:
    pose: SE3Pose
    intrinsics: CameraIntrinsics
    fixed: bool = False


@dataclass(frozen=True)
class BaConfig:
    """Iteration cap of the limited-memory quasi-Newton refinement: an int
    >= 1, not a bool."""

    max_iterations: int = 300

    def __post_init__(self):
        if not is_count(self.max_iterations):
            raise ValueError("max_iterations must be an int >= 1")


@dataclass(frozen=True)
class BaProblem:
    """Cameras, tracks, and the constraint mode of one adjustment. soft_x2 is
    soft mode's (n, 3) explicit X2, kept read-only (a writable array is
    copied); classic rows are unused (NaN by convention), and hard mode
    ignores it. The cameras are kept as a tuple and the parameter layout
    (see _Layout) is built once, as `_layout`."""

    cameras: tuple
    tracks: VcTracks
    mode: str = "soft"
    soft_x2: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("soft", "hard"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not any(c.fixed for c in self.cameras):
            raise ValueError("gauge requires at least one fixed camera")
        object.__setattr__(self, "cameras", tuple(self.cameras))
        tr = self.tracks
        for cams in (tr.cam_a, tr.cam_b):
            if np.any((cams < 0) | (cams >= len(self.cameras))):
                raise ValueError("track references an unknown camera")
        if self.soft_x2 is not None:
            object.__setattr__(self, "soft_x2", read_only(self.soft_x2, np.float64))
        if self.mode == "soft":
            if self.soft_x2 is None or self.soft_x2.shape != (len(tr), 3):
                raise ValueError("soft mode needs an explicit X2 per track")
            if not np.isfinite(self.soft_x2[~tr.classic]).all():
                raise ValueError("soft mode needs a finite X2 for every virtual track")
        object.__setattr__(self, "_layout", _Layout(self))

    # -- parameter vector layout ------------------------------------------

    def pack_params(self) -> np.ndarray:
        """Parameter vector of the problem as stored (rotation increments and
        the gauge chart at 0)."""
        lay = self._layout
        x = np.zeros(lay.size + 1)
        for ci, off in lay.cam_offset.items():
            if ci != lay.gauge_cam:
                x[off + 3 : off + 6] = self.cameras[ci].pose.translation
        tr = self.tracks
        x[lay.x1_idx] = tr.x1
        x[lay.ab_idx] = np.stack([tr.a, tr.b])
        if self.mode == "soft":
            x[lay.x2_idx] = self.soft_x2
        return x[: lay.size]

    def apply_params(self, x) -> list:
        """Cameras with the parameter vector's rotation increments and
        translations (or gauge chart) folded in, as the objective reads them;
        fixed cameras are returned as they are."""
        rot, trans, _ = _camera_arrays(self, x)
        return [cam if cam.fixed else replace(cam, pose=SE3Pose(r, t))
                for cam, r, t in zip(self.cameras, rot, trans)]


class _Layout:
    """Index arrays and per-track constants of one problem (its `_layout`).

    The parameter vector holds (w, t) for each free camera in camera order,
    then per track X1, (a, b) for virtual tracks, and X2 for virtual tracks
    in soft mode. x1_idx (n, 3), ab_idx (2, n) and x2_idx (n, 3) index every
    track; a classic track's (a, b) and a track's X2 outside soft mode point
    at the zero slot `size`, which reads 0 from x with a 0 appended and is
    cut off a scatter into `size + 1` entries. Unless two or more cameras are
    fixed, the first free camera with a nonzero translation t0 is the gauge
    camera, whose block is (w, phi) instead: its translation is the chart
    exp([B phi]x) t0 with B a fixed orthonormal 3x2 basis normal to t0, so
    |t| = |t0| for every phi. Nothing here depends on x.
    """

    def __init__(self, problem: BaProblem):
        tracks = problem.tracks
        free = [i for i, cam in enumerate(problem.cameras) if not cam.fixed]
        self.gauge_cam = self.gauge_basis = None
        if len(problem.cameras) - len(free) < 2:
            for ci in free:
                t0 = problem.cameras[ci].pose.translation
                if np.linalg.norm(t0) > 1e-9:
                    # rows 2 and 3 of V^T span the plane normal to t0
                    self.gauge_cam, self.gauge_basis = ci, np.linalg.svd(t0[None, :])[2][1:].T
                    break
        cam_width = np.array([5 if ci == self.gauge_cam else 6 for ci in free], dtype=int)
        cam_size = int(cam_width.sum())
        self.cam_offset = dict(zip(free, (np.cumsum(cam_width) - cam_width).tolist()))
        virtual = ~tracks.classic
        self.soft = virtual & (problem.mode == "soft")  # tracks with an explicit X2
        width = 3 + 2 * virtual + 3 * self.soft
        start = cam_size + np.cumsum(width) - width
        self.size = size = cam_size + int(width.sum())
        self.x1_idx = start[:, None] + np.arange(3)
        self.ab_idx = np.where(virtual, start + np.array([[3], [4]]), size)  # rows a, b
        self.x2_idx = np.where(self.soft[:, None], start[:, None] + np.arange(5, 8), size)
        k = np.array([
            [c.intrinsics.fx, c.intrinsics.fy, c.intrinsics.cx, c.intrinsics.cy,
             c.intrinsics.skew]
            for c in problem.cameras
        ])
        # rows fx, fy, cx, cy, skew of each track's two cameras
        self.k_a = np.ascontiguousarray(k[tracks.cam_a].T)
        self.k_b = np.ascontiguousarray(k[tracks.cam_b].T)
        # tracks whose camera a (term a, the o_a chain) or camera b (term b,
        # the o_b chain) is free: only their camera rows reach the gradient.
        # cam_bins bins the d/dw columns and then the d/dt columns of the rows
        # term a, term b, o_a chain, o_b chain as 6 * camera + column
        is_free = np.array([not cam.fixed for cam in problem.cameras])
        self.free_a = np.flatnonzero(is_free[tracks.cam_a])
        self.free_b = np.flatnonzero(is_free[tracks.cam_b])
        cams = 6 * np.concatenate([tracks.cam_a[self.free_a], tracks.cam_b[self.free_b]] * 2)
        self.cam_bins = np.concatenate([cams[:, None] + np.arange(3),
                                        cams[:, None] + np.arange(3, 6)]).ravel()


def x2_from_reparam(x1, a, b, o1, o2) -> np.ndarray:
    """Second tuple point from the first: X1 + a (X1 - o1) + b (o2 - o1)."""
    x1 = np.asarray(x1, dtype=np.float64)
    o1 = np.asarray(o1, dtype=np.float64)
    o2 = np.asarray(o2, dtype=np.float64)
    return x1 + a * (x1 - o1) + b * (o2 - o1)


def fit_thickness(x1, x2, o1, o2) -> np.ndarray:
    """Least-squares (a, b) of the tuple reparameterization for each row of
    the (n, 3) points x1, x2: an (n, 2) array, exact when X2 lies in the
    plane of X1 and the two centers. With u = X1 - o1, w = o2 - o1,
    r = X2 - X1 and n = u x w, a = ((r x w) . n) / |n|^2 and
    b = ((u x r) . n) / |n|^2. Rows where [u, w] has rank one under
    lstsq(rcond=None)'s cutoff, such as X1 - o1 parallel to o2 - o1, get
    pinv's minimum-norm solution."""
    x1 = np.asarray(x1, dtype=np.float64)
    o1 = np.asarray(o1, dtype=np.float64)
    r = np.asarray(x2, dtype=np.float64) - x1
    u = x1 - o1
    w = np.broadcast_to(np.asarray(o2, dtype=np.float64) - o1, x1.shape)
    n, rw, ur = np.cross(np.stack([u, r, u]), np.stack([w, w, r]))
    nn = np.einsum("ij,ij->i", n, n)
    ab = np.column_stack([np.einsum("ij,ij->i", rw, n), np.einsum("ij,ij->i", ur, n)])
    # |n| = s1 s2 and s1^2 + s2^2 = |u|^2 + |w|^2 for the singular values
    # s1 >= s2 of [u, w], so |n| > 4 eps (|u|^2 + |w|^2) keeps s2 > 3 eps s1
    eps = np.finfo(np.float64).eps
    cut = 4.0 * eps * (np.einsum("ij,ij->i", u, u) + np.einsum("ij,ij->i", w, w))
    thin = nn <= cut * cut
    ab /= np.where(thin, 1.0, nn)[:, None]
    basis = np.stack([u[thin], w[thin]], axis=2)
    pinv = np.linalg.pinv(basis, rcond=3 * eps)
    ab[thin] = (pinv @ r[thin, :, None])[:, :, 0]
    return ab


# ---------------------------------------------------------------------------
# objective and gradient
# ---------------------------------------------------------------------------


def _camera_arrays(problem, x):
    lay = problem._layout
    n_cam = len(problem.cameras)
    rot = np.empty((n_cam, 3, 3))
    trans = np.empty((n_cam, 3))
    for i, cam in enumerate(problem.cameras):
        off = lay.cam_offset.get(i)
        if off is None:
            rot[i] = cam.pose.rotation
            trans[i] = cam.pose.translation
        else:
            rot[i] = so3_exp(x[off : off + 3]) @ cam.pose.rotation
            if i == lay.gauge_cam:
                trans[i] = so3_exp(lay.gauge_basis @ x[off + 3 : off + 5]) @ cam.pose.translation
            else:
                trans[i] = x[off + 3 : off + 6]
    centers = -np.einsum("cki,ck->ci", rot, trans)
    return rot, trans, centers


def _reprojection_terms(points_cam, obs, fx, fy, cx, cy, sk):
    """Per-track term values, with the smooth behind-camera penalty
    substituted where depth <= Z_MIN, and the state _reprojection_gradient
    reads."""
    z = points_cam[:, 2]
    behind = z <= Z_MIN
    zs = np.where(behind, 1.0, z)
    px = points_cam[:, 0] / zs
    py = points_cam[:, 1] / zs
    fu = fx * px + sk * py
    fv = fy * py
    res = obs - np.stack([fu + cx, fv + cy], axis=1)
    vals = np.where(behind, BEHIND_PENALTY * (Z_MIN - z + 1.0) ** 2,
                    np.einsum("ni,ni->n", res, res))
    return vals, (z, behind, zs, fu, fv, res, fx, fy, sk)


def _reprojection_gradient(z, behind, zs, fu, fv, res, fx, fy, sk):
    """d(term)/d(point_cam) of the terms _reprojection_terms evaluated."""
    du = np.stack([fx / zs, sk / zs, -fu / zs], axis=1)
    dv = np.stack([np.zeros_like(zs), fy / zs, -fv / zs], axis=1)
    g_pt = -2.0 * (res[:, 0:1] * du + res[:, 1:2] * dv)
    g_pt[behind] = 0.0
    g_pt[behind, 2] = -2.0 * BEHIND_PENALTY * (Z_MIN - z[behind] + 1.0)
    return g_pt


class _Forward:
    """Forward pass of the objective at one parameter vector: its value
    `total` and the per-track state its backward pass, `gradient()`, reads.
    No derivative factor is computed here, so a rejected line-search trial
    pays for the objective only."""

    def __init__(self, problem: BaProblem, x):
        lay = problem._layout
        if len(x) != lay.size:
            raise ValueError(f"parameter vector has {len(x)} entries, layout needs {lay.size}")
        self.problem = problem
        self.x = x = np.asarray(x, dtype=np.float64)
        rot, self.trans, centers = _camera_arrays(problem, x)
        tracks = problem.tracks
        ca, cb = tracks.cam_a, tracks.cam_b
        self.x1 = x1 = x[lay.x1_idx]
        padded = np.append(x, 0.0)  # the layout's zero slot
        self.a, self.b = a, b = padded[lay.ab_idx]
        x2e = padded[lay.x2_idx]

        self.r_a, self.t_a, self.o_a = r_a, t_a, o_a = (
            rot.take(ca, 0), self.trans.take(ca, 0), centers.take(ca, 0))
        self.r_b, self.t_b, self.o_b = r_b, t_b, o_b = (
            rot.take(cb, 0), self.trans.take(cb, 0), centers.take(cb, 0))

        x2r = x2_from_reparam(x1, a[:, None], b[:, None], o_a, o_b)
        x2 = np.where(lay.soft[:, None], x2e, x2r)

        # residual A: camera a sees X1; residual B: camera b sees X2
        self.v_a = v_a = np.einsum("nij,nj->ni", r_a, x1)
        self.v_b = v_b = np.einsum("nij,nj->ni", r_b, x2)
        vals_a, self.term_a = _reprojection_terms(v_a + t_a, tracks.obs_a, *lay.k_a)
        vals_b, self.term_b = _reprojection_terms(v_b + t_b, tracks.obs_b, *lay.k_b)
        total = float(vals_a.sum() + vals_b.sum())

        self.rp = rp = x2e - x2r
        total += float(SOFT_WEIGHT * np.einsum("ni,ni->n", rp, rp)[lay.soft].sum())
        self.total = total

    def gradient(self) -> np.ndarray:
        """Backward pass: the objective's gradient at this pass's x."""
        lay = self.problem._layout
        x, a, b, rp = self.x, self.a, self.b, self.rp
        r_a, r_b = self.r_a, self.r_b
        fa, fb = lay.free_a, lay.free_b
        lam = SOFT_WEIGHT
        g_p = _reprojection_gradient(*self.term_a)
        g_q = _reprojection_gradient(*self.term_b)
        m = np.einsum("ni,nij->nj", g_q, r_b)  # d(term_b)/dX2
        # X2r's gradient, chained for every row: term_b's own on hard rows, the
        # consistency penalty's -2 lam (X2e - X2r) on soft rows, which also reach
        # X2e directly
        soft = lay.soft
        u = np.where(soft[:, None], rp, m)
        c = np.where(soft, -2.0 * lam, 1.0)
        g_x1 = np.einsum("ni,nij->nj", g_p, r_a) + (c * (1.0 + a))[:, None] * u
        g_ab = np.stack([c * np.einsum("ni,ni->n", u, self.x1 - self.o_a),
                         c * np.einsum("ni,ni->n", u, self.o_b - self.o_a)])
        # X2r reaches the centers: d/do_a = -c (a + b) u and d/do_b = c b u, each
        # d/do = k (d_oa, d_ob) chained through o = -R^T t into d/dt = -R k and
        # d/dw = t x R k
        d_oa = (-c * (a + b)).take(fa)[:, None] * u.take(fa, 0)
        d_ob = (c * b).take(fb)[:, None] * u.take(fb, 0)
        r_k = np.concatenate([np.einsum("nij,nj->ni", r_a.take(fa, 0), d_oa),
                              np.einsum("nij,nj->ni", r_b.take(fb, 0), d_ob)])
        # d/dw (before the left Jacobian) and d/dt rows of term a, term b and the
        # two center chains on free cameras, summed per camera in that order
        g_pa, g_qb = g_p.take(fa, 0), g_q.take(fb, 0)
        rows_w = np.cross(np.concatenate([self.v_a.take(fa, 0), self.v_b.take(fb, 0),
                                          self.t_a.take(fa, 0), self.t_b.take(fb, 0)]),
                          np.concatenate([g_pa, g_qb, r_k]))
        rows_t = np.concatenate([g_pa, g_qb, -r_k])
        sums = np.bincount(lay.cam_bins, weights=np.concatenate([rows_w.ravel(), rows_t.ravel()]),
                           minlength=6 * len(self.problem.cameras)).reshape(-1, 6)
        g_w, g_t = sums[:, :3], sums[:, 3:]

        g = np.zeros(lay.size + 1)
        for ci, off in lay.cam_offset.items():
            g[off : off + 3] = so3_left_jacobian(x[off : off + 3]).T @ g_w[ci]
            if ci == lay.gauge_cam:
                # t = exp([B phi]x) t0 moves by (J_l(B phi) B d) x t for a step d
                basis = lay.gauge_basis
                jl_t = so3_left_jacobian(basis @ x[off + 3 : off + 5])
                g[off + 3 : off + 5] = basis.T @ (jl_t.T @ np.cross(self.trans[ci], g_t[ci]))
            else:
                g[off + 3 : off + 6] = g_t[ci]
        g[lay.x1_idx] = g_x1
        g[lay.ab_idx] = g_ab
        g[lay.x2_idx] = m + 2.0 * lam * rp
        return g[: lay.size]


def ba_objective(problem: BaProblem, x) -> float:
    """Total squared reprojection error (pixel^2) at a parameter vector.

    Rotation blocks of x are tangent increments composed onto the problem's
    stored rotations, and the gauge camera's translation block is its chart
    (see _Layout). Soft mode adds the weighted tuple-consistency penalty;
    points behind a camera contribute the smooth depth penalty instead of a
    reprojection term.
    """
    return _Forward(problem, x).total


def ba_gradient(problem: BaProblem, x) -> np.ndarray:
    """Analytic gradient of ba_objective over all free parameters."""
    return _Forward(problem, x).gradient()


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


@dataclass
class BaSolution:
    """Refined cameras and the optimizer's report."""

    cameras: list  # refined BaCamera entries
    report: LbfgsReport

    @property
    def poses(self) -> list:
        return [c.pose for c in self.cameras]


def solve_ba(problem: BaProblem, config: BaConfig | None = None) -> BaSolution:
    """Refine cameras and tuples by unconstrained limited-memory quasi-Newton.

    Fixed cameras are untouched (bit-identical), and the scale gauge is a
    chart (see _Layout). Thickness parameters are unbounded. The parameter
    layout is the problem's own. Each free camera's rotation is one
    tangent vector composed onto its stored rotation, in one chart for the
    whole solve; it and the gauge chart are folded in at the end. The
    problem is not modified.

    The objective runs the forward pass and keeps its state for that array
    object only; the gradient runs the backward pass on that state when it
    is called on the same object, and a fresh forward pass on any other.
    minimize_lbfgs never changes x in place and asks for the gradient only
    at its latest objective point, so each evaluated point costs one
    forward pass. At most one forward state is alive: a new objective call
    drops the old one, and the gradient drops the one it used.
    """
    config = config or BaConfig()
    kept = None  # (x, its forward pass) of the latest objective call

    def fun(x):
        nonlocal kept
        kept = None
        forward = _Forward(problem, x)
        kept = (x, forward)
        return forward.total

    def grad(x):
        nonlocal kept
        forward = kept[1] if kept is not None and kept[0] is x else None
        kept = None
        return (forward or _Forward(problem, x)).gradient()

    x_final, opt = minimize_lbfgs(fun, grad, problem.pack_params(),
                                  max_iterations=config.max_iterations)
    return BaSolution(problem.apply_params(x_final), opt)


# ---------------------------------------------------------------------------
# lifting correspondences into tracks
# ---------------------------------------------------------------------------


def lift_vcs_to_tracks(vcs, record_a, record_b, pose_a: SE3Pose, pose_b: SE3Pose,
                       cam_a: int, cam_b: int):
    """Lift the correspondences between one image pair into virtual tracks.

    The first hits of each VC's two pixel rays on the priors give X1 and X2,
    and fit_thickness their (a, b). Returns (tracks, x2, dropped): a VcTracks
    of the VCs whose rays both hit, in VC order, their (n, 3) X2 for soft
    mode, and the count of VCs dropped because a ray missed its prior.
    `vcs` is a sequence of `VirtualCorrespondence` records, read as tuples.
    """
    n_vcs = len(vcs)
    pixels_a, pixels_b, _, person = zip(*vcs) if n_vcs else ((),) * 4
    pix_a = np.fromiter(chain.from_iterable(pixels_a), np.float64, 2 * n_vcs).reshape(-1, 2)
    pix_b = np.fromiter(chain.from_iterable(pixels_b), np.float64, 2 * n_vcs).reshape(-1, 2)
    person_ids = np.fromiter(person, np.int64, n_vcs)

    def first_points(record, pixels):
        dirs = record.intrinsics.pixel_rays(pixels)
        points = np.zeros((len(pixels), 3))
        hit = np.zeros(len(pixels), dtype=bool)
        for pid in np.unique(person_ids):
            rows = np.flatnonzero(person_ids == pid)
            depth, _, _, ok = batch_first_hits(record.posed_mesh(int(pid)), dirs[rows])
            rows = rows[ok]
            points[rows] = depth[ok, None] * dirs[rows]
            hit[rows] = True
        return points, hit

    pts_a, ok_a = first_points(record_a, pix_a)
    pts_b, ok_b = first_points(record_b, pix_b)
    keep = np.flatnonzero(ok_a & ok_b)
    x1 = pose_a.inverse_transform(pts_a[keep])
    x2 = pose_b.inverse_transform(pts_b[keep])
    ab = fit_thickness(x1, x2, camera_center(pose_a), camera_center(pose_b))
    n = len(keep)
    tracks = VcTracks(x1, ab[:, 0], ab[:, 1], np.full(n, cam_a), np.full(n, cam_b),
                      pix_a[keep], pix_b[keep], np.zeros(n, dtype=bool))
    return tracks, x2, n_vcs - n
