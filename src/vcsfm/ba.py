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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .extraction import VirtualCorrespondence
from .geometry import (
    CameraIntrinsics,
    Pixel,
    SE3Pose,
    camera_center,
    so3_exp,
    so3_left_jacobian,
)
from .mesh import batch_first_hits
from .optim import minimize_lbfgs

Z_MIN = 1e-6  # camera-frame depth below which the smooth penalty takes over
BEHIND_PENALTY = 1e6  # pixel^2 scale of that penalty


@dataclass
class VcTrack:
    """One reconstructed point tuple and its two observations."""

    x1: np.ndarray
    a: float
    b: float
    cam_a: int
    cam_b: int
    obs_a: Pixel
    obs_b: Pixel
    kind: str = "virtual"  # "virtual" or "classic" (a = b = 0 frozen)

    def __post_init__(self):
        self.x1 = np.array(self.x1, dtype=np.float64).reshape(3)
        if self.kind not in ("virtual", "classic"):
            raise ValueError(f"unknown track kind {self.kind!r}")
        if self.kind == "classic" and (self.a != 0.0 or self.b != 0.0):
            raise ValueError("classic tracks freeze a = b = 0")
        if self.cam_a == self.cam_b:
            raise ValueError("a tuple spans two distinct cameras")


@dataclass(frozen=True)
class BaCamera:
    pose: SE3Pose
    intrinsics: CameraIntrinsics
    fixed: bool = False


@dataclass
class BaConfig:
    """Solver knobs for the limited-memory quasi-Newton refinement."""

    max_iterations: int = 300
    gradient_tolerance: float = 1e-9
    step_tolerance: float = 1e-12
    history_size: int = 10

    def __post_init__(self):
        if self.gradient_tolerance <= 0 or self.step_tolerance <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class BaProblem:
    """Cameras, tracks, and the constraint mode of one adjustment."""

    cameras: list
    tracks: list
    mode: str = "soft"
    soft_weight: float = 1e2
    soft_x2: list | None = None  # explicit X2 per track (None for classic)

    def __post_init__(self):
        if self.mode not in ("soft", "hard"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not any(c.fixed for c in self.cameras):
            raise ValueError("gauge requires at least one fixed camera")
        for tr in self.tracks:
            if not (0 <= tr.cam_a < len(self.cameras) and 0 <= tr.cam_b < len(self.cameras)):
                raise ValueError("track references an unknown camera")
        if self.mode == "soft":
            if self.soft_x2 is None or len(self.soft_x2) != len(self.tracks):
                raise ValueError("soft mode needs an explicit X2 per track")
            for tr, x2 in zip(self.tracks, self.soft_x2):
                if tr.kind == "virtual" and x2 is None:
                    raise ValueError("soft mode needs X2 for every virtual track")

    # -- parameter vector layout ------------------------------------------

    def pack_params(self, lay: "_Layout") -> np.ndarray:
        """Parameter vector of the problem as stored (rotation increments 0)."""
        x = np.zeros(lay.size)
        for ci, off in lay.cam_offset.items():
            x[off + 3 : off + 6] = self.cameras[ci].pose.translation
        x[lay.x1_idx] = np.reshape([tr.x1 for tr in self.tracks], (-1, 3))
        x[lay.a_idx] = [self.tracks[i].a for i in lay.virtual_rows]
        x[lay.b_idx] = [self.tracks[i].b for i in lay.virtual_rows]
        x2 = [self.soft_x2[i] for i in np.flatnonzero(lay.soft)]
        x[lay.x2_idx] = np.reshape(x2, (-1, 3))
        return x

    def apply_params(self, x, lay: "_Layout") -> "BaProblem":
        """Problem with the parameter vector folded back in (new chart)."""
        cams = list(self.cameras)
        for ci, off in lay.cam_offset.items():
            w = x[off : off + 3]
            t = x[off + 3 : off + 6]
            cams[ci] = replace(
                cams[ci], pose=SE3Pose(so3_exp(w) @ cams[ci].pose.rotation, t)
            )
        a = np.zeros(lay.n)
        b = np.zeros(lay.n)
        a[lay.virtual_rows] = x[lay.a_idx]
        b[lay.virtual_rows] = x[lay.b_idx]
        tracks = [
            replace(tr, x1=x1, a=float(ai), b=float(bi))
            for tr, x1, ai, bi in zip(self.tracks, x[lay.x1_idx], a, b)
        ]
        soft_x2 = None
        if self.soft_x2 is not None:
            soft_x2 = list(self.soft_x2)
            for i, x2 in zip(np.flatnonzero(lay.soft), x[lay.x2_idx]):
                soft_x2[i] = x2
        return BaProblem(cams, tracks, self.mode, self.soft_weight, soft_x2)


class _Layout:
    """Index arrays and per-track constants of one problem, built once.

    The parameter vector holds (w, t) for each free camera in camera order,
    then per track X1, (a, b) for virtual tracks, and X2 for virtual tracks
    in soft mode. Nothing here depends on camera poses, so a layout stays
    valid while solve_ba re-centers the rotation charts.
    """

    def __init__(self, problem: BaProblem):
        tracks = problem.tracks
        free = [i for i, cam in enumerate(problem.cameras) if not cam.fixed]
        self.cam_offset = {ci: 6 * k for k, ci in enumerate(free)}
        self.n = len(tracks)
        virtual = np.array([tr.kind == "virtual" for tr in tracks], dtype=bool)
        self.soft = virtual & (problem.mode == "soft")  # tracks with an explicit X2
        self.hard = ~self.soft
        self.any_soft = bool(self.soft.any())
        self.any_hard = bool(self.hard.any())
        width = 3 + 2 * virtual + 3 * self.soft
        start = 6 * len(free) + np.cumsum(width) - width
        self.size = 6 * len(free) + int(width.sum())
        self.virtual_rows = np.flatnonzero(virtual)
        self.x1_idx = start[:, None] + np.arange(3)
        self.a_idx = start[virtual] + 3
        self.b_idx = start[virtual] + 4
        self.x2_idx = start[self.soft][:, None] + np.arange(5, 8)
        self.cam_a = np.array([tr.cam_a for tr in tracks], dtype=np.int64)
        self.cam_b = np.array([tr.cam_b for tr in tracks], dtype=np.int64)
        self.obs_a = np.array([[tr.obs_a.u, tr.obs_a.v] for tr in tracks]).reshape(-1, 2)
        self.obs_b = np.array([[tr.obs_b.u, tr.obs_b.v] for tr in tracks]).reshape(-1, 2)
        k = np.array([
            [c.intrinsics.fx, c.intrinsics.fy, c.intrinsics.cx, c.intrinsics.cy,
             c.intrinsics.skew]
            for c in problem.cameras
        ])
        # rows fx, fy, cx, cy, skew of each track's two cameras
        self.k_a = np.ascontiguousarray(k[self.cam_a].T)
        self.k_b = np.ascontiguousarray(k[self.cam_b].T)


def x2_from_reparam(x1, a, b, o1, o2) -> np.ndarray:
    """Second tuple point from the first: X1 + a (X1 - o1) + b (o2 - o1)."""
    x1 = np.asarray(x1, dtype=np.float64)
    o1 = np.asarray(o1, dtype=np.float64)
    o2 = np.asarray(o2, dtype=np.float64)
    return x1 + a * (x1 - o1) + b * (o2 - o1)


def fit_thickness(x1, x2, o1, o2) -> tuple[float, float]:
    """Least-squares (a, b) of the tuple reparameterization; exact when X2
    lies in the plane of X1 and the two centers."""
    x1 = np.asarray(x1, dtype=np.float64)
    basis = np.column_stack([x1 - np.asarray(o1), np.asarray(o2) - np.asarray(o1)])
    sol, *_ = np.linalg.lstsq(basis, np.asarray(x2) - x1, rcond=None)
    return float(sol[0]), float(sol[1])


# ---------------------------------------------------------------------------
# objective and gradient
# ---------------------------------------------------------------------------


def _camera_arrays(cameras, x, lay):
    n_cam = len(cameras)
    rot = np.empty((n_cam, 3, 3))
    trans = np.empty((n_cam, 3))
    jl = np.empty((n_cam, 3, 3))
    for i, cam in enumerate(cameras):
        off = lay.cam_offset.get(i)
        if off is None:
            rot[i] = cam.pose.rotation
            trans[i] = cam.pose.translation
            jl[i] = np.eye(3)
        else:
            w = x[off : off + 3]
            rot[i] = so3_exp(w) @ cam.pose.rotation
            trans[i] = x[off + 3 : off + 6]
            jl[i] = so3_left_jacobian(w)
    centers = -np.einsum("cki,ck->ci", rot, trans)
    return rot, trans, jl, centers


def _reprojection_terms(points_cam, obs, fx, fy, cx, cy, sk, want_grad):
    """Per-track term values and (if want_grad) d(term)/d(point_cam), with the
    smooth behind-camera penalty substituted where depth <= Z_MIN."""
    z = points_cam[:, 2]
    behind = z <= Z_MIN
    zs = np.where(behind, 1.0, z)
    px = points_cam[:, 0] / zs
    py = points_cam[:, 1] / zs
    fu = fx * px + sk * py
    fv = fy * py
    res = obs - np.stack([fu + cx, fv + cy], axis=1)
    vals = np.einsum("ni,ni->n", res, res)
    any_behind = behind.any()
    if any_behind:
        vals = np.where(behind, BEHIND_PENALTY * (Z_MIN - z + 1.0) ** 2, vals)
    if not want_grad:
        return vals, None
    du = np.stack([fx / zs, sk / zs, -fu / zs], axis=1)
    dv = np.stack([np.zeros_like(zs), fy / zs, -fv / zs], axis=1)
    g_pt = -2.0 * (res[:, 0:1] * du + res[:, 1:2] * dv)
    if any_behind:
        g_pen = np.zeros_like(g_pt)
        g_pen[:, 2] = -2.0 * BEHIND_PENALTY * (Z_MIN - z + 1.0)
        g_pt = np.where(behind[:, None], g_pen, g_pt)
    return vals, g_pt


def _evaluate(problem: BaProblem, lay: _Layout, x, want_grad: bool):
    """(objective, gradient, g_w) at x; g_w holds each camera's rotation
    gradient before the left Jacobian (None unless want_grad)."""
    if len(x) != lay.size:
        raise ValueError(f"parameter vector has {len(x)} entries, layout needs {lay.size}")
    x = np.asarray(x, dtype=np.float64)
    rot, trans, jl, centers = _camera_arrays(problem.cameras, x, lay)
    n = lay.n
    n_cam = len(problem.cameras)
    if n == 0:
        return 0.0, np.zeros(lay.size), np.zeros((n_cam, 3))

    ca, cb = lay.cam_a, lay.cam_b
    x1 = x[lay.x1_idx]
    a = np.zeros(n)
    b = np.zeros(n)
    a[lay.virtual_rows] = x[lay.a_idx]
    b[lay.virtual_rows] = x[lay.b_idx]
    x2e = np.zeros((n, 3))
    x2e[lay.soft] = x[lay.x2_idx]

    r_a, t_a, o_a = rot.take(ca, 0), trans.take(ca, 0), centers.take(ca, 0)
    r_b, t_b, o_b = rot.take(cb, 0), trans.take(cb, 0), centers.take(cb, 0)

    x2r = x1 + a[:, None] * (x1 - o_a) + b[:, None] * (o_b - o_a)
    x2 = np.where(lay.soft[:, None], x2e, x2r)

    v_a = np.einsum("nij,nj->ni", r_a, x1)
    v_b = np.einsum("nij,nj->ni", r_b, x2)
    p = v_a + t_a
    q = v_b + t_b
    vals_a, g_p = _reprojection_terms(p, lay.obs_a, *lay.k_a, want_grad)
    vals_b, g_q = _reprojection_terms(q, lay.obs_b, *lay.k_b, want_grad)
    total = float(vals_a.sum() + vals_b.sum())

    lam = problem.soft_weight
    if lay.any_soft:
        rp = x2e - x2r
        total += float(lam * np.einsum("ni,ni->n", rp, rp)[lay.soft].sum())

    if not want_grad:
        return total, None, None

    g_x1 = np.zeros((n, 3))
    g_a = np.zeros(n)
    g_b = np.zeros(n)
    g_x2e = np.zeros((n, 3))
    # d/dw (before the left Jacobian) and d/dt rows, summed per camera below
    cams = [ca, cb]
    rows_w = [np.cross(v_a, g_p), np.cross(v_b, g_q)]
    rows_t = [g_p, g_q]

    # residual A: camera a sees X1; residual B: camera b sees X2
    g_x1 += np.einsum("ni,nij->nj", g_p, r_a)
    m = np.einsum("ni,nij->nj", g_q, r_b)  # d(term_b)/dX2
    if lay.any_hard:
        hard = lay.hard
        hm = m[hard]
        g_x1[hard] += (1.0 + a[hard])[:, None] * hm
        g_a[hard] += np.einsum("ni,ni->n", hm, (x1 - o_a)[hard])
        g_b[hard] += np.einsum("ni,ni->n", hm, (o_b - o_a)[hard])
        _center_chain(cams, rows_w, rows_t, ca[hard], r_a[hard], t_a[hard],
                      -(a[hard] + b[hard])[:, None] * hm)
        _center_chain(cams, rows_w, rows_t, cb[hard], r_b[hard], t_b[hard],
                      b[hard][:, None] * hm)
    if lay.any_soft:
        soft = lay.soft
        g_x2e[soft] += m[soft]
        rp_m = rp[soft]
        g_x2e[soft] += 2.0 * lam * rp_m
        g_x1[soft] += -2.0 * lam * (1.0 + a[soft])[:, None] * rp_m
        g_a[soft] += -2.0 * lam * np.einsum("ni,ni->n", rp_m, (x1 - o_a)[soft])
        g_b[soft] += -2.0 * lam * np.einsum("ni,ni->n", rp_m, (o_b - o_a)[soft])
        _center_chain(cams, rows_w, rows_t, ca[soft], r_a[soft], t_a[soft],
                      2.0 * lam * (a[soft] + b[soft])[:, None] * rp_m)
        _center_chain(cams, rows_w, rows_t, cb[soft], r_b[soft], t_b[soft],
                      -2.0 * lam * b[soft][:, None] * rp_m)
    cams = np.concatenate(cams)
    g_w = _sum_per_camera(cams, np.concatenate(rows_w), n_cam)
    g_t = _sum_per_camera(cams, np.concatenate(rows_t), n_cam)

    g = np.zeros(lay.size)
    for ci, off in lay.cam_offset.items():
        g[off : off + 3] = jl[ci].T @ g_w[ci]
        g[off + 3 : off + 6] = g_t[ci]
    g[lay.x1_idx] = g_x1
    g[lay.a_idx] = g_a[lay.virtual_rows]
    g[lay.b_idx] = g_b[lay.virtual_rows]
    g[lay.x2_idx] = g_x2e[lay.soft]
    return total, g, g_w


def _center_chain(cams, rows_w, rows_t, cam_idx, rot, trans, u):
    """Chain d(term)/d(center) = u through o = -R^T t into (w, t) rows;
    rot and trans are the per-row camera rotations and translations."""
    r_u = np.einsum("nij,nj->ni", rot, u)
    cams.append(cam_idx)
    rows_w.append(np.cross(trans, r_u))
    rows_t.append(-r_u)


def _sum_per_camera(cams, rows, n_cam):
    """Per-camera sums of (m, 3) rows. bincount adds in row order from zero,
    the same sequence (and bits) as np.add.at over the rows."""
    return np.stack(
        [np.bincount(cams, weights=rows[:, j], minlength=n_cam) for j in range(3)], axis=1
    )


def ba_objective(problem: BaProblem, x) -> float:
    """Total squared reprojection error (pixel^2) at a parameter vector.

    Rotation blocks of x are tangent increments composed onto the problem's
    stored rotations. Soft mode adds the weighted tuple-consistency penalty;
    points behind a camera contribute the smooth depth penalty instead of a
    reprojection term.
    """
    return _evaluate(problem, _Layout(problem), x, want_grad=False)[0]


def ba_gradient(problem: BaProblem, x) -> np.ndarray:
    """Analytic gradient of ba_objective over all free parameters."""
    return _evaluate(problem, _Layout(problem), x, want_grad=True)[1]


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


@dataclass
class BaReport:
    status: str
    iterations: int
    objective_trace: list
    line_search_failure: bool
    initial_objective: float
    final_objective: float


@dataclass
class BaSolution:
    cameras: list  # refined BaCamera entries
    tracks: list  # refined VcTrack entries
    soft_x2: list | None
    report: BaReport

    @property
    def poses(self) -> list:
        return [c.pose for c in self.cameras]


def solve_ba(problem: BaProblem, config: BaConfig | None = None) -> BaSolution:
    """Refine cameras and tuples by projected limited-memory quasi-Newton.

    Gauge: fixed cameras are untouched (bit-identical), and unless two or
    more cameras are fixed the first free camera keeps its initial
    translation norm (the scale gauge), which the line search projects onto.
    Thickness parameters are unbounded. The parameter layout (index arrays
    and per-track constants) is built once per solve. Rotation charts
    re-center after every accepted step; the gradient in the new chart is the
    accepted one with each re-centered camera's rotation slot set to its
    gradient before the left Jacobian, which is what a fresh evaluation at
    w = 0 returns, so no extra gradient evaluation is made.
    """
    config = config or BaConfig()
    soft_x2 = problem.soft_x2
    if soft_x2 is not None:
        soft_x2 = [None if v is None else np.array(v) for v in soft_x2]
    work = BaProblem(list(problem.cameras), problem.tracks, problem.mode,
                     problem.soft_weight, soft_x2)
    lay = _Layout(work)
    x0 = work.pack_params(lay)

    scale_cam = None
    scale_norm = 0.0
    if sum(c.fixed for c in work.cameras) < 2:
        for ci in sorted(lay.cam_offset):
            norm = float(np.linalg.norm(work.cameras[ci].pose.translation))
            if norm > 1e-9:
                scale_cam, scale_norm = ci, norm
                break

    def project(x):
        x = np.array(x)
        if scale_cam is not None:
            off = lay.cam_offset[scale_cam]
            t = x[off + 3 : off + 6]
            norm = np.linalg.norm(t)
            if norm > 1e-12:
                x[off + 3 : off + 6] = t * (scale_norm / norm)
        return x

    last_x, last_g_w = None, None  # latest gradient point and its rotation gradients

    def grad(x):
        nonlocal last_x, last_g_w
        _, g, last_g_w = _evaluate(work, lay, x, True)
        last_x = x
        return g

    def post_accept(x, g):
        if x is not last_x:
            raise RuntimeError("post_accept needs the point of the latest grad call")
        x, g = np.array(x), np.array(g)
        for ci, off in lay.cam_offset.items():
            w = x[off : off + 3]
            if np.any(w != 0.0):
                cam = work.cameras[ci]
                work.cameras[ci] = replace(
                    cam, pose=SE3Pose(so3_exp(w) @ cam.pose.rotation, x[off + 3 : off + 6])
                )
                x[off : off + 3] = 0.0
                g[off : off + 3] = last_g_w[ci]
        return x, g

    x_final, opt = minimize_lbfgs(
        lambda x: _evaluate(work, lay, x, False)[0],
        grad,
        x0,
        max_iterations=config.max_iterations,
        gradient_tolerance=config.gradient_tolerance,
        step_tolerance=config.step_tolerance,
        history_size=config.history_size,
        project=project,
        post_accept=post_accept,
    )
    solved = work.apply_params(x_final, lay)
    report = BaReport(
        status=opt.status,
        iterations=opt.iterations,
        objective_trace=opt.objective_trace,
        line_search_failure=opt.line_search_failure,
        initial_objective=opt.objective_trace[0],
        final_objective=opt.objective_trace[-1],
    )
    return BaSolution(solved.cameras, solved.tracks, solved.soft_x2, report)


# ---------------------------------------------------------------------------
# lifting correspondences into tracks
# ---------------------------------------------------------------------------


def lift_vcs_to_tracks(vcs, record_a, record_b, pose_a: SE3Pose, pose_b: SE3Pose,
                       cam_a: int, cam_b: int):
    """Vectorized lift of many correspondences between one image pair.

    Returns (tracks, x2_list, dropped_count); rays that miss their prior are
    dropped and counted rather than raised.
    """
    if not vcs:
        return [], [], 0
    k_a, k_b = record_a.intrinsics, record_b.intrinsics

    def first_points(record, k, pixels, person_ids):
        dirs = np.column_stack([k.normalize(pixels), np.ones(len(pixels))])
        points = np.full((len(pixels), 3), np.nan)
        ok_all = np.zeros(len(pixels), dtype=bool)
        for pid in sorted(set(person_ids)):
            sel = np.array([p == pid for p in person_ids])
            mesh = record.posed_mesh(pid)
            depth, _, _, ok = batch_first_hits(mesh, np.zeros((sel.sum(), 3)), dirs[sel])
            idx = np.nonzero(sel)[0][ok]
            points[idx] = depth[ok, None] * dirs[idx]
            ok_all[idx] = True
        return points, ok_all

    pix_a = np.array([[vc.pixel_a.u, vc.pixel_a.v] for vc in vcs])
    pix_b = np.array([[vc.pixel_b.u, vc.pixel_b.v] for vc in vcs])
    pids = [vc.person_id for vc in vcs]
    pts_a, ok_a = first_points(record_a, k_a, pix_a, pids)
    pts_b, ok_b = first_points(record_b, k_b, pix_b, pids)
    keep = ok_a & ok_b

    o1 = camera_center(pose_a)
    o2 = camera_center(pose_b)
    tracks, x2s = [], []
    for i in np.nonzero(keep)[0]:
        x1 = pose_a.inverse_transform(pts_a[i])
        x2 = pose_b.inverse_transform(pts_b[i])
        a, b = fit_thickness(x1, x2, o1, o2)
        tracks.append(
            VcTrack(
                x1=x1, a=a, b=b, cam_a=cam_a, cam_b=cam_b,
                obs_a=vcs[i].pixel_a, obs_b=vcs[i].pixel_b, kind="virtual",
            )
        )
        x2s.append(x2)
    return tracks, x2s, int(len(vcs) - keep.sum())
