"""Generalized bundle adjustment over point tuples.

Each track couples one world point X1 (observed in camera a) with the point
X2 observed in camera b through two non-negative thickness parameters:

    X2 = X1 + a * (X1 - o_a) + b * (o_b - o_a)

with o_* the camera centers. Points built this way keep the two viewing rays
co-planar, so epipolar geometry holds by construction; a = b = 0 collapses
the tuple to one co-visible point and the objective to classic bundle
adjustment. Hard mode substitutes the expression above into the reprojection
objective; soft mode keeps X2 explicit and adds a weighted consistency
penalty, which tolerates slightly inconsistent initializations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NoSurfaceHitError, ParseError
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
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("thickness parameters must be non-negative")
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
    huber_width: float | None = None  # pixels; None = plain least squares

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

    def layout(self) -> "_Layout":
        return _Layout(self)

    def pack_params(self) -> np.ndarray:
        lay = self.layout()
        x = np.zeros(lay.size)
        for ci, sl in lay.cam_slice.items():
            x[sl.start + 3 : sl.stop] = self.cameras[ci].pose.translation
        for tr, (x1_sl, a_i, b_i, x2_sl), x2 in zip(
            self.tracks, lay.track_entries, self.soft_x2 or [None] * len(self.tracks)
        ):
            x[x1_sl] = tr.x1
            if a_i is not None:
                x[a_i] = tr.a
                x[b_i] = tr.b
            if x2_sl is not None:
                x[x2_sl] = x2
        return x

    def apply_params(self, x) -> "BaProblem":
        """Problem with the parameter vector folded back in (new chart)."""
        lay = self.layout()
        cams = list(self.cameras)
        for ci, sl in lay.cam_slice.items():
            w = x[sl.start : sl.start + 3]
            t = x[sl.start + 3 : sl.stop]
            cams[ci] = replace(
                cams[ci], pose=SE3Pose(so3_exp(w) @ cams[ci].pose.rotation, t)
            )
        tracks = []
        soft_x2 = [] if self.soft_x2 is not None else None
        for ti, (tr, (x1_sl, a_i, b_i, x2_sl)) in enumerate(
            zip(self.tracks, lay.track_entries)
        ):
            tracks.append(
                replace(
                    tr,
                    x1=x[x1_sl].copy(),
                    a=float(x[a_i]) if a_i is not None else 0.0,
                    b=float(x[b_i]) if b_i is not None else 0.0,
                )
            )
            if soft_x2 is not None:
                soft_x2.append(x[x2_sl].copy() if x2_sl is not None else self.soft_x2[ti])
        return BaProblem(cams, tracks, self.mode, self.soft_weight, soft_x2)


class _Layout:
    def __init__(self, problem: BaProblem):
        off = 0
        self.cam_slice = {}
        for i, cam in enumerate(problem.cameras):
            if not cam.fixed:
                self.cam_slice[i] = slice(off, off + 6)
                off += 6
        self.track_entries = []
        for tr in problem.tracks:
            x1_sl = slice(off, off + 3)
            off += 3
            a_i = b_i = x2_sl = None
            if tr.kind == "virtual":
                a_i, b_i = off, off + 1
                off += 2
                if problem.mode == "soft":
                    x2_sl = slice(off, off + 3)
                    off += 3
            self.track_entries.append((x1_sl, a_i, b_i, x2_sl))
        self.size = off


def x2_from_reparam(x1, a, b, o1, o2) -> np.ndarray:
    """Second tuple point from the first: X1 + a (X1 - o1) + b (o2 - o1)."""
    x1 = np.asarray(x1, dtype=np.float64)
    o1 = np.asarray(o1, dtype=np.float64)
    o2 = np.asarray(o2, dtype=np.float64)
    return x1 + a * (x1 - o1) + b * (o2 - o1)


def fit_thickness(x1, x2, o1, o2) -> tuple[float, float]:
    """Least-squares (a, b) of the tuple reparameterization, clamped >= 0."""
    x1 = np.asarray(x1, dtype=np.float64)
    basis = np.column_stack([x1 - np.asarray(o1), np.asarray(o2) - np.asarray(o1)])
    sol, *_ = np.linalg.lstsq(basis, np.asarray(x2) - x1, rcond=None)
    return max(0.0, float(sol[0])), max(0.0, float(sol[1]))


# ---------------------------------------------------------------------------
# objective and gradient
# ---------------------------------------------------------------------------


def _camera_arrays(problem, x, lay):
    n_cam = len(problem.cameras)
    rot = np.empty((n_cam, 3, 3))
    trans = np.empty((n_cam, 3))
    jl = np.empty((n_cam, 3, 3))
    for i, cam in enumerate(problem.cameras):
        sl = lay.cam_slice.get(i)
        if sl is None:
            rot[i] = cam.pose.rotation
            trans[i] = cam.pose.translation
            jl[i] = np.eye(3)
        else:
            w = x[sl.start : sl.start + 3]
            rot[i] = so3_exp(w) @ cam.pose.rotation
            trans[i] = x[sl.start + 3 : sl.stop]
            jl[i] = so3_left_jacobian(w)
    centers = -np.einsum("cki,ck->ci", rot, trans)
    return rot, trans, jl, centers


def _reprojection_terms(points_cam, obs, fx, fy, cx, cy, sk, huber_width):
    """Per-track term values and d(term)/d(point_cam) with the smooth
    behind-camera penalty substituted where depth <= Z_MIN."""
    z = points_cam[:, 2]
    behind = z <= Z_MIN
    zs = np.where(behind, 1.0, z)
    px = points_cam[:, 0] / zs
    py = points_cam[:, 1] / zs
    u = fx * px + sk * py + cx
    v = fy * py + cy
    res = obs - np.stack([u, v], axis=1)
    r2 = np.einsum("ni,ni->n", res, res)
    if huber_width is None:
        vals = r2
        w_h = np.ones_like(r2)
    else:
        r = np.sqrt(np.maximum(r2, 1e-300))
        inl = r <= huber_width
        vals = np.where(inl, r2, 2.0 * huber_width * r - huber_width**2)
        w_h = np.where(inl, 1.0, huber_width / r)
    du = np.stack([fx / zs, sk / zs, -(fx * px + sk * py) / zs], axis=1)
    dv = np.stack([np.zeros_like(zs), fy / zs, -fy * py / zs], axis=1)
    g_pt = -2.0 * w_h[:, None] * (res[:, 0:1] * du + res[:, 1:2] * dv)
    pen = BEHIND_PENALTY * (Z_MIN - z + 1.0) ** 2
    vals = np.where(behind, pen, vals)
    g_pen = np.zeros_like(g_pt)
    g_pen[:, 2] = -2.0 * BEHIND_PENALTY * (Z_MIN - z + 1.0)
    g_pt = np.where(behind[:, None], g_pen, g_pt)
    return vals, g_pt


def _evaluate(problem: BaProblem, x, want_grad: bool, huber_width=None):
    lay = problem.layout()
    if len(x) != lay.size:
        raise ValueError(f"parameter vector has {len(x)} entries, layout needs {lay.size}")
    x = np.asarray(x, dtype=np.float64)
    rot, trans, jl, centers = _camera_arrays(problem, x, lay)
    n = len(problem.tracks)
    if n == 0:
        return 0.0, np.zeros(lay.size)

    ca = np.array([tr.cam_a for tr in problem.tracks])
    cb = np.array([tr.cam_b for tr in problem.tracks])
    virt = np.array([tr.kind == "virtual" for tr in problem.tracks])
    obs_a = np.array([[tr.obs_a.u, tr.obs_a.v] for tr in problem.tracks])
    obs_b = np.array([[tr.obs_b.u, tr.obs_b.v] for tr in problem.tracks])

    x1 = np.empty((n, 3))
    a = np.zeros(n)
    b = np.zeros(n)
    x2e = np.zeros((n, 3))
    has_x2e = np.zeros(n, dtype=bool)
    for ti, (x1_sl, a_i, b_i, x2_sl) in enumerate(lay.track_entries):
        x1[ti] = x[x1_sl]
        if a_i is not None:
            a[ti] = x[a_i]
            b[ti] = x[b_i]
        if x2_sl is not None:
            x2e[ti] = x[x2_sl]
            has_x2e[ti] = True

    k = np.array(
        [
            [c.intrinsics.fx, c.intrinsics.fy, c.intrinsics.cx, c.intrinsics.cy, c.intrinsics.skew]
            for c in problem.cameras
        ]
    )
    r_a, t_a, o_a = rot[ca], trans[ca], centers[ca]
    r_b, t_b, o_b = rot[cb], trans[cb], centers[cb]

    x2r = x1 + a[:, None] * (x1 - o_a) + b[:, None] * (o_b - o_a)
    x2 = np.where(has_x2e[:, None], x2e, x2r)

    p = np.einsum("nij,nj->ni", r_a, x1) + t_a
    q = np.einsum("nij,nj->ni", r_b, x2) + t_b
    vals_a, g_p = _reprojection_terms(
        p, obs_a, k[ca, 0], k[ca, 1], k[ca, 2], k[ca, 3], k[ca, 4], huber_width
    )
    vals_b, g_q = _reprojection_terms(
        q, obs_b, k[cb, 0], k[cb, 1], k[cb, 2], k[cb, 3], k[cb, 4], huber_width
    )
    total = float(vals_a.sum() + vals_b.sum())

    lam = problem.soft_weight
    rp = x2e - x2r
    pen_mask = has_x2e
    if pen_mask.any():
        total += float(lam * np.einsum("ni,ni->n", rp, rp)[pen_mask].sum())

    if not want_grad:
        return total, None

    g = np.zeros(lay.size)
    n_cam = len(problem.cameras)
    g_w = np.zeros((n_cam, 3))  # pre-left-Jacobian rotation gradients
    g_t = np.zeros((n_cam, 3))
    g_x1 = np.zeros((n, 3))
    g_a = np.zeros(n)
    g_b = np.zeros(n)
    g_x2e = np.zeros((n, 3))

    # residual A: camera a sees X1
    v_a = np.einsum("nij,nj->ni", r_a, x1)
    g_x1 += np.einsum("ni,nij->nj", g_p, r_a)
    np.add.at(g_w, ca, np.cross(v_a, g_p))
    np.add.at(g_t, ca, g_p)

    # residual B: camera b sees X2 (direct camera-b dependence)
    v_b = np.einsum("nij,nj->ni", r_b, x2)
    np.add.at(g_w, cb, np.cross(v_b, g_q))
    np.add.at(g_t, cb, g_q)

    m = np.einsum("ni,nij->nj", g_q, r_b)  # d(term_b)/dX2
    hard = ~has_x2e
    if hard.any():
        hm = m[hard]
        g_x1[hard] += (1.0 + a[hard])[:, None] * hm
        g_a[hard] += np.einsum("ni,ni->n", hm, (x1 - o_a)[hard])
        g_b[hard] += np.einsum("ni,ni->n", hm, (o_b - o_a)[hard])
        _add_center_chain(g_w, g_t, ca[hard], rot, trans,
                          -(a[hard] + b[hard])[:, None] * hm)
        _add_center_chain(g_w, g_t, cb[hard], rot, trans, b[hard][:, None] * hm)
    if pen_mask.any():
        g_x2e[pen_mask] += m[pen_mask]
        rp_m = rp[pen_mask]
        g_x2e[pen_mask] += 2.0 * lam * rp_m
        g_x1[pen_mask] += -2.0 * lam * (1.0 + a[pen_mask])[:, None] * rp_m
        g_a[pen_mask] += -2.0 * lam * np.einsum("ni,ni->n", rp_m, (x1 - o_a)[pen_mask])
        g_b[pen_mask] += -2.0 * lam * np.einsum("ni,ni->n", rp_m, (o_b - o_a)[pen_mask])
        _add_center_chain(g_w, g_t, ca[pen_mask], rot, trans,
                          2.0 * lam * (a[pen_mask] + b[pen_mask])[:, None] * rp_m)
        _add_center_chain(g_w, g_t, cb[pen_mask], rot, trans,
                          -2.0 * lam * b[pen_mask][:, None] * rp_m)

    for ci, sl in lay.cam_slice.items():
        g[sl.start : sl.start + 3] = jl[ci].T @ g_w[ci]
        g[sl.start + 3 : sl.stop] = g_t[ci]
    for ti, (x1_sl, a_i, b_i, x2_sl) in enumerate(lay.track_entries):
        g[x1_sl] = g_x1[ti]
        if a_i is not None:
            g[a_i] = g_a[ti]
            g[b_i] = g_b[ti]
        if x2_sl is not None:
            g[x2_sl] = g_x2e[ti]
    return total, g


def _add_center_chain(g_w, g_t, cams, rot, trans, u):
    """Chain d(term)/d(center) = u through o = -R^T t into (w, t) slots."""
    r_u = np.einsum("nij,nj->ni", rot[cams], u)
    np.add.at(g_w, cams, np.cross(trans[cams], r_u))
    np.add.at(g_t, cams, -r_u)


def ba_objective(problem: BaProblem, x, huber_width=None) -> float:
    """Total squared reprojection error (pixel^2) at a parameter vector.

    Rotation blocks of x are tangent increments composed onto the problem's
    stored rotations. Soft mode adds the weighted tuple-consistency penalty;
    points behind a camera contribute the smooth depth penalty instead of a
    reprojection term.
    """
    return _evaluate(problem, x, want_grad=False, huber_width=huber_width)[0]


def ba_gradient(problem: BaProblem, x, huber_width=None) -> np.ndarray:
    """Analytic gradient of ba_objective over all free parameters."""
    return _evaluate(problem, x, want_grad=True, huber_width=huber_width)[1]


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
    translation norm (the scale gauge). Thickness parameters are clamped to
    >= 0 inside the line search; rotation charts re-center after every
    accepted step.
    """
    config = config or BaConfig()
    work = BaProblem(
        list(problem.cameras), [replace(t) for t in problem.tracks], problem.mode,
        problem.soft_weight,
        None if problem.soft_x2 is None else [None if v is None else np.array(v) for v in problem.soft_x2],
    )
    lay = work.layout()
    x0 = work.pack_params()

    scale_cam = None
    scale_norm = 0.0
    if sum(c.fixed for c in work.cameras) < 2:
        for ci in sorted(lay.cam_slice):
            norm = float(np.linalg.norm(work.cameras[ci].pose.translation))
            if norm > 1e-9:
                scale_cam, scale_norm = ci, norm
                break

    ab_indices = [i for (_, a_i, b_i, _) in lay.track_entries for i in (a_i, b_i) if i is not None]
    ab_indices = np.array(ab_indices, dtype=np.int64)

    def project(x):
        x = np.array(x)
        if len(ab_indices):
            x[ab_indices] = np.maximum(x[ab_indices], 0.0)
        if scale_cam is not None:
            sl = lay.cam_slice[scale_cam]
            t = x[sl.start + 3 : sl.stop]
            norm = np.linalg.norm(t)
            if norm > 1e-12:
                x[sl.start + 3 : sl.stop] = t * (scale_norm / norm)
        return x

    def post_accept(x):
        changed = False
        x = np.array(x)
        for ci, sl in lay.cam_slice.items():
            w = x[sl.start : sl.start + 3]
            if np.any(w != 0.0):
                cam = work.cameras[ci]
                work.cameras[ci] = replace(
                    cam, pose=SE3Pose(so3_exp(w) @ cam.pose.rotation, x[sl.start + 3 : sl.stop])
                )
                x[sl.start : sl.start + 3] = 0.0
                changed = True
        return x, changed

    x_final, opt = minimize_lbfgs(
        lambda x: _evaluate(work, x, False, config.huber_width)[0],
        lambda x: _evaluate(work, x, True, config.huber_width)[1],
        x0,
        max_iterations=config.max_iterations,
        gradient_tolerance=config.gradient_tolerance,
        step_tolerance=config.step_tolerance,
        history_size=config.history_size,
        project=project,
        post_accept=post_accept,
    )
    solved = work.apply_params(x_final)
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


def lift_vc_to_track(vc: VirtualCorrespondence, record_a, record_b,
                     pose_a: SE3Pose, pose_b: SE3Pose, cam_a: int, cam_b: int):
    """One track from a correspondence using the priors' first hits.

    X1 is the world-registered first hit of pixel_a's ray on record_a's prior
    mesh, X2 likewise on record_b's; (a, b) start at their clamped
    least-squares fit. Returns (VcTrack, x2) where x2 feeds soft mode.
    Raises NoSurfaceHitError if either ray misses its prior.
    """
    tracks, x2s, dropped = lift_vcs_to_tracks(
        [vc], record_a, record_b, pose_a, pose_b, cam_a, cam_b
    )
    if dropped:
        raise NoSurfaceHitError("correspondence ray misses the prior surface")
    return tracks[0], x2s[0]


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


# ---------------------------------------------------------------------------
# text serialization (regression fixtures)
# ---------------------------------------------------------------------------


def save_problem(problem: BaProblem, path) -> None:
    """Line format: header, `mode`, `weight`, then one `camera` line per
    camera (fixed flag, row-major rotation, translation, intrinsics) and one
    `track` line per track (kind, cameras, observations, X1, a, b[, X2])."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("vcsfm-ba-problem v1\n")
        fh.write(f"mode {problem.mode}\n")
        fh.write(f"weight {problem.soft_weight!r}\n")
        for cam in problem.cameras:
            r = " ".join(repr(float(v)) for v in cam.pose.rotation.ravel())
            t = " ".join(repr(float(v)) for v in cam.pose.translation)
            k = cam.intrinsics
            fh.write(
                f"camera {int(cam.fixed)} {r} {t} "
                f"{k.fx!r} {k.fy!r} {k.cx!r} {k.cy!r} {k.skew!r}\n"
            )
        for ti, tr in enumerate(problem.tracks):
            parts = [
                "track", tr.kind, str(tr.cam_a), str(tr.cam_b),
                repr(tr.obs_a.u), repr(tr.obs_a.v), repr(tr.obs_b.u), repr(tr.obs_b.v),
                repr(float(tr.x1[0])), repr(float(tr.x1[1])), repr(float(tr.x1[2])),
                repr(float(tr.a)), repr(float(tr.b)),
            ]
            if problem.soft_x2 is not None and problem.soft_x2[ti] is not None:
                parts += [repr(float(v)) for v in problem.soft_x2[ti]]
            fh.write(" ".join(parts) + "\n")


def load_problem(path) -> BaProblem:
    cameras, tracks, soft_x2 = [], [], []
    mode, weight = "soft", 1e2
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip() != "vcsfm-ba-problem v1":
            raise ParseError("expected header 'vcsfm-ba-problem v1'", path, 1)
        for ln, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            try:
                if parts[0] == "mode":
                    mode = parts[1]
                elif parts[0] == "weight":
                    weight = float(parts[1])
                elif parts[0] == "camera":
                    vals = [float(v) for v in parts[2:]]
                    cameras.append(
                        BaCamera(
                            pose=SE3Pose(np.array(vals[0:9]).reshape(3, 3), vals[9:12]),
                            intrinsics=CameraIntrinsics(*vals[12:17]),
                            fixed=bool(int(parts[1])),
                        )
                    )
                elif parts[0] == "track":
                    kind = parts[1]
                    nums = [float(v) for v in parts[4:]]
                    tracks.append(
                        VcTrack(
                            x1=nums[4:7], a=nums[7], b=nums[8],
                            cam_a=int(parts[2]), cam_b=int(parts[3]),
                            obs_a=Pixel(nums[0], nums[1]), obs_b=Pixel(nums[2], nums[3]),
                            kind=kind,
                        )
                    )
                    soft_x2.append(np.array(nums[9:12]) if len(nums) >= 12 else None)
                else:
                    raise ParseError(f"unknown line type {parts[0]!r}", path, ln)
            except (ValueError, IndexError) as exc:
                raise ParseError(str(exc), path, ln) from exc
    return BaProblem(
        cameras, tracks, mode, weight, soft_x2 if mode == "soft" else None
    )
