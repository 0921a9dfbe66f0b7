"""Independent reference implementations used to cross-check the library.

Everything here deliberately takes a different route than the package code:
scipy least_squares instead of the in-package quasi-Newton solver, quaternion
algebra instead of trace formulas, grid searches instead of closed forms.
"""

import importlib

import numpy as np
import scipy.linalg
from scipy.optimize import least_squares, minimize
from scipy.spatial.transform import Rotation

# the package exports a function of this name, so ask for the module itself
relative_pose = importlib.import_module("vcsfm.relative_pose")


def ray_triangle_hits_oracle(vertices, faces, origin, direction):
    """All forward ray-triangle hits by solving each 3x3 system directly."""
    tri = np.asarray(vertices, dtype=np.float64)[np.asarray(faces)]
    va, vb, vc = tri[:, 0], tri[:, 1], tri[:, 2]
    m = np.stack([vb - va, vc - va, np.broadcast_to(-np.asarray(direction), va.shape)], axis=2)
    solvable = np.flatnonzero(np.abs(np.linalg.det(m)) >= 1e-14)
    uvt = np.linalg.solve(m[solvable], (np.asarray(origin) - va[solvable])[:, :, None])[:, :, 0]
    u, v, t = uvt.T
    inside = (u >= -1e-10) & (v >= -1e-10) & (u + v <= 1.0 + 1e-10) & (t > 1e-9)
    hits = [(t[i], int(solvable[i]), np.array([1.0 - u[i] - v[i], u[i], v[i]]))
            for i in np.flatnonzero(inside)]
    hits.sort(key=lambda h: (h[0], h[1]))
    return hits


def collapsed_hits_oracle(vertices, faces, origin, direction, depth_tie, max_hits=None):
    """Oracle hits where consecutive depths within depth_tie keep only the
    smallest face, at most max_hits of them."""
    groups = []
    for hit in ray_triangle_hits_oracle(vertices, faces, origin, direction):
        if groups and hit[0] - groups[-1][-1][0] <= depth_tie:
            groups[-1].append(hit)
        else:
            groups.append([hit])
    return [min(g, key=lambda h: h[1]) for g in groups][:max_hits]


def pairs_within_oracle(points, queries, radius):
    """Sorted (query, point, squared distance) triples at most `radius`
    apart, by scanning every pair."""
    out = []
    for qi, q in enumerate(np.asarray(queries, dtype=np.float64).reshape(-1, 3)):
        d2 = ((np.asarray(points, dtype=np.float64).reshape(-1, 3) - q) ** 2).sum(axis=1)
        out.extend((qi, int(j), float(d2[j])) for j in np.flatnonzero(np.sqrt(d2) <= radius))
    return sorted(out)


def mutual_nearest_oracle(points, queries, radius):
    """(query, point) pairs that are each other's nearest, the first index
    winning ties, and at most `radius` apart, by scanning every pair."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    queries = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    out = []
    for qi, q in enumerate(queries):
        if len(points) == 0:
            break
        d2 = ((points - q) ** 2).sum(axis=1)
        j = int(np.argmin(d2))
        if np.sqrt(d2[j]) <= radius and np.argmin(((queries - points[j]) ** 2).sum(axis=1)) == qi:
            out.append((qi, j))
    return out


def five_point_pencil_oracle(x1, x2):
    """Unit-norm essential matrices of every real eigenvector of
    `five_point`'s pencil A c = x B c, solved as a generalized eigenproblem
    by scipy's QZ rather than as a turned standard one, and not filtered."""
    q = relative_pose._epipolar_matrix(x1, x2)
    basis = np.linalg.svd(q)[2][-4:][::-1]
    null = np.linalg.svd(relative_pose._constraint_matrix(basis))[2][10:].T
    values, vectors = scipy.linalg.eig(null[relative_pose._TIMES_X], null[10:])
    out = []
    for b in (null[10:] @ vectors[:, values.imag == 0.0].real).T:
        ww = b[relative_pose._OUTER]
        e = (basis.T @ ww[np.argmax(np.abs(np.diag(ww)))]).reshape(3, 3)
        out.append(e / np.linalg.norm(e))
    return out


def ray_gap_grid_oracle(o1, d1, o2, d2, d_max=50.0, coarse=400, refine_iters=3):
    """Min distance between two half-lines by nested grid search."""
    o1, d1, o2, d2 = (np.asarray(x, dtype=np.float64) for x in (o1, d1, o2, d2))
    lo1, hi1, lo2, hi2 = 0.0, d_max, 0.0, d_max
    best = np.inf
    for _ in range(refine_iters):
        s = np.linspace(lo1, hi1, coarse)
        t = np.linspace(lo2, hi2, coarse)
        p = o1[None, :] + s[:, None] * d1[None, :]
        q = o2[None, :] + t[:, None] * d2[None, :]
        d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
        i, j = np.unravel_index(np.argmin(d), d.shape)
        best = d[i, j]
        span1 = (hi1 - lo1) / coarse * 4
        span2 = (hi2 - lo2) / coarse * 4
        lo1, hi1 = max(0.0, s[i] - span1), s[i] + span1
        lo2, hi2 = max(0.0, t[j] - span2), t[j] + span2
    return best


def auc_trapezoid_oracle(errors, threshold):
    """Exact area under the step cumulative-recall curve on [0, threshold].

    Integrates the piecewise-constant recall over its breakpoints (a
    trapezoid rule is exact on each constant piece).
    """
    errors = np.sort(np.asarray(errors, dtype=np.float64))
    n = len(errors)
    xs = [0.0] + [float(e) for e in errors if e < threshold] + [float(threshold)]
    area = 0.0
    for x0, x1 in zip(xs[:-1], xs[1:]):
        recall = np.count_nonzero(errors <= x0 + 0.5 * (x1 - x0)) / n
        area += recall * (x1 - x0)
    return area / threshold


def pose_error_quaternion_oracle(r_est, t_est, r_gt, t_gt):
    """Pose error via quaternion geodesic + arccos of unit-vector dot."""
    q1 = Rotation.from_matrix(r_est).as_quat()
    q2 = Rotation.from_matrix(r_gt).as_quat()
    dot = abs(float(np.dot(q1, q2)))
    rot_err = np.degrees(2.0 * np.arccos(min(1.0, dot)))
    a = np.asarray(t_est) / np.linalg.norm(t_est)
    b = np.asarray(t_gt) / np.linalg.norm(t_gt)
    trans_err = np.degrees(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))
    return max(rot_err, trans_err)


def sampson_geometric_oracle(e, x1, x2):
    """Smallest squared joint correction restoring the epipolar constraint."""

    def constraint(d):
        p1 = np.append(x1 + d[:2], 1.0)
        p2 = np.append(x2 + d[2:], 1.0)
        return p2 @ e @ p1

    res = minimize(
        lambda d: d @ d,
        np.zeros(4),
        constraints={"type": "eq", "fun": constraint},
        method="SLSQP",
        options={"ftol": 1e-16, "maxiter": 200},
    )
    return float(res.fun)


def closest_approach_oracle(pose, x1, x2):
    """(n, 2) closest-approach parameters of each pair's two rays under the
    relative pose (R, t): camera 1's from the origin along (x1, 1), camera
    2's from its centre -R^T t along R^T (x2, 1). Each row is a 3x2 least
    squares problem, s1 q1 - s2 R^T q2 = -R^T t."""
    r, t = pose.rotation, pose.translation
    rows = []
    for p1, p2 in zip(x1, x2):
        a = np.column_stack([[p1[0], p1[1], 1.0], -r.T @ [p2[0], p2[1], 1.0]])
        rows.append(np.linalg.lstsq(a, -r.T @ t, rcond=None)[0])
    return np.array(rows).reshape(-1, 2)


def cheirality_votes_oracle(poses, x1, x2):
    """Per candidate pose, the pairs whose two closest-approach parameters
    are both positive."""
    return [int(np.count_nonzero((closest_approach_oracle(p, x1, x2) > 0.0).all(axis=1)))
            for p in poses]


def classic_ba_oracle(poses, intrinsics, fixed, points, observations, max_nfev=400):
    """Classic bundle adjustment with scipy's trust-region least squares.

    poses: list of (R, t); fixed: bool per camera; observations: list of
    (cam_index, point_index, pixel (2,)). Returns the final summed squared
    reprojection error in pixel^2 units and every camera's refined (R, t)
    (the fixed ones as given).
    """
    free = [i for i, fx in enumerate(fixed) if not fx]
    cam_slot = {c: k for k, c in enumerate(free)}
    x0 = []
    for c in free:
        r, t = poses[c]
        x0.extend(Rotation.from_matrix(r).as_rotvec())
        x0.extend(t)
    x0.extend(np.asarray(points).ravel())
    n_pts = len(points)

    def residuals(x):
        out = np.empty(2 * len(observations))
        pts = x[6 * len(free):].reshape(n_pts, 3)
        for row, (ci, pi, uv) in enumerate(observations):
            if ci in cam_slot:
                base = 6 * cam_slot[ci]
                r = Rotation.from_rotvec(x[base : base + 3]).as_matrix()
                t = x[base + 3 : base + 6]
            else:
                r, t = poses[ci]
            k = intrinsics[ci]
            pc = r @ pts[pi] + t
            u = k.fx * pc[0] / pc[2] + k.cx
            v = k.fy * pc[1] / pc[2] + k.cy
            out[2 * row] = uv[0] - u
            out[2 * row + 1] = uv[1] - v
        return out

    sol = least_squares(residuals, np.array(x0), method="lm", max_nfev=max_nfev)
    r = residuals(sol.x)
    refined = list(poses)
    for c, k in cam_slot.items():
        w, t = sol.x[6 * k : 6 * k + 3], sol.x[6 * k + 3 : 6 * k + 6]
        refined[c] = (Rotation.from_rotvec(w).as_matrix(), t)
    return float(r @ r), refined


def vc_extraction_oracle(a, b, params):
    """`extract_vcs` for records with one shared person, hit by hit.

    Rays are cast by `collapsed_hits_oracle`; mutual nearest neighbours come
    from the full hit x observer-entry distance matrix; the behind-camera
    check and the frame check then run one hit at a time.
    Entry positions are evaluated with `surface_points`, as the library does,
    so the re-viewed pixels can be compared bit for bit.
    """
    from conftest import entry_index
    from vcsfm.extraction import MAX_HITS_PER_RAY, VirtualCorrespondence
    from vcsfm.geometry import Pixel
    from vcsfm.mesh import DEPTH_TIE, surface_points

    (prior,) = a.priors
    person = prior.person_id
    vcs, seen = [], set()
    for cast, obs, forward in ((a, b, True), (b, a, False)):
        mesh = cast.posed_mesh(person)
        dsm_c, dsm_o = cast.prior_for(person).surface_map, obs.prior_for(person).surface_map
        hits = []  # (rank, position)
        for v in range(0, dsm_c.height, params.stride):
            for u in range(0, dsm_c.width, params.stride):
                if entry_index(dsm_c, (u, v)) < 0:
                    continue
                x, y = cast.intrinsics.normalize(np.array([u, v], dtype=np.float64))
                d = np.array([x, y, 1.0]) / np.linalg.norm([x, y, 1.0])
                found = collapsed_hits_oracle(mesh.vertices, mesh.faces, np.zeros(3), d,
                                              DEPTH_TIE, MAX_HITS_PER_RAY)
                for rank, (_, face, bary) in enumerate(found):
                    hits.append((rank, surface_points(mesh, [face], [bary])[0]))
        ov, ou = np.divmod(dsm_o.index, dsm_o.width)
        if not hits or len(ou) == 0:
            continue
        entry_pos = surface_points(mesh, dsm_o.faces, dsm_o.barys)
        hit_pos = np.array([h[1] for h in hits])
        dist2 = np.zeros((len(hit_pos), len(entry_pos)))
        for k in range(3):
            dist2 += (hit_pos[:, None, k] - entry_pos[None, :, k]) ** 2
        dist = np.sqrt(dist2)
        for j, (rank, _) in enumerate(hits):
            e = int(np.argmin(dist[j]))
            if dist[j, e] > params.surface_tolerance or int(np.argmin(dist[:, e])) != j:
                continue
            y = entry_pos[e]
            if y[2] <= 0.0:
                continue
            uv = cast.intrinsics.denormalize(y[:2] / y[2])
            if not (0.0 <= uv[0] <= dsm_c.width - 1 and 0.0 <= uv[1] <= dsm_c.height - 1):
                continue
            cast_px, obs_px = Pixel(uv[0], uv[1]), Pixel(ou[e], ov[e])
            pa, pb = (cast_px, obs_px) if forward else (obs_px, cast_px)
            if (pa, pb, rank) in seen:
                continue
            seen.add((pa, pb, rank))
            vcs.append(VirtualCorrespondence(pixel_a=pa, pixel_b=pb, hit_rank=rank,
                                             person_id=person))
    return vcs


def world_frame_oracle(scene):
    """A scene's ground-truth oracle, cast on the world-frame mesh.

    Each camera's sampled pixels are cast as unit world rays from the
    camera centre on `scene.gt_mesh`, translated so that the centre is its
    origin, where the library reads the hits of its rotated camera-frame
    render. Visibility is checked as the library does, by a
    first-hit cast in the other camera's frame.
    """
    from vcsfm.geometry import Pixel, SE3Pose, project_points
    from vcsfm.mesh import batch_all_hits, batch_first_hits, run_ranks
    from vcsfm.synthetic import _ORACLE_HITS, _ORACLE_STRIDE, _VIS_TOL, GtCorrespondence

    mesh, poses, maps = scene.gt_mesh, scene.gt_poses, scene.clean_maps
    k = scene.records[0].intrinsics
    width, height = maps[0].width, maps[0].height
    meshes_cam = [mesh.transformed(p) for p in poses]
    out = []
    for i, pose_a in enumerate(poses):
        pix = maps[i].mapped_pixels(_ORACLE_STRIDE)
        if len(pix) == 0:
            continue
        dirs_cam = k.pixel_rays(pix)
        dirs_cam /= np.linalg.norm(dirs_cam, axis=1, keepdims=True)
        dirs_world = dirs_cam @ pose_a.rotation
        origin = -pose_a.rotation.T @ pose_a.translation
        seen = mesh.transformed(SE3Pose(np.eye(3), -origin))
        ray, depths, _, _ = batch_all_hits(seen, dirs_world, max_hits=_ORACLE_HITS)
        points = origin + depths[:, None] * dirs_world[ray]
        ranks = run_ranks(ray)
        for j, pose_b in enumerate(poses):
            if j == i:
                continue
            uv, depth = project_points(pose_b, k, points)
            ok = ((depth > 1e-6) & (uv[:, 0] >= 0.0) & (uv[:, 0] <= width - 1)
                  & (uv[:, 1] >= 0.0) & (uv[:, 1] <= height - 1))
            sel = np.nonzero(ok)[0]
            dirs_j = k.pixel_rays(uv[sel])
            p_cam_j = pose_b.transform(points[sel])
            d_first, _, _, hit_ok = batch_first_hits(meshes_cam[j], dirs_j)
            visible = hit_ok & (
                np.linalg.norm(d_first[:, None] * dirs_j - p_cam_j, axis=1)
                <= _VIS_TOL * np.maximum(1.0, np.linalg.norm(p_cam_j, axis=1)))
            for s in sel[visible]:
                out.append(GtCorrespondence(
                    cam_a=i, cam_b=j, pixel_a=Pixel(*pix[ray[s]].astype(np.float64).tolist()),
                    pixel_b=Pixel(*uv[s].tolist()), point=points[s], rank_a=int(ranks[s])))
    return out
