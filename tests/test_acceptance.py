"""End-to-end acceptance checks for the full toolkit.

Each test here gates one externally meaningful behaviour of the system:
flow-model fidelity, Bayes-exact weighting, resampler statistics, tracking
and shape quality on the bundled scenarios, sensor-fusion payoff, alpha
shape correctness against a brute-force oracle, robustness to degraded
masks, and byte-level determinism of the file pipeline.  Statistical
thresholds were frozen from measurement before the tests were written.
"""
import itertools
import json
import math
import time
from importlib import resources

import numpy as np
import pytest
from scipy.spatial import ConvexHull
from scipy.stats import chisquare

from swarmtrack import io_formats
from swarmtrack.fusion import dead_reckoning_poses, fuse_log, gps_only_poses
from swarmtrack.geometry import (
    CameraMotion,
    CameraPose,
    Intrinsics,
    PixelPoint,
    backproject_image_to_ground,
    backproject_pixels,
    flow_field,
    motion_between_poses,
    project_points,
)
from swarmtrack.metrics import (
    Trajectory2D,
    framewise_centroid_baseline,
    relative_distance_error,
    sdr,
)
from swarmtrack.shapes import alpha_shape, default_alpha
from swarmtrack.synth import degrade_mask, generate_marker_run, make_gain_field
from swarmtrack.tracker import (
    ParticleSet,
    TrackerConfig,
    predict,
    track_sequence,
    update_weights,
    resample_roulette,
)
from tests.conftest import invoke_cli, small_run_config, small_scenario, soft_mask, write_json


def bundled(name):
    return resources.files("swarmtrack.data").joinpath(name)


@pytest.fixture(scope="module")
def default_pipeline(tmp_path_factory):
    """simulate + track + eval on the bundled default scenario and run config.

    Shared by the tracking-quality and shape-quality tests; the elapsed time
    covers the whole pipeline.
    """
    root = tmp_path_factory.mktemp("default-pipeline")
    sim = root / "sim"
    trk = root / "track"
    ev = root / "eval"
    t0 = time.perf_counter()
    with resources.as_file(bundled("default_scenario.json")) as cfg:
        assert invoke_cli("simulate", "--config", cfg, "--out", sim) == 0
    with resources.as_file(bundled("default_run.json")) as cfg:
        assert invoke_cli(
            "track", "--masks", sim / "masks", "--sensors", sim / "sensors.csv",
            "--config", cfg, "--out", trk,
        ) == 0
    assert invoke_cli("eval", "--pred", trk, "--gt", sim, "--out", ev) == 0
    elapsed = time.perf_counter() - t0
    report = json.loads((ev / "report.json").read_text())
    return {"report": report, "elapsed": elapsed}


@pytest.fixture(scope="module")
def degradation_scenario(tmp_path_factory):
    """One simulated crossing scenario reused by the robustness test."""
    out = tmp_path_factory.mktemp("degradation") / "sim"
    with resources.as_file(bundled("degradation_scenario.json")) as cfg:
        assert invoke_cli("simulate", "--config", cfg, "--out", out) == 0
    return out


def test_flow_model_tracks_exact_reprojection_within_two_percent():
    """flow_field vs exact two-pose reprojection differencing, 10^4 cases.

    Small motions: ||t|| < 0.05 z, rotation deltas < 0.5 deg.  The model is
    first order, so the bound is on the aggregate relative error (mean and
    median) plus an absolute-pixel cap on the worst case; near-zero flows
    make a per-case relative bound meaningless.
    """
    intr = Intrinsics.centered(1000.0, 960, 540)
    rng = np.random.default_rng(0)
    n_cases = 10_000
    rels = np.empty(n_cases)
    abss = np.empty(n_cases)
    t0 = time.perf_counter()
    for i in range(n_cases):
        z0 = rng.uniform(30.0, 150.0)
        yaw = rng.uniform(0.0, 360.0)
        pose0 = CameraPose(0.0, 0.0, z0, yaw=yaw)
        tmag = rng.uniform(0.0, 0.05 * z0)
        tdir = rng.normal(size=3)
        tdir /= np.linalg.norm(tdir)
        dpos = tmag * tdir
        dang = rng.uniform(-0.5, 0.5, 3)
        pose1 = CameraPose(
            dpos[0], dpos[1], z0 + dpos[2],
            pitch=dang[0], yaw=yaw + dang[1], roll=dang[2],
        )
        px = rng.uniform(-intr.cx, intr.width - 1 - intr.cx)
        py = rng.uniform(-intr.cy, intr.height - 1 - intr.cy)
        p = PixelPoint(px, py)
        ground = backproject_image_to_ground(p, pose0, intr)
        q = project_points(np.array([[ground.x, ground.y, ground.z]]), pose1, intr)[0]
        exact = np.array([q[0] - p.x, q[1] - p.y])
        mag = np.linalg.norm(exact)
        motion = motion_between_poses(pose0, pose1)
        vx, vy = flow_field(
            np.array([p.x]), np.array([p.y]), motion, intr, 0.5 * (pose0.z + pose1.z)
        )
        model = np.array([vx[0], vy[0]])
        err = np.linalg.norm(model - exact)
        rels[i] = err / mag if mag > 0 else 0.0
        abss[i] = err
    elapsed = time.perf_counter() - t0
    mean_rel = rels.mean()
    med_rel = np.median(rels)
    max_abs = abss.max()
    print(
        f"flow model: mean rel {mean_rel * 100:.3f}%  median {med_rel * 100:.3f}%  "
        f"max abs {max_abs:.3f} px  in {elapsed:.1f}s"
    )
    assert mean_rel <= 0.02, f"mean relative error {mean_rel * 100:.3f}% > 2%"
    assert med_rel <= 0.02, f"median relative error {med_rel * 100:.3f}% > 2%"
    assert max_abs <= 2.0, f"worst-case flow error {max_abs:.3f} px > 2 px"
    assert elapsed < 5.0, f"flow oracle took {elapsed:.1f}s, budget 5s"


def test_predict_update_matches_discrete_bayes_posterior():
    """predict + update with sigma=0 on a 5x5 grid equals exact discrete Bayes.

    Pure x-translation at f=100, z=100 shifts every pixel by exactly -1,
    so the posterior has a closed form: uniform prior, deterministic shift,
    particles leaving the grid die, survivors weigh in proportion to the
    mask value at their destination cell.
    """
    t0 = time.perf_counter()
    intr = Intrinsics(100.0, 2.0, 2.0, 5, 5)
    values = np.random.default_rng(42).uniform(0.1, 1.0, (5, 5))
    mask = soft_mask(values)

    grid = np.array(
        [(float(u), float(v)) for v in range(5) for u in range(5)]
    )
    ps = ParticleSet(grid, np.full(25, 1.0 / 25.0), np.random.default_rng(0))
    motion = CameraMotion((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    moved = predict(ps, motion, intr, 100.0, sigma=0.0)
    posterior = update_weights(moved, mask)

    likelihood = np.zeros(25)
    for k, (u, v) in enumerate(grid):
        dest_u = int(u) - 1
        if dest_u >= 0:
            likelihood[k] = values[int(v), dest_u]
    bayes = likelihood / likelihood.sum()

    gap = np.abs(posterior.weights - bayes).max()
    elapsed = time.perf_counter() - t0
    print(f"one-step Bayes: max weight gap {gap:.2e} in {elapsed * 1000:.0f}ms")
    assert gap < 1e-12, f"particle weights deviate from discrete Bayes by {gap:.2e}"
    assert elapsed < 1.0, f"one-step check took {elapsed:.2f}s, budget 1s"


def test_roulette_resampling_is_statistically_multinomial():
    """Chi-square goodness of fit on 100 seeded resampling trials.

    Each trial draws one roulette resample of 10^5 particles spread evenly
    over 25 positions and tests the category counts against uniform.  A
    correct multinomial sampler passes every trial at p > 0.01 and shows a
    spread of p-values; a low-variance (stratified) scheme would collapse
    the statistic to zero instead.
    """
    n_cat = 25
    copies = 4000
    xy = np.column_stack(
        [np.repeat(np.arange(n_cat, dtype=float), copies), np.zeros(n_cat * copies)]
    )
    w = np.full(n_cat * copies, 1.0 / (n_cat * copies))
    pvals = []
    for seed in range(100):
        ps = ParticleSet(xy, w, np.random.default_rng(seed))
        out = resample_roulette(ps)
        counts = np.bincount(out.xy[:, 0].astype(int), minlength=n_cat)
        assert counts.sum() == n_cat * copies
        pvals.append(chisquare(counts).pvalue)
    pvals = np.array(pvals)
    print(
        f"roulette: min p {pvals.min():.4f}  median p {np.median(pvals):.3f}  "
        f"trials below 0.9: {(pvals < 0.9).sum()}/100"
    )
    assert pvals.min() > 0.01, f"chi-square rejected at p={pvals.min():.4f}"
    # Genuine multinomial sampling makes p roughly uniform on (0, 1); a
    # deterministic-count resampler would pin every p at 1.
    assert (pvals < 0.9).sum() >= 10, "p-values implausibly concentrated at 1"

    # Two-category weighted case: mass 0.75 / 0.25 over 10^4 draws, count
    # of the heavy category within 3 sigma of the binomial expectation.
    n = 10_000
    half = n // 2
    xy2 = np.zeros((n, 2))
    xy2[half:, 0] = 1.0
    w2 = np.concatenate(
        [np.full(half, 0.75 / half), np.full(half, 0.25 / half)]
    )
    out = resample_roulette(ParticleSet(xy2, w2, np.random.default_rng(17)))
    heavy = int((out.xy[:, 0] < 0.5).sum())
    sigma = math.sqrt(n * 0.75 * 0.25)
    print(f"roulette 0.75/0.25: heavy count {heavy}, expected 7500 +- {3 * sigma:.0f}")
    assert abs(heavy - 0.75 * n) <= 3.0 * sigma, (
        f"heavy-category count {heavy} outside 7500 +- {3 * sigma:.0f}"
    )


def test_default_scenario_tracking_meets_detection_thresholds(default_pipeline):
    """Full simulate/track/eval on the bundled scenario: SDR gates and runtime."""
    rep = default_pipeline["report"]["sdr"]
    elapsed = default_pipeline["elapsed"]
    print(
        f"tracking: SDR@10/20/30 = {rep['radius_10']:.2f}/{rep['radius_20']:.2f}/"
        f"{rep['radius_30']:.2f}  monotone={rep['monotone']}  pipeline {elapsed:.1f}s"
    )
    assert rep["radius_30"] >= 95.0, f"SDR@30 = {rep['radius_30']:.2f} < 95"
    assert rep["radius_20"] >= 90.0, f"SDR@20 = {rep['radius_20']:.2f} < 90"
    assert rep["monotone"] is True, "SDR not monotone in radius"
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s, budget 60s"


def test_outline_masks_recover_ground_truth_shape(default_pipeline):
    """Alpha-shape outlines vs ground-truth masks on the deforming blob."""
    micro = default_pipeline["report"]["masks"]["micro"]
    print(
        f"shape recovery: IoU {micro['iou']:.4f}  precision {micro['precision']:.4f}  "
        f"recall {micro['recall']:.4f}"
    )
    assert micro["iou"] >= 0.70, f"micro IoU {micro['iou']:.4f} < 0.70"
    assert micro["recall"] >= micro["precision"], (
        f"recall {micro['recall']:.4f} < precision {micro['precision']:.4f}: "
        "outlines are under-covering instead of spatially expanded"
    )


def test_fused_poses_beat_single_sensor_baselines():
    """Marker-map accuracy ordering: fused < GPS-only < dead reckoning.

    100 seeded synthetic marker runs; for each, ground markers are mapped
    by backprojecting their best sighting through each pose estimate and
    scored with the pairwise relative-distance error against the true
    layout.
    """

    def marker_estimates(run, poses, intr):
        est = np.zeros((len(run.markers), 2))
        for idx, frame, u, v in run.sightings:
            gx, gy = backproject_pixels(u - intr.cx, v - intr.cy, poses[frame], intr)
            est[idx] = (float(gx), float(gy))
        return est

    t0 = time.perf_counter()
    wins = 0
    fused_errors = []
    losses = []
    for seed in range(100):
        run = generate_marker_run(seed)
        cfg = run.config
        intr = Intrinsics.centered(cfg.focal_px, cfg.width, cfg.height)
        n = cfg.duration
        fused = fuse_log(run.sensor_log, cfg.noise, cfg.fps, n)
        gps = gps_only_poses(run.sensor_log, cfg.fps, n)
        dr = dead_reckoning_poses(run.sensor_log, cfg.fps, n)
        gt = run.markers[:, :2]
        ef, _ = relative_distance_error(marker_estimates(run, fused, intr), gt)
        eg, _ = relative_distance_error(marker_estimates(run, gps, intr), gt)
        ed, _ = relative_distance_error(marker_estimates(run, dr, intr), gt)
        fused_errors.append(ef)
        if ef < eg < ed:
            wins += 1
        else:
            losses.append((seed, ef, eg, ed))
    elapsed = time.perf_counter() - t0
    fused_mean = float(np.mean(fused_errors))
    print(
        f"fusion ordering: {wins}/100 runs, fused mean {fused_mean:.3f} m, "
        f"{elapsed:.1f}s; exceptions: {losses}"
    )
    assert wins >= 95, f"fused < gps < dead-reckoning held in only {wins}/100 runs"
    assert fused_mean < 0.5, f"fused relative distance error {fused_mean:.3f} m >= 0.5"
    assert elapsed < 30.0, f"marker runs took {elapsed:.1f}s, budget 30s"


def _circumcircle(a, b, c):
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None, np.inf
    aa = ax * ax + ay * ay
    bb = bx * bx + by * by
    cc = cx * cx + cy * cy
    ux = (aa * (by - cy) + bb * (cy - ay) + cc * (ay - by)) / d
    uy = (aa * (cx - bx) + bb * (ax - cx) + cc * (bx - ax)) / d
    return np.array([ux, uy]), math.hypot(ax - ux, ay - uy)


def _brute_force_triangles(pts, alpha):
    """All triples whose circumcircle is empty of other points and smaller
    than alpha.  O(n^4), usable only for tiny n; independent of Delaunay."""
    n = len(pts)
    kept = set()
    for i, j, k in itertools.combinations(range(n), 3):
        center, r = _circumcircle(pts[i], pts[j], pts[k])
        if center is None or r >= alpha:
            continue
        d = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        d[[i, j, k]] = np.inf
        if (d < r).any():
            continue
        kept.add(frozenset((i, j, k)))
    return kept


def _triangle_area(tri):
    (ax, ay), (bx, by), (cx, cy) = tri
    return 0.5 * abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay))


def _index_triples(shape, index_of):
    return {
        frozenset(index_of[(p[0], p[1])] for p in tri) for tri in shape.triangles
    }


def test_alpha_shape_hull_limit_monotonicity_and_small_set_oracle():
    """Property tests on 1000 random point sets plus a brute-force oracle.

    For every set: at huge alpha the shape equals the convex hull (same
    area, same boundary segments), and growing alpha only ever adds
    triangles and area.  For the 250 small sets (n <= 12) the kept
    triangles, boundary edges, and area are compared against an O(n^4)
    empty-circumcircle search that never touches the Delaunay code path.
    """
    rng = np.random.default_rng(2024)
    sizes = [int(rng.integers(3, 13)) for _ in range(250)]
    sizes += [int(rng.integers(13, 201)) for _ in range(750)]
    t0 = time.perf_counter()
    brute_checked = 0
    for set_idx, n in enumerate(sizes):
        pts = rng.uniform(0.0, 100.0, (n, 2))
        hull = ConvexHull(pts)
        shape_hull = alpha_shape(pts, 1e6)
        assert shape_hull.area == pytest.approx(hull.volume, rel=1e-9), (
            f"set {set_idx}: area at huge alpha {shape_hull.area} != hull {hull.volume}"
        )
        hull_segs = {
            frozenset((tuple(pts[i]), tuple(pts[j]))) for i, j in hull.simplices
        }
        shape_segs = {
            frozenset((tuple(seg[0]), tuple(seg[1]))) for seg in shape_hull.boundary
        }
        assert shape_segs == hull_segs, (
            f"set {set_idx}: boundary at huge alpha is not the convex hull"
        )

        d = default_alpha(pts)
        lo = alpha_shape(pts, 0.7 * d)
        hi = alpha_shape(pts, 1.4 * d)
        key = lambda tri: frozenset((p[0], p[1]) for p in tri)
        tris_lo = {key(t) for t in lo.triangles}
        tris_hi = {key(t) for t in hi.triangles}
        tris_hull = {key(t) for t in shape_hull.triangles}
        assert tris_lo <= tris_hi <= tris_hull, (
            f"set {set_idx}: triangle sets not nested as alpha grows"
        )
        assert lo.area <= hi.area + 1e-9 and hi.area <= shape_hull.area + 1e-9, (
            f"set {set_idx}: area not monotone in alpha"
        )

        if n <= 12:
            index_of = {(p[0], p[1]): i for i, p in enumerate(pts)}
            radii = sorted(
                {
                    _circumcircle(pts[i], pts[j], pts[k])[1]
                    for i, j, k in _brute_force_triangles(pts, np.inf)
                }
            )
            alphas = [0.5 * radii[0], 2.0 * radii[-1]]
            if len(radii) >= 2:
                mid = len(radii) // 2
                alphas.append(0.5 * (radii[mid - 1] + radii[mid]))
            for alpha in alphas:
                expected = _brute_force_triangles(pts, alpha)
                shape = alpha_shape(pts, alpha)
                got = _index_triples(shape, index_of)
                assert got == expected, (
                    f"set {set_idx} (n={n}, alpha={alpha:.4f}): kept triangles "
                    f"{sorted(map(sorted, got))} != brute force "
                    f"{sorted(map(sorted, expected))}"
                )
                area = sum(
                    _triangle_area(pts[list(t)]) for t in expected
                )
                assert shape.area == pytest.approx(area, rel=1e-9, abs=1e-12)
                edge_count = {}
                for t in expected:
                    for e in itertools.combinations(sorted(t), 2):
                        edge_count[e] = edge_count.get(e, 0) + 1
                expected_boundary = {
                    frozenset(e) for e, c in edge_count.items() if c == 1
                }
                got_boundary = {
                    frozenset((index_of[(s[0][0], s[0][1])], index_of[(s[1][0], s[1][1])]))
                    for s in shape.boundary
                }
                assert got_boundary == expected_boundary, (
                    f"set {set_idx} (n={n}, alpha={alpha:.4f}): boundary mismatch"
                )
                brute_checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"alpha shapes: 1000 sets hull-limit + monotone, "
        f"{brute_checked} brute-force comparisons, {elapsed:.1f}s"
    )


def test_degradation_hurts_framewise_baseline_at_least_twice_as_much(
    degradation_scenario,
):
    """Blur (sigma 1 to 8 px) plus multiplicative gain noise vs both trackers.

    The per-frame centroid baseline must lose at least twice as many
    SDR@30 percentage points as the particle filter at every degradation
    level, with a meaningful floor on the baseline's loss, while the
    filter never loses the target.
    """
    sim = degradation_scenario
    traj = io_formats.read_trajectory(sim / "gt_track.csv")
    gt = Trajectory2D(
        {int(f): (uv[0], uv[1]) for f, uv in zip(traj["frame"], traj["uv"])}
    )
    log = io_formats.read_sensor_log(sim / "sensors.csv")
    scen = io_formats.scenario_config_from_json((sim / "scenario.json").read_text())
    poses = fuse_log(log, scen.noise, scen.fps, scen.duration)
    mask_paths = sorted((sim / "masks").glob("*.pgm"))

    def masks(blur=0.0, gain=None):
        for path in mask_paths:
            m = io_formats.read_mask(path)
            if blur or gain is not None:
                m = degrade_mask(m, blur_sigma=blur, gain=gain)
            yield m

    def filter_sdr(mask_stream):
        cfg = TrackerConfig(n_particles=1000, motion_noise_sigma=6.0, seed=0)
        res = track_sequence(
            mask_stream, poses, scen.intrinsics, cfg, keep_particles=False
        )
        found = Trajectory2D(
            {
                i: (res.centroids[i][0], res.centroids[i][1])
                for i in range(len(res.centroids))
                if not res.lost[i]
            }
        )
        return sdr(found, gt, 30.0), int(res.lost.sum())

    clean_baseline = sdr(framewise_centroid_baseline(masks()), gt, 30.0)
    clean_filter, clean_lost = filter_sdr(masks())
    assert clean_baseline >= 95.0 and clean_filter >= 95.0, (
        f"clean scores too low to measure drops: baseline {clean_baseline:.1f}, "
        f"filter {clean_filter:.1f}"
    )
    assert clean_lost == 0

    t0 = time.perf_counter()
    lines = []
    for field_seed, blur in ((0, 1.0), (0, 4.0), (0, 8.0), (4, 4.0)):
        gain = make_gain_field(
            scen.width, scen.height, 1.0, 150.0, np.random.default_rng(field_seed)
        )
        degraded_baseline = sdr(
            framewise_centroid_baseline(masks(blur, gain)), gt, 30.0
        )
        degraded_filter, lost = filter_sdr(masks(blur, gain))
        baseline_drop = clean_baseline - degraded_baseline
        filter_drop = clean_filter - degraded_filter
        lines.append(
            f"  field seed {field_seed} blur {blur}: baseline -{baseline_drop:.1f}pp, "
            f"filter -{filter_drop:.1f}pp, lost {lost}"
        )
        assert baseline_drop >= 2.0 * filter_drop, (
            f"field seed {field_seed}, blur {blur}: baseline dropped "
            f"{baseline_drop:.1f}pp but the filter dropped {filter_drop:.1f}pp"
        )
        assert baseline_drop >= 20.0, (
            f"field seed {field_seed}, blur {blur}: degradation too mild "
            f"({baseline_drop:.1f}pp) to be a meaningful stress"
        )
        assert lost == 0, f"filter lost the target on {lost} frames"
    print("degradation robustness:\n" + "\n".join(lines) +
          f"\n  ({time.perf_counter() - t0:.0f}s)")


def test_full_pipeline_reruns_are_byte_identical(tmp_path):
    """Two identical simulate + track runs agree byte for byte.

    Covers every artifact class: simulated soft masks, the trajectory CSV,
    and the rasterized outline masks.
    """
    scen_cfg = write_json(
        tmp_path / "scenario.json",
        small_scenario(
            duration=60,
            seed=11,
            drone={"waypoints": [[-10.0, 0.0], [10.0, 0.0]], "altitude": 60.0,
                   "speed": 2.0},
            swarm={"waypoints": [[-3.0, 0.0], [3.0, 0.0]], "speed": 0.4},
        ),
    )
    run_cfg = write_json(tmp_path / "run.json", small_run_config())

    outputs = []
    for tag in ("a", "b"):
        sim = tmp_path / f"sim_{tag}"
        trk = tmp_path / f"track_{tag}"
        assert invoke_cli("simulate", "--config", scen_cfg, "--out", sim) == 0
        assert invoke_cli(
            "track", "--masks", sim / "masks", "--sensors", sim / "sensors.csv",
            "--config", run_cfg, "--out", trk,
        ) == 0
        outputs.append((sim, trk))

    (sim_a, trk_a), (sim_b, trk_b) = outputs
    compared = 0
    for rel_dir, pattern in (("masks", "*.pgm"), ("shapes", "*.pgm")):
        base = (sim_a if rel_dir == "masks" else trk_a) / rel_dir
        other = (sim_b if rel_dir == "masks" else trk_b) / rel_dir
        names_a = sorted(p.name for p in base.glob(pattern))
        names_b = sorted(p.name for p in other.glob(pattern))
        assert names_a == names_b and names_a, f"{rel_dir} listings differ"
        for name in names_a:
            assert (base / name).read_bytes() == (other / name).read_bytes(), (
                f"{rel_dir}/{name} differs between identical runs"
            )
            compared += 1
    assert (trk_a / "trajectory.csv").read_bytes() == (
        trk_b / "trajectory.csv"
    ).read_bytes(), "trajectory.csv differs between identical runs"
    print(f"determinism: trajectory.csv and {compared} mask files byte-identical")
