from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermorun import loci, model, simulate, steady
from thermorun.errors import DomainError
from thermorun.loci import Window, classify_point, continue_fold_locus, \
    continue_hopf_locus
from thermorun.model import ModelParams


def augmented_residual(p: ModelParams, locus: loci.Locus, row: int) -> float:
    u_a, f, x, u = locus.points[row]
    q = p.with_(u_a=float(u_a), f=float(f), u_boil=math.inf)
    fx, fu = model.vector_field(q, (min(max(x, 0.0), 1.0), u))
    tr, det = model.trace_det(q, (x, u))
    test = tr if locus.kind == "hopf" else det
    return max(abs(fx), abs(fu), abs(test))


class TestHopfLocus:
    def test_passes_through_reference_point(self, mic, mic_loci):
        ts = mic.temp_scale
        _, loci_map = mic_loci
        hopf = loci_map["hopf"]
        assert len(hopf) > 10
        target = 290.15 / ts
        near_f = hopf.points[np.abs(hopf.points[:, 1] - 1.7) < 1e-3]
        assert len(near_f)
        assert np.min(np.abs(near_f[:, 0] - target)) < 1e-3

    def test_augmented_residuals(self, mic, mic_loci):
        _, loci_map = mic_loci
        hopf = loci_map["hopf"]
        for row in range(0, len(hopf), max(1, len(hopf) // 40)):
            assert augmented_residual(mic.model, hopf, row) < 1e-10

    def test_points_are_genuine_hopfs(self, mic_loci):
        _, loci_map = mic_loci
        assert np.all(loci_map["hopf"].extra > 0)  # determinant positive

    def test_reverified_by_one_parameter_branches(self, mic, mic_loci):
        # Every 10th locus point must be recovered by a fixed-f branch.
        # The branch is seeded from the locus state so that, where several
        # steady sheets coexist (above the fold threshold), the sweep runs
        # along the sheet carrying the Hopf point.
        _, loci_map = mic_loci
        hopf = loci_map["hopf"]
        stride = max(10, len(hopf) // 8)
        checked = 0
        for row in range(0, len(hopf), stride):
            u_a, f, x, u = hopf.points[row]
            lo, hi = float(u_a) - 3e-4, float(u_a) + 3e-4
            q = mic.model.with_(f=float(f), u_a=lo, u_boil=math.inf)
            start = steady.solve_steady(q, (float(x), float(u)))
            br = steady.continue_branch(q, "u_a", (lo, hi), ds0=5e-4,
                                        start=start)
            hits = [sp.param_value for sp in br.specials if sp.kind == "hopf"]
            assert hits, f"no Hopf recovered at f={f}"
            assert min(abs(h - u_a) for h in hits) < 1e-5
            checked += 1
        assert checked >= 5

    def test_reaction_off_empty(self):
        p = ModelParams(f=1.7, ell=700.0, eps=10.0, u_a=0.0379, sigma=0.0)
        locus = continue_hopf_locus(p)
        assert len(locus) == 0
        assert locus.empty_reason


class TestFoldLocus:
    def test_threshold_reported_and_consistent(self, mic, mic_loci):
        window, loci_map = mic_loci
        fold = loci_map["fold"]
        f_star = fold.f_threshold
        assert f_star is not None and f_star > 1.7
        assert not loci._fold_roots_at_f(mic.model, f_star * 0.9, window)
        assert loci._fold_roots_at_f(mic.model, f_star * 1.1, window)
        assert len(fold) > 5
        assert fold.points[:, 1].min() == pytest.approx(f_star, rel=1e-2)

    def test_no_fold_at_reference_flow(self, mic, mic_loci):
        # At f = 1.7 the operating window is bounded by Hopf points alone.
        window, _ = mic_loci
        assert loci._fold_roots_at_f(mic.model, 1.7, window) == []

    def test_augmented_residuals(self, mic, mic_loci):
        _, loci_map = mic_loci
        fold = loci_map["fold"]
        for row in range(0, len(fold), max(1, len(fold) // 40)):
            assert augmented_residual(mic.model, fold, row) < 1e-10

    def test_fold_condition_is_reduced_balance_slope(self, mic):
        p = mic.model.with_(f=10.0)
        u = np.linspace(0.9 * p.u_a, 1.6 * p.u_a, 9)
        h = 1e-7 * u
        slope = (model.reduced_balance(p, u + h)
                 - model.reduced_balance(p, u - h)) / (2 * h)
        vals = loci._fold_condition(p, u)
        assert vals.shape == u.shape
        assert np.allclose(vals, slope, rtol=0.0, atol=1e-5 * p.loss)
        with pytest.raises(DomainError):
            loci._fold_condition(p, np.array([p.u_a, 0.0]))

    def test_reaction_off_empty(self):
        p = ModelParams(f=1.7, ell=700.0, eps=10.0, u_a=0.0379, sigma=0.0)
        locus = continue_fold_locus(
            p, window=Window((0.03, 0.05), (0.1, 100.0)))
        assert len(locus) == 0
        assert locus.empty_reason
        assert locus.f_threshold is None


def ref_ray_crossings(locus: loci.Locus, u_a: float, f: float) -> int:
    """Crossings of the ray from (u_a, f) towards lower u_a, per segment."""
    if len(locus) < 2:
        return 0
    pts = locus.points
    count = 0
    for k in range(len(pts) - 1):
        a1, b1 = pts[k, 0], pts[k, 1]
        a2, b2 = pts[k + 1, 0], pts[k + 1, 1]
        if (b1 <= f < b2) or (b2 <= f < b1):
            a_cross = a1 + (f - b1) / (b2 - b1) * (a2 - a1)
            if a_cross < u_a:
                count += 1
    return count


def ref_distance_to(locus: loci.Locus, u_a: float, f: float) -> float:
    if len(locus) < 2:
        return math.inf
    pts = locus.points[:, :2].copy()
    scale = np.array([1.0, max(1.0, abs(f))])
    q = np.array([u_a, f]) / scale
    segs_a = pts[:-1] / scale
    segs_b = pts[1:] / scale
    d = segs_b - segs_a
    denom = np.einsum("ij,ij->i", d, d)
    t = np.clip(np.einsum("ij,ij->i", q - segs_a, d) / np.where(denom > 0, denom, 1.0),
                0.0, 1.0)
    proj = segs_a + t[:, None] * d
    return float(np.min(np.linalg.norm(proj - q, axis=1)))


def ref_classify(u_a: float, f: float, loci_map: dict) -> str:
    """The per-point classifier: one Python pass over the segments each."""
    hopf = loci_map.get("hopf")
    fold = loci_map.get("fold")
    for locus in (hopf, fold):
        if locus is not None and ref_distance_to(locus, u_a, f) < loci.BOUNDARY_TOL:
            return loci.BOUNDARY
    if fold is not None and ref_ray_crossings(fold, u_a, f) % 2 == 1:
        return loci.BISTABLE
    if hopf is not None and ref_ray_crossings(hopf, u_a, f) % 2 == 1:
        return loci.OSCILLATORY
    return loci.UNIQUE_STABLE


def assert_row_matches_reference(uas, f: float, loci_map: dict) -> list[str]:
    uas = np.asarray(uas, dtype=float)
    labels = loci._label_row(uas, f, loci_map)
    assert labels == [ref_classify(ua, f, loci_map) for ua in uas.tolist()]
    return labels


class TestRegionMapOracle:
    def test_grid_40x40(self, mic_loci):
        window, loci_map = mic_loci
        rows = loci.region_map(loci_map, window, n_ua=40, n_f=40)
        uas = np.linspace(window.u_a[0], window.u_a[1], 40)
        fs = np.geomspace(window.f[0], window.f[1], 40)
        assert [(ua, f) for ua, f, _ in rows] == [
            (float(ua), float(f)) for f in fs for ua in uas]
        labels = [label for _, _, label in rows]
        assert labels == [ref_classify(ua, f, loci_map) for ua, f, _ in rows]
        assert {loci.OSCILLATORY, loci.BISTABLE, loci.UNIQUE_STABLE} <= set(labels)

    @settings(max_examples=300, deadline=None)
    @given(s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
    def test_drawn_points(self, mic_loci, s, t):
        window, loci_map = mic_loci
        u_a = window.u_a[0] + s * (window.u_a[1] - window.u_a[0])
        f = min(window.f[0] * (window.f[1] / window.f[0]) ** t, window.f[1])
        assert classify_point(u_a, f, loci_map, window) == \
            ref_classify(u_a, f, loci_map)

    def test_vertices_and_vertex_flow_rates(self, mic_loci):
        # On a vertex the label is boundary; along the row through it, the
        # half-open f-span decides which of the two segments meeting there
        # the ray crosses.
        window, loci_map = mic_loci
        spread = np.linspace(window.u_a[0], window.u_a[1], 7)
        for kind in ("hopf", "fold"):
            for ua, f in loci_map[kind].points[:, :2].tolist():
                assert classify_point(ua, f, loci_map) == loci.BOUNDARY
                row = np.concatenate([spread, ua + np.array([-1e-6, -1e-9, 0.0,
                                                             1e-9, 1e-6])])
                assert_row_matches_reference(row, f, loci_map)

    def test_points_near_segments(self, mic_loci):
        # Offsets in u_a of a fraction and a multiple of BOUNDARY_TOL from
        # points along each segment: both sides of the boundary test.
        _, loci_map = mic_loci
        offsets = loci.BOUNDARY_TOL * np.array([-2.0, -1.0, -0.5, 0.0, 0.5,
                                                0.99, 1.01, 2.0])
        labels = set()
        for kind in ("hopf", "fold"):
            pts = loci_map[kind].points
            for k in range(0, len(pts) - 1, 2):
                for w in (0.25, 0.5):
                    ua = pts[k, 0] + w * (pts[k + 1, 0] - pts[k, 0])
                    f = float(pts[k, 1] + w * (pts[k + 1, 1] - pts[k, 1]))
                    labels.update(assert_row_matches_reference(ua + offsets, f,
                                                               loci_map))
        assert loci.BOUNDARY in labels and len(labels) > 1

    def test_missing_and_short_loci(self, mic_loci):
        window, loci_map = mic_loci
        short = loci.Locus("fold", loci_map["fold"].points[:1], np.ones(1))
        uas = np.linspace(window.u_a[0], window.u_a[1], 9)
        for variant in ({"hopf": loci_map["hopf"]}, {"fold": loci_map["fold"]},
                        {"hopf": loci_map["hopf"], "fold": short}, {}):
            for f in (0.5, 1.7, 30.0):
                assert_row_matches_reference(uas, f, variant)


def augmented_reference(p: ModelParams, test: str, y: np.ndarray):
    """Residual and Jacobian of a locus system on the array kernels."""
    grad_fn = loci._trace_grad if test == "trace" else loci._det_grad
    q = p.with_(u_a=float(y[2]), f=float(math.exp(y[3])))
    x, u = float(y[0]), float(y[1])
    t, g = grad_fn(q, x, u)
    res = np.array([*model._field_xu(q, x, u), t])
    J = np.zeros((3, 4))
    J[:2, :2] = model._jac_xu(q, x, u)
    J[:2, 2] = model.param_derivative(q, x, u, "u_a")
    J[:2, 3] = q.f * model.param_derivative(q, x, u, "f")
    J[2, :3] = g[:3]
    J[2, 3] = q.f * g[3]
    return res, J


locus_states = st.tuples(st.floats(0.0, 1.0), st.floats(0.02, 0.2),
                         st.floats(0.025, 0.055), st.floats(-2.0, 5.0))


class TestLocusSystems:
    @settings(max_examples=200, deadline=None)
    @given(y=locus_states, test=st.sampled_from(("trace", "det")))
    def test_augmented_problem_equals_array_kernels(self, mic, y, test):
        p = mic.model.with_(u_boil=math.inf)
        y = np.array(y)
        prob = loci._augmented_problem(p, test, np.ones(4))
        res, J = augmented_reference(p, test, y)
        assert np.array_equal(prob.residual(y), res)
        assert np.array_equal(prob.jacobian(y), J)

    @settings(max_examples=300, deadline=None)
    @given(y=locus_states, grad=st.sampled_from(("_trace_grad", "_det_grad")))
    def test_gradients_match_central_differences(self, mic, y, grad):
        # Gradient w.r.t. (x, u, u_a, f); the floor bounds the rounding of
        # the differenced value, whose largest term is about loss * rho/u^2.
        x, u, u_a, ln_f = y
        fn = getattr(loci, grad)
        p = mic.model.with_(u_a=u_a, f=math.exp(ln_f), u_boil=math.inf)
        _, g = fn(p, x, u)
        r = p.sigma * math.exp(-1.0 / u)
        scale = (1.0 + r + p.f + p.loss) * (1.0 + r / u ** 2 + p.loss)
        z = [x, u, u_a, p.f]
        for j in range(4):
            h = 1e-6 * max(abs(z[j]), 1e-3)

            def value(w, j=j):
                zz = list(z)
                zz[j] = w
                return fn(p.with_(u_a=zz[2], f=zz[3]), zz[0], zz[1])[0]

            fd = (value(z[j] + h) - value(z[j] - h)) / ((z[j] + h) - (z[j] - h))
            assert abs(fd - g[j]) <= 1e-6 * abs(g[j]) + 1e-14 * scale / h


class TestClassification:
    def test_oscillatory_between_hopf_arms(self, mic, mic_loci):
        _, loci_map = mic_loci
        hopf = loci_map["hopf"]
        at_f = hopf.points[np.abs(hopf.points[:, 1] - 1.7) < 2e-2]
        lo, hi = at_f[:, 0].min(), at_f[:, 0].max()
        assert hi > lo
        mid = 0.5 * (lo + hi)
        assert classify_point(float(mid), 1.7, loci_map) == loci.OSCILLATORY

    def test_bistable_inside_fold_wedge(self, mic, mic_loci):
        window, loci_map = mic_loci
        f_star = loci_map["fold"].f_threshold
        f_test = f_star * 3.0
        roots = loci._fold_roots_at_f(mic.model, f_test, window)
        assert len(roots) >= 2
        ua_mid = 0.5 * (roots[0][2] + roots[1][2])
        assert classify_point(float(ua_mid), f_test, loci_map) == loci.BISTABLE

    def test_unique_stable_confirmed_by_simulation(self, mic, mic_loci, rng):
        window, loci_map = mic_loci
        ua = window.u_a[0] * 1.01
        assert classify_point(ua, 1.7, loci_map) == loci.UNIQUE_STABLE
        p = mic.model.with_(u_a=ua, u_boil=math.inf)
        finals = []
        for _ in range(10):
            s0 = (float(rng.uniform(0, 1)), float(rng.uniform(ua, 0.06)))
            rep = simulate.settle(p, s0, horizon=150.0)
            assert rep.kind == "steady"
            finals.append((rep.terminal_state.x, rep.terminal_state.u))
        finals = np.array(finals)
        assert np.max(np.ptp(finals, axis=0)) < 1e-7

    def test_boundary_label_on_locus(self, mic_loci):
        _, loci_map = mic_loci
        pt = loci_map["hopf"].points[len(loci_map["hopf"]) // 2]
        assert classify_point(float(pt[0]), float(pt[1]),
                              loci_map) == loci.BOUNDARY

    @pytest.mark.xfail(strict=True, reason="above f ~ 17 the fold locus's left "
                       "arm has left the window and its right arm stops at "
                       "f = 267, so ray parity flips the labels")
    @pytest.mark.parametrize("f", [50.0, 300.0, 1000.0])
    def test_bistable_exactly_where_three_steady_states(self, mic, mic_loci, f):
        window, loci_map = mic_loci
        for ua in np.linspace(window.u_a[0], window.u_a[1], 12).tolist():
            q = mic.model.with_(f=f, u_a=ua, u_boil=math.inf)
            n = len(steady.reduced_scan(q, ua, ua + q.f / q.loss * (1 + 1e-9)))
            label = classify_point(ua, f, loci_map)
            assert (n == 3) == (label == loci.BISTABLE), (ua, n, label)

    def test_outside_window_rejected(self, mic_loci):
        window, loci_map = mic_loci
        from thermorun.errors import ValidationError
        with pytest.raises(ValidationError):
            classify_point(window.u_a[0] - 1.0, 1.7, loci_map, window=window)


class TestCumenePlaceholder:
    def test_pipeline_produces_oscillatory_region(self):
        pre = model.preset("cumene-hydroperoxide")
        p = pre.model
        window = loci.default_window(p)
        hopf = continue_hopf_locus(p, window=window)
        assert len(hopf) > 10
        loci_map = {"hopf": hopf,
                    "fold": continue_fold_locus(p, window=window)}
        at_f = hopf.points[np.abs(hopf.points[:, 1] - p.f) < 0.05]
        assert len(at_f) >= 2
        mid = 0.5 * (at_f[:, 0].min() + at_f[:, 0].max())
        assert classify_point(float(mid), p.f, loci_map) == loci.OSCILLATORY
