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

from conftest import _field_xu, _jac_xu, criterion5_params, param_derivative


def augmented_residual(p: ModelParams, locus: loci.Locus, row: int) -> float:
    u_a, f, x, u = locus.points[row]
    q = p.with_(u_a=float(u_a), f=float(f), u_boil=math.inf)
    fx, fu = model.vector_field(q, (min(max(x, 0.0), 1.0), u))
    tr, det = model.trace_det(q, (x, u))
    test = tr if locus.kind == "hopf" else det
    return max(abs(fx), abs(fu), abs(test))


DET_STOP = "determinant nonpositive (neutral saddle boundary)"


def assert_locus_ends(p: ModelParams, window: Window, hopf: loci.Locus):
    """Each end of an open Hopf locus, bisected to adjacent floats in u: on
    the window boundary, or where det J falls to 0 with the trace still 0
    (det 0 up to the rounding of its terms, about loss (rho + f)/eps)."""
    if hopf.stop_reasons == ("closed",):
        return
    for (u_a, f, x, u), reason in zip(hopf.points[[-1, 0]].tolist(),
                                      hopf.stop_reasons):
        if reason == "window boundary":
            assert min(abs(u_a - b) / b for b in window.u_a) <= 1e-12 or \
                min(abs(f - b) / b for b in window.f) <= 1e-12
            continue
        assert reason == DET_STOP
        q = p.with_(u_a=u_a, f=f)
        tr, det = model.trace_det(q, (x, u))
        assert abs(tr) <= steady.HOPF_TRACE_TOL
        assert abs(det) <= 1e-12 * q.loss * (model.rho(q, u) + f) / q.eps


def assert_hopf_points_at_fixed_parameters(p: ModelParams, hopf: loci.Locus,
                                           k: int):
    """:func:`assert_hopf_at_fixed_parameters` on every k-th locus point
    whose det J is at least 1e-3 of its terms, about loss (rho + f)/eps.
    Nearer a Bogdanov-Takens point the steady state is close to a fold, and
    u_a (1 + 1e-9) may have no steady state near it on one side: on 600
    criterion-5 draws the oracle failed only below 1e-4."""
    checked = 0
    for (u_a, f, x, u), det in zip(hopf.points[::k].tolist(),
                                   hopf.extra[::k].tolist()):
        q = p.with_(f=f)
        if det >= 1e-3 * q.loss * (model.rho(q, u) + f) / q.eps:
            assert_hopf_at_fixed_parameters(q, np.array([x, u, u_a, math.log(f)]))
            checked += 1
    assert checked >= len(hopf) // k // 2


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

    def test_ends_on_the_bogdanov_takens_point(self, mic, mic_loci):
        _, loci_map = mic_loci
        hopf = loci_map["hopf"]
        assert hopf.stop_reasons == ("window boundary", DET_STOP)
        assert_locus_ends(mic.model, mic_loci[0], hopf)
        assert hopf.points[0, 1] == pytest.approx(10.305, rel=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(p=criterion5_params)
    def test_drawn_loci_are_hopf_points(self, p):
        window = loci.default_window(p)
        hopf = continue_hopf_locus(p, window)
        if loci._hopf_seed(p, window) is None:
            assert len(hopf) == 0
            return
        assert np.all(hopf.extra > 0)
        assert all(window.contains(ua, f) for ua, f in hopf.points[:, :2].tolist())
        assert_locus_ends(p, window, hopf)
        assert_hopf_points_at_fixed_parameters(p, hopf, 5)

    def test_first_steps_are_ds0_long(self, mic, mic_loci):
        # Either neighbour of the seed lies LOCUS_DS0 from it in the locus
        # metric: the walk's u-step follows the curve's tangent.
        window, loci_map = mic_loci
        hopf = loci_map["hopf"]
        seed = loci._hopf_seed(mic.model.with_(u_boil=math.inf), window)
        (k,) = np.flatnonzero(hopf.points[:, 3] == seed[1])
        y = np.column_stack([hopf.points[:, 2], hopf.points[:, 3],
                             hopf.points[:, 0], np.log(hopf.points[:, 1])])
        scales = np.array([1.0, max(mic.model.f / mic.model.loss, 1e-4),
                           window.u_a[1] - window.u_a[0], 1.0])
        for j in (k - 1, k + 1):
            d = (y[j] - y[k]) / scales
            assert math.sqrt(d.dot(d)) == pytest.approx(loci.LOCUS_DS0, rel=1e-2)

    def test_template_flow_rate_outside_the_window(self, mic):
        # The seed is sought at the template's flow rate only.
        window = Window(loci.default_window(mic.model).u_a, (5.0, 50.0))
        assert loci._hopf_seed(mic.model, window) is None
        locus = continue_hopf_locus(mic.model, window)
        assert len(locus) == 0 and locus.stop_reasons == ()
        assert locus.empty_reason == ("the seed flow rate f = 1.7 lies outside "
                                      "the window's flow rates 5:50")

    def test_closed_curve_returns_to_its_seed(self):
        # A Hopf isola with det > 0 all round it, inside the default window.
        p = ModelParams(f=150.0, ell=63.1, eps=0.025, u_a=0.3, sigma=math.exp(5.0))
        window = loci.default_window(p)
        hopf = continue_hopf_locus(p, window)
        assert hopf.stop_reasons == ("closed",)
        assert len(hopf) > 10
        assert hopf.points[0].tolist() == hopf.points[-1].tolist()
        assert hopf.points[0, 1] == p.f
        assert np.all(hopf.extra > 0)
        assert all(window.contains(ua, f) for ua, f in hopf.points[:, :2].tolist())
        assert hopf_curve_residual(p, hopf.points[:, 1], hopf.points[:, 3]).max() <= 1e-10
        assert_hopf_points_at_fixed_parameters(p, hopf, 4)

    def test_reverified_by_one_parameter_branches(self, mic, mic_loci):
        # Every 10th locus point must be recovered by a fixed-f branch, unless
        # that branch leaves the range before reaching the point's steady
        # temperature: above the fold threshold it starts on the coldest
        # sheet, which may not carry the Hopf point (ROADMAP defect n).
        _, loci_map = mic_loci
        hopf = loci_map["hopf"]
        stride = max(10, len(hopf) // 8)
        checked = 0
        for row in range(0, len(hopf), stride):
            u_a, f, x, u = hopf.points[row]
            lo, hi = float(u_a) - 3e-4, float(u_a) + 3e-4
            q = mic.model.with_(f=float(f), u_a=lo, u_boil=math.inf)
            br = steady.continue_branch(q, "u_a", (lo, hi), ds0=5e-4)
            if branch_skips(br, u):
                continue
            hits = [sp.param_value for sp in br.specials if sp.kind == "hopf"]
            assert hits, f"no Hopf recovered at f={f}"
            assert min(abs(h - u_a) for h in hits) < 1e-5
            checked += 1
        assert checked >= 5

    def test_reaction_off_empty(self):
        p = ModelParams(f=1.7, ell=700.0, eps=10.0, u_a=0.0379, sigma=0.0)
        assert loci._hopf_seed(p, loci.default_window(p)) is None
        locus = continue_hopf_locus(p, loci.default_window(p))
        assert len(locus) == 0
        assert locus.empty_reason == "no Hopf point found at the seed flow rate"
        assert locus.points.shape == (0, 4) and locus.stop_reasons == ()


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
        assert classify_point(u_a, f, loci_map) == ref_classify(u_a, f, loci_map)

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


def augmented_reference(p: ModelParams, y: np.ndarray):
    """Residual and Jacobian of the fold locus system on conftest's array
    kernels."""
    q = p.with_(u_a=float(y[2]), f=float(math.exp(y[3])))
    x, u = float(y[0]), float(y[1])
    _, det, g = loci._test_functions(q, x, u)
    res = np.array([*_field_xu(q, x, u), det])
    J = np.zeros((3, 4))
    J[:2, :2] = _jac_xu(q, x, u)
    J[:2, 2] = param_derivative(q, x, u, "u_a")
    J[:2, 3] = q.f * param_derivative(q, x, u, "f")
    J[2, :3] = g[:3]
    J[2, 3] = q.f * g[3]
    return res, J


locus_states = st.tuples(st.floats(0.0, 1.0), st.floats(0.02, 0.2),
                         st.floats(0.025, 0.055), st.floats(-2.0, 5.0))


class TestLocusSystems:
    @settings(max_examples=200, deadline=None)
    @given(y=locus_states)
    def test_augmented_problem_equals_array_kernels(self, mic, y):
        p = mic.model.with_(u_boil=math.inf)
        y = np.array(y)
        prob = loci._augmented_problem(p, np.ones(4))
        res, J = augmented_reference(p, y)
        assert np.array_equal(prob.residual(y), res)
        assert np.array_equal(prob.jacobian(y), J)

    def test_one_parameter_set_per_point(self, mic, monkeypatch):
        p = mic.model.with_(u_boil=math.inf)
        prob = loci._augmented_problem(p, np.ones(4))
        built = []
        with_ = ModelParams.with_
        monkeypatch.setattr(ModelParams, "with_",
                            lambda q, **kw: built.append(kw) or with_(q, **kw))
        y1 = np.array([0.5, 0.04, 0.038, 0.5])
        y2 = np.array([0.5, 0.04, 0.039, 0.5])
        for y in (y1, y2, y1):
            prob.residual(y)
            prob.jacobian(y)
        assert len(built) == 2

    @settings(max_examples=300, deadline=None)
    @given(y=locus_states)
    def test_gradients_match_central_differences(self, mic, y):
        # Gradient of the determinant w.r.t. (x, u, u_a, f); the floor
        # bounds the rounding of the differenced value, whose largest term
        # is about loss * rho/u^2.
        x, u, u_a, ln_f = y

        def fn(p, x, u):
            return loci._test_functions(p, x, u)[1:]

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


@pytest.fixture(scope="module",
                params=["mic-tank610", "cumene-hydroperoxide"])
def preset_loci(request):
    p = model.preset(request.param).model.with_(u_boil=math.inf)
    window = loci.default_window(p)
    return (p, window, continue_hopf_locus(p, window=window),
            continue_fold_locus(p, window=window))


def hopf_curve_residual(p: ModelParams, f, u) -> np.ndarray:
    """tr J = 0 with x = f/(f + r): 2 eps f^2 + (3 eps r + ell - r') f
    + r (eps r + ell) = 0, with r = sigma e^(-1/u) and r' = r/u^2; the
    residual relative to the largest term."""
    r = p.sigma * np.exp(-1.0 / u)
    rp = r / u**2
    terms = np.array([2 * p.eps * f**2, 3 * p.eps * r * f, p.ell * f,
                      -rp * f, p.eps * r**2, p.ell * r])
    return np.abs(terms.sum(axis=0)) / np.abs(terms).max(axis=0)


class TestClosedFormLoci:
    """Every locus point on the explicit curves u -> (u_a, f) of the trace
    and determinant conditions, with the concentration eliminated."""

    def test_hopf_points_on_the_quadratic(self, preset_loci):
        p, _, hopf, _ = preset_loci
        _, f, _, u = hopf.points.T
        assert len(hopf) > 10
        assert hopf_curve_residual(p, f, u).max() <= 1e-10

    def test_fold_points_on_the_cubic(self, preset_loci):
        # det J = 0: (eps f + ell)(f + r)^2 = f^2 r'.
        p, _, _, fold = preset_loci
        _, f, _, u = fold.points.T
        assert len(fold) > 10
        r = p.sigma * np.exp(-1.0 / u)
        lhs, rhs = (p.eps * f + p.ell) * (f + r) ** 2, f**2 * r / u**2
        assert (np.abs(lhs - rhs) / np.maximum(lhs, rhs)).max() <= 1e-10

    def test_ambient_from_the_heat_balance(self, preset_loci):
        p, _, hopf, fold = preset_loci
        for locus in (hopf, fold):
            u_a, f, x, u = locus.points.T
            r = p.sigma * np.exp(-1.0 / u)
            want = u - x * r / (p.eps * f + p.ell)
            assert np.all(np.abs(want - u_a) <= 1e-12 * np.abs(u_a))

    def test_hopf_points_at_fixed_parameters(self, preset_loci):
        p, window, hopf, _ = preset_loci
        assert all(window.contains(ua, f) for ua, f in hopf.points[:, :2].tolist())
        assert_hopf_points_at_fixed_parameters(p, hopf, 6)

    def test_hopf_seed_on_the_quadratic(self, preset_loci):
        p, window, _, _ = preset_loci
        x, u, u_a, ln_f = loci._hopf_seed(p, window)
        assert ln_f == math.log(p.f)
        assert hopf_curve_residual(p, p.f, u) <= 1e-10
        r = p.sigma * math.exp(-1.0 / u)
        want = u - x * r / (p.eps * p.f + p.ell)
        assert abs(want - u_a) <= 1e-12 * u_a


def branch_skips(br: steady.Branch, u: float) -> bool:
    """Whether ``continue_branch`` cannot report a Hopf point at temperature
    ``u``: the branch left the window before reaching u (ROADMAP defect n)."""
    return u > br.points[-1].state.u


def first_hopf(br: steady.Branch) -> np.ndarray | None:
    hopfs = [sp for sp in br.specials if sp.kind == "hopf"]
    return None if not hopfs else np.array(
        [hopfs[0].state.x, hopfs[0].state.u, hopfs[0].param_value])


def assert_hopf_at_fixed_parameters(p: ModelParams, seed: np.ndarray):
    """The oracle for a seed (x, u, u_a, ln f): ``solve_steady`` at its
    parameters returns it, with trace 0 and det > 0, and from it on either
    side of its u_a (1e-9 relative) finds traces of opposite sign."""
    x, u, u_a, _ = seed.tolist()
    at = steady.solve_steady(p.with_(u_a=u_a), (x, u))
    assert abs(at.state.u - u) <= 1e-10 * u and abs(at.state.x - x) <= 1e-10
    assert abs(at.trace) <= 1e-8 and at.det > 0
    below, above = (steady.solve_steady(p.with_(u_a=u_a * (1 + s * 1e-9)), (x, u))
                    for s in (-1, 1))
    assert below.trace * above.trace < 0


# A criterion-5 draw whose branch has a genuine Hopf point and a fold within
# one step, with det <= 0 at the step's far end.
NEAR_FOLD = ModelParams(f=3.322754007011098, ell=245.87715554279507,
                        eps=14.533754817674131, u_a=0.04701061398379815,
                        sigma=61126489600.717186)


class TestHopfSeed:
    """The closed-form seed against ``solve_steady`` and the trace's sign at
    fixed parameters, and against ``continue_branch``'s first Hopf point,
    which walks the same explicit curve but samples it differently."""

    @pytest.mark.parametrize("name", model.PRESET_NAMES)
    def test_matches_first_branch_hopf_on_presets(self, name):
        p = model.preset(name).model.with_(u_boil=math.inf)
        window = loci.default_window(p)
        seed = loci._hopf_seed(p, window)
        assert_hopf_at_fixed_parameters(p, seed)
        ref = first_hopf(steady.continue_branch(p, "u_a", window.u_a))
        assert np.all(np.abs(seed[:3] - ref) <= 1e-10 * np.abs(ref))

    @settings(max_examples=150, deadline=None)
    @given(p=criterion5_params)
    def test_matches_first_branch_hopf(self, p):
        window = loci.default_window(p)
        seed = loci._hopf_seed(p, window)
        br = steady.continue_branch(p, "u_a", window.u_a)
        ref = first_hopf(br)
        if seed is None:
            assert ref is None
            return
        assert_hopf_at_fixed_parameters(p, seed)
        if branch_skips(br, seed[1]):
            assert ref is None or ref[1] > seed[1]
        else:
            assert ref is not None
            assert np.all(np.abs(seed[:3] - ref) <= 1e-10 * np.abs(ref))

    def test_near_fold_hopf_found(self):
        window = loci.default_window(NEAR_FOLD)
        seed = loci._hopf_seed(NEAR_FOLD, window)
        assert_hopf_at_fixed_parameters(NEAR_FOLD, seed)
        assert seed[1] == pytest.approx(0.03960705, rel=1e-6)
        br = steady.continue_branch(NEAR_FOLD, "u_a", window.u_a)
        hopf, fold = br.specials[:2]
        assert (hopf.kind, fold.kind) == ("hopf", "fold")
        assert hopf.after_index == fold.after_index
        assert hopf.state.u == pytest.approx(0.03960705, rel=1e-6)
        assert hopf.det == pytest.approx(0.166, rel=1e-2)
        assert fold.state.u == pytest.approx(0.03961256, rel=1e-6)

    def test_branch_reports_near_fold_hopf(self):
        window = loci.default_window(NEAR_FOLD)
        seed = loci._hopf_seed(NEAR_FOLD, window)
        ref = first_hopf(steady.continue_branch(NEAR_FOLD, "u_a", window.u_a))
        assert np.all(np.abs(seed[:3] - ref) <= 1e-10 * np.abs(ref))


def steady_state_label(p: ModelParams, u_a: float, f: float) -> str:
    """The regime at (u_a, f) from ``reduced_scan``'s steady states: three
    are bistable, and a single one is unique-stable or oscillatory by its
    stability."""
    q = p.with_(u_a=u_a, f=f, u_boil=math.inf)
    states = steady.reduced_scan(q, u_a, u_a + q.f / q.loss * (1 + 1e-9))
    if len(states) == 3:
        return loci.BISTABLE
    (state,) = states
    return loci.UNIQUE_STABLE if state.stability == steady.STABLE \
        else loci.OSCILLATORY


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

    def test_row_below_the_bogdanov_takens_point(self, mic, mic_loci):
        # Row f = 10.138 of the CLI's default 50x50 grid passes just below
        # the Bogdanov-Takens point (f 10.305), where one Hopf arm meets the
        # other's neutral-saddle continuation: a locus cut short of it
        # leaves the row between the arms.
        window, loci_map = mic_loci
        rows = loci.region_map(loci_map, window, 50, 50)
        row = [(ua, f, label) for ua, f, label in rows if abs(f - 10.138) < 1e-3]
        assert len(row) == 50
        for ua, f, label in row:
            assert label == steady_state_label(mic.model, ua, f), ua
        assert [label for *_, label in row].count(loci.UNIQUE_STABLE) >= 33

    @pytest.mark.xfail(strict=True, reason="between the Bogdanov-Takens point "
                       "and the Hopf locus's exit from the window, ray parity "
                       "against the open Hopf arc mislabels a row (ROADMAP "
                       "defect o)")
    def test_rows_above_the_bogdanov_takens_point(self, mic, mic_loci):
        window, loci_map = mic_loci
        for n, f_row in ((40, 12.65), (50, 14.76)):
            for ua, f, label in loci.region_map(loci_map, window, n, n):
                if abs(f - f_row) < 1e-2 and label != loci.BOUNDARY:
                    assert label == steady_state_label(mic.model, ua, f), (n, ua, f)


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
