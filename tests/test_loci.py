from __future__ import annotations

import math

import numpy as np
import pytest

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
