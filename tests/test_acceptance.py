"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line with its wall time; the expensive
artifacts (calibrated preset, reference branch, cycle branch, loci) come
from session fixtures and are shared with the rest of the suite.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from thermorun import cli, cycles, loci, model, simulate, steady
from thermorun.model import ModelParams, R_GAS


@contextmanager
def criterion(name: str):
    t0 = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        status = "FAIL" if failed else "PASS"
        print(f"\nACCEPTANCE {name}: {status} ({time.perf_counter() - t0:.1f} s)")


def test_criterion_1_scaling_fidelity():
    with criterion("1 scaling fidelity"):
        E = 64000.0
        assert R_GAS * 292.0 / E == pytest.approx(0.0379, abs=1e-4)
        assert R_GAS * 312.0 / E == pytest.approx(0.04053, abs=3e-4)


def test_criterion_2_rate_diagram_crossing(mic):
    with criterion("2 rate-diagram crossing"):
        p, ts = mic.model, mic.temp_scale
        d = model.rate_diagram(p, 295.0 / ts, 320.0 / ts, 20001)
        crossings = model.rate_crossings(d)
        assert len(crossings) == 1
        assert 300.0 <= crossings[0] * ts <= 308.0


def test_criterion_3_steady_branch_structure(mic, mic_branch):
    with criterion("3 steady branch / Hopf"):
        ts = mic.temp_scale
        hopfs = [sp for sp in mic_branch.specials if sp.kind == "hopf"]
        assert hopfs
        h1 = min(hopfs, key=lambda sp: sp.param_value)
        assert 288.5 <= h1.param_value * ts <= 291.5
        assert h1.criticality == "subcritical"
        below = [pt for pt in mic_branch.points
                 if pt.param_value < h1.param_value - 1e-6]
        assert below and all(pt.stability == steady.STABLE for pt in below)


def test_criterion_4_cycle_branch_structure(mic, mic_h1, mic_cycle_branch):
    with criterion("4 cycle branch / bistability"):
        cb = mic_cycle_branch
        head = cb.orbits[:5]
        assert all(o.stability == "unstable" for o in head)
        assert all(o.param_value < mic_h1.param_value for o in head)
        assert cb.cycle_folds, "cycle fold expected"
        fold = cb.cycle_folds[0]
        stable = [o for o in cb.orbits if o.stability == "stable"]
        assert stable and max(o.amplitude for o in stable) > 0.01

        target = 0.5 * (fold + mic_h1.param_value)
        p = mic.model.with_(u_a=target, u_boil=math.inf)
        pt = steady.solve_steady(p, (mic_h1.state.x, mic_h1.state.u))
        amp = min((o for o in cb.orbits if o.stability == "unstable"),
                  key=lambda o: abs(o.param_value - target)).amplitude
        inside = simulate.settle(p, (pt.state.x, pt.state.u + 0.2 * amp),
                                 horizon=400.0)
        outside = simulate.settle(p, (pt.state.x, pt.state.u + 3.0 * amp),
                                  horizon=130.0)
        assert inside.kind == "steady" and outside.kind == "cycle"


def test_criterion_5_oracle_equivalence(rng):
    with criterion("5 oracle equivalence"):
        # Continuation steady states against the reduced-balance bisection
        # oracle on 50 random parameter sets.
        checked = 0
        for _ in range(50):
            p = ModelParams(f=float(rng.uniform(0.3, 4.0)),
                            ell=float(rng.uniform(50.0, 1500.0)),
                            eps=float(rng.uniform(2.0, 25.0)),
                            u_a=float(rng.uniform(0.025, 0.055)),
                            sigma=float(np.exp(rng.uniform(20.0, 32.0))))
            width = p.f / p.loss
            prange = (p.u_a - 0.05 * width, p.u_a + 0.05 * width)
            br = steady.continue_branch(p, "u_a", prange, ds0=1e-3)
            target = p.u_a
            on_slice = []
            for i in range(len(br.points) - 1):
                a, b = br.points[i], br.points[i + 1]
                if (a.param_value - target) * (b.param_value - target) <= 0:
                    w = abs(a.param_value - target) / max(
                        abs(b.param_value - a.param_value), 1e-300)
                    on_slice.append(a.state.u + w * (b.state.u - a.state.u))
            roots = [r.state.u for r in steady.reduced_scan(
                p, p.u_a, p.u_a + width * (1 + 1e-9), n=10000)]
            assert roots
            for u in on_slice:
                assert min(abs(u - r) for r in roots) < 1e-6
            checked += 1
        assert checked == 50

        # Jacobian against central finite differences on 1000 samples.
        worst = 0.0
        for _ in range(1000):
            p = ModelParams(f=float(rng.uniform(0.1, 5)),
                            ell=float(rng.uniform(1, 1000)),
                            eps=float(rng.uniform(1, 30)),
                            u_a=float(rng.uniform(0.02, 0.06)),
                            sigma=float(np.exp(rng.uniform(0, 30))))
            s = (float(rng.uniform(0, 1)), float(rng.uniform(0.02, 0.2)))
            J = model.jacobian(p, s)
            fd = np.empty((2, 2))
            for j in range(2):
                sp_, sm = list(s), list(s)
                sp_[j] += 1e-6
                sm[j] -= 1e-6
                fd[:, j] = (np.array(model.vector_field(p, sp_))
                            - np.array(model.vector_field(p, sm))) / 2e-6
            worst = max(worst, float(np.max(np.abs(J - fd))
                                     / max(1.0, np.max(np.abs(J)))))
        assert worst < 1e-6


def test_criterion_6_periodic_orbit_numerics(mic, mic_h1, mic_cycle_branch):
    with criterion("6 periodic-orbit numerics"):
        for o in mic_cycle_branch.orbits:
            assert abs(o.multipliers[0] - 1.0) < 1e-4
            assert o.liouville_defect < 1e-6
        deltas = np.geomspace(1e-8, 1e-6, 7)
        amps = []
        for d in deltas:
            p_off, seed = cycles.hopf_germ(mic.model, mic_h1, float(d))
            amps.append(cycles.find_cycle(p_off, seed, m=12).amplitude)
        slope = float(np.polyfit(np.log(deltas), np.log(amps), 1)[0])
        assert abs(slope - 0.5) <= 0.05


def test_criterion_7_two_parameter_structure(mic, mic_loci):
    with criterion("7 two-parameter loci"):
        ts = mic.temp_scale
        window, loci_map = mic_loci
        hopf, fold = loci_map["hopf"], loci_map["fold"]
        target = 290.15 / ts
        near_f = hopf.points[np.abs(hopf.points[:, 1] - 1.7) < 1e-3]
        assert len(near_f)
        assert np.min(np.abs(near_f[:, 0] - target)) < 1e-3

        f_star = fold.f_threshold
        assert f_star is not None
        assert not loci._fold_roots_at_f(mic.model, f_star * 0.9, window)
        assert loci._fold_roots_at_f(mic.model, f_star * 1.1, window)

        at_f = hopf.points[np.abs(hopf.points[:, 1] - 1.7) < 2e-2]
        mid = 0.5 * (at_f[:, 0].min() + at_f[:, 0].max())
        assert loci.classify_point(float(mid), 1.7, loci_map) == loci.OSCILLATORY


def test_criterion_8_placeholder_chemistry_pipeline():
    with criterion("8 placeholder chemistry pipeline"):
        pre = model.preset("cumene-hydroperoxide")
        p = pre.model
        assert p.eps == pytest.approx(20.0) and p.ell == pytest.approx(700.0)
        window = loci.default_window(p)
        hopf = loci.continue_hopf_locus(p, window=window)
        fold = loci.continue_fold_locus(p, window=window)
        assert len(hopf) > 10
        loci_map = {"hopf": hopf, "fold": fold}
        at_f = hopf.points[np.abs(hopf.points[:, 1] - p.f) < 0.05]
        mid = 0.5 * (at_f[:, 0].min() + at_f[:, 0].max())
        assert loci.classify_point(float(mid), p.f, loci_map) == loci.OSCILLATORY


def test_criterion_9_determinism(mic, tmp_path):
    with criterion("9 determinism"):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["rates", "--preset", "mic-tank610",
                             "-o", str(out)]) == 0
            assert cli.main(["steady-branch", "--preset", "mic-tank610",
                             "--Ta", "288:292", "-o", str(out)]) == 0
            assert cli.main(["cycle-branch", "--preset", "mic-tank610",
                             "--Ta", "282:296", "--max-orbits", "6",
                             "-o", str(out)]) == 0
            assert cli.main(["loci", "--preset", "mic-tank610",
                             "--grid", "12x12", "-o", str(out)]) == 0
            # A runaway: the boil event is spliced into the samples.
            assert cli.main(["simulate", "--preset", "mic-tank610",
                             "--Ta", "292", "-o", str(out)]) == 0
            outs.append(out)
        for fname in ("rates.csv", "branch.csv", "specials.csv", "cycles.csv",
                      "hopf_locus.csv", "fold_locus.csv", "region_map.csv",
                      "trajectory.csv"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, f"{fname} differs between identical runs"

        # The event-free integrations, which no command runs: integrate
        # without a boiling threshold, and a cycle seed sampled from its end.
        p = mic.model.with_(u_a=290.07 / mic.temp_scale, u_boil=math.inf)
        runs = []
        for _ in range(2):
            traj = simulate.integrate(p, (0.45, 0.0432), 5.0, n_samples=500)
            seed = cycles.seed_from_simulation(p, traj.final_state(), 0.4)
            runs.append((traj.times, traj.states, seed.times, seed.states))
        for a, b in zip(*runs):
            assert np.array_equal(a, b)
