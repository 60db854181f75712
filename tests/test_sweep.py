import itertools
import json
import pathlib
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dqdnoise import noise, steady, superop, sweep
from dqdnoise.errors import ConvergenceFailure, NumericalError
from dqdnoise.model import ModelParams
from dqdnoise.noise import ResolventSolver, TransportPoint
from dqdnoise.sweep import (
    PRESET_NAMES,
    SweepAxis,
    SweepSpec,
    fock_convergence,
    preset,
    resolve_cutoff,
    run_sweep,
)

HERE = pathlib.Path(__file__).parent


class TestSpecValidation:
    def test_count_minimum(self):
        with pytest.raises(ValueError, match="counts >= 2"):
            SweepAxis(name="g", start=0, stop=1, count=1)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            SweepAxis(name="frequency", start=0, stop=1, count=3)

    def test_distinct_axes(self):
        ax = SweepAxis(name="g", start=0, stop=0.4, count=3)
        with pytest.raises(ValueError, match="distinct"):
            SweepSpec(base=ModelParams(), axes=(ax, ax), quantities=("I_e",))

    def test_unknown_quantity(self):
        ax = SweepAxis(name="g", start=0, stop=0.4, count=3)
        with pytest.raises(ValueError, match="quantity"):
            SweepSpec(base=ModelParams(), axes=(ax,), quantities=("S_xx",))

    def test_explicit_values_grid(self):
        ax = SweepAxis(name="T", values=(0.0, 0.5, 1.0))
        assert np.array_equal(ax.grid(), [0.0, 0.5, 1.0])


class TestFockConvergence:
    def test_vacuum_exact(self):
        p = ModelParams(delta=0.5, g=0.0, temperature=0.0)
        assert fock_convergence(p) == 1

    def test_fig2_regime_small(self):
        p = ModelParams(delta=0.5, g=0.2, temperature=0.0)
        assert fock_convergence(p) <= 6

    def test_monotone_in_temperature(self):
        cold = fock_convergence(ModelParams(delta=0.5, g=0.2, temperature=0.0))
        hot = fock_convergence(ModelParams(delta=0.5, g=0.2, temperature=1.0))
        assert hot > cold

    def test_cap_failure(self, monkeypatch):
        monkeypatch.setattr(sweep, "FOCK_MAX_CUTOFF", 4)
        p = ModelParams(delta=0.5, g=0.2, temperature=2.0)
        with pytest.raises(ConvergenceFailure):
            fock_convergence(p)


class TestResolveCutoff:
    BASE = ModelParams(delta=0.5, g=0.2, n_fock=2)
    OMEGA = SweepAxis(name="omega", values=(0.0, 1.0))

    @pytest.mark.parametrize("cutoff, n_fock", [(None, 2), (7, 7)], ids=["none", "int"])
    def test_fixed(self, cutoff, n_fock):
        assert resolve_cutoff(self.BASE, (self.OMEGA,), "full", cutoff) == \
            (n_fock, {"mode": "fixed", "cutoff": n_fock})

    def test_auto_omega_axis_is_one_corner(self):
        ladder = fock_convergence(self.BASE)
        assert ladder > self.BASE.n_fock
        for axes in ((), (self.OMEGA,)):
            assert resolve_cutoff(self.BASE, axes, "full", "auto") == \
                (ladder, {"mode": "auto", "corners": 1, "cutoff": ladder})

    def test_auto_epsilon_axis_takes_both_ends(self):
        axis = SweepAxis(name="epsilon", start=-1.0, stop=1.0, count=5)
        ladders = [fock_convergence(replace(self.BASE, epsilon=e)) for e in (-1.0, 1.0)]
        n_fock, report = resolve_cutoff(self.BASE, (axis, self.OMEGA), "full", "auto")
        assert report == {"mode": "auto", "corners": 2, "cutoff": n_fock}
        assert n_fock == max(ladders + [self.BASE.n_fock])

    def test_auto_corners_share_each_rungs_plan(self, plan_builds):
        """From an empty cache, the ladders of both corners build each rung's plan
        once, even when there are more rungs than the cache keeps."""
        axis = SweepAxis(name="epsilon", values=(-2.0, 1.0))
        n_fock, _ = resolve_cutoff(self.BASE, (axis, self.OMEGA), "full", "auto")
        assert n_fock + 3 > superop.PLAN_CACHE_SIZE
        assert sorted(plan_builds) == [(n, "full") for n in range(1, n_fock + 4)]

    def test_auto_never_below_base(self):
        base = replace(self.BASE, n_fock=20)
        assert fock_convergence(base) < 20
        assert resolve_cutoff(base, (), "full", "auto")[0] == 20


class TestPresets:
    def test_unknown_name(self):
        with pytest.raises(KeyError):
            preset("fig9")

    def test_fig2_caption_parameters(self):
        spec = preset("fig2")
        b = spec.base
        assert (b.omega_b, b.gamma_L, b.gamma_R, b.delta, b.gamma_b,
                b.temperature, b.epsilon) == (1.0, 0.01, 0.01, 0.5, 0.05, 0.0, 0.0)

    def test_fig5b_caption_parameters(self):
        spec = preset("fig5b")
        b = spec.base
        assert (b.gamma_L, b.gamma_R, b.delta, b.gamma_b, b.temperature) == \
            (0.1, 0.001, 0.1, 0.01, 0.0)
        g_axis = [a for a in spec.axes if a.name == "g"][0]
        assert g_axis.values == (0.0, 0.1, 0.2, 0.4)

    def test_fig6a_quantity(self):
        spec = preset("fig6a")
        assert spec.quantities == ("S_bb",)
        assert spec.base.epsilon == 0.0 and spec.base.delta == 0.5
        assert {a.name for a in spec.axes} == {"g", "T"}

    def test_manifest_byte_match(self):
        stored = json.loads((HERE / "preset_manifest.json").read_text())
        live = {name: preset(name).to_manifest() for name in PRESET_NAMES}
        assert json.dumps(live, sort_keys=True) == json.dumps(stored, sort_keys=True)


class TestLuOwnership:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_lu_runs_in_steady_or_noise(self, dense_cut, monkeypatch, workers):
        """Each sparse LU of a sweep runs inside ``steady.solve_steady_state``
        or ``noise.compute_spectrum`` on its own thread, where the benchmark's
        trace attributes it (its ``misattributed_lu`` count)."""
        dense_cut("lu")
        local = threading.local()

        def owned(fn, name):
            def wrapped(*args, **kwargs):
                stack = local.__dict__.setdefault("stack", [])
                stack.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            return wrapped

        # every module reference, as the benchmark's tracer wraps them
        for owner, attr in ((steady, "solve_steady_state"), (noise, "compute_spectrum")):
            original = getattr(owner, attr)
            wrapped = owned(original, attr)
            for name, module in list(sys.modules.items()):
                if name == "dqdnoise" or name.startswith("dqdnoise."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, key, wrapped)
        owners = []
        splu = spla.splu

        def recording(*args, **kwargs):
            owners.append((getattr(local, "stack", None) or [None])[-1])
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", recording)
        spec = SweepSpec(
            base=ModelParams(delta=0.5, n_fock=3),
            axes=(SweepAxis(name="g", values=(0.1, 0.2)),
                  SweepAxis(name="omega", values=(0.0, 0.5, 1.0))),
            quantities=("S_ee", "S_eb"),
        )
        assert not run_sweep(spec, workers=workers).gaps
        # per point: the steady LU, then one per nonzero frequency (omega = 0 reuses it)
        assert sorted(map(str, owners)) == ["compute_spectrum"] * 4 + ["solve_steady_state"] * 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_frequency_map_factors_once_and_solves_in_apply(self, monkeypatch, workers):
        """An omega = 0 sweep makes one sparse LU per point, inside
        ``steady.solve_steady_state``, and its noise solves only inside
        ``ResolventSolver.apply``, the spans the benchmark's trace counts."""
        local = threading.local()
        targets = [(steady, "solve_steady_state"), (noise.ResolventSolver, "apply"),
                   (spla, "splu"), (steady, "refined_solve")]
        records = []
        for owner, attr in targets:
            original = getattr(owner, attr)

            def wrapped(*args, _fn=original, _name=attr, **kwargs):
                stack = local.__dict__.setdefault("stack", [])
                if _name in ("splu", "refined_solve"):
                    records.append((_name, stack[-1] if stack else None))
                stack.append(_name)
                try:
                    return _fn(*args, **kwargs)
                finally:
                    stack.pop()
            modules = [owner] + [m for name, m in list(sys.modules.items())
                                 if name == "dqdnoise" or name.startswith("dqdnoise.")]
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapped)
        spec = SweepSpec(
            base=ModelParams(delta=0.3, temperature=0.5, n_fock=3),
            axes=(SweepAxis(name="epsilon", values=(-0.5, 0.5)),
                  SweepAxis(name="g", values=(0.1, 0.2, 0.3))),
            quantities=("S_ee", "S_eb", "I_e", "F_Q"),
        )
        assert not run_sweep(spec, workers=workers).gaps
        points, chans = 6, 2  # S_ee and S_eb apply R(0) to the columns of e and b
        assert sorted(records) == sorted(
            [("splu", "solve_steady_state")] * points
            + [("refined_solve", "solve_steady_state")] * points
            + [("refined_solve", "apply")] * (points * chans))


class TestRunSweep:
    def test_deterministic_across_workers(self):
        spec = SweepSpec(
            base=ModelParams(delta=0.5, n_fock=4),
            axes=(SweepAxis(name="g", start=0.0, stop=0.3, count=4),),
            quantities=("I_e", "F_Q"),
        )
        r1 = run_sweep(spec, workers=1)
        r4 = run_sweep(spec, workers=4)
        for q in spec.quantities:
            assert np.array_equal(r1.data[q], r4.data[q])

    def test_omega_axis_deterministic_across_workers(self):
        # 41 frequencies, one of them zero, on the dense path of an n_fock = 4 block
        omegas = np.linspace(0.0, 2.0, 41)
        spec = SweepSpec(
            base=ModelParams(delta=0.5, temperature=0.5, n_fock=4),
            axes=(SweepAxis(name="omega", values=tuple(omegas)),
                  SweepAxis(name="g", values=(0.1, 0.2, 0.3))),
            quantities=("S_ee", "S_bb", "S_eb", "F_Q"),
        )
        base = TransportPoint(spec.base)
        assert ResolventSolver(base.liouv, base.ss)._use_dense(omegas.size - 1)
        r1 = run_sweep(spec, workers=1)
        r2 = run_sweep(spec, workers=2)
        assert not r1.gaps and not r2.gaps
        for q in spec.quantities:
            assert np.array_equal(r1.data[q], r2.data[q])
        point = TransportPoint(ModelParams(delta=0.5, g=0.3, temperature=0.5, n_fock=4))
        assert np.array_equal(r1.data["S_eb"][:, 2], point.noise("e", "b", omegas))
        assert np.all(r1.data["F_Q"][:, 2] == point.report.fano_q)

    def test_2d_grid_shape_and_values(self):
        spec = SweepSpec(
            base=ModelParams(delta=0.5, g=0.2, n_fock=4),
            axes=(SweepAxis(name="g", values=(0.1, 0.2)),
                  SweepAxis(name="omega", start=0.8, stop=1.2, count=3)),
            quantities=("S_ee",),
        )
        result = run_sweep(spec)
        assert result.data["S_ee"].shape == (2, 3)
        assert not np.any(np.isnan(result.data["S_ee"]))
        # spot check one grid point against the direct computation
        expected = TransportPoint(ModelParams(delta=0.5, g=0.2, n_fock=4)).noise(
            "e", "e", 1.0, "fano")
        assert result.data["S_ee"][1, 1] == pytest.approx(expected, rel=1e-12)

    def test_quantities_at_zero_frequency_without_omega_axis(self):
        spec = SweepSpec(
            base=ModelParams(delta=0.5, n_fock=4),
            axes=(SweepAxis(name="g", values=(0.1, 0.2)),),
            quantities=("S_ee", "S_eb"),
        )
        result = run_sweep(spec)
        s0 = TransportPoint(ModelParams(delta=0.5, g=0.1, n_fock=4)).noise("e", "e", 0.0, "fano")
        assert result.data["S_ee"][0] == pytest.approx(s0, rel=1e-12)

    def test_fig6a_zero_coupling_is_one_expected_gap(self):
        # at g = 0, T = 0 the resonator is never excited: I_b = 0 has no Fano factor
        spec = SweepSpec(base=preset("fig6a").base,
                         axes=(SweepAxis(name="g", values=(0.0, 0.1)),), quantities=("S_bb",))
        result = run_sweep(spec)
        assert result.gaps == [((0,), "cannot Fano-normalize: channel 'b' flux is 0")]
        assert np.isnan(result.data["S_bb"][0]) and np.isfinite(result.data["S_bb"][1])

    def test_failed_points_become_gaps(self):
        # Delta = g = 0 blocks transport; Fano normalization of S_ee fails
        spec = SweepSpec(
            base=ModelParams(delta=0.0, g=0.0, n_fock=2),
            axes=(SweepAxis(name="epsilon", values=(0.0, 0.5)),),
            quantities=("S_ee",),
        )
        result = run_sweep(spec)
        assert len(result.gaps) == 2
        assert np.all(np.isnan(result.data["S_ee"]))

    def test_unsolvable_point_is_a_gap_at_every_omega(self):
        # epsilon = 1e308 overflows the generator: its point fails before any noise
        def spec(eps):
            return SweepSpec(base=ModelParams(delta=0.5, g=0.2, n_fock=3),
                             axes=(SweepAxis(name="epsilon", values=eps),
                                   SweepAxis(name="omega", start=0.5, stop=1.5, count=5)),
                             quantities=("S_ee", "S_eb", "I_e"))

        result, ref = run_sweep(spec((0.0, 1e308, 0.5))), run_sweep(spec((0.0, 0.5)))
        assert [idx for idx, _ in result.gaps] == [(1, w) for w in range(5)]
        assert all(msg.startswith("generator has non-finite entries") for _, msg in result.gaps)
        assert np.isnan(result.top_population[1])
        assert np.array_equal(result.top_population[[0, 2]], ref.top_population)
        for q in ("S_ee", "S_eb", "I_e"):
            assert np.all(np.isnan(result.data[q][1]))
            assert np.array_equal(result.data[q][[0, 2]], ref.data[q])

    def test_batched_failure_is_one_gap_per_omega(self):
        spec = SweepSpec(
            base=ModelParams(delta=0.0, g=0.0, n_fock=2),
            axes=(SweepAxis(name="epsilon", values=(0.0, 0.5)),
                  SweepAxis(name="omega", start=0.5, stop=1.5, count=5)),
            quantities=("S_ee",),
        )
        result = run_sweep(spec)
        gapped = sorted(idx for idx, _ in result.gaps)
        assert gapped == [(e, w) for e in range(2) for w in range(5)]
        assert all("Fano-normalize" in msg for _, msg in result.gaps)
        assert np.all(np.isnan(result.data["S_ee"]))

    def test_failure_at_one_omega_gaps_that_omega_only(self, monkeypatch):
        original = noise.ResolventSolver._solve

        def failing(self, omega, b):
            if omega == 1.0:
                raise NumericalError("resolvent factorization singular at omega=1.0")
            return original(self, omega, b)

        monkeypatch.setattr(noise.ResolventSolver, "_solve", failing)
        spec = SweepSpec(
            base=ModelParams(delta=0.5, n_fock=3),
            axes=(SweepAxis(name="omega", values=(0.5, 1.0, 1.5)),
                  SweepAxis(name="g", values=(0.1, 0.2))),
            quantities=("S_ee", "F_Q"),
        )
        result = run_sweep(spec)
        assert sorted(idx for idx, _ in result.gaps) == [(1, 0), (1, 1)]
        assert all("omega=1.0" in msg for _, msg in result.gaps)
        assert np.all(np.isnan(result.data["S_ee"][1]))
        for w_i in (0, 2):
            assert np.all(np.isfinite(result.data["S_ee"][w_i]))
        point = TransportPoint(ModelParams(delta=0.5, g=0.2, n_fock=3))
        assert result.data["S_ee"][0, 1] == pytest.approx(
            point.noise("e", "e", 0.5, "fano"), rel=1e-12)
        assert result.data["F_Q"][2, 1] == point.report.fano_q

    def test_failing_quantity_gaps_only_itself(self):
        # at g = 0 no phonon is emitted, so S_bb has no Fano normalization; the
        # row's other quantities are defined there and keep their values
        spec = SweepSpec(
            base=ModelParams(delta=0.5, n_fock=4),
            axes=(SweepAxis(name="g", values=(0.0, 0.2)),
                  SweepAxis(name="omega", start=-1.0, stop=1.0, count=41)),
            quantities=("S_ee", "S_eb", "S_bb", "I_b"),
            hamiltonian="jc",
        )
        result = run_sweep(spec)
        message = "cannot Fano-normalize: channel 'b' flux is 0"
        assert result.gaps == [((0, w), message) for w in range(41)]
        assert np.all(np.isnan(result.data["S_bb"][0]))
        assert np.all(np.isfinite(result.data["S_bb"][1]))
        point = TransportPoint(ModelParams(delta=0.5, g=0.0, n_fock=4), "jc")
        omegas = result.axis_values[1]
        for q, pair, norm in (("S_ee", ("e", "e"), "fano"), ("S_eb", ("e", "b"), "raw")):
            assert np.all(np.isfinite(result.data[q]))
            ref = point.noise(*pair, omegas, norm)
            assert np.max(np.abs(result.data[q][0] - ref)) <= 1e-12 * max(1.0, np.max(abs(ref)))
        assert result.data["S_ee"][0, 0] == pytest.approx(0.9998, abs=1e-4)
        assert np.all(result.data["I_b"][0] == 0.0)
        assert np.all(result.data["I_b"][1] > 0.0)

    def test_zero_flux_fano_request_factors_nothing(self, monkeypatch):
        # S_bb's Fano flux at g = 0 is checked before any solve: its per-frequency
        # retry makes no LU, so each point factors only its steady state
        calls = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
        spec = SweepSpec(
            base=ModelParams(delta=0.5, n_fock=4),
            axes=(SweepAxis(name="g", values=(0.0, 0.2)),
                  SweepAxis(name="omega", start=-1.0, stop=1.0, count=41)),
            quantities=("S_ee", "S_eb", "S_bb", "I_b"),
            hamiltonian="jc",
        )
        point = TransportPoint(replace(spec.base, g=0.2), "jc")
        assert ResolventSolver(point.liouv, point.ss)._use_dense(40)  # no per-omega LU
        calls.clear()
        result = run_sweep(spec)
        message = "cannot Fano-normalize: channel 'b' flux is 0"
        assert result.gaps == [((0, w), message) for w in range(41)]
        assert len(calls) == 2

    def test_zero_frequency_map_matches_points_across_workers(self):
        spec = SweepSpec(
            base=ModelParams(delta=0.3, temperature=0.5, n_fock=3),
            axes=(SweepAxis(name="epsilon", start=-1.0, stop=1.0, count=5),
                  SweepAxis(name="g", values=(0.0, 0.15, 0.3))),
            quantities=("S_ee", "S_eb", "I_e", "F_Q"),
        )
        r1, r2 = run_sweep(spec, workers=1), run_sweep(spec, workers=2)
        assert not r1.gaps and not r2.gaps
        for q in spec.quantities:
            assert np.array_equal(r1.data[q], r2.data[q])
        assert np.array_equal(r1.top_population, r2.top_population)
        for (a, eps), (b, g) in itertools.product(*map(enumerate, r1.axis_values)):
            point = TransportPoint(replace(spec.base, epsilon=float(eps), g=float(g)))
            assert r1.data["S_ee"][a, b] == point.noise("e", "e", 0.0, "fano")
            assert r1.data["S_eb"][a, b] == point.noise("e", "b", 0.0)
            assert r1.data["I_e"][a, b] == point.report.current_e
            assert r1.data["F_Q"][a, b] == point.report.fano_q

    def test_explicit_cutoff_respected(self):
        spec = SweepSpec(
            base=ModelParams(delta=0.5, n_fock=6),
            axes=(SweepAxis(name="g", values=(0.0, 0.1)),),
            quantities=("I_e",),
        )
        result = run_sweep(spec, cutoff=3)
        assert result.cutoff_used == 3

    def test_auto_cutoff_reported(self):
        spec = SweepSpec(
            base=ModelParams(delta=0.5, n_fock=2),
            axes=(SweepAxis(name="g", values=(0.0, 0.1)),),
            quantities=("I_e",),
        )
        result = run_sweep(spec, cutoff="auto")
        assert result.convergence_report["mode"] == "auto"
        assert result.cutoff_used >= 2

    def test_auto_cutoff_probes_both_ends_of_symmetric_axis(self):
        spec = SweepSpec(
            base=ModelParams(delta=0.5, g=0.1, n_fock=2),
            axes=(SweepAxis(name="epsilon", start=-1.0, stop=1.0, count=3),),
            quantities=("I_e",),
        )
        result = run_sweep(spec, cutoff="auto")
        assert result.convergence_report["corners"] == 2

    def test_moment_quantities_build_operators_once_per_run(self, operator_builds):
        spec = SweepSpec(
            base=ModelParams(delta=0.5, temperature=0.5, n_fock=4),
            axes=(SweepAxis(name="g", values=(0.05, 0.1, 0.15, 0.2)),),
            quantities=("F_Q", "quad_min"),
        )
        result = run_sweep(spec)
        assert not result.gaps
        assert len(operator_builds) == 1

    def test_one_generator_plan_per_run(self, plan_builds, monkeypatch):
        """Runs of one (n_fock, Hamiltonian) share the process's one plan, and two
        workers on an empty cache build it once, before they start."""
        spec = SweepSpec(
            base=ModelParams(delta=0.5, n_fock=3),
            axes=(SweepAxis(name="g", values=(0.0, 0.1, 0.2)),
                  SweepAxis(name="T", values=(0.0, 0.5))),
            quantities=("S_ee", "F_Q"),
        )
        for workers in (1, 2):
            run_sweep(spec, workers=workers)
        assert plan_builds == [(3, "full")]  # the second call keeps the first's
        init = superop.GeneratorPlan.__init__

        def slow(self, *args):
            time.sleep(0.05)  # long enough for workers that missed together to overlap
            init(self, *args)

        monkeypatch.setattr(superop.GeneratorPlan, "__init__", slow)
        superop.generator_plan.cache_clear()
        run_sweep(spec, workers=2)
        assert plan_builds == [(3, "full")] * 2

    def test_shared_plan_under_thread_switching(self):
        spec = SweepSpec(
            base=ModelParams(delta=0.5, temperature=0.5, n_fock=3),
            axes=(SweepAxis(name="epsilon", start=-1.0, stop=1.0, count=8),
                  SweepAxis(name="g", values=(0.1, 0.3))),
            quantities=("S_ee", "F_Q"),
        )
        serial = run_sweep(spec, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = run_sweep(spec, workers=4)  # more threads than cores, one plan
        finally:
            sys.setswitchinterval(interval)
        for q in spec.quantities:
            assert np.array_equal(serial.data[q], shared.data[q])
        assert np.array_equal(serial.top_population, shared.top_population)

    def test_moments_computed_once_per_point_on_omega_axis(self, monkeypatch):
        calls = []
        moments = steady.mode_moments

        def counting(ss):
            calls.append(ss)
            return moments(ss)

        monkeypatch.setattr(steady, "mode_moments", counting)
        spec = SweepSpec(
            base=ModelParams(delta=0.5, temperature=0.5, n_fock=4),
            axes=(SweepAxis(name="g", values=(0.1, 0.2)),
                  SweepAxis(name="omega", start=0.0, stop=1.0, count=11)),
            quantities=("S_ee", "F_Q"),
        )
        result = run_sweep(spec)
        assert not result.gaps
        assert len(calls) == 2

    def test_jc_hamiltonian_variant(self):
        spec = SweepSpec(
            base=ModelParams(delta=0.5, g=0.2, n_fock=4),
            axes=(SweepAxis(name="omega", start=0.9, stop=1.1, count=3),),
            quantities=("S_ee",),
            hamiltonian="jc",
        )
        full = run_sweep(SweepSpec(base=spec.base, axes=spec.axes,
                                   quantities=spec.quantities))
        jc = run_sweep(spec)
        assert not np.allclose(full.data["S_ee"], jc.data["S_ee"])
