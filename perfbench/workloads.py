"""The four benchmark workloads.

Each workload turns a seed and its section of ``reference.json`` into
program inputs (CLI arguments plus a config file), runs them through the
public entry points in a child process, and checks the outputs against
the stored reference values and against an independent oracle.

Parent side (``inputs``, ``check``) uses the standard library only; the
child side (``prepare``, ``run``, ``oracle``) imports the package.

Tolerances:

* ``RTOL`` (1e-6 relative) for every value against ``reference.json``.
  The planned reformulations (shared ω=0 factorization, charge-sector
  reduction, real Hermitian basis, Hessenberg frequency sweeps) change
  results only at roundoff, far below it; a wrong value moves by far
  more. It is ten times tighter than the method-triangle bound.
* ``MACDONALD_RTOL`` (1e-5): MacDonald column against the resolvent
  column of the same run, the method-triangle bound.
* ``FD_RTOL`` (1e-4): one S_ee(0) against ``noise.counting_fd_check``,
  the criterion-8 bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

RTOL = 1e-6
MACDONALD_RTOL = 1e-5
FD_RTOL = 1e-4
EIG_MAX_REAL = 1e-10

CONFIG_NAME = "input.cfg"
MODEL_FIELDS = ("epsilon", "delta", "g", "omega_b", "gamma_L", "gamma_R", "gamma_b",
                "temperature", "n_fock")
AXIS_FIELD = {"g": "g", "delta": "delta", "epsilon": "epsilon", "T": "temperature"}


@dataclass
class Tally:
    """Correctness outcome of one workload run."""

    attempted: int = 0
    failed: int = 0
    gaps: int = 0
    messages: list[str] = field(default_factory=list)

    def item(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def parse_csv(text: str) -> list[list[str]]:
    """Data rows of a dqdnoise CSV (schema and header lines dropped)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _num(text: str) -> float | None:
    return float(text) if text != "" else None


def _model_lines(base: dict) -> list[str]:
    return [f"model.{k} = {base[k]!r}" for k in MODEL_FIELDS]


def _point_params(base: dict, assignments: dict) -> dict:
    params = dict(base)
    for axis, value in assignments.items():
        params[AXIS_FIELD[axis]] = value
    return params


# -- child side helpers ------------------------------------------------------

def _generator(params: dict, hamiltonian: str):
    from dqdnoise import model, superop

    p = model.ModelParams(**params)
    space = p.space()
    ops = model.build_operators(space)
    build = model.build_jc_hamiltonian if hamiltonian == "jc" else model.build_hamiltonian
    return superop.build_liouvillian(build(p, space, ops), p)


def _cli(argv: list[str], out: str) -> None:
    from dqdnoise import cli

    code = cli.main(argv + ["--out", out])
    if code != 0:
        raise RuntimeError(f"dqdnoise {' '.join(argv)} exited with {code}")


class SweepWorkload:
    """``dqdnoise sweep --config`` over a seeded slice of a preset grid.

    The reference holds the whole preset grid (base parameters, both axes
    and the row-major values). Each run sweeps ``pick`` columns of the
    first axis, drawn from the seed among the columns from ``first`` on,
    against every value of the second axis. ``fd_check`` adds the
    counting-field oracle at one seeded point of the slice.
    """

    def __init__(self, name: str, workers: int, pick: int, first: int = 0,
                 fd_check: bool = False):
        self.name, self.workers = name, workers
        self.pick, self.first, self.fd_check = pick, first, fd_check

    # parent side
    def inputs(self, seed: int, ref: dict, smoke: bool) -> dict:
        rng = random.Random(seed)
        axes = ref["axes"]
        columns = range(len(axes[0]["values"])) if smoke else \
            range(self.first, len(axes[0]["values"]))
        select = sorted(rng.sample(columns, min(self.pick, len(columns))))
        lines = _model_lines(ref["base"])
        for k, axis in enumerate(axes, start=1):
            vals = axis["values"] if k > 1 else [axes[0]["values"][i] for i in select]
            lines += [f"sweep.axis{k}.name = {axis['name']}",
                      f"sweep.axis{k}.values = " + ",".join(repr(v) for v in vals)]
        lines += [f"sweep.quantities = {ref['quantity']}",
                  f"sweep.hamiltonian = {ref['hamiltonian']}"]
        inp = {"select": select, "workers": self.workers, "config": "\n".join(lines) + "\n",
               "argv": ["sweep", "--config", CONFIG_NAME, "--workers", str(self.workers)]}
        if self.fd_check:
            n2 = len(axes[1]["values"]) if len(axes) > 1 else 1
            row = rng.randrange(len(select) * n2)
            assign = {axes[0]["name"]: axes[0]["values"][select[row // n2]]}
            if len(axes) > 1:
                assign[axes[1]["name"]] = axes[1]["values"][row % n2]
            inp["fd_point"] = {"row": row, "params": _point_params(ref["base"], assign),
                               "hamiltonian": ref["hamiltonian"]}
        return inp

    def expected(self, inp: dict, ref: dict) -> list[tuple[tuple[float, ...], float]]:
        axes = [a["values"] for a in ref["axes"]]
        n2 = len(axes[1]) if len(axes) > 1 else 1
        rows = []
        for i in inp["select"]:
            for j in range(n2):
                key = (axes[0][i],) + ((axes[1][j],) if len(axes) > 1 else ())
                rows.append((key, ref["values"][i * n2 + j]))
        return rows

    def check(self, inp: dict, runs: list[dict], oracle: dict, ref: dict, tally: Tally) -> None:
        expected = self.expected(inp, ref)
        for k, run in enumerate(runs):
            rows = parse_csv(run["text"])
            if len(rows) != len(expected):
                for _ in expected:
                    tally.item(False, f"run {k}: {len(rows)} rows, expected {len(expected)}")
                continue
            for row, (key, ref_value) in zip(rows, expected):
                axes = tuple(float(x) for x in row[:-1])
                value = _num(row[-1])
                if value is None:
                    tally.gaps += 1
                tally.item(axes == key and value is not None and close(value, ref_value, RTOL),
                           f"run {k}: row {axes} value {row[-1]!r} vs reference {ref_value!r}")
        if self.fd_check:
            row = inp["fd_point"]["row"]
            rows = parse_csv(runs[0]["text"]) if runs else []
            value = _num(rows[row][-1]) if row < len(rows) else None
            fd = oracle["fd_fano"]
            tally.item(value is not None and close(value, fd, FD_RTOL),
                       f"S_ee(0) {value!r} vs counting-field FD {fd!r} (rtol {FD_RTOL:g})")

    # child side
    def prepare(self, inp: dict, config_path: str):
        from dqdnoise import cli

        return cli.parse_config(config_path)

    def run(self, inp: dict, prepared, argv: list[str], out: str) -> dict:
        _cli(argv, out)
        return {}

    def oracle(self, inp: dict, prepared) -> dict:
        if not self.fd_check:
            return {}
        from dqdnoise import noise, steady

        point = inp["fd_point"]
        liouv = _generator(point["params"], point["hamiltonian"])
        ss = steady.solve_steady_state(liouv)
        flux = steady.currents(ss, liouv).e
        return {"fd_fano": noise.counting_fd_check(liouv, ss, "e", "e") / (2.0 * flux)}


class OracleWorkload:
    """``dqdnoise spectrum`` with all three methods at one coupled fig2
    point, then ``noise.counting_fd_check`` there and a dense
    ``superop.spectrum`` at a larger cutoff of the same point."""

    METHODS = ("resolvent", "eigen", "macdonald")

    def __init__(self, name: str):
        self.name = name
        self.workers = 1

    def inputs(self, seed: int, ref: dict, smoke: bool) -> dict:
        k = random.Random(seed).randrange(len(ref["points"]))
        base = dict(ref["base"], g=ref["points"][k]["g"])
        sp = ref["spectrum"]
        lines = _model_lines(base) + [
            "spectrum.pair = ee",
            f"spectrum.omega_start = {sp['omega_start']!r}",
            f"spectrum.omega_stop = {sp['omega_stop']!r}",
            f"spectrum.omega_count = {sp['omega_count']}",
            "spectrum.normalization = fano",
            "spectrum.hamiltonian = jc",
            f"macdonald.dt = {ref['macdonald_dt']!r}",
        ]
        return {"point": k, "eig_n_fock": ref["eig_n_fock"],
                "config": "\n".join(lines) + "\n", "workers": self.workers,
                "argv": ["spectrum", "--config", CONFIG_NAME, "--methods",
                         ",".join(self.METHODS), "--workers", str(self.workers)]}

    def check(self, inp: dict, runs: list[dict], oracle: dict, ref: dict, tally: Tally) -> None:
        point = ref["points"][inp["point"]]
        omegas = ref["omega"]
        for k, run in enumerate(runs):
            columns = {m: [] for m in self.METHODS}
            for row in parse_csv(run["text"]):
                columns.setdefault(row[2], []).append((float(row[0]), _num(row[1])))
            for method in self.METHODS:
                col = columns[method]
                if [w for w, _ in col] != omegas:
                    for _ in omegas:
                        tally.item(False, f"run {k}: {method} frequency grid differs")
                    continue
                for n, (w, value) in enumerate(col):
                    if value is None:
                        tally.gaps += 1
                    ok = value is not None and close(value, point[method][n], RTOL)
                    if ok and method == "macdonald":
                        res = columns["resolvent"][n][1]
                        ok = res is not None and close(value, res, MACDONALD_RTOL)
                    tally.item(ok, f"run {k}: {method} at omega={w!r}: {value!r} vs "
                                   f"reference {point[method][n]!r}")
            extras = run["extras"]
            tally.item(close(extras["fd"], point["fd"], RTOL),
                       f"run {k}: counting-field S(0) {extras['fd']!r} vs {point['fd']!r}")
            tally.item(extras["n_stationary"] == 1 and extras["max_re"] <= EIG_MAX_REAL
                       and close(extras["slowest_rate"], point["slowest_rate"], RTOL),
                       f"run {k}: dense spectrum {extras} vs slowest rate "
                       f"{point['slowest_rate']!r}")

    def prepare(self, inp: dict, config_path: str):
        from dqdnoise import cli

        return cli.parse_config(config_path)

    def run(self, inp: dict, prepared, argv: list[str], out: str) -> dict:
        from dqdnoise import noise, steady, superop

        _cli(argv, out)
        params = {k: getattr(prepared.model, k) for k in MODEL_FIELDS}
        liouv = _generator(params, "jc")
        ss = steady.solve_steady_state(liouv)
        fd = noise.counting_fd_check(liouv, ss, "e", "e")
        spec = superop.spectrum(_generator(dict(params, n_fock=inp["eig_n_fock"]), "jc"))
        return {"fd": fd, "n_stationary": spec.n_stationary,
                "max_re": float(spec.alphas.real.max()),
                "slowest_rate": spec.slowest_decay_rate()}

    def oracle(self, inp: dict, prepared) -> dict:
        return {}


#: the rationale of each workload is recorded in BENCHMARK.json and README.md;
#: spectral_fig2 skips g = 0, where the decoupled resonator makes a column cheaper
WORKLOADS = {w.name: w for w in (
    SweepWorkload("spectral_fig2", workers=1, pick=3, first=1),
    SweepWorkload("zero_freq_fig5a", workers=1, pick=2, fd_check=True),
    SweepWorkload("param_map_fig5b", workers=2, pick=12),
    OracleWorkload("oracle_triangle"),
)}
