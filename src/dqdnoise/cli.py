"""Command-line front end: config parsing, batch subcommands, self-check
suite, and bit-stable CSV/JSON emission.

Config files use flat dotted keys (``model.delta = 0.5``), one per line,
with ``#`` comments; a JSON object with the same keys is accepted as an
alternative encoding. All numeric output is printed with 17 significant
digits so round-tripping through text preserves binary64 values, and
identical configs produce byte-identical output files.

Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 invariant failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .checks import run_checks
from .errors import ConfigError, InvariantViolation, NumericalError
from .model import ModelParams
from .noise import TransportPoint, compute_spectrum
from .superop import slowest_decay_rate
from .sweep import (
    PRESET_NAMES,
    GridResult,
    SweepAxis,
    SweepSpec,
    fock_convergence,
    preset,
    run_sweep,
)

__all__ = ["main", "parse_config", "serialize_config", "RunConfig", "SpectrumSpec"]

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_INVARIANT = 0, 2, 3, 4

_PAIRS = {"ee": ("e", "e"), "bb": ("b", "b"), "eb": ("e", "b")}
_METHODS = ("resolvent", "eigen", "macdonald")

_MODEL_FIELDS = {
    "epsilon": float, "delta": float, "g": float, "omega_b": float,
    "gamma_L": float, "gamma_R": float, "gamma_b": float,
    "temperature": float, "n_fock": int,
}


@dataclass
class SpectrumSpec:
    """Frequency-grid request for a single-point spectrum run."""

    pair: str = "ee"
    omega_start: float = 0.2
    omega_stop: float = 1.8
    omega_count: int = 300
    normalization: str = "fano"
    hamiltonian: str = "full"


@dataclass
class RunConfig:
    """Validated configuration for one CLI invocation."""

    model: ModelParams = field(default_factory=ModelParams)
    sweep_spec: SweepSpec | None = None
    spectrum: SpectrumSpec = field(default_factory=SpectrumSpec)
    output_path: str | None = None
    output_format: str = "csv"
    methods: tuple[str, ...] = ("resolvent",)
    check_level: str = "fast"
    workers: int = 1
    fock_cutoff: int | str | None = None
    macdonald_t_max: float | None = None
    macdonald_dt: float = 0.02


def _parse_float(key, raw, line):
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} (line {line}): expected a number, got {raw!r}") from None


def _parse_int(key, raw, line):
    try:
        v = int(str(raw))
    except (TypeError, ValueError):
        raise ConfigError(f"{key} (line {line}): expected an integer, got {raw!r}") from None
    return v


def _parse_list(raw):
    if isinstance(raw, (list, tuple)):
        return [str(x) for x in raw]
    return [tok.strip() for tok in str(raw).split(",") if tok.strip()]


def _read_pairs(path: str) -> dict[str, tuple[object, int]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config JSON parse error: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object of dotted keys")
        return {str(k): (v, 0) for k, v in data.items()}
    pairs: dict[str, tuple[object, int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"{key} (line {lineno}): duplicate key")
        pairs[key] = (value.strip(), lineno)
    return pairs


def _build_axis(idx: int, pairs, consume) -> SweepAxis | None:
    prefix = f"sweep.axis{idx}."
    keys = [k for k in pairs if k.startswith(prefix)]
    if not keys:
        return None
    name_raw = consume(prefix + "name")
    if name_raw is None:
        key = keys[0]
        raise ConfigError(f"{prefix}name (line {pairs[key][1]}): axis requires a name")
    name, line = name_raw
    values_raw = consume(prefix + "values")
    kw = {"name": str(name)}
    if values_raw is not None:
        vals = tuple(_parse_float(prefix + "values", v, values_raw[1])
                     for v in _parse_list(values_raw[0]))
        kw["values"] = vals
    else:
        for part in ("start", "stop"):
            item = consume(prefix + part)
            if item is None:
                raise ConfigError(f"{prefix}{part} (line {line}): required without explicit values")
            kw[part] = _parse_float(prefix + part, item[0], item[1])
        item = consume(prefix + "count")
        if item is None:
            raise ConfigError(f"{prefix}count (line {line}): required without explicit values")
        kw["count"] = _parse_int(prefix + "count", item[0], item[1])
    try:
        return SweepAxis(**kw)
    except ValueError as exc:
        raise ConfigError(f"{prefix}* (line {line}): {exc}") from exc


def _config_from_pairs(pairs: dict[str, tuple[object, int]]) -> RunConfig:
    remaining = dict(pairs)

    def consume(key):
        return remaining.pop(key, None)

    model_kw = {}
    for name, typ in _MODEL_FIELDS.items():
        item = consume(f"model.{name}")
        if item is None:
            continue
        parser = _parse_int if typ is int else _parse_float
        model_kw[name] = parser(f"model.{name}", item[0], item[1])

    preset_item = consume("sweep.preset")
    if preset_item is not None and model_kw:
        raise ConfigError(
            f"sweep.preset (line {preset_item[1]}): conflicts with model.* keys; "
            "presets are the single source of truth for their parameters"
        )

    axes = [a for a in (_build_axis(1, remaining, consume), _build_axis(2, remaining, consume))
            if a is not None]
    quantities_item = consume("sweep.quantities")
    hamiltonian_item = consume("sweep.hamiltonian")

    sweep_spec = None
    if preset_item is not None:
        if axes or quantities_item:
            raise ConfigError(
                f"sweep.preset (line {preset_item[1]}): conflicts with manual sweep axes"
            )
        try:
            sweep_spec = preset(str(preset_item[0]))
        except KeyError as exc:
            raise ConfigError(f"sweep.preset (line {preset_item[1]}): {exc.args[0]}") from exc

    try:
        model = ModelParams(**model_kw)
    except ValueError as exc:
        raise ConfigError(f"model.* : {exc}") from exc

    if sweep_spec is None and axes:
        if quantities_item is None:
            raise ConfigError("sweep.quantities: required for a manual sweep")
        quantities = tuple(_parse_list(quantities_item[0]))
        ham = str(hamiltonian_item[0]) if hamiltonian_item else "full"
        try:
            sweep_spec = SweepSpec(base=model, axes=tuple(axes),
                                   quantities=quantities, hamiltonian=ham)
        except ValueError as exc:
            raise ConfigError(f"sweep.* : {exc}") from exc
    elif quantities_item is not None and sweep_spec is None:
        raise ConfigError(
            f"sweep.quantities (line {quantities_item[1]}): needs sweep axes or a preset"
        )

    spec_kw = {}
    for name, typ, allowed in (
        ("pair", str, tuple(_PAIRS)),
        ("omega_start", float, None),
        ("omega_stop", float, None),
        ("omega_count", int, None),
        ("normalization", str, ("raw", "fano")),
        ("hamiltonian", str, ("full", "jc")),
    ):
        item = consume(f"spectrum.{name}")
        if item is None:
            continue
        if typ is float:
            spec_kw[name] = _parse_float(f"spectrum.{name}", item[0], item[1])
        elif typ is int:
            spec_kw[name] = _parse_int(f"spectrum.{name}", item[0], item[1])
        else:
            val = str(item[0])
            if allowed and val not in allowed:
                raise ConfigError(
                    f"spectrum.{name} (line {item[1]}): expected one of {allowed}, got {val!r}"
                )
            spec_kw[name] = val
    spectrum_spec = SpectrumSpec(**spec_kw)
    if spectrum_spec.omega_count < 2:
        raise ConfigError("spectrum.omega_count: counts >= 2 required")

    cfg = RunConfig(model=model, sweep_spec=sweep_spec, spectrum=spectrum_spec)

    item = consume("output.path")
    if item is not None:
        cfg.output_path = str(item[0])
    item = consume("output.format")
    if item is not None:
        fmt = str(item[0])
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output.format (line {item[1]}): expected csv|json, got {fmt!r}")
        cfg.output_format = fmt
    item = consume("methods")
    if item is not None:
        methods = tuple(_parse_list(item[0]))
        bad = [m for m in methods if m not in _METHODS]
        if bad:
            raise ConfigError(f"methods (line {item[1]}): unknown methods {bad}")
        cfg.methods = methods
    item = consume("check.level")
    if item is not None:
        lvl = str(item[0])
        if lvl not in ("fast", "full"):
            raise ConfigError(f"check.level (line {item[1]}): expected fast|full")
        cfg.check_level = lvl
    item = consume("workers")
    if item is not None:
        cfg.workers = _parse_int("workers", item[0], item[1])
        if cfg.workers < 1:
            raise ConfigError(f"workers (line {item[1]}): must be >= 1")
    item = consume("fock_cutoff")
    if item is not None:
        raw = str(item[0])
        cfg.fock_cutoff = raw if raw == "auto" else _parse_int("fock_cutoff", raw, item[1])
    item = consume("macdonald.t_max")
    if item is not None:
        cfg.macdonald_t_max = _parse_float("macdonald.t_max", item[0], item[1])
    item = consume("macdonald.dt")
    if item is not None:
        cfg.macdonald_dt = _parse_float("macdonald.dt", item[0], item[1])

    if remaining:
        key = sorted(remaining)[0]
        raise ConfigError(f"{key} (line {remaining[key][1]}): unknown key")
    return cfg


def parse_config(path: str) -> RunConfig:
    """Parse and validate a config file (flat dotted keys or JSON)."""
    return _config_from_pairs(_read_pairs(path))


def serialize_config(cfg: RunConfig) -> str:
    """Canonical flat-key text form; parse_config(serialize(cfg)) == cfg."""
    lines = ["# dqdnoise config (units: hbar = k_B = e = 1)"]
    has_preset = cfg.sweep_spec is not None and cfg.sweep_spec.preset is not None
    if not has_preset:  # presets are the single source of truth for model params
        for name in _MODEL_FIELDS:
            lines.append(f"model.{name} = {_fmt(getattr(cfg.model, name))}")
    sp = cfg.spectrum
    lines += [
        f"spectrum.pair = {sp.pair}",
        f"spectrum.omega_start = {_fmt(sp.omega_start)}",
        f"spectrum.omega_stop = {_fmt(sp.omega_stop)}",
        f"spectrum.omega_count = {sp.omega_count}",
        f"spectrum.normalization = {sp.normalization}",
        f"spectrum.hamiltonian = {sp.hamiltonian}",
    ]
    if has_preset:
        lines.append(f"sweep.preset = {cfg.sweep_spec.preset}")
    elif cfg.sweep_spec is not None:
        for idx, axis in enumerate(cfg.sweep_spec.axes, start=1):
            lines.append(f"sweep.axis{idx}.name = {axis.name}")
            if axis.values is not None:
                lines.append(
                    f"sweep.axis{idx}.values = " + ",".join(_fmt(v) for v in axis.values)
                )
            else:
                lines.append(f"sweep.axis{idx}.start = {_fmt(axis.start)}")
                lines.append(f"sweep.axis{idx}.stop = {_fmt(axis.stop)}")
                lines.append(f"sweep.axis{idx}.count = {axis.count}")
        lines.append("sweep.quantities = " + ",".join(cfg.sweep_spec.quantities))
        lines.append(f"sweep.hamiltonian = {cfg.sweep_spec.hamiltonian}")
    if cfg.output_path is not None:
        lines.append(f"output.path = {cfg.output_path}")
    lines.append(f"output.format = {cfg.output_format}")
    lines.append("methods = " + ",".join(cfg.methods))
    lines.append(f"check.level = {cfg.check_level}")
    lines.append(f"workers = {cfg.workers}")
    if cfg.fock_cutoff is not None:
        lines.append(f"fock_cutoff = {cfg.fock_cutoff}")
    if cfg.macdonald_t_max is not None:
        lines.append(f"macdonald.t_max = {_fmt(cfg.macdonald_t_max)}")
    lines.append(f"macdonald.dt = {_fmt(cfg.macdonald_dt)}")
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    """17-significant-digit decimal, stable across runs."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return ""
    return f"{xf:.17g}"


def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        items = [f'{pad}  "{k}": {_json_text(v, indent + 1).lstrip()}' for k, v in obj.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if flat:
            return pad + "[" + ", ".join(_json_text(v).strip() for v in seq) + "]"
        return pad + "[\n" + ",\n".join(_json_text(v, indent + 1) for v in seq) + "\n" + pad + "]"
    if obj is None:
        return pad + "null"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if isinstance(obj, str):
        return pad + json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    xf = float(obj)
    return pad + ("null" if math.isnan(xf) else f"{xf:.17g}")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _single_point(cfg: RunConfig, hamiltonian: str) -> TransportPoint:
    params = cfg.model
    if cfg.fock_cutoff == "auto":
        params = replace(params, n_fock=fock_convergence(params, hamiltonian))
    elif cfg.fock_cutoff is not None:
        params = replace(params, n_fock=int(cfg.fock_cutoff))
    return TransportPoint(params, hamiltonian)


def cmd_spectrum(cfg: RunConfig) -> int:
    sp = cfg.spectrum
    if cfg.sweep_spec is not None and cfg.sweep_spec.preset is not None:
        base = cfg.sweep_spec
        cfg = replace(cfg, model=base.base)
        omega_axes = [a for a in base.axes if a.name == "omega"]
        if omega_axes:
            grid = omega_axes[0].grid()
        else:
            grid = np.linspace(sp.omega_start, sp.omega_stop, sp.omega_count)
        hamiltonian = base.hamiltonian
    else:
        grid = np.linspace(sp.omega_start, sp.omega_stop, sp.omega_count)
        hamiltonian = sp.hamiltonian
    pair = _PAIRS[sp.pair]
    normalization = sp.normalization
    if pair[0] != pair[1] and normalization == "fano":
        normalization = "raw"

    point = _single_point(cfg, hamiltonian)
    rows = []
    for method in cfg.methods:
        kwargs = {}
        if method == "macdonald":
            t_max = cfg.macdonald_t_max
            if t_max is None:
                if point.liouv.dim_rho**2 > 10_000:
                    raise ConfigError(
                        "macdonald.t_max required (system too large to "
                        "auto-derive the relaxation time)"
                    )
                t_max = 12.0 / slowest_decay_rate(point.liouv)
            kwargs = {"t_max": t_max, "dt": cfg.macdonald_dt}
        ns = compute_spectrum(point.liouv, point.ss, pair, grid, method=method,
                              normalization=normalization, **kwargs)
        for w, v in zip(ns.omegas, ns.values):
            rows.append((w, v, method, sp.pair, normalization))

    if cfg.output_format == "csv":
        lines = ["#schema=dqdnoise.spectrum.v1;columns=omega,value,method,pair,normalization",
                 "omega,value,method,pair,normalization"]
        lines += [f"{_fmt(w)},{_fmt(v)},{m},{p},{n}" for w, v, m, p, n in rows]
        _write(cfg.output_path, "\n".join(lines) + "\n")
    else:
        payload = {
            "schema": "dqdnoise.spectrum.v1",
            "pair": sp.pair,
            "normalization": normalization,
            "curves": [
                {
                    "method": method,
                    "omega": [r[0] for r in rows if r[2] == method],
                    "value": [r[1] for r in rows if r[2] == method],
                }
                for method in cfg.methods
            ],
        }
        _write(cfg.output_path, _json_text(payload) + "\n")
    return EXIT_OK


def cmd_steady(cfg: RunConfig) -> int:
    point = _single_point(cfg, cfg.spectrum.hamiltonian)
    payload = {
        "schema": "dqdnoise.steady.v1",
        "params": {k: getattr(point.params, k) for k in _MODEL_FIELDS},
        "residual": point.ss.residual,
        "report": point.report.to_dict(),
    }
    _write(cfg.output_path, _json_text(payload) + "\n")
    return EXIT_OK


def _grid_rows(result: GridResult):
    axes = result.spec.axes
    if len(axes) == 1:
        for i, v in enumerate(result.axis_values[0]):
            yield (v,), tuple(result.data[q][i] for q in result.spec.quantities)
    else:
        for i, v1 in enumerate(result.axis_values[0]):
            for j, v2 in enumerate(result.axis_values[1]):
                yield (v1, v2), tuple(result.data[q][i, j] for q in result.spec.quantities)


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.sweep_spec is None:
        raise ConfigError("sweep requires sweep.preset or sweep.axis* keys")
    result = run_sweep(cfg.sweep_spec, workers=cfg.workers, cutoff=cfg.fock_cutoff)
    names = [a.name for a in cfg.sweep_spec.axes]
    quantities = list(cfg.sweep_spec.quantities)
    if cfg.output_format == "csv":
        cols = ",".join(names + quantities)
        lines = [f"#schema=dqdnoise.sweep.v1;columns={cols}", cols]
        for axis_vals, qvals in _grid_rows(result):
            lines.append(",".join([_fmt(v) for v in axis_vals] + [_fmt(q) for q in qvals]))
        _write(cfg.output_path, "\n".join(lines) + "\n")
    else:
        payload = {
            "schema": "dqdnoise.sweep.v1",
            "preset": cfg.sweep_spec.preset,
            "axes": {n: result.axis_values[k] for k, n in enumerate(names)},
            "data": {q: result.data[q] for q in quantities},
            "cutoff_used": result.cutoff_used,
            "convergence_report": result.convergence_report,
            "gaps": [{"index": list(idx), "error": msg} for idx, msg in result.gaps],
        }
        _write(cfg.output_path, _json_text(payload) + "\n")
    if result.gaps:
        print(f"warning: {len(result.gaps)} grid point(s) failed and were "
              "recorded as gaps", file=sys.stderr)
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    results = run_checks(cfg.check_level)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} invariants passed "
          f"({cfg.check_level} suite)")
    return EXIT_INVARIANT if failed else EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "sweep": cmd_sweep,
    "steady": cmd_steady,
    "check": cmd_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqdnoise",
        description="Steady states and current-noise spectra for a transport "
                    "qubit coupled to a mechanical mode (hbar = k_B = e = 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("spectrum", "compute a noise spectrum for one parameter point"),
        ("sweep", "run a parameter sweep or figure preset"),
        ("steady", "solve the steady state and write the moment report"),
        ("check", "run the invariant self-check suite"),
    ):
        sp = sub.add_parser(name, help=desc)
        sp.add_argument("--config", metavar="PATH", help="config file (flat keys or JSON)")
        sp.add_argument("--preset", choices=PRESET_NAMES, help="figure preset name")
        sp.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), dest="out_format")
        sp.add_argument("--fock-cutoff", metavar="N|auto", dest="fock_cutoff")
        sp.add_argument("--workers", type=int, metavar="N")
        sp.add_argument("--methods", metavar="LIST",
                        help="comma list from: " + ",".join(_METHODS))
        sp.add_argument("--check", choices=("fast", "full"), dest="check_level")
    return parser


def _effective_config(args: argparse.Namespace) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    if args.preset:
        if cfg.sweep_spec is not None and cfg.sweep_spec.preset not in (None, args.preset):
            raise ConfigError("--preset conflicts with the config's sweep.preset")
        cfg.sweep_spec = preset(args.preset)
    if args.out:
        cfg.output_path = args.out
    if args.out_format:
        cfg.output_format = args.out_format
    if args.fock_cutoff:
        cfg.fock_cutoff = (args.fock_cutoff if args.fock_cutoff == "auto"
                           else int(args.fock_cutoff))
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        cfg.workers = args.workers
    elif "DQDNOISE_WORKERS" in os.environ:
        raw = os.environ["DQDNOISE_WORKERS"]
        try:
            cfg.workers = max(1, int(raw))
        except ValueError:
            raise ConfigError(f"DQDNOISE_WORKERS: expected an integer, got {raw!r}") from None
    if args.methods:
        methods = tuple(t.strip() for t in args.methods.split(",") if t.strip())
        bad = [m for m in methods if m not in _METHODS]
        if bad:
            raise ConfigError(f"--methods: unknown methods {bad}")
        cfg.methods = methods
    if args.check_level:
        cfg.check_level = args.check_level
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        print("units: hbar = k_B = e = 1 (omega_b defaults to 1)", file=sys.stderr)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
