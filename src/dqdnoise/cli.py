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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .checks import run_checks
from .errors import ConfigError, NumericalError
from .model import HAMILTONIANS, ModelParams
from .noise import TransportPoint, compute_spectrum
from .steady import TRUNCATION_TOL, top_fock_population
from .sweep import (
    PRESET_NAMES,
    GridResult,
    SweepAxis,
    SweepSpec,
    preset,
    resolve_cutoff,
    run_sweep,
)

__all__ = ["main", "parse_config", "serialize_config", "RunConfig"]

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_INVARIANT = 0, 2, 3, 4

_PAIRS = {"ee": ("e", "e"), "bb": ("b", "b"), "eb": ("e", "b")}
_METHODS = ("resolvent", "eigen", "macdonald")


@dataclass
class RunConfig:
    """Validated configuration for one CLI invocation."""

    model: ModelParams = field(default_factory=ModelParams)
    sweep_spec: SweepSpec | None = None
    pair: str = "ee"
    omega_start: float = 0.2
    omega_stop: float = 1.8
    omega_count: int = 300
    normalization: str = "fano"
    hamiltonian: str = "full"
    output_path: str | None = None
    output_format: str = "csv"
    methods: tuple[str, ...] = ("resolvent",)
    check_level: str = "fast"
    workers: int = 1
    fock_cutoff: int | str | None = None
    macdonald_t_max: float | None = None
    macdonald_dt: float = 0.02


# Parsers take a raw value (config text, JSON value, flag or env string) and
# return the checked value or raise ValueError saying what was expected.
def _number(raw, positive=False):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value) or (positive and value <= 0):
        raise ValueError(f"expected a finite number{' > 0' if positive else ''}, got {raw!r}")
    return value


def _integer(raw, minimum=None):
    try:
        value = int(str(raw))
    except ValueError:
        value = None
    if value is None or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"expected an integer{bound}, got {raw!r}")
    return value


def _one_of(*allowed):
    def parse(raw):
        if str(raw) not in allowed:
            raise ValueError(f"expected {'|'.join(allowed)}, got {raw!r}")
        return str(raw)
    return parse


def _parse_list(raw):
    if isinstance(raw, (list, tuple)):
        return [str(x) for x in raw]
    return [tok.strip() for tok in str(raw).split(",") if tok.strip()]


def _methods(raw):
    methods = tuple(_parse_list(raw))
    if not methods or not set(methods) <= set(_METHODS):
        raise ValueError(f"expected a comma list from {','.join(_METHODS)}, got {raw!r}")
    return methods


def _fock_cutoff(raw):
    if str(raw) == "auto":
        return "auto"
    try:
        return _integer(raw, 1)
    except ValueError:
        raise ValueError(f"expected auto or an integer >= 1, got {raw!r}") from None


_MODEL_FIELDS = {
    "epsilon": _number, "delta": _number, "g": _number, "omega_b": _number,
    "gamma_L": _number, "gamma_R": _number, "gamma_b": _number,
    "temperature": _number, "n_fock": _integer,
}

# The run settings: config key, the RunConfig field it sets, its parser, and
# its flag. A flag overrides DQDNOISE_WORKERS, which overrides the config file.
_SETTINGS = (
    ("output.path", "output_path", str, "--out"),
    ("output.format", "output_format", _one_of("csv", "json"), "--format"),
    ("methods", "methods", _methods, "--methods"),
    ("check.level", "check_level", _one_of("fast", "full"), "--check"),
    ("workers", "workers", lambda raw: _integer(raw, 1), "--workers"),
    ("fock_cutoff", "fock_cutoff", _fock_cutoff, "--fock-cutoff"),
    ("macdonald.t_max", "macdonald_t_max", lambda raw: _number(raw, positive=True), None),
    ("macdonald.dt", "macdonald_dt", lambda raw: _number(raw, positive=True), None),
    ("spectrum.pair", "pair", _one_of(*_PAIRS), None),
    ("spectrum.omega_start", "omega_start", _number, None),
    ("spectrum.omega_stop", "omega_stop", _number, None),
    ("spectrum.omega_count", "omega_count", lambda raw: _integer(raw, 2), None),
    ("spectrum.normalization", "normalization", _one_of("raw", "fano"), None),
    ("spectrum.hamiltonian", "hamiltonian", _one_of(*HAMILTONIANS), None),
)


def _value(key: str, item: tuple[object, str], parse):
    """``parse`` applied to one (raw value, origin) entry; a rejected value
    becomes a ConfigError naming the key and where it was set."""
    raw, origin = item
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} ({origin}): {exc}") from None


def _read_pairs(path: str) -> dict[str, tuple[object, str]]:
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
        return {str(k): (v, "JSON key") for k, v in data.items()}
    pairs: dict[str, tuple[object, str]] = {}
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
        pairs[key] = (value.strip(), f"line {lineno}")
    return pairs


def _build_axis(idx: int, pairs, consume) -> SweepAxis | None:
    prefix = f"sweep.axis{idx}."
    keys = [k for k in pairs if k.startswith(prefix)]
    if not keys:
        return None
    name_raw = consume(prefix + "name")
    if name_raw is None:
        raise ConfigError(f"{prefix}name ({pairs[keys[0]][1]}): axis requires a name")
    name, origin = name_raw
    values_raw = consume(prefix + "values")
    kw = {"name": str(name)}
    if values_raw is not None:
        kw["values"] = tuple(_value(prefix + "values", (v, values_raw[1]), _number)
                             for v in _parse_list(values_raw[0]))
    else:
        for part, parse in (("start", _number), ("stop", _number), ("count", _integer)):
            item = consume(prefix + part)
            if item is None:
                raise ConfigError(f"{prefix}{part} ({origin}): required without explicit values")
            kw[part] = _value(prefix + part, item, parse)
    try:
        return SweepAxis(**kw)
    except ValueError as exc:
        raise ConfigError(f"{prefix}* ({origin}): {exc}") from exc


def _preset_supplies(spec: SweepSpec, key: str) -> bool:
    """Whether the preset ``spec`` fixes the setting of config key ``key``."""
    return key.startswith(("model.", "sweep.")) or key == "spectrum.hamiltonian" or \
        key.startswith("spectrum.omega_") and any(a.name == "omega" for a in spec.axes)


def _config_from_pairs(pairs: dict[str, tuple[object, str]]) -> RunConfig:
    remaining = dict(pairs)

    def consume(key):
        return remaining.pop(key, None)

    sweep_spec = None
    preset_item = consume("sweep.preset")
    if preset_item is not None:
        try:
            sweep_spec = preset(str(preset_item[0]))
        except KeyError as exc:
            raise ConfigError(f"sweep.preset ({preset_item[1]}): {exc.args[0]}") from exc
        supplied = [f"{key} ({origin})" for key, (_, origin) in remaining.items()
                    if _preset_supplies(sweep_spec, key)]
        if supplied:
            raise ConfigError(
                f"{', '.join(supplied)}: set by sweep.preset ({preset_item[1]}); "
                "presets are the single source of truth for their parameters"
            )

    model_kw = {}
    for name, parse in _MODEL_FIELDS.items():
        item = consume(f"model.{name}")
        if item is not None:
            model_kw[name] = _value(f"model.{name}", item, parse)

    axes = [a for a in (_build_axis(1, remaining, consume), _build_axis(2, remaining, consume))
            if a is not None]
    quantities_item = consume("sweep.quantities")
    hamiltonian_item = consume("sweep.hamiltonian")
    manual_sweep = sweep_spec is None and bool(axes)
    for key, item in (("sweep.quantities", quantities_item),
                      ("sweep.hamiltonian", hamiltonian_item)):
        if item is not None and not manual_sweep:
            raise ConfigError(
                f"{key} ({item[1]}): only valid in a manual sweep (sweep.axis* keys, no preset)"
            )

    try:
        model = ModelParams(**model_kw)
    except ValueError as exc:
        raise ConfigError(f"model.* : {exc}") from exc

    if manual_sweep:
        if quantities_item is None:
            raise ConfigError("sweep.quantities: required for a manual sweep")
        ham = "full" if hamiltonian_item is None else \
            _value("sweep.hamiltonian", hamiltonian_item, _one_of(*HAMILTONIANS))
        try:
            sweep_spec = SweepSpec(base=model, axes=tuple(axes),
                                   quantities=tuple(_parse_list(quantities_item[0])),
                                   hamiltonian=ham)
        except ValueError as exc:
            raise ConfigError(f"sweep.* : {exc}") from exc

    settings = {}
    for key, name, parse, _ in _SETTINGS:
        item = consume(key)
        if item is not None:
            settings[name] = _value(key, item, parse)

    if remaining:
        key = sorted(remaining)[0]
        raise ConfigError(f"{key} ({remaining[key][1]}): unknown key")
    return RunConfig(model=model, sweep_spec=sweep_spec, **settings)


def parse_config(path: str) -> RunConfig:
    """Parse and validate a config file (flat dotted keys or JSON)."""
    return _config_from_pairs(_read_pairs(path))


def serialize_config(cfg: RunConfig) -> str:
    """Canonical flat-key text form; parse_config(serialize(cfg)) == cfg."""
    lines = ["# dqdnoise config (units: hbar = k_B = e = 1)"]
    has_preset = cfg.sweep_spec is not None and cfg.sweep_spec.preset is not None
    if has_preset:  # presets are the single source of truth for model params
        lines.append(f"sweep.preset = {cfg.sweep_spec.preset}")
    else:
        for name in _MODEL_FIELDS:
            lines.append(f"model.{name} = {_fmt(getattr(cfg.model, name))}")
    if cfg.sweep_spec is not None and not has_preset:
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
    for key, name, _, _ in _SETTINGS:
        if has_preset and _preset_supplies(cfg.sweep_spec, key):
            continue
        value = getattr(cfg, name)
        if isinstance(value, tuple):
            value = ",".join(value)
        if value is not None:
            lines.append(f"{key} = {value if isinstance(value, str) else _fmt(value)}")
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


def _preset(cfg: RunConfig) -> SweepSpec | None:
    return cfg.sweep_spec if cfg.sweep_spec and cfg.sweep_spec.preset else None


def _warn_truncation(top: np.ndarray) -> None:
    """One stderr line when a point's top Fock level holds more than TRUNCATION_TOL."""
    over = int(np.count_nonzero(top > TRUNCATION_TOL))
    if over:
        worst = int(np.nanargmax(top))
        where = f" at grid index {[int(i) for i in np.unravel_index(worst, top.shape)]}" \
            if top.ndim else ""
        print(f"warning: {over} point(s) hold more than {TRUNCATION_TOL:g} of their population "
              f"in the top Fock level (worst {top.flat[worst]:.3e}{where}); the Fock cutoff "
              "is likely too small", file=sys.stderr)


def _single_point(cfg: RunConfig) -> TransportPoint:
    """A preset's base point and Hamiltonian, else model.* and spectrum.hamiltonian,
    at the Fock cutoff :func:`sweep.resolve_cutoff` picks for that one point."""
    spec = _preset(cfg)
    params, hamiltonian = (spec.base, spec.hamiltonian) if spec else (cfg.model, cfg.hamiltonian)
    n_fock, _ = resolve_cutoff(params, (), hamiltonian, cfg.fock_cutoff)
    point = TransportPoint(replace(params, n_fock=n_fock), hamiltonian)
    _warn_truncation(np.array(top_fock_population(point.ss)))
    return point


def cmd_spectrum(cfg: RunConfig) -> int:
    spec = _preset(cfg)
    omega = [a.grid() for a in spec.axes if a.name == "omega"] if spec else []
    grid = omega[0] if omega else np.linspace(cfg.omega_start, cfg.omega_stop, cfg.omega_count)
    pair = _PAIRS[cfg.pair]
    if pair[0] != pair[1] and "eigen" in cfg.methods:
        raise ConfigError(f"spectrum.pair = {cfg.pair}: the eigen method covers "
                          "autocorrelation pairs only")
    normalization = cfg.normalization
    if pair[0] != pair[1] and normalization == "fano":
        normalization = "raw"

    point = _single_point(cfg)
    rows = []
    for method in cfg.methods:
        values, = compute_spectrum(point.liouv, point.ss, [(pair, normalization)], grid,
                                   method=method, t_max=cfg.macdonald_t_max,
                                   dt=cfg.macdonald_dt)
        rows += [(w, v, method, cfg.pair, normalization) for w, v in zip(grid, values)]

    if cfg.output_format == "csv":
        lines = ["#schema=dqdnoise.spectrum.v1;columns=omega,value,method,pair,normalization",
                 "omega,value,method,pair,normalization"]
        lines += [f"{_fmt(w)},{_fmt(v)},{m},{p},{n}" for w, v, m, p, n in rows]
        _write(cfg.output_path, "\n".join(lines) + "\n")
    else:
        payload = {
            "schema": "dqdnoise.spectrum.v1",
            "pair": cfg.pair,
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
    point = _single_point(cfg)
    payload = {
        "schema": "dqdnoise.steady.v1",
        "params": asdict(point.params),
        "residual": point.ss.residual,
        "report": point.report.to_dict(),
    }
    _write(cfg.output_path, _json_text(payload) + "\n")
    return EXIT_OK


def _grid_rows(result: GridResult):
    for idx in np.ndindex(tuple(len(v) for v in result.axis_values)):
        yield (tuple(v[i] for v, i in zip(result.axis_values, idx)),
               tuple(result.data[q][idx] for q in result.spec.quantities))


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
    _warn_truncation(result.top_population)
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    results = run_checks(cfg.check_level)
    failed = [r for r in results if not r.passed]
    lines = [r.line() for r in results]
    lines.append(f"{len(results) - len(failed)}/{len(results)} invariants passed "
                 f"({cfg.check_level} suite)")
    _write(cfg.output_path, "\n".join(lines) + "\n")
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
        for key, _, _, flag in _SETTINGS:
            if flag:
                sp.add_argument(flag, dest=key, help=f"sets {key}")
    return parser


def _effective_config(args: argparse.Namespace) -> RunConfig:
    """The config file's entries, overridden by DQDNOISE_WORKERS and then by
    the flags, parsed and checked in one pass."""
    pairs = _read_pairs(args.config) if args.config else {}
    if "DQDNOISE_WORKERS" in os.environ:
        pairs["workers"] = (os.environ["DQDNOISE_WORKERS"], "DQDNOISE_WORKERS")
    for key, _, _, flag in _SETTINGS:
        if flag and getattr(args, key) is not None:
            pairs[key] = (getattr(args, key), flag)
    if args.preset:
        item = pairs.get("sweep.preset")
        if item is not None and str(item[0]) != args.preset:
            raise ConfigError(f"--preset conflicts with the config's sweep.preset ({item[1]})")
        pairs["sweep.preset"] = (args.preset, "--preset")
    return _config_from_pairs(pairs)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        print("units: hbar = k_B = e = 1 (omega_b defaults to 1)", file=sys.stderr)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
