"""Reproducible experiment driver.

Each subcommand runs one pipeline end to end and emits a single rectangular
table as CSV (default) or JSON:

    fi         Fisher information over a theta grid
    landscape  witness V and gain indicator G over a 2-D split grid
    certify    finite-shot witness certification (single point or sweep)
    adversary  Adam-with-restarts search for the saturation frontier
    rmse       Monte-Carlo MLE error versus sample size
    chain      analytic chain gain Gamma_K over (gamma, K)
    nsit-demo  NSIT-vs-witness separation example
    crossing   dephasing rate where the chain advantage disappears

CSV output carries '#'-prefixed metadata lines (tool version, command,
effective config, seed, wall clock); JSON output is {"meta": ..., "columns":
..., "rows": ...}, whose meta.config can be written to a file and fed back
via --config to reproduce the run.  Each column has one type: integers print
as integers, floats with 17 significant digits, and a non-finite float as
inf/-inf in CSV and null in JSON; an exit-0 table never holds NaN.
Configuration precedence is CLI flags > config file > defaults.  Exit codes:
0 success, 2 configuration error (including an unknown or malformed flag),
3 numerical degeneracy; codes 2 and 3 print one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .adversary import optimize_restarts
from .errors import CfiiError
from .estimate import (analytic_certification, certify_vk, mc_rmse,
                       sample_binary)
from .models import (BinaryModel, NoisyFringeModel, NoisyFringeParams,
                     QubitFringeModel, QubitPreparation)
from .witness import gamma_crossing, k_chain_gain, nsit_separation_demo

# Metadata key holding the only non-reproducible field; comparisons between
# runs must drop it.
WALLCLOCK_KEY = "wallclock"


class ConfigError(Exception):
    """Invalid command-line flags or config-file contents (exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged, validated settings for one command invocation."""

    command: str
    params: dict
    seed: int | None
    out: str | None
    fmt: str


@dataclass
class ResultTable:
    """Named, equal-length result columns plus a metadata block."""

    columns: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.columns = {name: np.asarray(col)
                        for name, col in self.columns.items()}
        shapes = {col.shape for col in self.columns.values()}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise ValueError("result columns must be 1-D and of equal length")

    def render_csv(self) -> str:
        lines = [f"# {key}: {_fmt_meta(value)}"
                 for key, value in self.meta.items()]
        lines.append(",".join(self.columns))
        lines += map(",".join, self._rows(csv=True))
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        """The text of json.dumps(doc, indent=2) and a newline, for doc =
        {"meta": ..., "columns": ..., "rows": ...}: the indent encoder writes
        meta and columns, and the rows are laid out in the same form from
        cells encoded a column at a time (the indent encoder is pure Python
        and slow on large tables)."""
        head = json.dumps({"meta": self.meta, "columns": list(self.columns)},
                          indent=2)  # ends in "\n}"
        rows = ["    [\n      " + ",\n      ".join(row) + "\n    ]"
                for row in self._rows(csv=False)]
        body = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        return head[:-2] + ',\n  "rows": ' + body + "\n}\n"

    def _rows(self, csv: bool):
        return zip(*(_cells(col, csv) for col in self.columns.values()))


def _fmt_meta(value) -> str:
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _cells(col: np.ndarray, csv: bool) -> list[str]:
    """One column's cells as text: floats as %.17g in CSV and as JSON
    numbers, or null when not finite, in JSON; any other dtype as the str
    (CSV) or the JSON encoding of its Python value."""
    values = col.tolist()
    if col.dtype.kind == "f":
        if csv:
            return ["%.17g" % v for v in values]
        # json encodes a finite float as its repr
        return [repr(v) if math.isfinite(v) else "null" for v in values]
    return list(map(str if csv else json.dumps, values))


# ---------------------------------------------------------------------------
# configuration

# per-command experiment parameters: key -> (type, default)
_SPECS: dict[str, dict[str, tuple[type, object]]] = {
    "fi": {
        "model": (str, "noisy"),
        "vartheta": (float, 0.0),
        "varphi": (float, math.pi / 2),
        "gamma": (float, 0.25),
        "eps_r": (float, 0.02),
        "vartheta0": (float, 0.0),
        "grid": (str, "0.05:6.25:200"),
    },
    "landscape": {
        "vartheta": (float, 0.7 * math.pi),
        "varphi": (float, 0.3 * math.pi),
        "grid": (str, "0.05:6.0:64"),
        "grid_cb": (str, ""),
        "clip_v": (float, 10.0),
        "clip_g": (float, 5.0),
    },
    "certify": {
        "gamma": (float, 0.25),
        "eps_r": (float, 0.02),
        "vartheta0": (float, 0.0),
        "k": (int, 4),
        "t_total": (float, math.pi / 2),
        "shots": (int, 1000),
        "se_mode": (str, "analytic-moment"),
        "gamma_grid": (str, ""),
        "shots_grid": (str, ""),
    },
    "adversary": {
        "l": (int, 5),
        "m": (int, 5),
        "restarts": (int, 36),
        "steps": (int, 2000),
        "lr": (float, 0.05),
    },
    "rmse": {
        "model": (str, "ideal"),
        "vartheta": (float, 0.0),
        "varphi": (float, math.pi / 2),
        "gamma": (float, 0.25),
        "eps_r": (float, 0.02),
        "vartheta0": (float, 0.0),
        "theta": (float, math.pi / 2),
        "n_grid": (str, "100:100000:7"),
        "reps": (int, 1000),
    },
    "chain": {
        "gamma_grid": (str, "0.0:0.6:25"),
        "k": (int, 4),
        "k_grid": (str, ""),
        "eps_r": (float, 0.02),
        "vartheta0": (float, 0.0),
        "t_total": (float, math.pi / 2),
    },
    "nsit-demo": {},
    "crossing": {
        "k": (int, 4),
        "t_total": (float, math.pi / 2),
        "eps_r": (float, 0.02),
        "vartheta0": (float, 0.0),
        "gamma_max": (float, 2.0),
    },
}

# commands that always draw samples and therefore require a seed;
# certify enforces it only in single-point mode
_STOCHASTIC = {"adversary", "rmse"}


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError where argparse would print usage and exit."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cfii", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _SPECS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"),
                       default=argparse.SUPPRESS)
        for key, (typ, _default) in spec.items():
            p.add_argument("--" + key.replace("_", "-"), type=typ, dest=key,
                           default=argparse.SUPPRESS)
    return parser


def _load_config_file(path: str, command: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    allowed = set(_SPECS[command]) | {"seed", "format"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command}: {sorted(unknown)}")
    return raw


def _coerce(command: str, key: str, value):
    if key == "seed":
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"seed must be an integer, got {value!r}")
        return value
    if key == "format":
        if value not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {value!r}")
        return value
    typ, _ = _SPECS[command][key]
    try:
        if typ is int:
            if isinstance(value, float) and not value.is_integer():
                raise ValueError("not an integer")
            return int(value)
        if typ is float:
            return float(value)
        return str(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def build_config(argv: list[str]) -> ExperimentConfig:
    ns = _build_parser().parse_args(argv)
    command = ns.command
    merged: dict = {key: default
                    for key, (_t, default) in _SPECS[command].items()}
    merged.update({"seed": None, "format": "csv"})
    if ns.config:
        merged.update(_load_config_file(ns.config, command))
    for key, value in vars(ns).items():
        if key not in ("command", "config", "out"):
            merged[key] = value
    merged = {key: _coerce(command, key, value)
              for key, value in merged.items()}
    seed = merged.pop("seed")
    fmt = merged.pop("format")
    if command in _STOCHASTIC and seed is None:
        raise ConfigError(f"{command} is stochastic: --seed is required")
    return ExperimentConfig(command=command, params=merged, seed=seed,
                            out=ns.out, fmt=fmt)


def _parse_grid(spec: str, name: str) -> np.ndarray:
    a, b, n = _split_grid(spec, name)
    return np.linspace(a, b, n)


def _parse_int_geom_grid(spec: str, name: str) -> np.ndarray:
    a, b, n = _split_int_grid(spec, name)
    if a < 1 or b < a:
        raise ConfigError(f"{name} needs 1 <= A <= B")
    return np.unique(np.rint(np.geomspace(a, b, n)).astype(np.int64))


def _parse_int_lin_grid(spec: str, name: str) -> np.ndarray:
    a, b, n = _split_int_grid(spec, name)
    return np.unique(np.rint(np.linspace(a, b, n)).astype(np.int64))


def _split_int_grid(spec: str, name: str) -> tuple[float, float, int]:
    """Grid endpoints that fit in int64, so that every rounded point does."""
    a, b, n = _split_grid(spec, name)
    if not all(-2.0 ** 63 <= x < 2.0 ** 63 for x in (a, b)):
        raise ConfigError(
            f"{name} endpoints must fit in a 64-bit integer, got {spec!r}")
    return a, b, n


def _split_grid(spec: str, name: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must look like A:B:N, got {spec!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {spec!r}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigError(f"{name} endpoints must be finite, got {spec!r}")
    if n < 2:
        raise ConfigError(f"{name} needs at least 2 points, got {n}")
    return a, b, n


def _model_from(params: dict) -> BinaryModel:
    kind = params["model"]
    if kind == "ideal":
        return QubitFringeModel(QubitPreparation(
            vartheta=params["vartheta"], varphi=params["varphi"]))
    if kind == "noisy":
        return _noisy(params, params["gamma"])
    raise ConfigError(f"model must be ideal or noisy, got {kind!r}")


def _noisy(params: dict, gamma: float) -> NoisyFringeModel:
    return NoisyFringeModel(NoisyFringeParams(
        gamma=gamma, epsilon_r=params["eps_r"], vartheta0=params["vartheta0"]))


# ---------------------------------------------------------------------------
# commands

def cmd_fi(config: ExperimentConfig) -> ResultTable:
    params = config.params
    model = _model_from(params)
    thetas = _parse_grid(params["grid"], "--grid")
    return ResultTable({"theta": thetas, "z": model.z(thetas),
                        "fi": model.fi(thetas)})


def cmd_landscape(config: ExperimentConfig) -> ResultTable:
    params = config.params
    model = QubitFringeModel(QubitPreparation(vartheta=params["vartheta"],
                                              varphi=params["varphi"]))
    if not (params["clip_v"] > 0.0 and params["clip_g"] > 0.0):
        raise ConfigError("clip-v and clip-g must be > 0")
    t_ac = _parse_grid(params["grid"], "--grid")
    t_cb = _parse_grid(params["grid_cb"] or params["grid"], "--grid-cb")

    with np.errstate(divide="ignore", invalid="ignore"):
        f_end = model.fi(t_ac[:, None] + t_cb)
        f_ac = model.fi(t_ac)[:, None]
        f_cb = model.fi(t_cb)
        v = 1.0 / f_end - 1.0 / f_ac - 1.0 / f_cb
        f_cl = 1.0 / (1.0 / f_ac + 1.0 / f_cb)
        g = 0.5 * (np.log(f_cl) - np.log(f_end))
    v = np.clip(v, -params["clip_v"], params["clip_v"])
    g = np.clip(g, -params["clip_g"], params["clip_g"])
    return ResultTable({"theta_ac": np.repeat(t_ac, t_cb.size),
                        "theta_cb": np.tile(t_cb, t_ac.size),
                        "v": v.ravel(), "g": g.ravel()})


def cmd_certify(config: ExperimentConfig) -> ResultTable:
    params = config.params
    if params["se_mode"] not in ("analytic-moment", "empirical"):
        raise ConfigError(f"se-mode must be analytic-moment or empirical, "
                          f"got {params['se_mode']!r}")
    if params["gamma_grid"] or params["shots_grid"]:
        return _certify_sweep(params)
    if config.seed is None:
        raise ConfigError("single-point certify is stochastic: "
                          "--seed is required")
    return _certify_point(params, config.seed)


def _quantities(values: dict[str, float]) -> ResultTable:
    """Two-column (quantity, value) table of named scalar results."""
    return ResultTable({"quantity": list(values),
                        "value": list(values.values())})


def _certify_point(params: dict, seed: int) -> ResultTable:
    k, t_total, n = params["k"], params["t_total"], params["shots"]
    model = _noisy(params, params["gamma"])
    # first, so that bad t_total, k or shots stop the run before any sampling
    expected = analytic_certification(model, t_total, k, n)
    endpoint = sample_binary(model, t_total, n, seed, 0)
    segments = [sample_binary(model, t_total / k, n, seed, 1 + j)
                for j in range(k)]
    report = certify_vk(endpoint, segments, model, se_mode=params["se_mode"])
    return _quantities({
        "v_hat": report.v_hat, "se": report.se, "z": report.z,
        "ci95_lo": report.ci95[0], "ci95_hi": report.ci95[1],
        "fi_hat_end": report.estimates[0].value,
        **{f"fi_hat_seg_{j}": e.value
           for j, e in enumerate(report.estimates[1:], start=1)},
        "v_analytic": expected.v_hat, "se_analytic": expected.se,
        "z_analytic": expected.z,
    })


def _certify_sweep(params: dict) -> ResultTable:
    gammas = (_parse_grid(params["gamma_grid"], "--gamma-grid")
              if params["gamma_grid"] else np.array([params["gamma"]]))
    shots = (_parse_int_geom_grid(params["shots_grid"], "--shots-grid")
             if params["shots_grid"] else np.array([params["shots"]]))
    gamma_col = np.repeat(gammas, shots.size)
    shots_col = np.tile(shots, gammas.size)
    reports = [analytic_certification(_noisy(params, gamma),
                                      params["t_total"], params["k"], n)
               for gamma, n in zip(gamma_col.tolist(), shots_col.tolist())]
    z = np.array([rep.z for rep in reports])
    return ResultTable({
        "gamma": gamma_col, "shots": shots_col,
        "v_k": [rep.v_hat for rep in reports],
        "se": [rep.se for rep in reports],
        "z": z,
        "z_ge_3": (z >= 3.0).astype(np.int64),
        "z_ge_5": (z >= 5.0).astype(np.int64),
    })


def cmd_adversary(config: ExperimentConfig) -> ResultTable:
    params = config.params
    result = optimize_restarts(params["l"], params["m"],
                               n_restarts=params["restarts"],
                               steps=params["steps"], lr=params["lr"],
                               seed=config.seed)
    gammas = np.asarray(result.restart_gammas)
    meta = {f"summary_{stat}": "%.17g" % getattr(gammas, stat)()
            for stat in ("max", "mean", "min")}
    return ResultTable({"restart": np.arange(gammas.size),
                        "gamma_adv": gammas}, meta=meta)


def cmd_rmse(config: ExperimentConfig) -> ResultTable:
    params = config.params
    model = _model_from(params)
    theta = params["theta"]
    f = model.fi(theta)
    if f <= 0.0:
        raise ConfigError("reference bounds undefined: FI is zero at theta")
    n_values = _parse_int_geom_grid(params["n_grid"], "--n-grid")
    vartheta = (params["vartheta"] if params["model"] == "ideal"
                else params["vartheta0"])
    crb = 1.0 / np.sqrt(n_values * f)
    return ResultTable({
        "n": n_values,
        "rmse": [mc_rmse(model, theta, n, params["reps"], config.seed, i,
                         vartheta=vartheta)
                 for i, n in enumerate(n_values.tolist())],
        "crb": crb, "crb_classical": math.sqrt(2.0) * crb,
    })


def cmd_chain(config: ExperimentConfig) -> ResultTable:
    params = config.params
    gammas = _parse_grid(params["gamma_grid"], "--gamma-grid")
    ks = (_parse_int_lin_grid(params["k_grid"], "--k-grid")
          if params["k_grid"] else np.array([params["k"]]))
    t_total = params["t_total"]
    k_col = np.repeat(ks, gammas.size)
    gamma_col = np.tile(gammas, ks.size)
    pairs = list(zip(k_col.tolist(), gamma_col.tolist()))
    reports = [k_chain_gain(_noisy(params, gamma), t_total, k)
               for k, gamma in pairs]
    return ResultTable({
        "k": k_col, "gamma": gamma_col,
        "f_end": [rep.f_end for rep in reports],
        "f_segment": [rep.f_segments[0] for rep in reports],
        "f_benchmark": [rep.f_benchmark for rep in reports],
        "v_k": [rep.v for rep in reports],
        "gamma_k": [rep.gamma_ratio for rep in reports],
        # math.exp per row: np.exp on the column differs in the last ulp
        "gamma_k_midfringe": [
            k * math.exp(-2.0 * gamma * t_total * (1.0 - 1.0 / k))
            for k, gamma in pairs],
    })


def cmd_nsit_demo(config: ExperimentConfig) -> ResultTable:
    nsit_holds, v = nsit_separation_demo()
    return _quantities({"nsit_holds": 1.0 if nsit_holds else 0.0,
                        "v_path": v})


def cmd_crossing(config: ExperimentConfig) -> ResultTable:
    params = config.params
    if not 0.0 < params["gamma_max"] < math.inf:
        raise ConfigError("gamma-max must be finite and > 0")
    gamma_star = gamma_crossing(_noisy(params, 0.0).params,
                                params["t_total"], params["k"],
                                gamma_range=(0.0, params["gamma_max"]))
    return ResultTable({"k": [params["k"]], "t_total": [params["t_total"]],
                        "eps_r": [params["eps_r"]], "gamma_star": [gamma_star]})


_COMMANDS = {
    "fi": cmd_fi,
    "landscape": cmd_landscape,
    "certify": cmd_certify,
    "adversary": cmd_adversary,
    "rmse": cmd_rmse,
    "chain": cmd_chain,
    "nsit-demo": cmd_nsit_demo,
    "crossing": cmd_crossing,
}


def execute(config: ExperimentConfig) -> ResultTable:
    """Run the configured command and attach the metadata block."""
    try:
        table = _COMMANDS[config.command](config)
    except CfiiError:
        raise
    except ValueError as exc:  # a parameter outside the library's domain
        raise ConfigError(str(exc)) from exc
    if any(np.isnan(col).any() for col in table.columns.values()
           if col.dtype.kind == "f"):
        raise CfiiError("undefined (NaN) result cells")
    echo = dict(sorted(config.params.items()))
    echo["seed"] = config.seed
    meta = {
        "tool": f"cfii {__version__}",
        "command": config.command,
        "config": echo,
        "seed": config.seed if config.seed is not None else "none",
        WALLCLOCK_KEY: datetime.now(timezone.utc).isoformat(),
    }
    meta.update(table.meta)
    table.meta = meta
    return table


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = build_config(argv)
        table = execute(config)
        text = (table.render_json() if config.fmt == "json"
                else table.render_csv())
        if config.out:
            Path(config.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return 0
    except ConfigError as exc:
        print(f"cfii: config error: {exc}", file=sys.stderr)
        return 2
    except CfiiError as exc:
        print(f"cfii: numerical degeneracy: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
