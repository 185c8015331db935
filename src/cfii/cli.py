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
..., "rows": ...}, whose meta.config can be written to a file and fed back via
--config to reproduce the run.  Each column has one type: integers print as
integers, floats with 17 significant digits, and a non-finite float as inf/-inf
in CSV and null in JSON; an exit-0 table never holds NaN.  Configuration
precedence is CLI flags > config file > defaults.  _SPECS is the one table of
flags: build_config reads argv against it, and --help lists each flag with its
kind and default.  A flag is spelled as its key with dashes and checked against
its kind when given, whether or not the command or its model uses it, so the
config echo is always strict JSON.  main() alone maps an exception to an exit
code: a CfiiError to 3 (numerical degeneracy), then any other ValueError (an
unwritable --out file too) to 2 (configuration error), each with one line on
stderr.  run() is the one-shot entry (the cfii script and python -m cfii.cli);
main() is the same driver for a caller that keeps running.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # a one-shot process (see run): no collections during numpy's import
    gc.disable()

import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CfiiError
from .models import (BinaryModel, NoisyFringeModel, NoisyFringeParams,
                     QubitFringeModel, QubitPreparation)
from .rng import require_integral, require_real

# Each command imports the layers it calls (adversary, estimate, witness) in
# its own body, so a fresh process loads only those.

# Metadata key holding the only non-reproducible field; comparisons between
# runs must drop it.
WALLCLOCK_KEY = "wallclock"

# Most points of a grid, and most rows of a table, that a command builds; a
# larger request is refused before any array is allocated.  A 1000 x 1000
# landscape takes about 5.5 s and 0.55 GB on a 2-vCPU box.
MAX_ROWS = 10 ** 6


class ConfigError(ValueError):
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
    """One column's cells as text: floats (as float64) as %.17g in CSV and
    as JSON numbers, or null when not finite, in JSON; any other dtype as
    the str (CSV) or the JSON encoding of its Python value.

    A grid product repeats each key on many rows, so each distinct float is
    formatted once and its cells share the text.  Floats are told apart by
    their bits (-0.0 from 0.0, one NaN payload from another).  When sorting
    the bits finds no repeat, the cells are formatted in order.
    """
    if col.dtype.kind != "f":
        return list(map(str if csv else json.dumps, col.tolist()))
    col = col.astype(np.float64, copy=False)
    bits = col.view(np.int64)
    runs = np.sort(bits)
    starts = np.empty(runs.size, dtype=bool)
    starts[:1] = True
    np.not_equal(runs[1:], runs[:-1], out=starts[1:])
    repeats = not starts.all()
    values = (runs[starts].view(np.float64) if repeats else col).tolist()
    if csv:
        texts = ["%.17g" % v for v in values]
    else:
        # json encodes a finite float as its repr
        texts = [repr(v) if math.isfinite(v) else "null" for v in values]
    if not repeats:
        return texts
    run = np.empty(bits.size, dtype=np.intp)
    run[np.argsort(bits)] = np.cumsum(starts) - 1
    return np.array(texts, dtype=object)[run].tolist()


# ---------------------------------------------------------------------------
# configuration

# Every flag of every command: key -> (kind, default).  A kind is int, float
# (finite), str, or a tuple of the accepted strings; _coerce checks each
# value, from argv or a config file, against it.
_MODEL = {
    "model": (("ideal", "noisy"), "noisy"),
    "vartheta": (float, 0.0),
    "varphi": (float, math.pi / 2),
    "gamma": (float, 0.25),
    "eps_r": (float, 0.02),
    "vartheta0": (float, 0.0),
}
# the noisy model's flags other than its rate gamma
_NOISE = {key: _MODEL[key] for key in ("eps_r", "vartheta0")}
_SPECS: dict[str, dict[str, tuple[object, object]]] = {
    command: {"seed": (int, None), "format": (("csv", "json"), "csv"), **spec}
    for command, spec in {
        "fi": {**_MODEL, "grid": (str, "0.05:6.25:200")},
        "landscape": {
            "vartheta": (float, 0.7 * math.pi),
            "varphi": (float, 0.3 * math.pi),
            "grid": (str, "0.05:6.0:64"),
            "grid_cb": (str, ""),
            "clip_v": (float, 10.0),
            "clip_g": (float, 5.0),
        },
        "certify": {
            "gamma": _MODEL["gamma"],
            **_NOISE,
            "k": (int, 4),
            "t_total": (float, math.pi / 2),
            "shots": (int, 1000),
            "se_mode": (("analytic-moment", "empirical"), "analytic-moment"),
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
            **_MODEL,
            "model": (_MODEL["model"][0], "ideal"),
            "theta": (float, math.pi / 2),
            "n_grid": (str, "100:100000:7"),
            "reps": (int, 1000),
        },
        "chain": {
            "gamma_grid": (str, "0.0:0.6:25"),
            "k": (int, 4),
            "k_grid": (str, ""),
            **_NOISE,
            "t_total": (float, math.pi / 2),
        },
        "nsit-demo": {},
        "crossing": {
            "k": (int, 4),
            "t_total": (float, math.pi / 2),
            **_NOISE,
            "gamma_max": (float, 2.0),
        },
    }.items()
}


def _load_config_file(path: str, command: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - set(_SPECS[command])
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command}: {sorted(unknown)}")
    return raw


def _coerce(key: str, kind, default, value):
    """`value` of flag `key` checked against its kind: a string, one of a
    tuple's strings, an int64 or a finite float (a string is parsed first,
    and true and false are not numbers).  None stays None where the default
    is None; the library checks each value against its own domain."""
    if value is None and default is None:
        return value
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(
                f"{key} must be {' or '.join(kind)}, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        return value
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            value = kind(value)
    elif isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return (require_integral(value, key, -2 ** 63) if kind is int
                else require_real(value, key))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_config(argv: list[str] | None) -> ExperimentConfig:
    """The config of argv (sys.argv[1:] when None): a command of _SPECS and
    its flags, each --flag=value or --flag and its value, whatever that
    starts with; the last of a repeated flag wins.  A token that is neither
    ends the reading, and the refusal names it and the tokens after it."""
    command, *rest = (sys.argv[1:] if argv is None else argv) or [""]
    if command not in _SPECS:
        if command in ("-h", "--help"):
            _exit_with_usage(None)
        raise ConfigError(f"the first argument must be a command, one of "
                          f"{', '.join(_SPECS)}; got {command!r}")
    spec = _SPECS[command]
    flags = {_flag(key): key for key in ("config", "out", *spec)}
    given, tokens = {}, iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            _exit_with_usage(command)
        flag, equals, value = token.partition("=")
        if flag not in flags:
            raise ConfigError(
                f"unrecognized arguments: {' '.join([token, *tokens])}")
        if not equals and (value := next(tokens, None)) is None:
            raise ConfigError(f"{flag} needs a value")
        given[flags[flag]] = value
    path, out = given.pop("config", None), given.pop("out", None)
    merged = {key: default for key, (_kind, default) in spec.items()}
    if path is not None:
        merged.update(_load_config_file(path, command))
    merged.update(given)
    params = {key: _coerce(key, *spec[key], value)
              for key, value in merged.items()}
    seed, fmt = params.pop("seed"), params.pop("format")
    return ExperimentConfig(command=command, params=params, seed=seed,
                            out=out, fmt=fmt)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _exit_with_usage(command: str | None):
    """Print and flush (see run) cfii's or a command's usage text; exit 0."""
    rows = [f"usage: cfii {command or '{%s}' % ','.join(_SPECS)} [--config "
            "PATH] [--out PATH] [--FLAG VALUE | --FLAG=VALUE ...]"]
    for key, (kind, default) in _SPECS.get(command, {}).items():
        kind = ("{%s}" % ",".join(kind) if isinstance(kind, tuple)
                else kind.__name__.upper())
        rows.append(f"  {_flag(key)} {kind}  default {json.dumps(default)}")
    print(*rows, sep="\n", flush=True)
    raise SystemExit(0)


def _seed(config: ExperimentConfig, run: str) -> int:
    if config.seed is None:
        raise ConfigError(f"{run} is stochastic: --seed is required")
    return config.seed


def _parse_grid(spec: str, name: str, bounds: tuple = ()) -> np.ndarray:
    a, b, n = _split_grid(spec, name, bounds)
    return np.linspace(a, b, n)


def _parse_int_grid(spec: str, name: str, space=np.linspace) -> np.ndarray:
    """The distinct rounded points of a linear or geometric grid, whose
    endpoints fit in int64 so that every rounded point does."""
    a, b, n = _split_grid(spec, name, (-2.0 ** 63, 2.0 ** 63, "[)"))
    if space is np.geomspace and (a < 1 or b < a):
        raise ConfigError(f"{name} needs 1 <= A <= B")
    # sorted with repeats dropped; numpy's unique() would import numpy.ma
    points = np.sort(np.rint(space(a, b, n)).astype(np.int64))
    return points[np.r_[True, points[1:] != points[:-1]]]


def _split_grid(spec: str, name: str, bounds: tuple = ()) -> tuple[float, float, int]:
    """(A, B, N) of an A:B:N grid, A and B checked by require_real(*bounds)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must look like A:B:N, got {spec!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {spec!r}") from exc
    a, b = (require_real(x, f"{name} endpoints", *bounds) for x in (a, b))
    if not 2 <= n <= MAX_ROWS:
        raise ConfigError(f"{name} needs 2 to {MAX_ROWS} points, got {n}")
    return a, b, n


def _product_columns(outer: np.ndarray,
                     inner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The key columns of the outer x inner table, outer-major; a table of
    more than MAX_ROWS rows is refused before either is built."""
    if outer.size * inner.size > MAX_ROWS:
        raise ConfigError(f"a {outer.size} x {inner.size} table exceeds "
                          f"{MAX_ROWS} rows")
    return np.repeat(outer, inner.size), np.tile(inner, outer.size)


def _model_from(params: dict) -> BinaryModel:
    if params["model"] == "ideal":
        return QubitFringeModel(QubitPreparation(
            vartheta=params["vartheta"], varphi=params["varphi"]))
    return _noisy(params, params["gamma"])


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
    from .witness import classical_benchmark_path, gain_indicator, v_path

    params = config.params
    model = QubitFringeModel(QubitPreparation(vartheta=params["vartheta"],
                                              varphi=params["varphi"]))
    if not (params["clip_v"] > 0.0 and params["clip_g"] > 0.0):
        raise ConfigError("clip-v and clip-g must be > 0")
    # angles within half the largest float, so that t_ac + t_cb is finite
    half = (-0.5 * sys.float_info.max, 0.5 * sys.float_info.max)
    t_ac = _parse_grid(params["grid"], "--grid", half)
    t_cb = _parse_grid(params["grid_cb"] or params["grid"], "--grid-cb", half)
    theta_ac, theta_cb = _product_columns(t_ac, t_cb)
    f_end = model.fi(t_ac[:, None] + t_cb)
    f_ac = model.fi(t_ac)[:, None]
    f_cb = model.fi(t_cb)
    v = v_path(f_end, f_ac, f_cb)
    g = gain_indicator(f_end, classical_benchmark_path(f_ac, f_cb))
    v = np.clip(v, -params["clip_v"], params["clip_v"])
    g = np.clip(g, -params["clip_g"], params["clip_g"])
    return ResultTable({"theta_ac": theta_ac, "theta_cb": theta_cb,
                        "v": v.ravel(), "g": g.ravel()})


def cmd_certify(config: ExperimentConfig) -> ResultTable:
    params = config.params
    if params["gamma_grid"] or params["shots_grid"]:
        return _certify_sweep(params)
    return _certify_point(config)


def _quantities(values: dict[str, float]) -> ResultTable:
    """Two-column (quantity, value) table of named scalar results."""
    return ResultTable({"quantity": list(values),
                        "value": list(values.values())})


def _certify_point(config: ExperimentConfig) -> ResultTable:
    from .estimate import _sample_contexts, analytic_certification, certify_vk

    params, seed = config.params, _seed(config, "single-point certify")
    k, t_total, n = params["k"], params["t_total"], params["shots"]
    model = _noisy(params, params["gamma"])
    # first, so that bad t_total, k or shots stop the run before any sampling
    expected = analytic_certification(model, t_total, k, n)
    contexts = _sample_contexts(model, [t_total] + [t_total / k] * k, n, seed,
                                [(j,) for j in range(k + 1)])
    report = certify_vk(contexts[0], contexts[1:], model,
                        se_mode=params["se_mode"])
    return _quantities({
        "v_hat": report.v_hat, "se": report.se, "z": report.z,
        "ci95_lo": report.ci95[0], "ci95_hi": report.ci95[1],
        "fi_hat_end": report.f_end,
        **{f"fi_hat_seg_{j}": f
           for j, f in enumerate(report.f_segments.tolist(), start=1)},
        "v_analytic": expected.v_hat, "se_analytic": expected.se,
        "z_analytic": expected.z,
    })


def _certify_sweep(params: dict) -> ResultTable:
    from .estimate import analytic_certification

    gammas = (_parse_grid(params["gamma_grid"], "--gamma-grid")
              if params["gamma_grid"] else np.array([params["gamma"]]))
    shots = (_parse_int_grid(params["shots_grid"], "--shots-grid", np.geomspace)
             if params["shots_grid"] else np.array([params["shots"]]))
    gamma_col, shots_col = _product_columns(gammas, shots)
    report = analytic_certification(_noisy(params, gamma_col),
                                    params["t_total"], params["k"], shots_col)
    z = report.z
    return ResultTable({
        "gamma": gamma_col, "shots": shots_col,
        "v_k": report.v_hat,
        "se": report.se,
        "z": z,
        "z_ge_3": (z >= 3.0).astype(np.int64),
        "z_ge_5": (z >= 5.0).astype(np.int64),
    })


def cmd_adversary(config: ExperimentConfig) -> ResultTable:
    from .adversary import optimize_restarts

    params = config.params
    result = optimize_restarts(params["l"], params["m"],
                               n_restarts=params["restarts"],
                               steps=params["steps"], lr=params["lr"],
                               seed=_seed(config, "adversary"))
    gammas = np.asarray(result.restart_gammas)
    meta = {f"summary_{stat}": "%.17g" % getattr(gammas, stat)()
            for stat in ("max", "mean", "min")}
    return ResultTable({"restart": np.arange(gammas.size),
                        "gamma_adv": gammas}, meta=meta)


def cmd_rmse(config: ExperimentConfig) -> ResultTable:
    from .estimate import mc_rmse

    params, seed = config.params, _seed(config, "rmse")
    model = _model_from(params)
    theta = params["theta"]
    f = model.fi(theta)
    if f <= 0.0:
        raise ConfigError("reference bounds undefined: FI is zero at theta")
    vartheta = (params["vartheta"] if params["model"] == "ideal"
                else params["vartheta0"])
    # outside its branch the MLE is pinned or mirrored, not unbiased
    if not vartheta < theta < vartheta + math.pi:
        raise ConfigError(
            f"theta must lie inside the MLE branch (vartheta, vartheta + pi)"
            f" = ({vartheta!r}, {vartheta + math.pi!r}), got {theta!r}")
    n_values = _parse_int_grid(params["n_grid"], "--n-grid", np.geomspace)
    # mc_rmse first: it refuses any fringe but cos, whose F n may overflow
    rmse = [mc_rmse(model, theta, n, params["reps"], seed, i,
                    vartheta=vartheta) for i, n in enumerate(n_values.tolist())]
    crb = 1.0 / np.sqrt(n_values * f)
    return ResultTable({"n": n_values, "rmse": rmse, "crb": crb,
                        "crb_classical": math.sqrt(2.0) * crb})


def cmd_chain(config: ExperimentConfig) -> ResultTable:
    from .witness import k_chain_gain

    params = config.params
    gammas = _parse_grid(params["gamma_grid"], "--gamma-grid")
    ks = (_parse_int_grid(params["k_grid"], "--k-grid")
          if params["k_grid"] else np.array([params["k"]]))
    t_total = params["t_total"]
    k_col, gamma_col = _product_columns(ks, gammas)
    model = _noisy(params, gammas)
    # one library call per distinct k, over every rate
    f_end, f_segment, f_benchmark, v_k, gamma_k = np.hstack([
        (r.f_end, r.f_segments[..., 0], r.f_benchmark, r.v, r.gamma_ratio)
        for r in (k_chain_gain(model, t_total, k) for k in ks.tolist())])
    return ResultTable({
        "k": k_col, "gamma": gamma_col,
        "f_end": f_end,
        "f_segment": f_segment,
        "f_benchmark": f_benchmark,
        "v_k": v_k,
        "gamma_k": gamma_k,
        # math.exp per row: np.exp on the column differs in the last ulp
        "gamma_k_midfringe": [
            k * math.exp(-2.0 * gamma * t_total * (1.0 - 1.0 / k))
            for k, gamma in zip(k_col.tolist(), gamma_col.tolist())],
    })


def cmd_nsit_demo(config: ExperimentConfig) -> ResultTable:
    from .witness import nsit_separation_demo

    nsit_holds, v = nsit_separation_demo()
    return _quantities({"nsit_holds": 1.0 if nsit_holds else 0.0,
                        "v_path": v})


def cmd_crossing(config: ExperimentConfig) -> ResultTable:
    from .witness import gamma_crossing

    params = config.params
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
    table = _COMMANDS[config.command](config)
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
    try:
        config = build_config(argv)
        table = execute(config)
        text = (table.render_json() if config.fmt == "json"
                else table.render_csv())
        if config.out is not None:
            try:
                Path(config.out).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot write --out: {exc}") from exc
        else:
            sys.stdout.write(text)
        return 0
    except CfiiError as exc:
        code, kind, message = 3, "numerical degeneracy", str(exc)
    except ValueError as exc:
        code, kind, message = 2, "config error", str(exc)
    # one line, whatever the message echoes: a newline or NUL of an argument
    # is printed as its escape
    print(f"cfii: {kind}: " + "".join(c if c.isprintable() else repr(c)[1:-1]
                                      for c in message), file=sys.stderr)
    return code


def run() -> None:
    """Run main() as a one-shot process and exit with its code: the entry of
    the cfii script and of python -m cfii.cli.

    The cyclic garbage collector stays off (a call makes few cycles and ends
    soon), and everything alive is frozen before exit, so the interpreter's
    final collection has nothing to scan.  A reader that closes stdout early
    (cfii ... | head) ends the run with exit 1 and nothing on stderr.
    """
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the flush at exit would raise again: send what is left nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
