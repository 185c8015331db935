"""Output checks.  Each returns a list of failure messages; empty means pass.

Expected values are parameters so that the benchmark's own test can pass a
deliberately wrong one and see the check fail.  The crossing check uses an
independent closed form of the noisy-fringe Fisher information, not cfii.
"""

from __future__ import annotations

import csv
import io
import json
import math

# README goldens: (value as printed, tolerance of half a unit in its last
# printed digit).
README_GOLDENS = {
    "k_chain_gain.v": (-2.5799, 5e-5),
    "k_chain_gain.gamma": (2.0841, 5e-5),
    "analytic_certification.se": (0.2121, 5e-5),
    "analytic_certification.z": (12.17, 5e-3),
}
# Crossing golden for k = 4, eps_r = 0.02, t_total = pi/2 (tests/test_witness).
CROSSING_K4 = 0.44252088963544078
SERIES_LAW_SLACK = 1e-12
SATURATION_TOL = 1e-9
WALLCLOCK_PREFIX = "# wallclock:"


def near(name: str, got: float, expected: float, tol: float) -> list[str]:
    if math.isfinite(got) and abs(got - expected) <= tol + 1e-15:
        return []
    return [f"{name} = {got!r}, expected {expected!r} +- {tol:g}"]


def readme_golden(name: str, got: float, goldens=README_GOLDENS) -> list[str]:
    expected, tol = goldens[name]
    return near(name, got, expected, tol)


def noisy_fi(theta: float, gamma: float, eps_r: float,
             vartheta0: float = 0.0) -> float:
    """F = zdot^2 / (1 - z^2) for z = (1 - 2 eps_r) e^(-gamma theta)
    cos(theta - vartheta0)."""
    amp = (1.0 - 2.0 * eps_r) * math.exp(-gamma * theta)
    z = amp * math.cos(theta - vartheta0)
    zdot = -amp * (gamma * math.cos(theta - vartheta0)
                   + math.sin(theta - vartheta0))
    return zdot * zdot / (1.0 - z * z)


def crossing(gamma_star: float, k: int, t_total: float = math.pi / 2,
             eps_r: float = 0.02, golden_k4: float = CROSSING_K4) -> list[str]:
    """gamma_star is a root of Gamma_K - 1, and matches the k = 4 golden."""
    if not math.isfinite(gamma_star):
        return [f"crossing gamma_star = {gamma_star!r}"]
    gain = (noisy_fi(t_total, gamma_star, eps_r) * k
            / noisy_fi(t_total / k, gamma_star, eps_r))
    failures = near(f"Gamma_{k}(gamma_star)", gain, 1.0, 1e-6)
    if k == 4 and abs(t_total - math.pi / 2) < 1e-15 and eps_r == 0.02:
        failures += near("crossing k=4", gamma_star, golden_k4, 1e-6)
    return failures


def series_law(gammas: list[float],
               slack: float = SERIES_LAW_SLACK) -> list[str]:
    bad = [g for g in gammas if not g <= 1.0 + slack]
    return [f"series law broken: Gamma_adv = {g!r} > 1 + {slack:g}"
            for g in bad]


def saturated(best_gamma: float, tol: float = SATURATION_TOL) -> list[str]:
    return near("best_gamma", best_gamma, 1.0, tol)


def blind_endpoint(gammas: list[float]) -> list[str]:
    """The m = 2 adversary is structurally blind: every Gamma is 0."""
    bad = [g for g in gammas if g != 0.0]
    return [f"m=2 adversary reached Gamma = {g!r}, expected 0" for g in bad]


def identical(label: str, first: str, again: str) -> list[str]:
    if first == again:
        return []
    return [f"{label}: output differs from the first pass with the same seed"]


def drop_wallclock(stdout: str) -> str:
    """CSV or JSON output without its only non-reproducible field."""
    if stdout.startswith("{"):
        doc = json.loads(stdout)
        doc["meta"].pop("wallclock", None)
        return json.dumps(doc, sort_keys=True)
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith(WALLCLOCK_PREFIX))


def parse_table(stdout: str) -> tuple[dict, list[str], list[list]]:
    """(meta, columns, rows) of CSV or JSON output; CSV cells stay strings."""
    if stdout.startswith("{"):
        doc = json.loads(stdout)
        return doc["meta"], doc["columns"], doc["rows"]
    meta = {}
    body = []
    for line in stdout.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line)
    reader = csv.reader(io.StringIO("\n".join(body)))
    columns = next(reader, [])
    return meta, columns, list(reader)


def table_cells(columns: list[str], rows: list[list]) -> list[str]:
    """Rectangular rows with no NaN or missing (non-finite JSON) cell."""
    if not columns:
        return ["output has no header row"]
    failures = []
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            failures.append(f"row {i} has {len(row)} cells, "
                            f"expected {len(columns)}")
        elif any(cell is None or str(cell).lower() == "nan" for cell in row):
            failures.append(f"row {i} has a NaN cell")
    return failures


def column(columns: list[str], rows: list[list], name: str) -> list[float]:
    j = columns.index(name)
    return [float(row[j]) for row in rows]


def quantities(rows: list[list]) -> dict[str, float]:
    """Rows of a (quantity, value) table as a dict."""
    return {row[0]: float(row[1]) for row in rows}
