"""Command-line runner: configuration, pipelines, caching, CSV export.

One command per invocation:

    hartree-lab ground_state     solve and cache the ground state
    hartree-lab spectrum         sector spectra + nondegeneracy report
    hartree-lab identities       closed-form operator identity defects
    hartree-lab multipole_verify truncated expansion vs the 3D oracle
    hartree-lab semiclassical    eps sweep + concentration prediction

Each declared check prints as "[PASS|FAIL] name (value relation bound)".
Exit status: 0 all declared checks pass, 2 a check failed (named on
stderr), 1 operational or configuration error (a bad flag included).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, get_args, get_type_hints

import numpy as np

from . import __version__
from .ground_state import (
    ConvergenceError,
    GroundState,
    SolverConfig,
    format_cache,
    groundstate_from_cache,
    solve_ground_state,
)
from .linearized_spectrum import Check, identity_defects, nondegeneracy_report
from .newton_potential import multipole_completeness_experiment
from .potentials import make_potential_functions
from .radial_core import DEFAULT_R_MAX, SUPPORTED_DIMS, build_grid
from .semiclassical import (
    PotentialField,
    predict_concentration,
    semiclassical_sweep,
    soliton_row,
)

COMMANDS = ("ground_state", "spectrum", "multipole_verify", "identities", "semiclassical")
CACHE_POLICIES = ("use", "refresh", "ignore")
DEFAULT_EPS = (0.2, 0.1, 0.05, 0.025)
DEFAULT_POTENTIAL = "double_well:1.0,0.5"

@dataclass
class RunConfig:
    command: str
    n: int = 3
    r_max: Optional[float] = None
    grid_n: int = 400
    method: str = "fixed_point"
    tol: Optional[float] = None
    k_max: int = 8
    eps: Tuple[float, ...] = DEFAULT_EPS
    potential: str = DEFAULT_POTENTIAL
    out: str = "."
    cache: str = "use"
    workers: int = 2

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(
                f"unknown command {self.command!r}; expected one of {COMMANDS}"
            )
        if self.n not in SUPPORTED_DIMS:
            raise ValueError(
                f"dimension n={self.n} unsupported; the theory covers n in "
                f"{SUPPORTED_DIMS}"
            )
        if self.r_max is None:
            self.r_max = DEFAULT_R_MAX[self.n]
        if self.cache not in CACHE_POLICIES:
            raise ValueError(f"cache policy must be one of {CACHE_POLICIES}")
        self.eps = tuple(float(e) for e in self.eps)
        if any(b >= a for a, b in zip(self.eps, self.eps[1:])):
            raise ValueError("eps list must be strictly decreasing")
        if any(not e > 0.0 for e in self.eps):
            raise ValueError("eps values must be positive")
        if len(self.eps) < 2:
            raise ValueError("eps list needs at least two values for the scaling fits")
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        if self.command == "spectrum" and self.k_max < 2:
            raise ValueError("k_max must be >= 2 for spectrum")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(method=self.method, tol=self.tol)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 like other config errors; 2 is a failed check
        raise ValueError(message)


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _kind_name(kind) -> str:
    """How a RunConfig field annotation reads in a config error."""
    if kind in _KIND_NAMES:
        return _KIND_NAMES[kind]
    args = get_args(kind)
    if type(None) in args:  # Optional[X]
        return f"{_kind_name(args[0])} or null"
    return f"a list, each item {_kind_name(args[0])}"  # Tuple[X, ...]


def _fits(value, kind) -> bool:
    """Whether a JSON value fits a RunConfig field annotation.  true and
    false fit no field; an integer fits a float field."""
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float))
    if kind in _KIND_NAMES:
        return isinstance(value, kind)
    args = get_args(kind)
    if type(None) in args:
        return value is None or _fits(value, args[0])
    return isinstance(value, list) and all(_fits(v, args[0]) for v in value)


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Build a RunConfig from flags, optionally merged over a JSON file.

    Flags override file values; unknown file keys and file values whose
    type does not fit the field are rejected.
    """
    parser = _ArgumentParser(
        prog="hartree-lab",
        description="Hartree / Schrodinger-Newton ground-state laboratory",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS)
    parser.add_argument("--config", type=str, help="JSON config file")
    parser.add_argument("--n", type=int)
    parser.add_argument("--r-max", dest="r_max", type=float)
    parser.add_argument("--grid-n", dest="grid_n", type=int)
    parser.add_argument("--method", choices=("shooting", "fixed_point"))
    parser.add_argument("--tol", type=float)
    parser.add_argument("--k-max", dest="k_max", type=int)
    parser.add_argument("--eps", type=str, help="comma-separated decreasing list")
    parser.add_argument("--potential", type=str)
    parser.add_argument("--out", type=str)
    parser.add_argument("--cache", choices=CACHE_POLICIES)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)

    kinds = get_type_hints(RunConfig)
    keys = [f.name for f in fields(RunConfig)]
    settings = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in data.items():
            if key not in keys:
                raise ValueError(f"unknown config key {key!r}")
            if not _fits(value, kinds[key]):
                raise ValueError(
                    f"config key {key!r} must be {_kind_name(kinds[key])}, "
                    f"got {json.dumps(value)}"
                )
            settings[key] = value
    if args.eps is not None:
        args.eps = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    for key in keys:
        val = getattr(args, key)
        if val is not None:
            settings[key] = val
    if "command" not in settings:
        raise ValueError("no command given (positional or config file)")
    return RunConfig(**settings)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _write_csv(path: Path, rows: List[List[str]]) -> None:
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _obtain_ground_state(cfg: RunConfig, log) -> Tuple[GroundState, Path]:
    """Use the cache only if it holds the requested method at a tol no looser."""
    cache_path = Path(cfg.out) / f"ground_state_n{cfg.n}.txt"
    grid = build_grid(cfg.n, cfg.r_max, cfg.grid_n)
    solver = cfg.solver_config()
    if cfg.cache == "use" and cache_path.exists():
        try:
            gs = groundstate_from_cache(grid, cache_path.read_text())
            if gs.method != solver.method or gs.tol > solver.tol:
                raise ValueError(f"cache holds {gs.method} at tol {gs.tol:.1e}, "
                                 f"requested {solver.method} at {solver.tol:.1e}")
            log(f"loaded ground-state cache {cache_path}")
            return gs, cache_path
        except (ValueError, ConvergenceError) as exc:
            log(f"cache mismatch ({exc}); refreshing")
    gs = solve_ground_state(grid, solver)
    if cfg.cache != "ignore":
        tmp = cache_path.with_name(cache_path.name + ".tmp")
        tmp.write_text(format_cache(gs))
        os.replace(tmp, cache_path)
        log(f"wrote ground-state cache {cache_path}")
    return gs, cache_path


def _run_ground_state(cfg: RunConfig, log) -> List[Check]:
    # GroundState and the solver raise on a residual above tol or a profile
    # that is not positive and non-increasing, so no check is left to print
    gs, _ = _obtain_ground_state(cfg, log)
    log(
        f"n={gs.dim} method={gs.method} residual={gs.residual:.3e} "
        f"mass={gs.l2_mass:.12g} nu={gs.nu:.12g} energy={gs.energy:.12g}"
    )
    return []


def _run_spectrum(cfg: RunConfig, log) -> List[Check]:
    gs, _ = _obtain_ground_state(cfg, log)
    report = nondegeneracy_report(gs, cfg.k_max, workers=cfg.workers)
    out = Path(cfg.out)
    csv_path = out / f"spectrum_n{cfg.n}.csv"
    _write_csv(csv_path, report.to_csv_rows())
    txt_path = out / f"nondegeneracy_n{cfg.n}.txt"
    txt_path.write_text(report.to_text())
    log(f"wrote {csv_path} and {txt_path}")
    log(f"verdict: {'nondegenerate' if report.verdict else 'NOT CERTIFIED'}")
    return report.checks


def _run_identities(cfg: RunConfig, log) -> List[Check]:
    gs, _ = _obtain_ground_state(cfg, log)
    defects = identity_defects(gs)
    out = Path(cfg.out)
    rows = [["identity", "relative_defect"]]
    labels = {
        "LU": "L U + 2 (I2*U^2) U",
        "LrU": "L(r U') + 2U - 4 (I2*U^2) U",
        "L2UrU": "L(2U + r U') + 2U",
    }
    for key, value in defects.items():
        rows.append([labels[key], _fmt(value)])
    path = out / f"identities_n{cfg.n}.csv"
    _write_csv(path, rows)
    log(f"wrote {path}")
    return [
        Check(f"identity defect {labels[key]}", value, "<", 1e-4)
        for key, value in defects.items()
    ]


def _run_multipole(cfg: RunConfig, log) -> List[Check]:
    if cfg.n != 3:
        raise ValueError("multipole_verify runs the n=3 oracle comparison")
    rows = multipole_completeness_experiment(k_max=cfg.k_max)
    out = Path(cfg.out)
    table = [["K_max", "x", "y", "z", "oracle", "abs_error"]]
    for row in rows:
        for kmax in sorted(row["errors"]):
            table.append(
                [
                    str(kmax),
                    _fmt(row["point"][0]),
                    _fmt(row["point"][1]),
                    _fmt(row["point"][2]),
                    _fmt(row["oracle"]),
                    _fmt(row["errors"][kmax]),
                ]
            )
    path = out / "multipole_errors_n3.csv"
    _write_csv(path, table)
    log(f"wrote {path}")
    # numpy's max propagates a NaN error, which then fails its check
    kmax = cfg.k_max
    errors = np.array([[r["errors"][k] for k in range(kmax + 1)] for r in rows])
    worst_rel = float(np.max(errors[:, kmax] / np.abs([r["oracle"] for r in rows])))
    rise = float(np.max(np.diff(errors.max(axis=0)), initial=-np.inf))
    return [
        Check(f"expansion error at K_max={kmax}", worst_rel, "<", 1e-4),
        Check("error decays monotonically in K_max", rise, "<=", 0.0),
    ]


def _run_semiclassical(cfg: RunConfig, log) -> List[Check]:
    # a bad potential fails before the ground-state solve
    value, gradient = make_potential_functions(cfg.potential, cfg.n)
    V = PotentialField(cfg.n, value, gradient)
    box = [(-2.0, 2.0)] * cfg.n
    bound = V.lower_bound_check(box)
    log(f"inf-proxy of 1+V on the box: {bound:.6g}")
    gs, _ = _obtain_ground_state(cfg, log)
    xi = np.full(cfg.n, 0.35)
    report = semiclassical_sweep(gs, V, xi, list(cfg.eps))
    eps_ref = cfg.eps[len(cfg.eps) // 2]
    report.critical_points = predict_concentration(V, box, eps_ref, gs)
    out = Path(cfg.out)
    rows = [["eps", "energy", "leading", "gradient_proxy", "gamma_half",
             "shell_degree", "shell_error"]]
    for row in report.rows:
        rows.append(
            [
                _fmt(row.eps),
                _fmt(row.energy),
                _fmt(row.leading),
                _fmt(row.gradient_proxy),
                _fmt(row.gamma_half),
                str(row.shell_degree),
                _fmt(row.shell_error),
            ]
        )
    csv_path = out / f"semiclassical_n{cfg.n}.csv"
    _write_csv(csv_path, rows)
    txt_path = out / f"semiclassical_report_n{cfg.n}.txt"
    txt_path.write_text(report.to_text())
    log(f"wrote {csv_path} and {txt_path}")

    # calibration check independent of the supplied potential: constant V
    mu = 0.3
    const = PotentialField(cfg.n, *make_potential_functions(repr(mu), cfg.n))
    row = soliton_row(gs, const, cfg.eps[0], xi)
    const_rel = abs(row.energy - row.leading) / abs(row.leading)
    # lower_bound_check raised above unless 1 + V > 0 on the box samples
    proxy_exp = report.proxy_exponent
    return [
        Check("constant-V exactness of the soliton energy", const_rel, "<", 1e-6),
        Check("scaling fit produced finite exponents",
              math.nan if proxy_exp is None else abs(proxy_exp), "<", math.inf),
    ]


RUNNERS = {
    "ground_state": _run_ground_state,
    "spectrum": _run_spectrum,
    "identities": _run_identities,
    "multipole_verify": _run_multipole,
    "semiclassical": _run_semiclassical,
}


def run(cfg: RunConfig) -> int:
    """Execute the configured pipeline; returns the process exit status."""

    def log(msg: str) -> None:
        print(f"[hartree-lab] {msg}")

    try:
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
        checks = RUNNERS[cfg.command](cfg, log)
    except Exception as exc:
        print(f"[hartree-lab] error: {exc}", file=sys.stderr)
        return 1
    status = 0
    for check in checks:
        print(check)
        if not check.ok:
            status = 2
            print(f"[hartree-lab] failing check: {check.name}", file=sys.stderr)
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else list(argv))
    except (ValueError, FileNotFoundError) as exc:
        print(f"[hartree-lab] config error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
