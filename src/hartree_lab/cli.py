"""Command-line runner: configuration, pipelines, CSV export.

One command per invocation:

    hartree-lab ground_state     solve the ground state and write it
    hartree-lab spectrum         sector spectra + nondegeneracy report
    hartree-lab identities       closed-form operator identity defects
    hartree-lab multipole_verify truncated expansion vs the closed form
    hartree-lab semiclassical    eps sweep + concentration prediction

Every command that needs the ground state solves it and writes it to
ground_state_n<N>.txt; no command reads that file back.
Each declared check prints as "[PASS|FAIL] name (value relation bound)".
Exit status: 0 all declared checks pass, 2 a check failed (named on
stderr), 1 operational or configuration error (a bad flag included, and
a key the command does not read, READS).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, get_args, get_type_hints

import numpy as np

from . import __version__
from .ground_state import (
    GroundState,
    SolverConfig,
    format_cache,
    pohozaev_defect,
    solve_ground_state,
)
from .linearized_spectrum import Check, identity_defects, nondegeneracy_report
from .newton_potential import multipole_completeness_experiment
from .radial_core import DEFAULT_R_MAX, SUPPORTED_DIMS, build_grid

COMMANDS = ("ground_state", "spectrum", "multipole_verify", "identities", "semiclassical")
DEFAULT_EPS = (0.2, 0.1, 0.05, 0.025)
DEFAULT_POTENTIAL = "double_well:1.0,0.5"
# the config keys each command reads beyond command, n and out, with their
# defaults (r_max None: DEFAULT_R_MAX[n]; tol None: the solver's own).
# spectrum solves sectors 0-2, whose order covers every k >= 3, and
# multipole_verify sums the expansion to K_max = 8 on its own radial grid.
# A key set for a command that does not read it is refused: the command
# would claim a setting it never used
_SOLVE = {"r_max": None, "grid_n": 400, "method": "fixed_point", "tol": None}
READS = {
    "ground_state": _SOLVE,
    "spectrum": {**_SOLVE, "k_max": 2},
    "identities": _SOLVE,
    "multipole_verify": {"k_max": 8},
    "semiclassical": {**_SOLVE, "eps": DEFAULT_EPS, "potential": DEFAULT_POTENTIAL},
}

@dataclass
class RunConfig:
    command: str
    n: int = 3
    # a field that defaults to None is a key some command reads (READS)
    r_max: Optional[float] = None
    grid_n: Optional[int] = None
    method: str = None
    tol: Optional[float] = None
    k_max: int = None
    eps: Tuple[float, ...] = None
    potential: str = None
    out: str = "."

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
        reads = READS[self.command]
        for key in (f.name for f in fields(self) if f.default is None):
            if key in reads:
                if getattr(self, key) is None:
                    setattr(self, key, reads[key])
            elif getattr(self, key) is not None:
                flag = "--" + key.replace("_", "-")
                raise ValueError(f"{self.command} takes no {flag} (config key {key!r})")
        if "r_max" in reads and self.r_max is None:
            self.r_max = DEFAULT_R_MAX[self.n]
        if "eps" in reads:
            self.eps = tuple(float(e) for e in self.eps)
            if any(b >= a for a, b in zip(self.eps, self.eps[1:])):
                raise ValueError("eps list must be strictly decreasing")
            if any(not e > 0.0 for e in self.eps):
                raise ValueError("eps values must be positive")
            if len(self.eps) < 2:
                raise ValueError("eps list needs at least two values for the scaling fits")
        if self.k_max is not None and self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        if self.command == "spectrum" and self.k_max < 2:
            raise ValueError("k_max must be >= 2 for spectrum")
        if "method" in reads:
            self.solver_config()  # a bad method or tol fails before any output

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


def _parser() -> argparse.ArgumentParser:
    """Positional command, --config, and one flag per other RunConfig field."""
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
    parser.add_argument("--version", action="version", version=__version__)
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Build a RunConfig from flags, optionally merged over a JSON file.

    Flags override file values; unknown file keys and file values whose
    type does not fit the field are rejected.
    """
    args = _parser().parse_args(argv)

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


def _fmt(x) -> str:
    """A float at 17 significant digits, an integer as str prints it."""
    return str(x) if isinstance(x, int) else f"{x:.17g}"


def _obtain_ground_state(cfg: RunConfig, log) -> Tuple[GroundState, Check]:
    """Solve the ground state and write it to ground_state_n<N>.txt through
    a temporary file, so a reader never sees a partial file.  The solver
    meets its residual on whatever kernel it is given; the returned
    Pohozaev check tests the kernel itself."""
    gs = solve_ground_state(build_grid(cfg.n, cfg.r_max, cfg.grid_n), cfg.solver_config())
    path = Path(cfg.out) / f"ground_state_n{cfg.n}.txt"
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(format_cache(gs))
    os.replace(tmp, path)
    log(f"wrote {path}")
    return gs, Check("Pohozaev identity", pohozaev_defect(gs), "<", 1e-8)


def _run_ground_state(cfg: RunConfig, log) -> List[Check]:
    # GroundState and the solver raise on a residual above tol or a profile
    # that is not positive and non-increasing
    gs, pohozaev = _obtain_ground_state(cfg, log)
    log(
        f"n={gs.dim} method={gs.method} residual={gs.residual:.3e} "
        f"mass={gs.l2_mass:.12g} nu={gs.nu:.12g} energy={gs.energy:.12g}"
    )
    return [pohozaev]


def _run_spectrum(cfg: RunConfig, log) -> List[Check]:
    gs, pohozaev = _obtain_ground_state(cfg, log)
    # the verdict covers every check the command prints: a certificate on
    # a kernel that fails the Pohozaev identity certifies nothing
    report = nondegeneracy_report(gs, cfg.k_max)
    report = replace(report, checks=[pohozaev, *report.checks])
    out = Path(cfg.out)
    csv_path = out / f"spectrum_n{cfg.n}.csv"
    _write_csv(csv_path, report.to_csv_rows())
    txt_path = out / f"nondegeneracy_n{cfg.n}.txt"
    txt_path.write_text(report.to_text())
    log(f"wrote {csv_path} and {txt_path}")
    log(f"verdict: {'nondegenerate' if report.verdict else 'NOT CERTIFIED'}")
    return report.checks


def _run_identities(cfg: RunConfig, log) -> List[Check]:
    gs, pohozaev = _obtain_ground_state(cfg, log)
    log(f"residual={gs.residual:.3e}")  # L U + 2 (I2*U^2) U is this residual
    defect = identity_defects(gs)["LrU"]
    label = "L(r U') + 2U - 4 (I2*U^2) U"
    path = Path(cfg.out) / f"identities_n{cfg.n}.csv"
    _write_csv(path, [["identity", "relative_defect"], [label, _fmt(defect)]])
    log(f"wrote {path}")
    return [pohozaev, Check(f"identity defect {label}", defect, "<", 1e-4)]


def _run_multipole(cfg: RunConfig, log) -> List[Check]:
    points, oracle, errors = multipole_completeness_experiment(k_max=cfg.k_max, n=cfg.n)
    out = Path(cfg.out)
    table = [["K_max", *("x", "y", "z", "x4", "x5")[:cfg.n], "oracle", "abs_error"]]
    for point, value, row in zip(points, oracle, errors):
        for kmax, error in enumerate(row):
            table.append([str(kmax), *map(_fmt, point), _fmt(value), _fmt(error)])
    path = out / f"multipole_errors_n{cfg.n}.csv"
    _write_csv(path, table)
    log(f"wrote {path}")
    # numpy's max propagates a NaN error, which then fails its check
    kmax = cfg.k_max
    worst_rel = float(np.max(errors[:, kmax] / np.abs(oracle)))
    rise = float(np.max(np.diff(errors.max(axis=0)), initial=-np.inf))
    return [
        Check(f"expansion error at K_max={kmax}", worst_rel, "<", 1e-4),
        Check("error decays monotonically in K_max", rise, "<=", 0.0),
    ]


def _run_semiclassical(cfg: RunConfig, log) -> List[Check]:
    from . import semiclassical as sc  # loaded here: no other command needs it
    from .potentials import make_potential_functions

    # a bad potential fails before the ground-state solve
    value, gradient = make_potential_functions(cfg.potential, cfg.n)
    V = sc.PotentialField(cfg.n, value, gradient)
    box = [(-2.0, 2.0)] * cfg.n
    bound = V.lower_bound_check(box)
    log(f"inf-proxy of 1+V on the box: {bound:.6g}")
    gs, pohozaev = _obtain_ground_state(cfg, log)
    xi = np.full(cfg.n, 0.35)
    report = sc.semiclassical_sweep(gs, V, xi, list(cfg.eps))
    eps_ref = cfg.eps[len(cfg.eps) // 2]
    report.critical_points = sc.predict_concentration(V, box, eps_ref, gs)
    out = Path(cfg.out)
    rows = [[f.name for f in fields(sc.SweepRow)]]
    rows += [[_fmt(x) for x in astuple(row)] for row in report.rows]
    csv_path = out / f"semiclassical_n{cfg.n}.csv"
    _write_csv(csv_path, rows)
    txt_path = out / f"semiclassical_report_n{cfg.n}.txt"
    txt_path.write_text(report.to_text())
    log(f"wrote {csv_path} and {txt_path}")

    # calibration check independent of the supplied potential: for a
    # constant V the row is alpha^(3-n/2) F(U) through the moment path and
    # its leading term alpha^(3-n/2) Q/4, so the check reads the virial
    # defect |F(U) - Q/4| / (Q/4) and the scaling of the soliton's measure
    mu = 0.3
    const = sc.PotentialField(cfg.n, *make_potential_functions(repr(mu), cfg.n))
    row = sc.soliton_row(gs, const, cfg.eps[0], xi)
    const_rel = abs(row.energy - row.leading) / abs(row.leading)
    # lower_bound_check raised above unless 1 + V > 0 on the box samples
    proxy_exp = report.proxy_exponent
    return [
        pohozaev,
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
