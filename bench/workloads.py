"""The three workloads: certify, solitons and landscape.

Each workload builds its inputs from the seed, sets up, runs rounds of the
same operations and checks every round's outputs with bench/checks.py.  A
round takes an optional tracer; with one, every call into the program sits
in a span named after the layer that does the work, and calls that cross
into another layer are timed as leaves (see ``boundaries``).
"""

from __future__ import annotations

import csv
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional

import numpy as np

import checks
from tracer import Tracer

from hartree_lab import ground_state, potentials, radial_core, semiclassical
from hartree_lab.cli import DEFAULT_EPS, DEFAULT_POTENTIAL
from hartree_lab.ground_state import SolverConfig, solve_ground_state
from hartree_lab.newton_potential import kernel_matrix
from hartree_lab.radial_core import DEFAULT_R_MAX, build_grid

DIMS = (3, 4, 5)
# certify runs the smallest and largest dimension: each one costs about ten
# seconds of cold processes, and the run budget holds two (see README)
CERTIFY_DIMS = (3, 5)
CLI_GRID_N = 400  # the CLI default
INPROCESS_GRID_N = 200  # solitons and landscape; see README for why
COMMAND_TIMEOUT_S = 150


def _span(tracer: Optional[Tracer], name: str, layer: str):
    return tracer.span(name, layer) if tracer is not None else nullcontext()


def run_cli(args: List[str], env: dict, tracer: Optional[Tracer] = None,
            label: str = "") -> int:
    """One cold hartree-lab process; returns its exit status."""
    with _span(tracer, f"cli.{label or args[0]}", "cli"):
        proc = subprocess.run(
            [sys.executable, "-m", "hartree_lab.cli", *args],
            env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        )
    if proc.returncode != 0:
        print(f"[bench] hartree-lab {' '.join(args)} exited {proc.returncode}: "
              f"{proc.stderr.strip()[-300:]}", file=sys.stderr)
    return proc.returncode


def warm_import(env: dict, tracer: Optional[Tracer] = None) -> float:
    """Cold interpreter importing the CLI module; returns its wall time."""
    t0 = time.perf_counter()
    with _span(tracer, "cli.import", "cli"):
        subprocess.run([sys.executable, "-c", "import hartree_lab.cli"],
                       env=env, check=True, timeout=COMMAND_TIMEOUT_S)
    return time.perf_counter() - t0


def _read_csv(path: Path) -> List[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def spectrum_columns(path: Path):
    rows = _read_csv(path)
    return ([float(r["lambda0"]) for r in rows], [float(r["lambda1"]) for r in rows])


class Workload:
    name = ""
    boundaries: tuple = ()  # (owner, attribute, layer) timed as leaves when traced
    setup_samples = 2  # per untraced run, all but one in a fresh process

    def __init__(self, seed: int, workdir: Path, env: dict):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.env = env

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, tracer: Optional[Tracer]):
        """Run the operations once; returns (attempted, failed, outputs)."""
        raise NotImplementedError

    def check(self, outputs) -> List[str]:
        raise NotImplementedError


class Certify(Workload):
    """The nondegeneracy certificate as users run it: one cold process per
    command, each dimension in a seed-chosen order."""

    name = "certify"

    def __init__(self, seed, workdir, env):
        super().__init__(seed, workdir, env)
        self.order = [int(n) for n in self.rng.permutation(CERTIFY_DIMS)]
        self.rounds = 0  # each round writes to its own directories

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        warm_import(self.env)

    def round(self, tracer):
        base = self.workdir / f"round{self.rounds}"
        self.rounds += 1
        status = {}
        for n in self.order:
            full, half = base / f"n{n}", base / f"n{n}_half"
            status[("spectrum", n)] = run_cli(
                ["spectrum", "--n", str(n), "--out", str(full)], self.env, tracer)
            status[("identities", n)] = run_cli(
                ["identities", "--n", str(n), "--out", str(full)], self.env, tracer)
            status[("spectrum_half", n)] = run_cli(
                ["spectrum", "--n", str(n), "--grid-n", str(CLI_GRID_N // 2),
                 "--out", str(half)], self.env, tracer, label="spectrum_half")
        mdir = base / "multipole"
        mdir.mkdir(parents=True, exist_ok=True)
        status[("multipole_verify", 3)] = run_cli(
            ["multipole_verify", "--out", str(mdir)], self.env, tracer)
        failed = sum(1 for code in status.values() if code != 0)
        return len(status), failed, (base, status)

    def check(self, outputs) -> List[str]:
        base, status = outputs
        ok = {key for key, code in status.items() if code == 0}
        out: List[str] = []
        for n in self.order:
            full, half = base / f"n{n}", base / f"n{n}_half"
            if ("spectrum", n) in ok:
                out += checks.check_virial(n, (full / f"ground_state_n{n}.txt").read_text())
                lam0, lam1 = spectrum_columns(full / f"spectrum_n{n}.csv")
                out += checks.check_sector_ordering(n, lam0)
                if ("spectrum_half", n) in ok:
                    h0, h1 = spectrum_columns(half / f"spectrum_n{n}.csv")
                    out += checks.check_gap_drift(
                        n, checks.k0_gap(lam0[0], lam1[0]), checks.k0_gap(h0[0], h1[0]))
            if ("identities", n) in ok:
                rows = _read_csv(full / f"identities_n{n}.csv")
                out += checks.check_identities(
                    n, {r["identity"]: float(r["relative_defect"]) for r in rows})
        if ("multipole_verify", 3) in ok:
            worst = defaultdict(float)
            for r in _read_csv(base / "multipole" / "multipole_errors_n3.csv"):
                k = int(r["K_max"])
                worst[k] = max(worst[k], float(r["abs_error"]))
            out += checks.check_multipole(worst)
        return out


class Solitons(Workload):
    """Rescaled solitons -Delta u + (1+mu) u = (I2*u^2) u by shooting over
    the mass shifts and by fixed point at mu = 0, in a seed-chosen order."""

    name = "solitons"
    # outer shooting iterations today: n = 5 runs 3 at mu = 0 and all 12 at
    # mu = 0.5; n = 3 runs 4 at 0.5 and n = 4 runs 2 at 0.25
    SHIFTS = {3: (0.5,), 4: (0.25,), 5: (0.0, 0.5)}
    boundaries = (
        (ground_state, "kernel_matrix", "newton_potential"),
        (ground_state, "radial_newton_potential", "newton_potential"),
        (ground_state, "get_discretization", "radial_core"),
        (ground_state, "integrate_radial", "radial_core"),
    )

    def __init__(self, seed, workdir, env):
        super().__init__(seed, workdir, env)
        ops = [(n, "fixed_point", 0.0) for n in DIMS]
        ops += [(n, "shooting", mu) for n in DIMS for mu in self.SHIFTS[n]]
        self.ops = [ops[i] for i in self.rng.permutation(len(ops))]

    def setup(self) -> None:
        self.grids = {}
        for n in DIMS:
            grid = build_grid(n, DEFAULT_R_MAX[n], INPROCESS_GRID_N)
            kernel_matrix(grid, 0)
            self.grids[n] = grid

    def round(self, tracer):
        profiles, failed = {}, 0
        for n, method, mu in self.ops:
            try:
                with _span(tracer, f"ground_state.{method} n={n} mu={mu}", "ground_state"):
                    gs = solve_ground_state(self.grids[n], SolverConfig(method=method),
                                            mass_shift=mu)
                profiles[(n, method, mu)] = gs.profile.values
            except (ground_state.ConvergenceError, ground_state.PositivityError) as exc:
                print(f"[bench] {method} n={n} mu={mu} failed: {exc}", file=sys.stderr)
                failed += 1
        return len(self.ops), failed, profiles

    def check(self, profiles) -> List[str]:
        out: List[str] = []
        for n in DIMS:
            grid = self.grids[n]
            u0 = profiles.get((n, "fixed_point", 0.0))
            if u0 is None:
                continue
            shot0 = profiles.get((n, "shooting", 0.0))
            if shot0 is not None:
                out += checks.check_methods_agree(n, grid.r_max, shot0, u0)
            for mu in self.SHIFTS[n]:
                u_mu = profiles.get((n, "shooting", mu))
                if mu > 0.0 and u_mu is not None:
                    out += checks.check_rescaled(n, grid.r_max, u0, u_mu, mu)
        return out


EXPRESSION_DOUBLE_WELL = "(x1^2 - 1)^2 + 0.5*(x2^2 + x3^2)"


class Landscape(Workload):
    """semiclassical_sweep over the CLI's eps list and predict_concentration
    on [-2, 2]^n, from ground states built in set-up."""

    name = "landscape"
    # the CLI's default.  The double-well saddle draws about one start in
    # four, so 24 starts miss it in about one search in a thousand
    N_STARTS = 80
    # every ring start adds a point on the circle, and each point costs a
    # shell quadrature; the ring check holds for any number of points
    RING_STARTS = 24
    CONSTANT_MU = 0.3
    boundaries = (
        (semiclassical, "interaction_integral", "ground_state"),
        (radial_core.RadialFunction, "evaluate", "radial_core"),
    )

    def __init__(self, seed, workdir, env):
        super().__init__(seed, workdir, env)
        rng = self.rng
        crit, noncrit = checks.CRITICAL_EXPONENT, checks.NONCRITICAL_EXPONENT
        entries = []  # (label, n, (value, gradient), expected points, exponent window)
        for n in DIMS:
            entries.append((f"double_well n={n}", n, potentials.make_potential_functions(
                DEFAULT_POTENTIAL, n), checks.double_well_points(n), crit))
        # off the origin, so the sweep's limit point eps*xi -> 0 is not critical
        centre = rng.choice([-1.0, 1.0], 3) * rng.uniform(0.5, 1.0, 3)
        entries.append(("quadratic n=3", 3, potentials.quadratic(3, 1.0, center=centre),
                        [(centre, "minimum")], noncrit))
        for n in (3, 4):
            entries.append((f"ring n={n}", n, potentials.make_potential_functions("ring", n),
                            "ring", crit))
        entries.append(("expression n=3", 3, potentials.make_potential_functions(
            EXPRESSION_DOUBLE_WELL, 3), checks.double_well_points(3), crit))
        self.entries = [
            {"label": label, "n": n, "funcs": funcs, "points": points, "window": window,
             "xi": rng.uniform(-0.5, 0.5, n), "seed": int(rng.integers(2**31)),
             "starts": self.RING_STARTS if points == "ring" else self.N_STARTS}
            for label, n, funcs, points, window in entries
        ]
        self.const_xi = {n: rng.uniform(-0.5, 0.5, n) for n in DIMS}
        self.eps = list(DEFAULT_EPS)

    def setup(self) -> None:
        self.states = {
            n: solve_ground_state(build_grid(n, DEFAULT_R_MAX[n], INPROCESS_GRID_N))
            for n in DIMS
        }

    def _field(self, n, value, gradient, tracer):
        if tracer is not None:
            value = tracer.leaf("potentials.value", "potentials", value)
            if gradient is not None:
                gradient = tracer.leaf("potentials.gradient", "potentials", gradient)
        return semiclassical.PotentialField(n, value, gradient)

    def round(self, tracer):
        results, failed, attempted = {}, 0, 0
        eps_ref = self.eps[len(self.eps) // 2]
        for e in self.entries:
            n = e["n"]
            V = self._field(n, *e["funcs"], tracer)
            attempted += 2
            try:
                with _span(tracer, f"semiclassical.sweep {e['label']}", "semiclassical"):
                    report = semiclassical.semiclassical_sweep(
                        self.states[n], V, e["xi"], self.eps)
                with _span(tracer, f"semiclassical.predict {e['label']}", "semiclassical"):
                    cps = semiclassical.predict_concentration(
                        V, [(-2.0, 2.0)] * n, eps_ref, self.states[n],
                        n_starts=e["starts"], seed=e["seed"])
            except ValueError as exc:
                print(f"[bench] {e['label']} failed: {exc}", file=sys.stderr)
                failed += 2
                continue
            if tracer is not None:
                tracer.count("semiclassical.critical_points", len(cps))
            results[e["label"]] = ([row.gradient_proxy for row in report.rows],
                                   [(cp.location, cp.kind) for cp in cps])
        mu = self.CONSTANT_MU
        for n in DIMS:
            attempted += 1
            const = self._field(n, lambda pts: np.full(np.shape(pts)[0], mu), None, tracer)
            with _span(tracer, f"semiclassical.constant_energy n={n}", "semiclassical"):
                results[("constant", n)] = semiclassical.soliton_energy(
                    self.states[n], const, self.eps[0], self.const_xi[n])
        return attempted, failed, results

    def check(self, results) -> List[str]:
        out: List[str] = []
        for e in self.entries:
            if e["label"] not in results:
                continue
            proxies, found = results[e["label"]]
            if e["points"] == "ring":
                out += checks.check_ring(e["label"], found)
            else:
                out += checks.check_points(e["label"], found, e["points"])
            out += checks.check_exponent(e["label"], self.eps, proxies, e["window"])
        for n in DIMS:
            gs = self.states[n]
            ints = checks.energy_integrals(n, gs.grid.r_max, gs.grid.nodes, gs.profile.values)
            out += checks.check_constant_energy(n, results[("constant", n)], ints["Q"],
                                                self.CONSTANT_MU)
        return out


WORKLOADS = {cls.name: cls for cls in (Certify, Solitons, Landscape)}
