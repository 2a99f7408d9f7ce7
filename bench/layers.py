"""The layer probe of the traced run.

Calls each module's public functions one at a time, in the order the CLI
pipelines call them, so that each span is that layer's own work.  It runs
first in a fresh process, so "fresh grid" means nothing is cached yet:
n = 3 on the CLI default grid (N = 400), then the cold CLI commands at
n = 3 on half that grid.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from tracer import Tracer, rusage
from workloads import EXPRESSION_DOUBLE_WELL, run_cli, warm_import

from hartree_lab import (
    ground_state,
    linearized_spectrum,
    newton_potential,
    potentials,
    radial_core,
    semiclassical,
)
from hartree_lab.cli import DEFAULT_EPS, DEFAULT_POTENTIAL

PROBE_DIM = 3
PROBE_GRID_N = 400
CLI_GRID_N = 200
K_MAX = 8
CLOUD_POINTS = 200_000
FD_POINTS = 2_000


class Probe:
    def __init__(self, tracer: Tracer, workdir: Path, env: dict, seed: int):
        self.tracer = tracer
        self.workdir = workdir
        self.env = env
        self.rng = np.random.default_rng(seed)
        self.metrics = {}
        self.failures = []

    @contextmanager
    def measure(self, metric: str, layer: str, sys_metric=None, minflt_metric=None):
        """Span whose wall time (and optionally system CPU and minor page
        faults of this process) becomes a per-layer metric."""
        before = rusage()
        t0 = time.perf_counter()
        with self.tracer.span(metric, layer):
            yield
        self.metrics[metric] = (time.perf_counter() - t0, "s")
        after = rusage()
        if sys_metric:
            self.metrics[sys_metric] = (after.ru_stime - before.ru_stime, "s")
        if minflt_metric:
            self.metrics[minflt_metric] = (after.ru_minflt - before.ru_minflt, "count")

    def call(self, module, name, *args, **kwargs):
        """Call a public entry point, or skip it when the program no longer
        has it (the tracer records it as absent)."""
        fn = self.tracer.lookup(module, name)
        return None if fn is None else fn(*args, **kwargs)

    def run(self) -> dict:
        n = PROBE_DIM
        grid = radial_core.build_grid(n, radial_core.DEFAULT_R_MAX[n], PROBE_GRID_N)
        with self.measure("radial_core.discretization_s", "radial_core"):
            disc = radial_core.get_discretization(grid)
            disc.d1()
            disc.d2()
            disc.stiffness()
        with self.measure("newton_potential.kernels_s", "newton_potential",
                          "newton_potential.kernels_sys_s", "newton_potential.kernels_minflt"):
            self.call(newton_potential, "prefetch_kernel_matrices", grid, range(K_MAX + 1))
            for k in range(K_MAX + 1):
                newton_potential.kernel_matrix(grid, k)
        with self.measure("newton_potential.multipole_s", "newton_potential"):
            newton_potential.multipole_completeness_experiment(k_max=K_MAX)

        with self.measure("ground_state.fixed_point_s", "ground_state"):
            gs = ground_state.solve_ground_state(grid, ground_state.SolverConfig())
        with self.measure("ground_state.shooting_s", "ground_state"):
            ground_state.solve_ground_state(
                grid, ground_state.SolverConfig(method="shooting"))
        self.workdir.mkdir(parents=True, exist_ok=True)
        cache = self.workdir / f"ground_state_n{n}.txt"
        with self.measure("ground_state.cache_write_s", "ground_state"):
            cache.write_text(ground_state.format_cache(gs))
        with self.measure("ground_state.cache_read_s", "ground_state"):
            ground_state.groundstate_from_cache(grid, cache.read_text())

        with self.measure("linearized_spectrum.assemble_s", "linearized_spectrum"):
            ops = [linearized_spectrum.assemble_sector(gs, k) for k in range(K_MAX + 1)]
        with self.measure("linearized_spectrum.eigensolve_s", "linearized_spectrum"):
            for op in ops:
                linearized_spectrum.lowest_eigenpairs(op, 2)
        with self.measure("linearized_spectrum.report_s", "linearized_spectrum"):
            report = linearized_spectrum.nondegeneracy_report(gs, K_MAX, workers=2)
        if not report.verdict:
            self.failures.append("probe: nondegeneracy verdict not certified")
        with self.measure("linearized_spectrum.identities_s", "linearized_spectrum"):
            linearized_spectrum.identity_defects(gs)

        self._semiclassical(gs)
        self._potentials()
        self._cli()
        return self.metrics

    def _semiclassical(self, gs):
        n = PROBE_DIM
        value, gradient = potentials.make_potential_functions(DEFAULT_POTENTIAL, n)
        points = [0]

        def counted(pts):
            points[0] += np.shape(pts)[0]
            return value(pts)

        V = semiclassical.PotentialField(n, counted, gradient)
        xi = self.rng.uniform(-0.5, 0.5, n)
        with self.measure("semiclassical.sweep_s", "semiclassical",
                          minflt_metric="semiclassical.sweep_minflt"):
            semiclassical.semiclassical_sweep(gs, V, xi, list(DEFAULT_EPS))
        self.metrics["semiclassical.shell_points"] = (points[0], "count")
        eps_ref = DEFAULT_EPS[len(DEFAULT_EPS) // 2]
        with self.measure("semiclassical.predict_s", "semiclassical"):
            cps = semiclassical.predict_concentration(
                semiclassical.PotentialField(n, value, gradient), [(-2.0, 2.0)] * n,
                eps_ref, gs, seed=int(self.rng.integers(2**31)))
        self.metrics["semiclassical.critical_points"] = (len(cps), "count")

    def _potentials(self):
        n = PROBE_DIM
        cloud = self.rng.uniform(-2.0, 2.0, (CLOUD_POINTS, n))
        value, gradient = potentials.make_potential_functions(DEFAULT_POTENTIAL, n)
        expr, _ = potentials.make_potential_functions(EXPRESSION_DOUBLE_WELL, n)
        with self.measure("potentials.eval_s", "potentials"):
            v_cat = value(cloud)
        with self.measure("potentials.eval_expr_s", "potentials"):
            v_expr = expr(cloud)
        with self.measure("potentials.gradient_s", "potentials"):
            gradient(cloud)
        field = semiclassical.PotentialField(n, expr)
        with self.measure("potentials.gradient_fd_s", "potentials"):
            for x in cloud[:FD_POINTS]:
                field.gradient_at(x)
        if not np.allclose(v_cat, v_expr, rtol=1e-12, atol=1e-12):
            self.failures.append("probe: expression and catalog double wells disagree")

    def _cli(self):
        flags = ["--n", str(PROBE_DIM), "--grid-n", str(CLI_GRID_N)]
        out = self.workdir / "cli"
        out.mkdir(parents=True, exist_ok=True)
        self.metrics["cli.import_s"] = (warm_import(self.env, self.tracer), "s")
        for metric, args in (
            ("cli.spectrum_s", ["spectrum", *flags, "--out", str(out)]),
            ("cli.identities_s", ["identities", *flags, "--out", str(out)]),
            ("cli.multipole_verify_s", ["multipole_verify", "--out", str(out)]),
        ):
            t0 = time.perf_counter()
            code = run_cli(args, self.env, self.tracer)
            self.metrics[metric] = (time.perf_counter() - t0, "s")
            if code != 0:
                self.failures.append(f"probe: hartree-lab {args[0]} exited {code}")


def probe(tracer: Tracer, workdir: Path, env: dict, seed: int):
    """Per-layer metrics {name: (value, unit)} and failure messages."""
    p = Probe(tracer, workdir, env, seed)
    metrics = p.run()
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            p.failures.append(f"probe: {name} is not finite")
    return metrics, p.failures
