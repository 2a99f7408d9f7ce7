"""Configuration parsing, pipelines, artifacts and their determinism."""

import ast
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hartree_lab import cli
from hartree_lab import newton_potential as npot
from hartree_lab.radial_core import RadialFunction


def _loaded_modules(code: str, prefixes, argv=None) -> str:
    """The sorted modules under prefixes that a fresh interpreter has loaded
    after running code and then, if argv is given, the CLI command argv
    (which must exit 0), as printed."""
    if argv is not None:
        code += f"\nfrom hartree_lab import cli; assert cli.main({list(argv)!r}) == 0"
    code += (f"\nimport sys; print(sorted(m for m in sys.modules "
             f"if m.startswith({tuple(prefixes)!r})))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy_integrate_or_special():
    # both load on first use; importing the CLI pays for neither
    assert _loaded_modules("import hartree_lab.cli",
                           ("scipy.integrate", "scipy.special")) == "[]"


def test_cli_import_loads_no_scipy_linalg():
    # no module of the package imports scipy.linalg: the sector spectra use
    # numpy's eigvalsh and solve
    assert _loaded_modules("import hartree_lab.cli", ("scipy.linalg",)) == "[]"


def test_cli_import_loads_no_semiclassical_layer():
    # only the semiclassical command imports it and its potentials
    assert _loaded_modules("import hartree_lab.cli",
                           ("hartree_lab.semiclassical", "hartree_lab.potentials")) == "[]"


def test_package_root_loads_no_submodule():
    # the root re-exports nothing; every caller imports a submodule by name
    assert _loaded_modules("import hartree_lab", ("hartree_lab.",)) == "[]"


def test_fixed_point_solve_loads_no_scipy_linalg():
    # the fixed-point solver is Newton on numpy's dense solve alone
    code = ("from hartree_lab import ground_state, radial_core\n"
            "ground_state.solve_ground_state(radial_core.build_grid(3, 30.0, 64))")
    assert _loaded_modules(code, ("scipy.linalg",)) == "[]"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "3", "--grid-n", "64"],
    ["identities", "--n", "3", "--grid-n", "64"],
    ["multipole_verify"],
    ["multipole_verify", "--n", "5"],
    ["semiclassical", "--n", "3", "--grid-n", "64"],
    ["semiclassical", "--n", "4", "--grid-n", "64"],
    ["semiclassical", "--n", "5", "--grid-n", "64"],
    ["ground_state", "--n", "3", "--method", "shooting"],
    ["ground_state", "--n", "5", "--method", "shooting"],
    # at N = 64 the n = 5 shooting profile misses tol 1e-7 (residual 3.7e-7)
    ["identities", "--n", "5", "--method", "shooting", "--grid-n", "128"],
    ["ground_state", "--n", "3", "--grid-n", "64"],
])
def test_certificate_command_loads_no_scipy(argv, tmp_path):
    # the sector spectra run on numpy's eigvalsh, the multipole check's
    # Gegenbauer polynomials on their recurrence and its oracle on math.erf
    # and math.exp, the n >= 4 shell rules and the Gauss radii of every
    # polynomial V on numpy's eigh of a Jacobi matrix, and shooting on a
    # Taylor-series stepper in plain Python and numpy; every Gauss-Legendre
    # rule comes from radial_core.legendre_rule, so numpy.polynomial stays
    # unloaded too
    assert _loaded_modules("", ("scipy", "numpy.polynomial"),
                           argv + ["--out", str(tmp_path)]) == "[]"


def test_no_package_module_imports_scipy():
    # scipy is a test dependency alone; no module of the package names it
    # in an import, at the top or inside a function.  Nor does any name
    # numpy.polynomial, in an import or as the attribute np.polynomial or
    # numpy.polynomial: radial_core.legendre_rule builds every Gauss rule
    src = Path(cli.__file__).resolve().parent
    banned = ("scipy", "numpy.polynomial")
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                if node.module == "numpy":
                    names += [f"numpy.{alias.name}" for alias in node.names]
            elif (isinstance(node, ast.Attribute) and node.attr == "polynomial"
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                names = ["numpy.polynomial"]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if any(name == b or name.startswith(b + ".") for b in banned)]
    assert found == []


def test_runtime_dependency_is_numpy_alone():
    # scipy is in the test extra, which tests/_reference needs for its
    # quadratures, solve_ivp and special functions
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads(
        (Path(cli.__file__).resolve().parents[2] / "pyproject.toml").read_text())["project"]
    assert [re.split(r"[<>=!~ \[;]", dep, maxsplit=1)[0]
            for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_readme_command_examples_parse():
    # every `hartree-lab ...` line of the README's "Command line" block,
    # continuations joined and comments stripped, is a valid command line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n+```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line.split("#")[0].strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("hartree-lab ")]
    assert len(commands) == 5
    for argv in commands:
        assert cli.parse_config(argv).command == argv[0]


def test_defaults_from_minimal_flags():
    cfg = cli.parse_config(["ground_state", "--n", "3"])
    assert cfg.command == "ground_state"
    assert cfg.n == 3
    assert cfg.r_max == 30.0
    assert cfg.grid_n == 400
    assert cfg.solver_config().tol == 1e-10
    assert cfg.k_max == 8
    assert cfg.eps == (0.2, 0.1, 0.05, 0.025)


def test_positional_command():
    cfg = cli.parse_config(["spectrum", "--n", "4"])
    assert cfg.command == "spectrum"
    assert cfg.r_max == 25.0


def test_unsupported_dimension_rejected(capsys):
    with pytest.raises(ValueError, match=r"\(3, 4, 5\)"):
        cli.parse_config(["ground_state", "--n", "6"])
    assert cli.main(["ground_state", "--n", "6"]) == 1
    assert "(3, 4, 5)" in capsys.readouterr().err


def test_config_file_and_flag_override(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": "identities", "n": 4, "tol": 1e-8}))
    cfg = cli.parse_config(["--config", str(path)])
    assert cfg.command == "identities" and cfg.n == 4 and cfg.tol == 1e-8
    cfg2 = cli.parse_config(["--config", str(path), "--n", "3"])
    assert cfg2.n == 3  # flag wins
    assert cfg2.tol == 1e-8


def test_every_flag_has_a_config_key_and_every_key_a_flag():
    dests = {action.dest for action in cli._parser()._actions}
    assert dests - {"config", "help", "version"} == {
        f.name for f in dataclasses.fields(cli.RunConfig)}


@pytest.mark.parametrize("config, flags, message", [
    ({"command": "spectrum", "tolerance": 1e-8}, [], "unknown config key 'tolerance'"),
    ({"command": "spectrum", "cache": "ignore"}, [], "unknown config key 'cache'"),
    ({"command": "spectrum", "workers": 2}, [], "unknown config key 'workers'"),
    ({}, ["spectrum", "--cache", "ignore"], "unrecognized arguments: --cache ignore"),
    ({}, ["spectrum", "--workers", "2"], "unrecognized arguments: --workers 2"),
], ids=["tolerance", "cache_key", "workers_key", "cache_flag", "workers_flag"])
def test_config_file_unknown_key(tmp_path, capsys, config, flags, message):
    # a key or flag the program does not have is a config error before any solve
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), *flags, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_file_scheme_key_rejected(tmp_path, capsys):
    # the grid scheme is fixed (mapped Gauss-Legendre); "scheme" is not a key
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": "ground_state", "scheme": "gauss_legendre_mapped"}))
    assert cli.main(["--config", str(path)]) == 1
    assert "unknown config key 'scheme'" in capsys.readouterr().err
    # nor is the damping of the fixed-point solver, which is plain Newton
    path.write_text(json.dumps({"command": "ground_state", "damping": 0.5}))
    assert cli.main(["--config", str(path)]) == 1
    assert "unknown config key 'damping'" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ({"command": "semiclassical", "eps": 0.1},
     "config key 'eps' must be a list, each item a number, got 0.1"),
    ({"command": "spectrum", "k_max": "8"},
     "config key 'k_max' must be an integer, got \"8\""),
    ({"command": "ground_state", "grid_n": True}, "config key 'grid_n' must be an integer"),
])
def test_config_file_value_of_wrong_type(tmp_path, capsys, config, message):
    # a wrong type is a config error before any solve: no traceback, no output
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_file_numbers_fit_float_fields(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": "semiclassical", "r_max": 28, "tol": None,
                                "eps": [0.2, 0.1]}))
    cfg = cli.parse_config(["--config", str(path)])
    assert cfg.r_max == 28 and cfg.tol is None and cfg.eps == (0.2, 0.1)


def test_bad_flag_exits_1(capsys):
    # a bad flag is a configuration error (1); 2 is kept for a failed check
    assert cli.main(["ground_state", "--method", "bogus"]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert cli.main(["ground_state", "--damping", "0.5"]) == 1
    assert "unrecognized arguments: --damping" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_missing_command_rejected():
    with pytest.raises(ValueError, match="no command"):
        cli.parse_config(["--n", "3"])
    # the command is positional or the config file's "command" key
    assert cli.main(["--cmd", "ground_state"]) == 1


def test_eps_parsing_and_validation():
    cfg = cli.parse_config(["semiclassical", "--eps", "0.1,0.05"])
    assert cfg.eps == (0.1, 0.05)
    with pytest.raises(ValueError, match="decreasing"):
        cli.parse_config(["semiclassical", "--eps", "0.05,0.1"])


def test_ground_state_pipeline_and_cache(tmp_path):
    # the solved state is the command's one artifact, written through a
    # temporary file that does not outlive the run
    args = ["ground_state", "--n", "3", "--grid-n", "128", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["ground_state_n3.txt"]


def test_ground_state_monotone_check_can_fail(tmp_path, capsys, monkeypatch):
    # a solved profile that rises between two nodes by 1e-6 max U, far above
    # MONOTONE_TOL = 1e-10, fails the ground_state command: the GroundState
    # constructor raises on it and the command exits 1 with the reason
    real = cli.solve_ground_state

    def rising(grid, solver):
        gs = real(grid, solver)
        u = gs.profile.values.copy()
        u[40] = u[39] + 1e-6 * u.max()
        return dataclasses.replace(gs, profile=RadialFunction(gs.grid, u))

    base = ["ground_state", "--n", "3", "--grid-n", "128", "--out", str(tmp_path)]
    assert cli.main(base) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "solve_ground_state", rising)
    assert cli.main(base) == 1
    captured = capsys.readouterr()
    assert "[PASS]" not in captured.out
    assert "error: ground-state profile must be non-increasing" in captured.err


def _scale_values(text: str) -> str:
    head, *rows = text.splitlines()
    return "\n".join([head] + [f"{r} {1.01 * float(v):.17g}"
                                for r, v in map(str.split, rows)]) + "\n"


def _mark_shooting(text: str) -> str:
    return text.replace("method=fixed_point", "method=shooting", 1)


@pytest.mark.parametrize("stale", [_scale_values, _mark_shooting], ids=["scaled", "shooting"])
def test_stale_ground_state_file_is_overwritten_never_read(tmp_path, stale):
    # every command solves U itself: a ground_state_n3.txt already in --out
    # changes no artifact and is replaced, with no temporary file left behind
    args = ["spectrum", "--n", "3", "--grid-n", "128"]
    clean, dirty = tmp_path / "clean", tmp_path / "dirty"
    assert cli.main(args + ["--out", str(clean)]) == 0
    fresh = (clean / "ground_state_n3.txt").read_text()
    dirty.mkdir()
    (dirty / "ground_state_n3.txt").write_text(stale(fresh))
    assert (dirty / "ground_state_n3.txt").read_text() != fresh
    assert cli.main(args + ["--out", str(dirty)]) == 0
    names = sorted(p.name for p in clean.iterdir())
    assert sorted(p.name for p in dirty.iterdir()) == names
    assert names == ["ground_state_n3.txt", "nondegeneracy_n3.txt", "spectrum_n3.csv"]
    for name in names:
        assert (dirty / name).read_bytes() == (clean / name).read_bytes(), name


def test_identity_defect_check_can_fail(tmp_path, capsys, monkeypatch):
    real = cli.identity_defects

    def inflated(gs):
        defects = real(gs)
        defects["LrU"] = 2e-4
        return defects

    monkeypatch.setattr(cli, "identity_defects", inflated)
    args = ["identities", "--n", "3", "--grid-n", "128", "--out", str(tmp_path)]
    assert cli.main(args) == 2
    out = capsys.readouterr().out
    failing = [ln for ln in out.splitlines() if ln.startswith("[FAIL]")]
    assert failing == ["[FAIL] identity defect L(r U') + 2U - 4 (I2*U^2) U (0.0002 < 0.0001)"]


def test_identities_pipeline_deterministic(tmp_path, capsys):
    # L U + 2 (I2*U^2) U is the equation residual: logged, neither checked
    # nor written
    args = ["identities", "--n", "3", "--grid-n", "128", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    assert "[hartree-lab] residual=" in capsys.readouterr().out
    csv_path = tmp_path / "identities_n3.csv"
    first = csv_path.read_bytes()
    assert [ln.split(",")[0] for ln in first.decode().splitlines()] == [
        "identity", "L(r U') + 2U - 4 (I2*U^2) U"]
    assert cli.main(args) == 0
    assert csv_path.read_bytes() == first


def test_spectrum_pipeline(tmp_path, capsys):
    assert (
        cli.main(
            [
                "spectrum",
                "--n",
                "3",
                "--grid-n",
                "128",
                "--k-max",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    lines = (tmp_path / "spectrum_n3.csv").read_text().splitlines()
    assert lines[0] == "k,lambda0,lambda1,zero_mode_residual"
    assert len(lines) == 5
    assert "nondegenerate" in (tmp_path / "nondegeneracy_n3.txt").read_text()
    assert "[PASS] node-free sector ground states" in capsys.readouterr().out


@pytest.mark.parametrize("n", (3, 5))
def test_spectrum_at_odd_grid_size(tmp_path, capsys, n):
    # for odd N the grid and the stiffness's (N+8)-point rule share the
    # middle node r_max / 2
    args = ["spectrum", "--n", str(n), "--grid-n", "201", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    assert "verdict: nondegenerate" in capsys.readouterr().out


def test_spectrum_raising_sector_is_an_operational_error(tmp_path, capsys, monkeypatch):
    # a sector that raises is a crash, not a failed check: exit 1 with the
    # error named, no check printed and no spectrum artifact written
    from hartree_lab import linearized_spectrum as lsp

    assemble = lsp.assemble_sector

    def broken(gs, k):
        if k == 3:
            raise TypeError("sector 3 broke")
        return assemble(gs, k)

    monkeypatch.setattr(lsp, "assemble_sector", broken)
    args = ["spectrum", "--n", "3", "--grid-n", "128", "--k-max", "3",
            "--out", str(tmp_path)]
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert "[hartree-lab] error: sector 3 broke" in captured.err
    assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out
    assert [p.name for p in tmp_path.iterdir()] == ["ground_state_n3.txt"]


def test_spectrum_double_zero_mode_fails_check(tmp_path, capsys, monkeypatch):
    # the CLI prints the report's own checks: a double zero mode at k = 1
    # keeps |lambda_10| below tol_zero but fails lambda_11 > tol_zero
    from hartree_lab import linearized_spectrum as lsp

    solve = lsp.lowest_eigenpairs

    def double_zero(op, m):
        spec = solve(op, m)
        if op.degree == 1:
            spec.eigenvalues[1] = spec.eigenvalues[0]
        return spec

    monkeypatch.setattr(lsp, "lowest_eigenpairs", double_zero)
    args = ["spectrum", "--n", "3", "--grid-n", "128", "--k-max", "3",
            "--out", str(tmp_path)]
    assert cli.main(args) == 2
    out = capsys.readouterr().out
    assert "[PASS] k=1 zero mode |lambda_10| (" in out
    assert "[FAIL] k=1 next eigenvalue lambda_11 (" in out
    assert "[PASS] k=0 kernel gap (" in out
    assert "verdict: NOT CERTIFIED" in out


def _lift_zero_mode(spec):
    spec.eigenvalues[0] = 0.01


def _close_k0_gap(spec):
    spec.eigenvalues[1] = 0.0


def _add_node(spec):
    spec.sign_changes = 1


@pytest.mark.parametrize("degree, mutate, name", [
    (1, _lift_zero_mode, "k=1 zero mode |lambda_10|"),
    (0, _close_k0_gap, "k=0 kernel gap"),
    (3, _add_node, "node-free sector ground states"),
], ids=["zero_mode", "k0_gap", "node_free"])
def test_spectrum_check_can_fail(tmp_path, capsys, monkeypatch, degree, mutate, name):
    # each certificate condition fails alone when its eigenpair is broken
    from hartree_lab import linearized_spectrum as lsp

    solve = lsp.lowest_eigenpairs

    def broken(op, m):
        spec = solve(op, m)
        if op.degree == degree:
            mutate(spec)
        return spec

    monkeypatch.setattr(lsp, "lowest_eigenpairs", broken)
    args = ["spectrum", "--n", "3", "--grid-n", "128", "--k-max", "3",
            "--out", str(tmp_path)]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    failing = [ln for ln in captured.out.splitlines() if ln.startswith("[FAIL]")]
    assert len(failing) == 1 and failing[0].startswith(f"[FAIL] {name} (")
    assert f"failing check: {name}" in captured.err


def test_multipole_pipeline_and_failure_path(tmp_path, capsys):
    assert cli.main(["multipole_verify", "--k-max", "4", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "multipole_errors_n3.csv").exists()
    # K_max = 0 keeps only the monopole: the declared error check fails
    capsys.readouterr()
    assert cli.main(["multipole_verify", "--k-max", "0", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "[FAIL] expansion error at K_max=0 (" in captured.out
    assert "[PASS] error decays monotonically in K_max (-inf <= 0)" in captured.out
    assert "failing check: expansion error at K_max=0" in captured.err


def test_multipole_monotone_check_can_fail(tmp_path, capsys, monkeypatch):
    # a worst error that rises from K = 1 to K = 2 fails the decay check
    # alone, while the error at K_max stays small
    real = cli.multipole_completeness_experiment

    def rising(k_max=8, n=3):
        points, oracle, errors = real(k_max=k_max, n=n)
        errors[:, 2] = 2.0 * errors[:, 1]
        return points, oracle, errors

    monkeypatch.setattr(cli, "multipole_completeness_experiment", rising)
    assert cli.main(["multipole_verify", "--k-max", "4", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "[PASS] expansion error at K_max=4 (" in captured.out
    line = next(ln for ln in captured.out.splitlines() if "decays monotonically" in ln)
    assert line.startswith("[FAIL] error decays monotonically in K_max (")
    assert line.endswith(" <= 0)") and float(line.split("(")[1].split()[0]) > 0.0


def test_multipole_nan_error_fails_both_checks(tmp_path, capsys, monkeypatch):
    # a NaN error at one point used to drop out of Python's max and pass
    real = cli.multipole_completeness_experiment

    def nan_row(k_max=8, n=3):
        points, oracle, errors = real(k_max=k_max, n=n)
        errors[1, k_max] = math.nan
        return points, oracle, errors

    monkeypatch.setattr(cli, "multipole_completeness_experiment", nan_row)
    assert cli.main(["multipole_verify", "--k-max", "4", "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] expansion error at K_max=4 (nan < 0.0001)" in out
    assert "[FAIL] error decays monotonically in K_max (nan <= 0)" in out


@pytest.mark.parametrize("n", (3, 4, 5))
def test_multipole_check_fails_a_scaled_kernel(tmp_path, capsys, monkeypatch, n):
    # every G_k scaled by 1.01 leaves the residual and every identity
    # intact; the closed-form oracle sees it in each dimension
    args = ["multipole_verify", "--n", str(n), "--out", str(tmp_path)]
    assert cli.main(args) == 0
    header = (tmp_path / f"multipole_errors_n{n}.csv").read_text().splitlines()[0]
    assert header == ",".join(["K_max", *("x", "y", "z", "x4", "x5")[:n], "oracle", "abs_error"])
    real = npot.kernel_matrix
    monkeypatch.setattr(npot, "kernel_matrix", lambda grid, k: 1.01 * real(grid, k))
    capsys.readouterr()
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert "[FAIL] expansion error at K_max=8 (" in captured.out
    assert "failing check: expansion error at K_max=8" in captured.err


def _kernel_with_fault(robin_shift=0, radial_scale=1.0):
    """kernel_matrix's collocated Robin solve with one fault: the Robin row's
    (k+n-2)/R raised to (k+n-2+robin_shift)/R, or the first-order
    coefficient (n-1)/r scaled by radial_scale."""
    import numpy as np

    from hartree_lab.radial_core import get_discretization

    def kernel(grid, k):
        n, N = grid.dim, grid.size
        x, D1, D2 = get_discretization(grid).collocation("dirichlet")
        A = -D2 - (radial_scale * (n - 1) / x)[:, None] * D1
        A[np.diag_indices(N + 1)] += k * (k + n - 2) / x**2
        A[N] = D1[N]
        A[N, N] += (k + n - 2 + robin_shift) / x[N]
        return np.linalg.solve(A, np.eye(N + 1, N))[:N]

    return kernel


@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("fault", [{"robin_shift": 1}, {"radial_scale": 1.02}],
                         ids=["robin_row", "radial_term"])
def test_pohozaev_check_fails_a_wrong_kernel(tmp_path, capsys, monkeypatch, n, fault):
    # the solver meets its residual on the faulty kernel (N = 400: below
    # 5e-12), so the solve succeeds; the Pohozaev defect reads 1.2e-4 or
    # more against at most 2.9e-11 on the true kernel
    from hartree_lab import ground_state as gstate
    from hartree_lab.radial_core import DEFAULT_R_MAX, build_grid

    # without a fault the copy is the program's kernel, bit for bit
    grid = build_grid(n, DEFAULT_R_MAX[n], 400)
    assert (_kernel_with_fault()(grid, 0) == npot.kernel_matrix(grid, 0)).all()
    monkeypatch.setattr(gstate, "kernel_matrix", _kernel_with_fault(**fault))
    assert cli.main(["ground_state", "--n", str(n), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    residual = float(re.search(r"residual=(\S+)", captured.out).group(1))
    assert residual < 1e-10
    failing = [ln for ln in captured.out.splitlines() if ln.startswith("[FAIL]")]
    assert len(failing) == 1 and failing[0].startswith("[FAIL] Pohozaev identity (")
    assert "failing check: Pohozaev identity" in captured.err


def test_spectrum_verdict_covers_the_pohozaev_check(tmp_path, capsys, monkeypatch):
    # under the Robin-row fault every certificate check passes, and the
    # Pohozaev check alone fails: the verdict in the log and in the report
    # file must not read nondegenerate
    from hartree_lab import ground_state as gstate

    monkeypatch.setattr(gstate, "kernel_matrix", _kernel_with_fault(robin_shift=1))
    args = ["spectrum", "--n", "3", "--grid-n", "200", "--out", str(tmp_path)]
    assert cli.main(args) == 2
    out = capsys.readouterr().out
    failing = [ln for ln in out.splitlines() if ln.startswith("[FAIL]")]
    assert len(failing) == 1 and failing[0].startswith("[FAIL] Pohozaev identity (")
    assert "verdict: NOT CERTIFIED" in out and "nondegenerate" not in out
    report = (tmp_path / "nondegeneracy_n3.txt").read_text()
    assert report.splitlines()[-1] == "verdict: NOT CERTIFIED"


def test_multipole_creates_output_directory(tmp_path):
    out = tmp_path / "fresh" / "dir"
    assert cli.main(["multipole_verify", "--k-max", "4", "--out", str(out)]) == 0
    assert (out / "multipole_errors_n3.csv").exists()


def test_semiclassical_pipeline(tmp_path):
    assert (
        cli.main(
            [
                "semiclassical",
                "--n",
                "3",
                "--grid-n",
                "128",
                "--potential",
                "double_well:1.0,0.5",
                "--eps",
                "0.2,0.1,0.05",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    rows = (tmp_path / "semiclassical_n3.csv").read_text().splitlines()
    assert rows[0] == ("eps,energy,leading,gradient_proxy,gamma_half,"
                       "shell_degree,shell_error")
    assert rows[1].endswith(",8,0")
    assert len(rows) == 4
    assert (tmp_path / "semiclassical_report_n3.txt").exists()


def test_semiclassical_stepped_potential_pipeline(tmp_path):
    # a potential with no polynomial degree takes the stepped shell rules;
    # the factor 0.1 keeps 1 + V > 0 on the command's box [-2, 2]^3
    argv = ["semiclassical", "--n", "3", "--grid-n", "128", "--potential",
            "x1^2 + 0.1*exp(-x2)*cos(x3)", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    rows = (tmp_path / "semiclassical_n3.csv").read_text().splitlines()
    assert len(rows) == 1 + len(cli.DEFAULT_EPS)
    for row in rows[1:]:
        degree, error = row.split(",")[5:7]
        assert int(degree) in (12, 16, 20) and float(error) <= 1e-8


def test_semiclassical_stepped_rule_finishes_at_degree_24(tmp_path):
    # at eps = 0.2 the stepped rule's change from degree 16 to 20 is 3.2e-8,
    # above DEGREE_TOL, and from 20 to 24 it is 7.1e-10
    argv = ["semiclassical", "--n", "3", "--grid-n", "128", "--potential",
            "0.3*x1*exp(-x2^2)", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    rows = (tmp_path / "semiclassical_n3.csv").read_text().splitlines()
    eps, degree, error = (rows[1].split(",")[i] for i in (0, 5, 6))
    assert float(eps) == 0.2 and int(degree) == 24 and float(error) <= 1e-8


def test_semiclassical_constant_potential_fails_the_fit_check(tmp_path, capsys):
    # every gradient proxy of a constant V is 0, so there is no exponent to
    # fit: the fit check fails and says why, and the artifacts are written
    argv = ["semiclassical", "--n", "3", "--grid-n", "128", "--potential", "0.3",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    out = capsys.readouterr().out
    assert "[PASS] constant-V exactness of the soliton energy" in out
    assert "[FAIL] scaling fit produced finite exponents (nan < inf)" in out
    rows = (tmp_path / "semiclassical_n3.csv").read_text().splitlines()
    assert len(rows) == 1 + len(cli.DEFAULT_EPS)
    assert all(row.split(",")[4:6] == ["0", "0"] for row in rows[1:])
    assert "proxy exponent" not in (tmp_path / "semiclassical_report_n3.txt").read_text()


def test_semiclassical_constant_v_exactness_check_can_fail(tmp_path, capsys, monkeypatch):
    # a soliton energy off by 1e-5 relative fails the constant-V check
    from hartree_lab import semiclassical as sc

    exact = sc._translation_invariant_energy
    monkeypatch.setattr(sc, "_translation_invariant_energy",
                        lambda gs, alpha: exact(gs, alpha) * (1.0 + 1e-5))
    argv = ["semiclassical", "--n", "3", "--grid-n", "128", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    line = next(ln for ln in captured.out.splitlines() if "constant-V exactness" in ln)
    assert line.startswith("[FAIL] constant-V exactness of the soliton energy (")
    assert line.endswith(" < 1e-06)") and float(line.split("(")[1].split()[0]) > 1e-6
    assert "[PASS] scaling fit produced finite exponents" in captured.out
    assert "failing check: constant-V exactness" in captured.err


def test_semiclassical_constant_v_check_fails_a_wrong_soliton_measure(
        tmp_path, capsys, monkeypatch):
    # the check reads |F(U) - Q/4| / (Q/4) only while the rescaled soliton's
    # weights carry alpha^(2-n/2): with alpha^(1-n/2) the mass term and
    # int V z^2 no longer cancel, and the check fails
    from hartree_lab import semiclassical as sc

    def wrong_measure(rule, alpha, n):
        radii, weights = rule
        return radii / math.sqrt(alpha), alpha ** (1.0 - n / 2.0) * weights

    monkeypatch.setattr(sc, "_soliton_rule", wrong_measure)
    argv = ["semiclassical", "--n", "3", "--grid-n", "128", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    line = next(ln for ln in captured.out.splitlines() if "constant-V exactness" in ln)
    assert line.startswith("[FAIL] constant-V exactness of the soliton energy (")
    assert float(line.split("(")[1].split()[0]) > 1e-3
    assert "failing check: constant-V exactness" in captured.err


def test_semiclassical_constant_v_takes_degree_0_rule(tmp_path, monkeypatch):
    # the calibration's constant V is a compiled expression of degree 0, so
    # its moments come from one pass of the exact rule, not the stepped ones;
    # the sweep's rows on the supplied potential are recorded too
    from hartree_lab import semiclassical as sc

    rows = []
    real = sc.soliton_row

    def recorded(gs, V, *args):
        rows.append((V.degree, real(gs, V, *args)))
        return rows[-1][1]

    monkeypatch.setattr(sc, "soliton_row", recorded)
    argv = ["semiclassical", "--n", "3", "--grid-n", "128", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert [row.shell_degree for degree, row in rows if degree == 0] == [0]


@pytest.mark.parametrize("spec, message", [
    ("quadratic:1,2,3,4", "'quadratic' takes at most 2 parameters"),
    ("x1**2", "powers are written ^"),
])
def test_semiclassical_bad_potential_fails_before_solve(tmp_path, capsys, spec, message):
    out = tmp_path / "fresh"
    assert cli.main(["semiclassical", "--n", "3", "--potential", spec, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "ground_state_n3.txt").exists()


@pytest.mark.parametrize("eps, message", [
    ("0.2,0.1,0", "eps values must be positive"),
    ("0.1,-0.1", "eps values must be positive"),
    ("nan,0.1", "eps values must be positive"),
    ("", "at least two values"),
    ("0.1", "at least two values"),
])
def test_semiclassical_bad_eps_fails_before_solve(tmp_path, capsys, eps, message):
    # a zero eps used to fail after the solve, with the cache written; an
    # empty list failed there too, and one eps passed a fit through one point
    out = tmp_path / "fresh"
    assert cli.main(["semiclassical", "--n", "3", "--eps", eps, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "ground_state_n3.txt").exists()


@pytest.mark.parametrize("command, k_max, message", [
    ("spectrum", "1", "k_max must be >= 2 for spectrum"),
    ("spectrum", "-1", "k_max must be >= 0"),
    ("multipole_verify", "-1", "k_max must be >= 0"),
])
def test_bad_k_max_fails_before_solve(tmp_path, capsys, command, k_max, message):
    # spectrum --k-max 1 used to fail after the solve, with the cache written,
    # and multipole_verify --k-max -1 wrote a header-only CSV and raised KeyError
    out = tmp_path / "fresh"
    assert cli.main([command, "--k-max", k_max, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, flag", [
    (["--grid-n", "64"], {}, "--grid-n"),
    (["--r-max", "7"], {}, "--r-max"),
    ([], {"grid_n": 64}, "--grid-n"),
    ([], {"r_max": 7.0}, "--r-max"),
])
def test_multipole_refuses_grid_flags(tmp_path, capsys, argv, config, flag):
    # the check runs on its own radial grid, so a grid it would ignore is a
    # config error before any work
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": "multipole_verify", "n": 4, **config}))
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), *argv, "--out", str(out)]) == 1
    assert f"multipole_verify takes no {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_every_check_line_shows_value_relation_bound(tmp_path, capsys):
    pattern = re.compile(r"\(\S+ (<|<=|>) \S+\)$")
    checks = {}
    for command in cli.COMMANDS:
        grid = [] if command == "multipole_verify" else ["--grid-n", "64"]
        argv = [command, "--n", "3", *grid, "--k-max", "3", "--out", str(tmp_path)]
        assert cli.main(argv) == 0, command
        out = capsys.readouterr().out.splitlines()
        checks[command] = [ln for ln in out if ln.startswith(("[PASS]", "[FAIL]"))]
        assert all(pattern.search(ln) for ln in checks[command]), checks[command]
    assert {c: len(lines) for c, lines in checks.items()} == {
        "ground_state": 1, "spectrum": 6, "multipole_verify": 2, "identities": 2,
        "semiclassical": 3}


def test_run_config_validation():
    with pytest.raises(ValueError):
        cli.RunConfig(command="explode")
    with pytest.raises(ValueError):
        cli.RunConfig(command="spectrum", eps=(0.1, 0.2))
    with pytest.raises(ValueError, match="positive"):
        cli.RunConfig(command="spectrum", eps=(0.1, 0.0))
