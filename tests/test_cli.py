"""Configuration parsing, pipelines, cache policy, artifact determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hartree_lab import cli
from hartree_lab.ground_state import parse_cache
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
    # numpy's eigh
    assert _loaded_modules("import hartree_lab.cli", ("scipy.linalg",)) == "[]"


def test_fixed_point_solve_loads_no_scipy_linalg():
    # the fixed-point solver is Newton on numpy's dense solve alone
    code = ("from hartree_lab import ground_state, radial_core\n"
            "ground_state.solve_ground_state(radial_core.build_grid(3, 30.0, 64))")
    assert _loaded_modules(code, ("scipy.linalg",)) == "[]"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "3", "--grid-n", "64", "--cache", "ignore"],
    ["identities", "--n", "3", "--grid-n", "64", "--cache", "ignore"],
    ["multipole_verify"],
    ["semiclassical", "--n", "4", "--grid-n", "64", "--cache", "ignore"],
    ["semiclassical", "--n", "5", "--grid-n", "64", "--cache", "ignore"],
])
def test_certificate_command_loads_no_scipy(argv, tmp_path):
    # the sector spectra run on numpy's eigh, the n = 3 harmonics on a
    # numpy recurrence and the n >= 4 shell rules on numpy's eigh of a
    # Jacobi matrix; scipy serves shooting alone
    assert _loaded_modules("", ("scipy",), argv + ["--out", str(tmp_path)]) == "[]"


def test_defaults_from_minimal_flags():
    cfg = cli.parse_config(["ground_state", "--n", "3"])
    assert cfg.command == "ground_state"
    assert cfg.n == 3
    assert cfg.r_max == 30.0
    assert cfg.grid_n == 400
    assert cfg.solver_config().tol == 1e-10
    assert cfg.k_max == 8
    assert cfg.eps == (0.2, 0.1, 0.05, 0.025)
    assert cfg.cache == "use"


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


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": "spectrum", "tolerance": 1e-8}))
    with pytest.raises(ValueError, match="unknown config key"):
        cli.parse_config(["--config", str(path)])


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
    # a wrong type is a config error before any solve: no traceback, no cache
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


def test_ground_state_pipeline_and_cache(tmp_path, capsys):
    base = ["ground_state", "--n", "3", "--grid-n", "128", "--out", str(tmp_path)]
    assert cli.main(base) == 0
    cache = tmp_path / "ground_state_n3.txt"
    assert cache.exists()
    first = cache.read_text()
    # policy "use": second run loads instead of re-solving
    capsys.readouterr()
    assert cli.main(base) == 0
    assert "loaded ground-state cache" in capsys.readouterr().out
    assert cache.read_text() == first
    # header mismatch (different N) falls through to refresh
    capsys.readouterr()
    assert cli.main(
        ["ground_state", "--n", "3", "--grid-n", "160", "--out", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "refreshing" in out or "wrote ground-state cache" in out
    assert "N=160" in cache.read_text().splitlines()[0]
    # policy "ignore": neither reads nor writes
    cache.unlink()
    assert cli.main(base + ["--cache", "ignore"]) == 0
    assert not cache.exists()


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

    base = ["ground_state", "--n", "3", "--grid-n", "128", "--cache", "ignore",
            "--out", str(tmp_path)]
    assert cli.main(base) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "solve_ground_state", rising)
    assert cli.main(base) == 1
    captured = capsys.readouterr()
    assert "[PASS]" not in captured.out
    assert "error: ground-state profile must be non-increasing" in captured.err


def test_scaled_cache_is_refreshed(tmp_path, capsys):
    base = ["ground_state", "--n", "3", "--grid-n", "128", "--out", str(tmp_path)]
    assert cli.main(base) == 0
    cache = tmp_path / "ground_state_n3.txt"
    lines = cache.read_text().splitlines()
    scaled = [lines[0]]
    for line in lines[1:]:
        r, v = line.split()
        scaled.append(f"{r} {1.01 * float(v):.17g}")
    cache.write_text("\n".join(scaled) + "\n")
    capsys.readouterr()
    assert cli.main(base) == 0
    assert "refreshing" in capsys.readouterr().out
    data = parse_cache(cache.read_text())
    assert data["residual"] <= data["tol"] == 1e-10
    assert not (tmp_path / "ground_state_n3.txt.tmp").exists()


def test_cache_from_other_method_is_not_used(tmp_path, capsys):
    base = ["ground_state", "--n", "3", "--grid-n", "128", "--out", str(tmp_path)]
    assert cli.main(base) == 0
    capsys.readouterr()
    assert cli.main(base + ["--method", "shooting"]) == 0
    out = capsys.readouterr().out
    assert "refreshing" in out and "method=shooting" in out
    cache = parse_cache((tmp_path / "ground_state_n3.txt").read_text())
    assert cache["method"] == "shooting"


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


def test_identities_pipeline_deterministic(tmp_path):
    args = ["identities", "--n", "3", "--grid-n", "128", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    csv_path = tmp_path / "identities_n3.csv"
    first = csv_path.read_bytes()
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
                "--workers",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    lines = (tmp_path / "spectrum_n3.csv").read_text().splitlines()
    assert lines[0] == "k,lambda0,lambda1,zero_mode_residual,W_k"
    assert len(lines) == 5
    assert "nondegenerate" in (tmp_path / "nondegeneracy_n3.txt").read_text()
    assert "[PASS] node-free sector ground states" in capsys.readouterr().out


def test_spectrum_errored_sector_fails_positivity_check(tmp_path, capsys, monkeypatch):
    from hartree_lab import linearized_spectrum as lsp

    assemble = lsp.assemble_sector

    def broken(gs, k, *args, **kwargs):
        if k == 3:
            raise RuntimeError("sector 3 broke")
        return assemble(gs, k, *args, **kwargs)

    monkeypatch.setattr(lsp, "assemble_sector", broken)
    args = ["spectrum", "--n", "3", "--grid-n", "128", "--k-max", "3",
            "--out", str(tmp_path)]
    assert cli.main(args) == 2
    out = capsys.readouterr().out
    assert "[FAIL] positive sectors k>=2 (nan > 0)" in out
    assert "verdict: NOT CERTIFIED" in out
    assert "k=3: ERROR sector 3 broke" in (tmp_path / "nondegeneracy_n3.txt").read_text()


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
    spec.ground_eigenfunction_sign_changes = 1


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

    def rising(k_max):
        rows = real(k_max=k_max)
        for row in rows:
            row["errors"][2] = 2.0 * row["errors"][1]
        return rows

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

    def nan_row(k_max):
        rows = real(k_max=k_max)
        rows[1]["errors"][k_max] = float("nan")
        return rows

    monkeypatch.setattr(cli, "multipole_completeness_experiment", nan_row)
    assert cli.main(["multipole_verify", "--k-max", "4", "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] expansion error at K_max=4 (nan < 0.0001)" in out
    assert "[FAIL] error decays monotonically in K_max (nan <= 0)" in out


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


def test_semiclassical_constant_v_takes_degree_0_rule(tmp_path, monkeypatch):
    # the calibration's constant V is a compiled expression of degree 0, so
    # its moments come from one pass of the exact rule, not the stepped ones
    rows = []
    real = cli.soliton_row

    def recorded(*args):
        rows.append(real(*args))
        return rows[-1]

    monkeypatch.setattr(cli, "soliton_row", recorded)
    argv = ["semiclassical", "--n", "3", "--grid-n", "128", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert [row.shell_degree for row in rows] == [0]


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


def test_every_check_line_shows_value_relation_bound(tmp_path, capsys):
    pattern = re.compile(r"\(\S+ (<|<=|>) \S+\)$")
    checks = {}
    for command in cli.COMMANDS:
        argv = [command, "--n", "3", "--grid-n", "64", "--k-max", "3",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0, command
        out = capsys.readouterr().out.splitlines()
        checks[command] = [ln for ln in out if ln.startswith(("[PASS]", "[FAIL]"))]
        assert all(pattern.search(ln) for ln in checks[command]), checks[command]
    assert {c: len(lines) for c, lines in checks.items()} == {
        "ground_state": 0, "spectrum": 5, "multipole_verify": 2, "identities": 3,
        "semiclassical": 2}


def test_run_config_validation():
    with pytest.raises(ValueError):
        cli.RunConfig(command="explode")
    with pytest.raises(ValueError):
        cli.RunConfig(command="spectrum", cache="maybe")
    with pytest.raises(ValueError):
        cli.RunConfig(command="spectrum", eps=(0.1, 0.2))
    with pytest.raises(ValueError, match="positive"):
        cli.RunConfig(command="spectrum", eps=(0.1, 0.0))
