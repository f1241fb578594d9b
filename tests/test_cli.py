"""Command line front end: parsing, dispatch, exit codes, round trips."""

import argparse
import os
import subprocess
import sys

import numpy as np
import pytest

import tsflow
from tsflow import cli
from tsflow.cli import UsageError, main, parse_config
from tsflow.harness import manufacture, random_elliptic_tensor
from tsflow.io import read_field, write_field, write_tensor
from tsflow.spectral import (
    DIMENSIONS,
    SpectralVectorField,
    make_lattice,
    random_scalar_field,
    random_vector_field,
    sobolev_norm,
)
from tsflow.stokes import solve_stokes
from tsflow.viscosity import make_isotropic, make_tensor


@pytest.fixture
def iso_tensor(tmp_path):
    path = tmp_path / "iso.txt"
    write_tensor(path, make_isotropic(0.0, 1.0, 2))
    return str(path)


@pytest.fixture
def forcing(tmp_path):
    lat = make_lattice(2, 4)
    f = random_vector_field(1, lat, decay=3.0, divergence_free=True)
    f = (0.05 / sobolev_norm(f, 1.0)) * f
    path = tmp_path / "f.spf"
    write_field(path, f)
    return str(path)


class TestParsing:
    def test_defaults(self, iso_tensor, forcing, tmp_path):
        config = parse_config(
            [
                "ns-solve",
                "--tensor", iso_tensor,
                "--f", forcing,
                "--out-u", str(tmp_path / "u.spf"),
                "--out-p", str(tmp_path / "p.spf"),
            ]
        )
        assert config.omega == 1.0
        assert config.tol == 1e-10
        assert config.max_iter == 100
        assert config.initial == "stokes"

    def test_flag_overrides_config_file(self, iso_tensor, forcing, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 1e-8\nomega = 0.5\n")
        config = parse_config(
            [
                "ns-solve",
                "--config", str(cfg),
                "--tensor", iso_tensor,
                "--f", forcing,
                "--tol", "1e-12",
                "--out-u", str(tmp_path / "u.spf"),
                "--out-p", str(tmp_path / "p.spf"),
            ]
        )
        assert config.tol == 1e-12  # flag wins
        assert config.omega == 0.5  # file value survives

    def test_unknown_config_key_rejected(self, iso_tensor, forcing, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tolerance = 1e-8\n")
        with pytest.raises(UsageError, match="tolerance"):
            parse_config(
                [
                    "ns-solve",
                    "--config", str(cfg),
                    "--tensor", iso_tensor,
                    "--f", forcing,
                    "--out-u", str(tmp_path / "u.spf"),
                    "--out-p", str(tmp_path / "p.spf"),
                ]
            )

    def test_unreadable_config_file_exits_1(self, tmp_path, capsys):
        # an I/O error of the config file is reported like any other, not raised
        cfg = tmp_path / "missing.cfg"
        assert main(["verify", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err

    def test_missing_required_option(self, forcing, tmp_path):
        with pytest.raises(UsageError, match="--tensor"):
            parse_config(
                [
                    "stokes-solve",
                    "--f", forcing,
                    "--out", str(tmp_path / "out.spf"),
                ]
            )

    def test_bad_numeric_ranges(self, iso_tensor, forcing, tmp_path):
        argv = [
            "ns-solve",
            "--tensor", iso_tensor,
            "--f", forcing,
            "--omega", "1.5",
            "--out-u", str(tmp_path / "u.spf"),
            "--out-p", str(tmp_path / "p.spf"),
        ]
        with pytest.raises(UsageError, match="omega"):
            parse_config(argv)

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_solver_options_exit_2(
        self, value, source, iso_tensor, forcing, tmp_path, capsys
    ):
        # --tol inf converged after one pass, --tol nan never stopped, and
        # --s nan wrote NaN bounds; all are usage errors and write nothing
        cfg = tmp_path / "run.cfg"
        outs = {
            "ns-solve": ["--out-u", str(tmp_path / "u.spf"), "--out-p", str(tmp_path / "p.spf")],
            "stokes-solve": ["--out", str(tmp_path / "sol.spf")],
        }
        for command, key in (("ns-solve", "tol"), ("stokes-solve", "s")):
            argv = [command, "--tensor", iso_tensor, "--f", forcing] + outs[command]
            if source == "flag":
                argv.append(f"--{key}={value}")
            else:
                cfg.write_text(f"{key} = {value}\n")
                argv += ["--config", str(cfg)]
            assert main(argv) == 2
            assert f"--{key} must be" in capsys.readouterr().err
        assert list(tmp_path.glob("*.spf")) == [tmp_path / "f.spf"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--draws", "0", "--draws must be"),
        ("--m", "0", "--m must be"),
        ("--seed", "-1", "--seed must be"),
        ("--n", "4", f"--n: dimension n=4 is not in DIMENSIONS = {DIMENSIONS}"),
    ])
    def test_bad_verify_and_manufacture_arguments_exit_2(
        self, flag, value, message, iso_tensor, tmp_path, capsys
    ):
        assert main(["verify", flag, value]) == 2
        assert message in capsys.readouterr().err
        if flag == "--draws":
            return
        outs = [f"--out-{k}" for k in "upfg"]
        argv = ["manufacture", "--tensor", iso_tensor, flag, value]
        argv += [x for k in outs for x in (k, str(tmp_path / (k[-1] + ".spf")))]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_amplitude_exits_2(self, value, iso_tensor, tmp_path, capsys):
        # --amplitude nan once wrote NaN dumps that every reader rejects
        outs = [f"--out-{k}" for k in "upfg"]
        argv = ["manufacture", "--tensor", iso_tensor, f"--amplitude={value}"]
        argv += [x for k in outs for x in (k, str(tmp_path / (k[-1] + ".spf")))]
        assert main(argv) == 2
        assert "--amplitude must be finite" in capsys.readouterr().err
        assert list(tmp_path.glob("*.spf")) == []

    def test_non_hermitian_real_dump_exits_1(self, iso_tensor, tmp_path, capsys):
        from tsflow.spectral import SpectralVectorField

        f = random_vector_field(5, make_lattice(2, 3), decay=2.0)
        c = f.coeffs.copy()
        c[0, 1, 2] += 0.1
        path = tmp_path / "f.spf"
        write_field(path, SpectralVectorField(f.lattice, c, True))
        argv = ["stokes-solve", "--tensor", iso_tensor, "--f", str(path),
                "--out", str(tmp_path / "sol.spf")]
        assert main(argv) == 1
        assert "Hermitian" in capsys.readouterr().err
        argv = ["export-grid", "--in", str(path), "--N", "8", "--out", str(tmp_path / "f.csv")]
        assert main(argv) == 1
        assert "Hermitian" in capsys.readouterr().err


def _full_parser():
    """Every command's sub-parser with all of its options, as main once built
    it for any argv: the reference for the parser built for one command."""
    parser = argparse.ArgumentParser(
        prog="tsflow",
        description="Spectral Stokes and Navier-Stokes solves on the periodic torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in cli._COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="key = value option file")
        for name, typ, _default, _required, help_text in options:
            dest = name.replace("-", "_")
            if typ is bool:
                p.add_argument(f"--{name}", dest=dest, action="store_const", const=True,
                               default=None, help=help_text)
            else:
                p.add_argument(f"--{name}", dest=dest, type=typ, default=None, help=help_text)
    return parser


class TestParserPerCommand:
    """main builds the options of the named command only; what argparse
    prints and the exit status stay those of the fully built parser."""

    @staticmethod
    def _outcome(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize(
        "argv, code",
        [([], 2), (["-h"], 0), (["bogus"], 2), (["verify", "--bogus"], 2),
         (["--bogus", "verify", "--m", "3"], 2), (["export-grid", "--N", "x"], 2)]
        + [([command, "-h"], 0) for command in cli._COMMANDS],
    )
    def test_output_and_status_match_full_parser(self, argv, code, capsys):
        want = self._outcome(_full_parser().parse_args, argv, capsys)
        got = self._outcome(main, argv, capsys)
        assert got == want
        assert got[0] == code
        if argv[1:] == ["-h"]:
            for name, *_ in cli._COMMANDS[argv[0]]:
                assert f"--{name}" in got[1]

    def test_options_of_other_commands_are_not_built(self, capsys):
        parser = cli._build_parser(["verify", "--m", "3"])
        assert parser.parse_args(["verify", "--m", "3"]).m == 3
        with pytest.raises(SystemExit):
            parser.parse_args(["ns-solve", "--omega", "0.5"])
        assert "unrecognized arguments: --omega 0.5" in capsys.readouterr().err


class TestBadInputFiles:
    """Reader errors reach the user as `error: <path>: ...` with exit status 1."""

    def test_oversized_header_exits_1_without_allocating(
        self, tmp_path, capsys, forbid_large_empty
    ):
        path = tmp_path / "huge.spf"
        path.write_bytes(b"SPF1\nn=3\nm=4000\ncomponents=3\nreal=0\n" + bytes(4))
        out = tmp_path / "g.csv"
        assert main(["export-grid", "--in", str(path), "--N", "8", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: expected 3 x 8001^3 coefficients")
        assert not out.exists()

    def test_header_error_names_the_path(self, tmp_path, capsys):
        path = tmp_path / "n0.spf"
        path.write_bytes(b"SPF1\nn=0\nm=2\ncomponents=1\nreal=0\n")
        argv = ["export-grid", "--in", str(path), "--N", "8", "--out", str(tmp_path / "g.csv")]
        assert main(argv) == 1
        expected = f"error: {path}: dimension n=0 is not in DIMENSIONS = {DIMENSIONS}\n"
        assert capsys.readouterr().err == expected

    def test_real_flag_other_than_0_or_1_exits_1(self, forcing, tmp_path, capsys):
        path = tmp_path / "flag.spf"
        with open(forcing, "rb") as fh:
            blob = fh.read()
        path.write_bytes(blob.replace(b"real=1\n", b"real=7\n", 1))
        argv = ["export-grid", "--in", str(path), "--N", "9", "--out", str(tmp_path / "g.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: real=7 is not 0 or 1\n"

    def test_out_of_memory_exits_1(self, tmp_path):
        # the child's address space is capped at 3 GiB, so the 298 GiB cube of
        # m=100000 fails to allocate at once; never run this without the cap
        resource = pytest.importorskip("resource")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        env = os.environ.copy()
        package_root = os.path.dirname(os.path.dirname(tsflow.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        env["OPENBLAS_NUM_THREADS"] = "1"  # per-thread buffers must fit under the cap
        argv = ["verify", "--suite", "rho-bound", "--m", "100000", "--draws", "1"]
        proc = subprocess.run([sys.executable, "-m", "tsflow", *argv], cwd=tmp_path, env=env,
                              preexec_fn=cap, capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_non_finite_dump_exits_1(self, iso_tensor, forcing, tmp_path, capsys):
        f = read_field(forcing)
        c = f.coeffs.copy()
        c[0, 1, 2] = c[1, 7, 6] = np.nan
        path = tmp_path / "nan.spf"
        write_field(path, SpectralVectorField(f.lattice, c))
        out, report = tmp_path / "sol.spf", tmp_path / "report.txt"
        argv = ["stokes-solve", "--tensor", iso_tensor, "--f", str(path), "--out", str(out),
                "--report", str(report)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: 2 non-finite coefficients\n"
        assert not out.exists() and not report.exists()
        csv = tmp_path / "nan.csv"
        assert main(["export-grid", "--in", str(path), "--N", "9", "--out", str(csv)]) == 1
        assert capsys.readouterr().err == f"error: {path}: 2 non-finite coefficients\n"
        assert not csv.exists()

    @pytest.mark.parametrize("text, message", [
        ("n=2\n1 1 1 1 nan\n", ", line 2: non-finite entry in line '1 1 1 1 nan'"),
        ("n=x\n", f": dimension n=x is not in DIMENSIONS = {DIMENSIONS}"),
        ("n=1000\n1 1 1 1 1.0\n", f": dimension n=1000 is not in DIMENSIONS = {DIMENSIONS}"),
    ])
    def test_bad_tensor_file_exits_1(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["tensor-check", "--tensor", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}{message}\n"


class TestTensorCheck:
    def test_elliptic_tensor_passes(self, iso_tensor, capsys):
        assert main(["tensor-check", "--tensor", iso_tensor]) == 0
        out = capsys.readouterr().out
        assert "ellipticity_constant = 0.5" in out
        assert "symmetry_violations = 0" in out

    def test_non_elliptic_tensor_fails(self, tmp_path, capsys):
        path = tmp_path / "mu0.txt"
        write_tensor(path, make_isotropic(1.0, 0.0, 2))
        assert main(["tensor-check", "--tensor", str(path)]) == 2
        assert "not elliptic" in capsys.readouterr().out

    def test_asymmetric_tensor_reported(self, tmp_path, capsys):
        path = tmp_path / "asym.txt"
        path.write_text("n=2\n1 2 1 2 1.0\n")
        assert main(["tensor-check", "--tensor", str(path)]) == 2
        assert "symmetry_violations" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "kind, status", [("elliptic", 0), ("degenerate", 2), ("asymmetric", 2)]
    )
    def test_exit_code_does_not_change_with_scale(self, tmp_path, kind, status):
        entries = make_isotropic(1.0, 0.0 if kind == "degenerate" else 1.0, 2).entries.copy()
        if kind == "asymmetric":
            entries[0, 1, 0, 1] += 1e-6
        path = tmp_path / "A.txt"
        for scale in [10.0**k for k in range(-20, 21, 5)]:
            write_tensor(path, make_tensor(entries.shape[0], scale * entries))
            assert main(["tensor-check", "--tensor", str(path)]) == status, scale


class TestStokesCommands:
    def test_solve_and_residual_round_trip(self, iso_tensor, tmp_path, capsys):
        lat = make_lattice(2, 4)
        u_star = random_vector_field(3, lat, decay=3.0)
        p_star = random_scalar_field(4, lat, decay=3.0)
        prob = manufacture(u_star, p_star, make_isotropic(0.0, 1.0, 2))
        write_field(tmp_path / "f.spf", prob.f)
        write_field(tmp_path / "g.spf", prob.g)
        out = tmp_path / "solution.spf"
        report = tmp_path / "report.txt"
        status = main(
            [
                "stokes-solve",
                "--tensor", iso_tensor,
                "--f", str(tmp_path / "f.spf"),
                "--g", str(tmp_path / "g.spf"),
                "--out", str(out),
                "--report", str(report),
            ]
        )
        assert status == 0
        assert report.read_text().startswith("config.command = stokes-solve")
        status = main(
            [
                "residual",
                "--tensor", iso_tensor,
                "--f", str(tmp_path / "f.spf"),
                "--g", str(tmp_path / "g.spf"),
                "--solution", str(out),
            ]
        )
        assert status == 0
        lines = capsys.readouterr().out.strip().split("\n")
        defect = float(lines[-2].split("=")[1])
        assert defect <= 1e-11

    def test_project_mean_flag_silences_warning(self, iso_tensor, tmp_path, recwarn):
        import warnings

        from tsflow.spectral import NonzeroMeanWarning, vector_field

        lat = make_lattice(2, 3)
        c = random_vector_field(9, lat, decay=3.0).coeffs.copy()
        c[(0,) + lat.zero_index] = 0.25
        write_field(tmp_path / "f.spf", vector_field(lat, c))
        args = [
            "stokes-solve", "--tensor", iso_tensor,
            "--f", str(tmp_path / "f.spf"), "--out", str(tmp_path / "o.spf"),
        ]
        with pytest.warns(NonzeroMeanWarning):
            assert main(args) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonzeroMeanWarning)
            assert main(args + ["--project-mean"]) == 0

    def test_byte_identical_reruns(self, iso_tensor, forcing, tmp_path):
        out1, out2 = tmp_path / "a.spf", tmp_path / "b.spf"
        args = ["stokes-solve", "--tensor", iso_tensor, "--f", forcing]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @staticmethod
    def _divergence_defects(tensor, u, p, f, g, tmp_path, capsys):
        """divergence_defect_rel of `residual` on (u, p, f, g) rescaled by 1e-20 ... 1e20."""
        values = []
        for scale in [10.0**k for k in range(-20, 21, 5)]:
            paths = {}
            for name, fld in (("u", u), ("p", p), ("f", f), ("g", g)):
                if fld is not None:
                    paths[name] = str(tmp_path / f"{name}.spf")
                    write_field(paths[name], scale * fld)
            argv = ["residual", "--tensor", tensor, "--f", paths["f"],
                    "--u", paths["u"], "--p", paths["p"]]
            capsys.readouterr()
            assert main(argv + (["--g", paths["g"]] if g is not None else [])) == 0
            out = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
            values.append(float(out["divergence_defect_rel"]))
        return values

    def test_divergence_defect_of_exact_solution_at_every_scale(
        self, iso_tensor, tmp_path, capsys
    ):
        # an exact incompressible solve leaves a defect of rounding size,
        # whatever the scale
        lat = make_lattice(2, 8)
        f = random_vector_field(5, lat, decay=2.0)
        u, p, _ = solve_stokes(make_isotropic(0.0, 1.0, 2), f)
        values = self._divergence_defects(iso_tensor, u, p, f, None, tmp_path, capsys)
        assert max(values) <= 1e-15

    def test_divergence_defect_is_relative_to_the_data(self, iso_tensor, tmp_path, capsys):
        # a divergent velocity reports the same ratio at every scale
        lat = make_lattice(2, 8)
        u = random_vector_field(7, lat, decay=2.0)
        p = random_scalar_field(8, lat, decay=2.0)
        f, g = random_vector_field(9, lat, decay=2.0), random_scalar_field(10, lat, decay=2.0)
        for data in ((u, p, f, None), (u, p, f, g)):
            values = self._divergence_defects(iso_tensor, *data, tmp_path, capsys)
            assert values == pytest.approx([values[4]] * len(values), rel=1e-13)
            assert values[4] > 0.1  # a defect, not rounding

    def test_export_grid(self, iso_tensor, forcing, tmp_path):
        out = tmp_path / "sol.spf"
        main(["stokes-solve", "--tensor", iso_tensor, "--f", forcing, "--out", str(out)])
        csv = tmp_path / "grid.csv"
        assert main(["export-grid", "--in", forcing, "--N", "9", "--out", str(csv)]) == 0
        lines = csv.read_text().strip().split("\n")
        assert len(lines) == 1 + 81

    def test_export_grid_of_solve_output(self, iso_tensor, forcing, tmp_path):
        # the combined velocity+pressure dump exports as n+1 value columns
        out = tmp_path / "sol.spf"
        main(["stokes-solve", "--tensor", iso_tensor, "--f", forcing, "--out", str(out)])
        csv = tmp_path / "sol.csv"
        assert main(["export-grid", "--in", str(out), "--N", "9", "--out", str(csv)]) == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "x1,x2,v1,v2,v3"
        assert len(lines) == 1 + 81


    def test_dump_kind_exit_codes(self, iso_tensor, forcing, tmp_path, capsys):
        from tsflow.spectral import SpectralScalarField

        sol = tmp_path / "sol.spf"
        solve = ["stokes-solve", "--tensor", iso_tensor, "--out", str(sol), "--f"]
        assert main(solve + [forcing]) == 0
        u, p = read_field(sol)
        base = ["residual", "--tensor", iso_tensor, "--f", forcing, "--solution"]
        # a single field where a combined dump belongs, and the reverse: usage errors
        assert main(base + [forcing]) == 2
        assert "combined" in capsys.readouterr().err
        assert main(solve + [str(sol)]) == 2
        assert "vector field" in capsys.readouterr().err
        # a combined dump whose real=1 is false, and a file that is no dump: I/O errors
        c = p.coeffs.copy()
        c[1, 2] += 0.1
        write_field(sol, (u, SpectralScalarField(p.lattice, c, True)))
        assert main(base + [str(sol)]) == 1
        assert "Hermitian" in capsys.readouterr().err
        export = ["export-grid", "--N", "8", "--out", str(tmp_path / "g.csv"), "--in"]
        assert main(export + [str(sol)]) == 1
        assert "Hermitian" in capsys.readouterr().err
        (tmp_path / "junk.spf").write_bytes(b"not a dump\n")
        assert main(base + [str(tmp_path / "junk.spf")]) == 1
        assert "not an SPF1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--u", "--p"])
    def test_residual_solution_with_u_or_p_exits_2(self, flag, iso_tensor, forcing, tmp_path, capsys):
        # --u or --p beside --solution was ignored, even when it named no file
        sol = tmp_path / "sol.spf"
        assert main(["stokes-solve", "--tensor", iso_tensor, "--f", forcing, "--out", str(sol)]) == 0
        argv = ["residual", "--tensor", iso_tensor, "--f", forcing, "--solution", str(sol),
                flag, str(tmp_path / "does-not-exist.spf")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "usage error: residual needs either --solution alone or both --u and --p\n"

    def test_nonlinear_residual_reads_g(self, iso_tensor, tmp_path, capsys):
        # --nonlinear reports divergence_defect_rel too, against --g when given:
        # the solenoidal u of a nonlinear manufacture misses a nonzero g by
        # far, and meets no g to rounding
        lat = make_lattice(2, 4)
        u_star = random_vector_field(3, lat, decay=3.0, divergence_free=True)
        prob = manufacture(u_star, random_scalar_field(4, lat, decay=3.0),
                           make_isotropic(0.0, 1.0, 2), include_nonlinear=True)
        g = random_scalar_field(5, prob.u_star.lattice, decay=3.0)
        fields = (prob.u_star, prob.p_star, prob.f, g)
        paths = {k: str(tmp_path / f"{k}.spf") for k in "upfg"}
        for k, fld in zip("upfg", fields):
            write_field(paths[k], fld)
        argv = ["residual", "--nonlinear", "--tensor", iso_tensor, "--f", paths["f"],
                "--u", paths["u"], "--p", paths["p"]]
        values = []
        for extra in (["--g", paths["g"]], []):
            assert main(argv + extra) == 0
            out = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
            assert list(out) == ["momentum_defect_hm1", "divergence_defect_rel"]
            assert float(out["momentum_defect_hm1"]) <= 1e-12
            values.append(float(out["divergence_defect_rel"]))
        assert values[0] > 0.1 and values[1] <= 1e-15

    @pytest.mark.parametrize("n", [1, 4])
    def test_other_dimensions_exit_1(self, n, iso_tensor, forcing, tmp_path, capsys):
        # a tensor file or a forcing dump of an n outside DIMENSIONS: the
        # reader names it, and nothing is written
        tensor = tmp_path / f"iso{n}.txt"
        tensor.write_text(f"n={n}\n1 1 1 1 1.0\n")
        dump = tmp_path / f"f{n}.spf"
        dump.write_bytes(f"SPF1\nn={n}\nm=1\ncomponents={n}\nreal=1\n".encode() + bytes(16 * 3**n * n))
        out = tmp_path / "sol.spf"
        for bad, paths in ((tensor, (tensor, forcing)), (dump, (iso_tensor, dump))):
            argv = ["stokes-solve", "--tensor", str(paths[0]), "--f", str(paths[1]), "--out", str(out)]
            assert main(argv) == 1
            expected = f"error: {bad}: dimension n={n} is not in DIMENSIONS = {DIMENSIONS}\n"
            assert capsys.readouterr().err == expected
            assert not out.exists()


class TestStokesSolveInPlace:
    """`stokes-solve` writes u and p into the buffers that f and g were read into."""

    @staticmethod
    def _files(tmp_path, n, case):
        """(argv, tensor path, f path, g path or None) of one stokes-solve run."""
        lat = make_lattice(n, 5 if n == 2 else 3)
        tensor = tmp_path / "A.txt"
        write_tensor(tensor, random_elliptic_tensor(60 + n, n))
        f = random_vector_field(61, lat, decay=2.0, zero_mean=case != "project-mean")
        g = random_scalar_field(62, lat, decay=2.0, zero_mean=case != "project-mean")
        if case == "complex":
            f = f + 1j * random_vector_field(63, lat, decay=2.0)
            g = g + 1j * random_scalar_field(64, lat, decay=2.0)
        write_field(tmp_path / "f.spf", f)
        argv = ["stokes-solve", "--tensor", str(tensor), "--f", str(tmp_path / "f.spf"),
                "--out", str(tmp_path / "cli.spf"), "--report", str(tmp_path / "cli.txt")]
        g_path = None
        if case != "no-g":
            g_path = tmp_path / "g.spf"
            write_field(g_path, g)
            argv += ["--g", str(g_path)]
        if case == "project-mean":
            argv.append("--project-mean")
        return argv, tensor, tmp_path / "f.spf", g_path

    @pytest.mark.parametrize("n", DIMENSIONS)
    @pytest.mark.parametrize("case", ["g", "no-g", "complex", "project-mean"])
    def test_dump_and_report_match_the_public_solve(self, n, case, tmp_path):
        from tsflow.io import read_tensor, write_report
        from tsflow.spectral import _without_mean

        argv, tensor, f_path, g_path = self._files(tmp_path, n, case)
        assert main(argv) == 0
        f, g = read_field(f_path), None if g_path is None else read_field(g_path)
        if case == "project-mean":
            assert not (f.zero_mean or g.zero_mean)
            f, g = _without_mean(f), _without_mean(g)
        u, p, report = solve_stokes(read_tensor(tensor), f, g)
        write_field(tmp_path / "api.spf", (u, p))
        write_report(tmp_path / "api.txt", report.flat_items(), parse_config(argv).echo_items())
        for ext in ("spf", "txt"):
            cli_bytes = (tmp_path / f"cli.{ext}").read_bytes()
            assert cli_bytes == (tmp_path / f"api.{ext}").read_bytes()

    @pytest.mark.parametrize("case", ["g", "no-g"])
    def test_solution_shares_the_buffers_of_the_data(self, case, tmp_path, monkeypatch):
        argv, *_ = self._files(tmp_path, 3, case)
        read, written, real_read = [], [], cli.tio.read_field

        def reading(path):
            read.append(real_read(path))
            return read[-1]

        monkeypatch.setattr(cli.tio, "read_field", reading)
        monkeypatch.setattr(cli.tio, "write_field", lambda path, fld: written.append(fld))
        assert main(argv) == 0
        (u, p), = written
        assert np.shares_memory(u.coeffs, read[0].coeffs)
        if case == "g":
            assert np.shares_memory(p.coeffs, read[1].coeffs)
        assert not np.shares_memory(u.coeffs, p.coeffs)

    def test_peak_is_below_the_public_path_by_the_solution(self, tmp_path):
        # at n=3, m=16 u and p take (n+1) cubes; the command holds them in
        # the data's buffers, so its traced peak is lower by about as much
        import tracemalloc

        from tsflow.io import read_tensor

        n, m = 3, 16
        lat = make_lattice(n, m)
        write_tensor(tmp_path / "A.txt", random_elliptic_tensor(65, n))
        write_field(tmp_path / "f.spf", random_vector_field(66, lat, decay=2.0))
        write_field(tmp_path / "g.spf", random_scalar_field(67, lat, decay=2.0))
        argv = ["stokes-solve", "--tensor", str(tmp_path / "A.txt"),
                "--f", str(tmp_path / "f.spf"), "--g", str(tmp_path / "g.spf"),
                "--out", str(tmp_path / "o.spf")]

        def public():
            f, g = read_field(tmp_path / "f.spf"), read_field(tmp_path / "g.spf")
            u, p, _ = solve_stokes(read_tensor(tmp_path / "A.txt"), f, g)
            write_field(tmp_path / "o.spf", (u, p))

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        main(argv)  # first-call caches are not part of either peak
        public_peak = peak(public)
        cli_peak = peak(lambda: main(argv))
        assert public_peak - cli_peak >= 0.9 * (n + 1) * lat.size * 16


class TestNSCommands:
    def test_manufacture_then_solve(self, iso_tensor, tmp_path, capsys):
        paths = {k: str(tmp_path / f"{k}.spf") for k in ("u", "p", "f", "g")}
        status = main(
            [
                "manufacture",
                "--tensor", iso_tensor,
                "--m", "4",
                "--seed", "7",
                "--nonlinear",
                "--out-u", paths["u"],
                "--out-p", paths["p"],
                "--out-f", paths["f"],
                "--out-g", paths["g"],
            ]
        )
        assert status == 0
        report = tmp_path / "ns_report.txt"
        status = main(
            [
                "ns-solve",
                "--tensor", iso_tensor,
                "--f", paths["f"],
                "--out-u", str(tmp_path / "sol_u.spf"),
                "--out-p", str(tmp_path / "sol_p.spf"),
                "--report", str(report),
            ]
        )
        assert status == 0
        assert "residual_history:" in report.read_text()
        u = read_field(tmp_path / "sol_u.spf")
        u_star = read_field(paths["u"])
        assert sobolev_norm(u - u_star, 1.0) <= 1e-8
        capsys.readouterr()
        status = main(
            [
                "residual",
                "--tensor", iso_tensor,
                "--f", paths["f"],
                "--nonlinear",
                "--u", str(tmp_path / "sol_u.spf"),
                "--p", str(tmp_path / "sol_p.spf"),
            ]
        )
        assert status == 0
        out = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert list(out) == ["momentum_defect_hm1", "divergence_defect_rel"]
        assert float(out["momentum_defect_hm1"]) <= 1e-10
        assert float(out["divergence_defect_rel"]) <= 1e-15

    @pytest.mark.parametrize("mean", [1e-16, 0.3])
    def test_project_mean_zeroes_exactly(self, iso_tensor, forcing, tmp_path, mean):
        # a forcing mean below the flag's relative threshold (1e-16) or above
        # it (0.3) is zeroed exactly: the dumps and the report, m0 included,
        # are those of the forcing whose mean is zero already
        import warnings

        from tsflow.spectral import NonzeroMeanWarning, vector_field

        f = read_field(forcing)
        c = f.coeffs.copy()
        c[(0,) + f.lattice.zero_index] = mean * np.max(np.abs(c))
        write_field(tmp_path / "fm.spf", vector_field(f.lattice, c, is_real=True))

        def run(path, tag, *extra):
            u, p, report = (tmp_path / f"{tag}_{k}" for k in ("u.spf", "p.spf", "report.txt"))
            with warnings.catch_warnings():
                warnings.simplefilter("error", NonzeroMeanWarning)
                status = main(
                    ["ns-solve", "--tensor", iso_tensor, "--f", str(path), *extra,
                     "--out-u", str(u), "--out-p", str(p), "--report", str(report)]
                )
            assert status == 0
            lines = report.read_text().splitlines()
            return u.read_bytes(), p.read_bytes(), [x for x in lines if not x.startswith("config.")]

        projected = run(tmp_path / "fm.spf", "projected", "--project-mean")
        assert any(x.startswith("m0 = ") for x in projected[2])
        assert projected == run(forcing, "zeroed")

    def test_failure_still_writes_report(self, iso_tensor, forcing, tmp_path, capsys):
        report = tmp_path / "fail.txt"
        status = main(
            [
                "ns-solve",
                "--tensor", iso_tensor,
                "--f", forcing,
                "--tol", "1e-300",
                "--max-iter", "2",
                "--out-u", str(tmp_path / "u.spf"),
                "--out-p", str(tmp_path / "p.spf"),
                "--report", str(report),
            ]
        )
        assert status == 1
        assert report.exists()
        assert "converged = 0" in report.read_text()
        assert not (tmp_path / "u.spf").exists()


class TestVerifyCommand:
    def test_single_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "verify.txt"
        status = main(
            [
                "verify",
                "--suite", "korn",
                "--m", "4",
                "--draws", "5",
                "--report", str(report),
            ]
        )
        assert status == 0
        assert "korn: pass" in capsys.readouterr().out
        assert "passed = 1" in report.read_text()

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_repeated_verify_writes_identical_reports(self, tmp_path, monkeypatch):
        # one config run twice, in two directories: byte-identical reports
        d1, d2 = tmp_path / "one", tmp_path / "two"
        d1.mkdir()
        d2.mkdir()
        args = ["verify", "--suite", "trilinear", "--m", "4", "--draws", "6",
                "--report", "report.txt"]
        monkeypatch.chdir(d1)
        main(args)
        monkeypatch.chdir(d2)
        main(args)
        assert (d1 / "report.txt").read_bytes() == (d2 / "report.txt").read_bytes()
