"""Command line front end.

Commands: tensor-check, stokes-solve, ns-solve, verify, export-grid,
manufacture, residual. Every option can also come from a line-oriented
`key = value` config file (--config); explicit flags win over file values.
Exit status: 0 success, 1 solver, I/O or out-of-memory error, 2 usage error
or verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from . import io as tio
from .harness import manufacture, run_suite, suite_names
from .navier_stokes import (
    IterationFailure,
    NSSolveOptions,
    picard_solve,
    residual as ns_residual,
)
from .spectral import (
    SpectralScalarField,
    SpectralVectorField,
    _check_dimension,
    divergence,
    make_lattice,
    random_scalar_field,
    random_vector_field,
    sobolev_norm,
)
from .stokes import NotSolenoidal, SingularSymbol, _solve_stokes
from .viscosity import (
    NotElliptic,
    check_symmetry,
    ellipticity_constant,
    stokes_operator,
    tensor_norm,
)

__all__ = ["main", "parse_config", "dispatch", "RunConfig", "UsageError"]


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    options: dict

    def __getattr__(self, name):
        try:
            return self.options[name]
        except KeyError:
            raise AttributeError(name) from None

    def echo_items(self):
        items = [("command", self.command)]
        items += [(k, v) for k, v in sorted(self.options.items()) if v is not None]
        return items


# name, type, default, help; default None + required=True means "must be given"
_COMMANDS = {
    "tensor-check": [
        ("tensor", str, None, True, "tensor file to inspect"),
    ],
    "stokes-solve": [
        ("tensor", str, None, True, "viscosity tensor file"),
        ("f", str, None, True, "forcing field dump"),
        ("g", str, "none", False, "divergence data dump, or 'none'"),
        ("s", float, 1.0, False, "Sobolev index used in the report"),
        ("project-mean", bool, False, False, "remove nonzero input means without warning"),
        ("out", str, None, True, "output dump holding velocity components then pressure"),
        ("report", str, None, False, "flat key-value report file"),
    ],
    "ns-solve": [
        ("tensor", str, None, True, "viscosity tensor file"),
        ("f", str, None, True, "forcing field dump"),
        ("omega", float, 1.0, False, "initial relaxation factor in (0, 1]"),
        ("tol", float, 1e-10, False, "defect tolerance in the H^-1 norm"),
        ("max-iter", int, 100, False, "iteration budget"),
        ("initial", str, "stokes", False, "initial guess policy: stokes or zero"),
        ("no-dealias", bool, False, False, "evaluate products on the small grid"),
        ("project-mean", bool, False, False, "remove a nonzero forcing mean without warning"),
        ("out-u", str, None, True, "velocity output dump"),
        ("out-p", str, None, True, "pressure output dump"),
        ("report", str, None, False, "report file (includes residual history)"),
    ],
    "verify": [
        ("suite", str, "all", False, "suite name or 'all'"),
        ("seed", int, 0, False, "ensemble seed"),
        ("m", int, 8, False, "truncation bound"),
        ("n", int, 2, False, "spatial dimension"),
        ("draws", int, 50, False, "cases per suite"),
        ("report", str, None, False, "report file"),
    ],
    "export-grid": [
        ("in", str, None, True, "field dump to sample"),
        ("N", int, None, True, "grid points per axis"),
        ("out", str, None, True, "CSV output path"),
    ],
    "manufacture": [
        ("tensor", str, None, True, "viscosity tensor file"),
        ("n", int, 2, False, "spatial dimension"),
        ("m", int, 8, False, "truncation bound"),
        ("seed", int, 0, False, "random seed"),
        ("amplitude", float, 0.05, False, "H^1 size of the manufactured velocity"),
        ("nonlinear", bool, False, False, "include the convective term in the forcing"),
        ("out-u", str, None, True, "manufactured velocity dump"),
        ("out-p", str, None, True, "manufactured pressure dump"),
        ("out-f", str, None, True, "derived forcing dump"),
        ("out-g", str, None, True, "derived divergence dump"),
    ],
    "residual": [
        ("tensor", str, None, True, "viscosity tensor file"),
        ("f", str, None, True, "forcing field dump"),
        ("g", str, "none", False, "divergence data dump, or 'none'"),
        ("solution", str, None, False, "combined velocity+pressure dump from stokes-solve"),
        ("u", str, None, False, "velocity dump (alternative to --solution)"),
        ("p", str, None, False, "pressure dump (alternative to --solution)"),
        ("nonlinear", bool, False, False, "include the convective term"),
        ("report", str, None, False, "report file"),
    ],
}


def _build_parser(argv):
    """Every command's sub-parser; only the one that argv names gets options."""
    named = next((a for a in argv if a in _COMMANDS), None)
    parser = argparse.ArgumentParser(
        prog="tsflow",
        description="Spectral Stokes and Navier-Stokes solves on the periodic torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _COMMANDS.items():
        p = sub.add_parser(command)
        if command != named:
            continue
        p.add_argument("--config", default=None, help="key = value option file")
        for name, typ, _default, _required, help_text in options:
            dest = name.replace("-", "_")
            if typ is bool:
                p.add_argument(f"--{name}", dest=dest, action="store_const", const=True,
                               default=None, help=help_text)
            else:
                p.add_argument(f"--{name}", dest=dest, type=typ, default=None, help=help_text)
    return parser


def _load_config_file(path, option_table):
    known = {name.replace("-", "_"): typ for name, typ, _, _, _ in option_table}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in known:
                raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
            typ = known[key]
            if typ is bool:
                if value.lower() not in ("0", "1", "true", "false"):
                    raise UsageError(f"{path}:{lineno}: boolean option {key!r} got {value!r}")
                values[key] = value.lower() in ("1", "true")
            else:
                try:
                    values[key] = typ(value)
                except ValueError:
                    raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {value!r}")
    return values


def parse_config(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _build_parser(argv).parse_args(argv)
    option_table = _COMMANDS[ns.command]
    options = {}
    file_values = _load_config_file(ns.config, option_table) if ns.config else {}
    for name, typ, default, required, _help in option_table:
        dest = name.replace("-", "_")
        value = getattr(ns, dest)
        if value is None:
            value = file_values.get(dest, default)
        if value is None and required:
            raise UsageError(f"{ns.command}: missing required option --{name}")
        options[dest] = value
    _validate(ns.command, options)
    return RunConfig(ns.command, options)


def _validate(command, options):
    if command == "stokes-solve" and not math.isfinite(options["s"]):
        raise UsageError(f"--s must be finite, got {options['s']}")
    if command == "ns-solve":
        if not 0.0 < options["omega"] <= 1.0:
            raise UsageError(f"--omega must be in (0, 1], got {options['omega']}")
        if not (math.isfinite(options["tol"]) and options["tol"] > 0):
            raise UsageError(f"--tol must be positive and finite, got {options['tol']}")
        if options["max_iter"] < 1:
            raise UsageError(f"--max-iter must be >= 1, got {options['max_iter']}")
        if options["initial"] not in ("stokes", "zero"):
            raise UsageError(f"--initial must be 'stokes' or 'zero', got {options['initial']!r}")
    if command == "verify":
        if options["suite"] != "all" and options["suite"] not in suite_names():
            raise UsageError(
                f"unknown suite {options['suite']!r}; valid: all, {', '.join(suite_names())}"
            )
        if options["draws"] < 1:
            raise UsageError(f"--draws must be >= 1, got {options['draws']}")
    if command in ("verify", "manufacture"):
        _check_dimension(options["n"], "--n: ", UsageError)
        if options["m"] < 1:
            raise UsageError(f"--m must be >= 1, got {options['m']}")
        if options["seed"] < 0:
            raise UsageError(f"--seed must be >= 0, got {options['seed']}")
    if command == "manufacture" and not math.isfinite(options["amplitude"]):
        raise UsageError(f"--amplitude must be finite, got {options['amplitude']}")
    if command == "export-grid" and options["N"] < 2:
        raise UsageError(f"--N must be >= 2, got {options['N']}")
    if command == "residual":
        missing = (options["u"], options["p"]).count(None)
        if missing != (0 if options["solution"] is None else 2):
            raise UsageError("residual needs either --solution alone or both --u and --p")


_DUMPS = {"scalar field": SpectralScalarField, "vector field": SpectralVectorField,
          "combined velocity+pressure": tuple}


def _read(path, kind):
    fld = tio.read_field(path)
    if not isinstance(fld, _DUMPS[kind]):
        raise UsageError(f"{path}: expected a {kind} dump")
    return fld


def _buffer(fld):
    """A writable view of fld's coefficients, for a field that `_read` returned.

    Such a field is a read-only view of the array that `io.read_field` read
    the dump into, which no one else holds, so the command may overwrite it.
    """
    c = fld.coeffs.view()
    c.flags.writeable = True
    return c


def _read_data(path, kind, project_mean):
    """The field of _read; project_mean (`--project-mean`) zeroes its xi = 0 coefficients.

    The mean goes in the buffer that the dump was read into, not in a copy.
    """
    fld = _read(path, kind)
    if project_mean:
        _buffer(fld)[(...,) + fld.lattice.zero_index] = 0.0
    return fld


def _cmd_tensor_check(config):
    tensor = tio.read_tensor(config.tensor)
    violations = check_symmetry(tensor)
    print(f"n = {tensor.n}")
    print(f"tensor_norm = {tensor_norm(tensor):.17g}")
    print(f"symmetry_violations = {len(violations)}")
    for q in violations[:10]:
        print("violation at (k, j, alpha, beta) =", tuple(i + 1 for i in q))
    elliptic = True
    try:
        c_a = ellipticity_constant(tensor)
        print(f"ellipticity_constant = {c_a:.17g}")
    except NotElliptic as exc:
        elliptic = False
        print(f"not elliptic: {exc}")
    return 0 if elliptic and not violations else 2


def _cmd_stokes_solve(config):
    tensor = tio.read_tensor(config.tensor)
    f = _read_data(config.f, "vector field", config.project_mean)
    g = None
    if config.g not in (None, "none"):
        g = _read_data(config.g, "scalar field", config.project_mean)
    # u and p go into the buffers that f and g were read into (`_solve_stokes`
    # takes each block's data before it writes that block's solution)
    p_out = None if g is None else _buffer(g)
    u, p, report = _solve_stokes(tensor, f, g, config.s, _buffer(f), p_out)
    tio.write_field(config.out, (u, p))
    if config.report:
        tio.write_report(config.report, report.flat_items(), config.echo_items())
    print(f"residual = {report.residual:.3e}  min_slack_u = {report.min_slack_u:.3e}")
    return 0


def _cmd_ns_solve(config):
    tensor = tio.read_tensor(config.tensor)
    opts = NSSolveOptions(
        relaxation=config.omega,
        max_iterations=config.max_iter,
        tol=config.tol,
        dealias=not config.no_dealias,
        initial_guess=config.initial,
    )
    try:
        # handed over unnamed, so its cube dies once the solve has split it
        u, p, report = picard_solve(
            tensor, _read_data(config.f, "vector field", config.project_mean), opts
        )
    except IterationFailure as exc:
        if config.report:
            tio.write_report(
                config.report,
                exc.report.flat_items(),
                config.echo_items(),
                history=exc.report.residual_history,
            )
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tio.write_field(config.out_u, u)
    tio.write_field(config.out_p, p)
    if config.report:
        tio.write_report(
            config.report, report.flat_items(), config.echo_items(),
            history=report.residual_history,
        )
    print(
        f"converged in {report.iterations} iterations, "
        f"residual = {report.final_residual:.3e}, bound_satisfied = {report.bound_satisfied}"
    )
    return 0


def _cmd_verify(config):
    names = "all" if config.suite == "all" else [config.suite]
    report = run_suite(names, seed=config.seed, m=config.m, n=config.n, draws=config.draws)
    for r in report.results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name}: {status}  cases={r.cases}  worst_margin={r.worst_margin:.3e}")
        for note in r.notes:
            print(f"  {note}")
    if config.report:
        tio.write_report(config.report, report.flat_items(), config.echo_items())
    return 0 if report.passed else 2


def _cmd_export_grid(config):
    tio.export_grid_csv(config.out, tio.read_field(getattr(config, "in")), config.N)
    return 0


def _cmd_manufacture(config):
    tensor = tio.read_tensor(config.tensor)
    lat = make_lattice(config.n, config.m)
    u_star = random_vector_field(config.seed, lat, decay=3.0, divergence_free=True)
    norm = sobolev_norm(u_star, 1.0)
    if norm > 0:
        u_star = (config.amplitude / norm) * u_star
    p_star = config.amplitude * random_scalar_field(config.seed + 1, lat, decay=3.0)
    problem = manufacture(u_star, p_star, tensor, include_nonlinear=config.nonlinear)
    tio.write_field(config.out_u, problem.u_star)
    tio.write_field(config.out_p, problem.p_star)
    tio.write_field(config.out_f, problem.f)
    tio.write_field(config.out_g, problem.g)
    return 0


def _cmd_residual(config):
    tensor = tio.read_tensor(config.tensor)
    f = _read(config.f, "vector field")
    if config.solution is not None:
        u, p = _read(config.solution, "combined velocity+pressure")
    else:
        u, p = _read(config.u, "vector field"), _read(config.p, "scalar field")
    if config.nonlinear:
        items = [("momentum_defect_hm1", ns_residual(tensor, u, p, f))]
    else:
        r = -1.0 * stokes_operator(tensor, u, p) - f
        scale = max(sobolev_norm(f, -1.0), 1e-300)
        items = [("momentum_defect_rel_hm1", sobolev_norm(r, -1.0) / scale)]
    g = None if config.g in (None, "none") else _read(config.g, "scalar field")
    div_defect = divergence(u) if g is None else divergence(u) - g
    # relative to the data: rescaling u, p, f and g moves it by rounding only
    size = sobolev_norm(u, 1.0) + (0.0 if g is None else sobolev_norm(g, 0.0))
    items.append(("divergence_defect_rel", sobolev_norm(div_defect, 0.0) / max(size, 1e-300)))
    for key, value in items:
        print(f"{key} = {value:.17g}")
    if config.report:
        tio.write_report(config.report, items, config.echo_items())
    return 0


_DISPATCH = {
    "tensor-check": _cmd_tensor_check,
    "stokes-solve": _cmd_stokes_solve,
    "ns-solve": _cmd_ns_solve,
    "verify": _cmd_verify,
    "export-grid": _cmd_export_grid,
    "manufacture": _cmd_manufacture,
    "residual": _cmd_residual,
}


def dispatch(config):
    return _DISPATCH[config.command](config)


def main(argv=None):
    try:
        return dispatch(parse_config(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NotElliptic, SingularSymbol, NotSolenoidal, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
