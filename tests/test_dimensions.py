"""The one dimension rule: every entry point rejects an n outside spectral.DIMENSIONS."""

import re

import numpy as np
import pytest

from tsflow import harness, stokes
from tsflow.cli import main
from tsflow.harness import random_elliptic_tensor, run_suite
from tsflow.io import read_field, read_tensor
from tsflow.spectral import DIMENSIONS, LatticeSpec, make_lattice
from tsflow.viscosity import (
    ViscosityTensor,
    make_isotropic,
    make_tensor,
    symmetrize,
    trace_free_symmetric_basis,
)


def _raised(call):
    """The message of the ValueError that call raises."""
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def _tensor_file(tmp_path, n):
    path = tmp_path / f"tensor{n}.txt"
    path.write_text(f"n={n}\n1 1 1 1 1.0\n")
    return path


def _dump(tmp_path, n):
    # a cube of m = 2^20 on n >= 1 axes is past the np.empty guard, so a
    # reader that allocated before it checked n would fail the test there
    path = tmp_path / f"field{n}.spf"
    path.write_bytes(f"SPF1\nn={n}\nm={1 << 20}\ncomponents=1\nreal=0\n".encode())
    return path


def _library(call):
    def entry(n, tmp_path, capsys, monkeypatch):
        return "", _raised(lambda: call(n))

    return entry


def _read_tensor(n, tmp_path, capsys, monkeypatch):
    path = _tensor_file(tmp_path, n)
    return f"{path}: ", _raised(lambda: read_tensor(path))


def _read_field(n, tmp_path, capsys, monkeypatch):
    path = _dump(tmp_path, n)
    return f"{path}: ", _raised(lambda: read_field(path))


def _run_suite(n, tmp_path, capsys, monkeypatch):
    started = []
    spies = {name: (lambda *args, name=name: started.append(name)) for name in harness._SUITES}
    monkeypatch.setattr(harness, "_SUITES", spies)
    message = _raised(lambda: run_suite("all", n=n))
    assert started == []
    return "", message


def _cli(command, status):
    """A command run on a file of dimension n, or with --n n, that must exit with status."""

    def entry(n, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        if command == "tensor-check":
            path = _tensor_file(tmp_path, n)
            argv, prefix = ["--tensor", str(path)], f"error: {path}: "
        elif command == "stokes-solve":
            path = _tensor_file(tmp_path, n)
            argv = ["--tensor", str(path), "--f", str(tmp_path / "f.spf"), "--out", str(out)]
            prefix = f"error: {path}: "
        elif command == "export-grid":
            path = _dump(tmp_path, n)
            argv, prefix = ["--in", str(path), "--N", "8", "--out", str(out)], f"error: {path}: "
        else:
            outs = [] if command == "verify" else ["--tensor", str(tmp_path / "t.txt")] + [
                x for k in "upfg" for x in (f"--out-{k}", str(out))
            ]
            argv, prefix = ["--n", str(n)] + outs, "usage error: --n: "
        assert main([command] + argv) == status
        assert not out.exists()
        return prefix, capsys.readouterr().err.removesuffix("\n")

    return entry


ENTRIES = {
    "make_lattice": _library(lambda n: make_lattice(n, 2)),
    "make_tensor": _library(lambda n: make_tensor(n, np.ones((n,) * 4))),
    "make_isotropic": _library(lambda n: make_isotropic(0.0, 1.0, n)),
    "symmetrize": _library(lambda n: symmetrize(n, np.ones((n,) * 4))),
    "random_elliptic_tensor": _library(lambda n: random_elliptic_tensor(0, n)),
    "trace_free_symmetric_basis": _library(trace_free_symmetric_basis),
    "read_tensor": _read_tensor,
    "read_field": _read_field,
    "run_suite": _run_suite,
    "tensor-check": _cli("tensor-check", 1),
    "stokes-solve": _cli("stokes-solve", 1),
    "export-grid": _cli("export-grid", 1),
    "verify --n": _cli("verify", 2),
    "manufacture --n": _cli("manufacture", 2),
}
CASES = [(name, n) for name in ENTRIES for n in (1, 4)]
CASES += [(name, n) for name in ("read_tensor", "read_field") for n in (0, 10**12)]
# the entries that read a file, and must reject it before they allocate
READING = {"read_tensor", "read_field", "tensor-check", "stokes-solve", "export-grid"}


@pytest.mark.parametrize("name, n", CASES)
def test_outside_dimensions_rejected(name, n, tmp_path, capsys, monkeypatch, request):
    # one message, naming DIMENSIONS; a reader rejects before np.empty or np.zeros
    if name in READING:
        request.getfixturevalue("forbid_large_empty")
        request.getfixturevalue("forbid_large_zeros")
    prefix, message = ENTRIES[name](n, tmp_path, capsys, monkeypatch)
    assert message == f"{prefix}dimension n={n} is not in DIMENSIONS = {DIMENSIONS}"


@pytest.mark.parametrize(
    "value", [8.5, 2.0, 3.0, np.float64(2.0)], ids=["8.5", "2.0", "3.0", "float64-2.0"]
)
def test_non_integer_sizes_rejected(value):
    # rejected where the lattice or tensor is made: not truncated to an
    # integer, and not accepted to fail later (2.0 == 2, yet (1,) * 2.0 raises)
    n_message = re.escape(f"dimension n={value} is not in DIMENSIONS = {DIMENSIONS}")
    m_message = re.escape(f"truncation bound must be an integer >= 1, got m={value}")
    for call in (lambda: LatticeSpec(value, 3), lambda: make_lattice(value, 3)):
        with pytest.raises(ValueError, match=n_message):
            call()
    with pytest.raises(ValueError, match=n_message):
        ViscosityTensor(value, np.ones((2,) * 4))
    for call in (
        lambda: LatticeSpec(2, value),
        lambda: make_lattice(2, value),
        lambda: run_suite("rho-bound", m=value, n=2, draws=1),
    ):
        with pytest.raises(ValueError, match=m_message):
            call()


def test_numpy_integer_sizes_accepted():
    lat = make_lattice(np.int64(3), np.int64(2))
    assert lat == LatticeSpec(3, 2) and lat.shape == (5, 5, 5)
    tensor = make_isotropic(0.0, 1.0, np.int64(3))
    assert tensor.entries.shape == (3,) * 4


def test_every_dimension_has_a_closed_form():
    assert set(stokes._BORDERED_PARTS) == set(DIMENSIONS)
