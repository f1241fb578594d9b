"""File formats: spectral dumps, tensor files, grid CSV export.

Spectral dump (.spf): the magic line "SPF1" followed by ASCII header lines
`n=<int>`, `m=<int>`, `components=<int>`, `real=<0|1>`, then little-endian
float64 (re, im) pairs, one per coefficient, component by component, each
component in canonical C order over the mode cube. components == 1 encodes
a scalar field, components == n a vector field, and components == n + 1 a
combined velocity-pressure dump: the (u, p) pair of a Stokes solve. real=1
promises Hermitian coefficients, c(-xi) = conj(c(xi)), and the reader
rejects a dump that breaks it: real fields are sampled with real FFTs, which
read only half the cube.

Tensor file: ASCII, a header `n=<int>` (n in DIMENSIONS), then lines
`k j alpha beta value` with 1-based indices; omitted entries are zero.

All writers go through a temp file and an atomic rename.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import warnings

import numpy as np

from .spectral import (
    AliasingWarning,
    LatticeSpec,
    SpectralScalarField,
    SpectralVectorField,
    _aliases,
    _check_dimension,
    _check_hermitian,
    grid_transform,
)
from .viscosity import ViscosityTensor

__all__ = [
    "write_field",
    "read_field",
    "write_tensor",
    "read_tensor",
    "export_grid_csv",
    "write_report",
    "atomic_write_bytes",
    "atomic_write_text",
]

_MAGIC = b"SPF1"
_EXPORT_ROWS = 1024  # CSV rows per block: bounds the copies and text alive at once


@contextlib.contextmanager
def _atomic_file(path):
    """Binary file handle on a temp file that is renamed to path on success."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".tsflow-{os.urandom(8).hex()}.tmp")
    # mode 0o666 less the umask, as for open(); a name clash fails, never overwrites
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, data):
    with _atomic_file(path) as fh:
        fh.write(data)


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def _fmt(x):
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_field(path, field):
    """Dump a scalar field, a vector field or a (u, p) pair in the SPF1 format.

    The header goes out first, then each component's coefficients straight
    from its own buffer, without a joined copy of the payload.
    """
    fields = field if isinstance(field, tuple) else (field,)
    lattice = fields[0].lattice
    pair = (SpectralVectorField, SpectralScalarField)
    if len(fields) > 1 and (tuple(map(type, fields)) != pair or fields[1].lattice != lattice):
        raise TypeError("a combined dump takes a (vector, scalar) pair on one lattice")
    components = []
    for fld in fields:
        if isinstance(fld, SpectralVectorField):
            components += list(fld.coeffs)
        elif isinstance(fld, SpectralScalarField):
            components.append(fld.coeffs)
        else:
            raise TypeError(f"cannot dump object of type {type(fld).__name__}")
    header = (
        f"n={lattice.n}\nm={lattice.m}\ncomponents={len(components)}\n"
        f"real={int(all(fld.is_real for fld in fields))}\n"
    )
    with _atomic_file(path) as fh:
        fh.write(_MAGIC + b"\n" + header.encode("ascii"))
        for c in components:
            fh.write(np.ascontiguousarray(c, dtype="<c16"))


def read_field(path):
    """Read an SPF1 dump back: a field, or the (u, p) pair of a combined dump.

    Errors name the path. The payload that the header declares is checked
    against the file before it is allocated; coefficients must be finite.
    """
    with open(path, "rb") as fh:
        lines = [fh.readline() for _ in range(5)]
        if lines[0] != _MAGIC + b"\n" or not lines[4].endswith(b"\n"):
            raise ValueError(f"{path}: not an SPF1 spectral dump")
        header = {}
        try:
            for raw in lines[1:]:
                key, _, value = raw.decode("ascii").partition("=")
                header[key] = int(value)
            for key in ("n", "m", "components", "real"):
                if key not in header:
                    raise ValueError(f"missing header field {key!r}")
            if header["real"] not in (0, 1):
                raise ValueError(f"real={header['real']} is not 0 or 1")
            lattice = LatticeSpec(header["n"], header["m"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        n, components = lattice.n, header["components"]
        if components not in (1, n, n + 1):
            raise ValueError(f"{path}: components={components} does not fit n={n}")
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != 16 * components * lattice.size:
            raise ValueError(
                f"{path}: expected {components} x {2 * lattice.m + 1}^{n} coefficients, "
                f"found {found / 16:g}"
            )
        coeffs = np.empty((components,) + lattice.shape, "<c16")
        if fh.readinto(coeffs.view(np.uint8)) != found:
            raise ValueError(f"{path}: file shrank while it was read")
    bad = np.count_nonzero(~np.isfinite(coeffs))
    if bad:
        raise ValueError(f"{path}: {bad} non-finite coefficients")
    # the fields are views of the buffer just read, never a second copy of
    # the payload; a big-endian host gets its native dtype here
    coeffs = coeffs.astype(np.complex128, copy=False)
    is_real = bool(header["real"])

    def field(cls, c):
        # the checks of the validating constructors, on the buffer itself:
        # real FFTs read half the cube, so real=1 needs Hermitian coefficients
        if is_real:
            try:
                _check_hermitian(c, lattice)
            except ValueError as exc:
                raise ValueError(f"{path}: real={header['real']} but {exc}") from None
        mean = (...,) + lattice.zero_index
        zero_mean = bool(np.max(np.abs(c[mean])) == 0.0)
        if zero_mean:
            c[mean] = 0.0  # a -0 mean reads as +0, as the constructors store it
        return cls(lattice, c, is_real, zero_mean)

    if components == 1:
        return field(SpectralScalarField, coeffs[0])
    u = field(SpectralVectorField, coeffs[:n])
    return u if components == n else (u, field(SpectralScalarField, coeffs[n]))


def write_tensor(path, tensor):
    """Write nonzero tensor entries as `k j alpha beta value` lines."""
    lines = [f"n={tensor.n}"]
    it = np.nditer(tensor.entries, flags=["multi_index"])
    for value in it:
        if value != 0.0:
            k, j, a, b = it.multi_index
            lines.append(f"{k + 1} {j + 1} {a + 1} {b + 1} {_fmt(float(value))}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_tensor(path):
    """Parse a tensor file; unlisted entries are zero. Errors name the path and line."""
    with open(path, "r", encoding="utf-8") as fh:
        numbered = [(lineno, ln.strip()) for lineno, ln in enumerate(fh, start=1)]
    lines = [(lineno, ln) for lineno, ln in numbered if ln and not ln.startswith("#")]
    if not lines or not lines[0][1].startswith("n="):
        raise ValueError(f"{path}: tensor file must start with an n=<int> header")
    text = lines[0][1][2:].strip()
    try:
        n = int(text) if text.isdecimal() else text
    except ValueError:  # more digits than int() converts: no dimension either
        n = text
    _check_dimension(n, f"{path}: ")  # before the n^4 entries are allocated
    entries = np.zeros((n, n, n, n))
    for lineno, ln in lines[1:]:
        where = f"{path}, line {lineno}"
        parts = ln.split()
        malformed = ValueError(f"{where}: malformed entry line {ln!r}")
        if len(parts) != 5:
            raise malformed
        try:
            k, j, a, b = (int(p) - 1 for p in parts[:4])
            value = float(parts[4])
        except ValueError:
            raise malformed from None
        if not all(0 <= idx < n for idx in (k, j, a, b)):
            raise ValueError(f"{where}: index out of range in line {ln!r}")
        if not np.isfinite(value):
            raise ValueError(f"{where}: non-finite entry in line {ln!r}")
        entries[k, j, a, b] = value
    return ViscosityTensor(n, entries)


def export_grid_csv(path, field, N):
    """Sample fields on the uniform N^n grid and write one row per point.

    Accepts one field or a sequence of fields on a shared lattice. Columns
    are the coordinates x1..xn followed by the component values;
    complex-valued fields get a (re, im) column pair per component.
    Values are `%.17g`; each block of `_EXPORT_ROWS` rows is formatted by
    one bytes %-operation, and only one block is copied or held as text.
    """
    fields = list(field) if isinstance(field, (list, tuple)) else [field]
    lat = fields[0].lattice
    if any(f.lattice != lat for f in fields):
        raise ValueError("all exported fields must share a lattice")
    _aliases(lat, N)  # warns once, at the caller; grid_transform's warnings would name io.py
    parts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        for f in fields:
            s = grid_transform(f, N)
            parts.append(s[None] if s.ndim == lat.n else s)
    samples = np.concatenate(parts, axis=0)  # complex128 if any field samples complex
    ncomp = samples.shape[0]
    is_real = not np.iscomplexobj(samples)
    names = [f"x{i + 1}" for i in range(lat.n)]
    columns = []
    for c, values in enumerate(samples.reshape(ncomp, -1), start=1):
        if is_real:
            names.append(f"v{c}")
            columns.append(values)
        else:
            names += [f"v{c}_re", f"v{c}_im"]
            columns += [values.real, values.imag]
    # each coordinate is formatted once (the format of _fmt on floats); i / N
    # is the same IEEE division as the float array np.indices / N, and the
    # product runs over the grid in C order
    coord = [b"%.17g," % (i / N) for i in range(N)]
    prefixes = map(b"".join, itertools.product(coord, repeat=lat.n))
    row = b",".join([b"%.17g"] * len(columns)) + b"\n"
    with _atomic_file(path) as fh:
        fh.write((",".join(names) + "\n").encode("utf-8"))
        for lo in range(0, N**lat.n, _EXPORT_ROWS):
            block = np.stack([c[lo : lo + _EXPORT_ROWS] for c in columns], axis=1)
            template = row.join(itertools.islice(prefixes, len(block))) + row
            fh.write(template % tuple(block.ravel().tolist()))


def write_report(path, items, config_echo=None, history=None):
    """Flat `key = value` report with an embedded config echo.

    history, when given, is appended as CSV rows under a `residual_history`
    section.
    """
    lines = []
    if config_echo:
        for key, value in config_echo:
            lines.append(f"config.{key} = {_fmt(value)}")
    for key, value in items:
        lines.append(f"{key} = {_fmt(value)}")
    if history is not None:
        lines.append("residual_history:")
        lines.append("iteration,residual")
        for i, r in enumerate(history, start=1):
            lines.append(f"{i},{_fmt(r)}")
    atomic_write_text(path, "\n".join(lines) + "\n")
