"""Seeded inputs and independent output checks for the four workloads.

Everything here is numpy-only and never imports tsflow: the inputs are
written in tsflow's file formats by this module's own writers, and each
check re-derives the expected answer from the generated data (manufactured
solutions, a direct trigonometric sum) with this module's own reader.

A workload is a `Workload` built by `make(name, seed, size, workdir)`:
`argv` is the tsflow command line of one op, `check()` returns an error
string or None for the outputs that op left in `workdir`, and `corrupt(kind)`
damages its output (used by the self-test to prove a check can fail).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

NAMES = ("stokes-3d", "ns-3d", "verify-2d", "export-2d")

# Problem sizes. "full" is what the benchmark measures; "tiny" keeps every
# code path but runs in milliseconds, for the self-test.
SIZES = {
    "full": {
        "stokes-3d": {"n": 3, "m": 24},
        "ns-3d": {"n": 3, "m": 8, "amplitude": 1.0},
        "verify-2d": {"n": 2, "m": 8, "draws": 50},
        "export-2d": {"n": 2, "m": 48, "N": 192, "samples": 32},
    },
    "tiny": {
        "stokes-3d": {"n": 3, "m": 3},
        "ns-3d": {"n": 2, "m": 3, "amplitude": 1.0},
        "verify-2d": {"n": 2, "m": 3, "draws": 2},
        "export-2d": {"n": 2, "m": 3, "N": 8, "samples": 8},
    },
}

VERIFY_SUITES = (
    "rho-bound", "norm-equivalence", "korn", "trilinear", "mode-estimates",
    "isotropic", "stokes-roundtrip", "advection-oracle", "navier-stokes",
    "quadratic-ratio",
)

STOKES_RTOL = 1e-10
NS_RTOL = 1e-8
EXPORT_RTOL = 1e-12
NS_BASE_SEED = 2  # its tenth Picard defect sits ~3x below the default tol


@dataclass
class Workload:
    name: str
    argv: list
    check: object  # callable() -> str | None
    output: str  # the file whose damage must make check() fail
    perturb: object  # callable(): change one result, keeping output's format valid
    report: str | None = None  # the op's key = value report, if it writes one

    def corrupt(self, kind):
        """Damage the output: "truncate" it to half its size, or "perturb" it."""
        if kind == "perturb":
            self.perturb()
            return
        size = os.path.getsize(self.output)
        with open(self.output, "r+b") as fh:
            fh.truncate(size // 2)


# ---------------------------------------------------------------------------
# lattice helpers and file formats


def _grids(n, m):
    ax = np.arange(-m, m + 1)
    return np.stack(np.meshgrid(*([ax] * n), indexing="ij")).astype(float)  # (n,)+cube


def _flip(c, n):
    return np.flip(c, axis=tuple(range(c.ndim - n, c.ndim)))


def _hermitian(z, n):
    """Symmetrise so that c(-xi) = conj(c(xi)): the field is real."""
    return 0.5 * (z + np.conj(_flip(z, n)))


def _zero_mean(c, n, m):
    c[(Ellipsis,) + (m,) * n] = 0.0


def write_spf(path, coeffs, n, m):
    """Dump real-field coefficients in tsflow's SPF1 format."""
    comps = 1 if coeffs.ndim == n else coeffs.shape[0]
    header = f"SPF1\nn={n}\nm={m}\ncomponents={comps}\nreal=1\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + np.ascontiguousarray(coeffs, dtype="<c16").tobytes())


def read_spf(path):
    """Return (n, m, components, coeffs[components, cube])."""
    with open(path, "rb") as fh:
        blob = fh.read()
    lines = blob.split(b"\n", 5)
    if len(lines) < 6 or lines[0] != b"SPF1":
        raise ValueError(f"{os.path.basename(path)}: not an SPF1 dump")
    head = dict(ln.decode("ascii").split("=", 1) for ln in lines[1:5])
    n, m, comps = (int(head[k]) for k in ("n", "m", "components"))
    data = np.frombuffer(lines[5], dtype="<c16")
    if data.size != comps * (2 * m + 1) ** n:
        raise ValueError(f"{os.path.basename(path)}: payload has {data.size} coefficients")
    return n, m, comps, data.reshape((comps,) + (2 * m + 1,) * n)


def scale_spf(path, factor=1.0 + 1e-6):
    """Multiply every coefficient of a dump by factor, header untouched."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n", 5)
    data = np.frombuffer(lines[5], dtype="<c16") * factor
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines[:5]) + b"\n" + data.astype("<c16").tobytes())


def write_tensor(path, entries):
    n = entries.shape[0]
    lines = [f"n={n}"]
    for idx in np.ndindex(entries.shape):
        if entries[idx] != 0.0:
            lines.append(" ".join(str(i + 1) for i in idx) + f" {float(entries[idx]):.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_report(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                out[key.strip()] = value.strip()
    return out


def set_report(path, key, value):
    rep = read_report(path)
    rep[key] = value
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in rep.items()))


# ---------------------------------------------------------------------------
# seeded data


def elliptic_tensor(rng, n, scale=0.3, target=0.5):
    """Anisotropic viscosity tensor with restricted eigenvalue `target`.

    The same construction as tsflow's random_elliptic_tensor, re-derived
    here so that the benchmark inputs cannot change with the program:
    average a random tensor over the pair-symmetry group, then add the mu
    part of an isotropic tensor until the smallest eigenvalue of the form on
    symmetric trace-free matrices equals target.
    """
    raw = scale * rng.standard_normal((n,) * 4)
    gens = ((1, 0, 3, 2), (0, 3, 2, 1))
    group, frontier = {(0, 1, 2, 3)}, [(0, 1, 2, 3)]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(p[i] for i in g)
            if q not in group:
                group.add(q)
                frontier.append(q)
    sym = sum(np.transpose(raw, p) for p in sorted(group)) / len(group)
    basis = []
    for k in range(n):
        for a in range(k + 1, n):
            b = np.zeros((n, n))
            b[k, a] = b[a, k] = 1.0 / np.sqrt(2.0)
            basis.append(b)
    for i in range(1, n):
        d = np.zeros(n)
        d[:i] = 1.0
        d[i] = -float(i)
        basis.append(np.diag(d / np.linalg.norm(d)))
    basis = np.stack(basis)
    form = np.einsum("kjab,pka,qjb->pq", sym, basis, basis)
    mu = (target - float(np.linalg.eigvalsh(0.5 * (form + form.T))[0])) / 2.0
    eye = np.eye(n)
    iso = mu * (np.einsum("aj,bk->kjab", eye, eye) + np.einsum("ab,kj->kjab", eye, eye))
    return sym + iso


def random_field(rng, n, m, comps, decay):
    """Real zero-mean coefficients with |c(xi)| ~ rho(xi)^-decay."""
    shape = (comps,) + (2 * m + 1,) * n
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho2 = 1.0 + np.sum(_grids(n, m) ** 2, axis=0)
    c = _hermitian(z * rho2 ** (-decay / 2.0), n)
    _zero_mean(c, n, m)
    return c


def solenoidal(c, n, m):
    xi = _grids(n, m)
    a2 = np.sum(xi**2, axis=0)
    a2[(m,) * n] = 1.0
    return c - xi * (np.sum(xi * c, axis=0) / a2)


def h1_norm(c, n, m):
    rho2 = 1.0 + np.sum(_grids(n, m) ** 2, axis=0)
    return float(np.sqrt(np.sum(rho2 * np.abs(c) ** 2)))


def embed(c, n, m, big):
    out = np.zeros(c.shape[: c.ndim - n] + (2 * big + 1,) * n, np.complex128)
    sl = (slice(big - m, big + m + 1),) * n
    out[(Ellipsis,) + sl] = c
    return out


def stokes_forcing(entries, u, p, n, m):
    """f = -(viscous term - grad p) and g = div u, mode by mode."""
    xi = _grids(n, m)
    blocks = np.einsum("a...,kjab,b...->kj...", xi, entries, xi)
    f = 4.0 * np.pi**2 * np.einsum("kj...,j...->k...", blocks, u) + TWO_PI * 1j * xi * p
    g = TWO_PI * 1j * np.sum(xi * u, axis=0)
    return f, g


def convection(u, n, m):
    """(u . grad) u on the doubled cube by an exact FFT product.

    The product of two band-m fields has band 2m, so sampling on N = 4m+1
    points per axis recovers every coefficient without aliasing.
    """
    N = 4 * m + 1
    xi = _grids(n, m)
    offs = np.arange(-m, m + 1) % N
    ix = np.ix_(*([offs] * n))

    def samples(c):
        spec = np.zeros((N,) * n, np.complex128)
        spec[ix] = c
        return np.fft.ifftn(spec).real * float(N) ** n

    w = [samples(u[j]) for j in range(n)]
    out = np.empty((n,) + (4 * m + 1,) * n, np.complex128)
    big = np.arange(-2 * m, 2 * m + 1) % N
    bix = np.ix_(*([big] * n))
    for k in range(n):
        prod = sum(w[j] * samples(TWO_PI * 1j * xi[j] * u[k]) for j in range(n))
        out[k] = (np.fft.fftn(prod) / float(N) ** n)[bix]
    out = _hermitian(out, n)
    _zero_mean(out, n, 2 * m)  # the mean of (u.grad)u vanishes for solenoidal u
    return out


# ---------------------------------------------------------------------------
# workloads


def make(name, seed, size, workdir, write=True):
    """Build workload `name` for `seed`, writing its inputs into workdir.

    With write=False the inputs are only re-derived (in a worker, for the
    checks); the files written earlier are left as they are.
    """
    rng = np.random.default_rng([seed, NAMES.index(name)])
    params = SIZES[size][name]
    path = functools.partial(os.path.join, workdir)
    build = {
        "stokes-3d": _stokes, "ns-3d": _ns, "verify-2d": _verify, "export-2d": _export,
    }[name]
    save = (lambda fn, *args: fn(*args)) if write else (lambda fn, *args: None)
    return build(rng, seed, params, path, save)


def _stokes(rng, seed, p, path, save):
    n, m = p["n"], p["m"]
    entries = elliptic_tensor(rng, n)
    u = random_field(rng, n, m, n, decay=2.0)
    pres = random_field(rng, n, m, 1, decay=2.0)[0]
    f, g = stokes_forcing(entries, u, pres, n, m)
    save(write_tensor, path("A.txt"), entries)
    save(write_spf, path("f.spf"), f, n, m)
    save(write_spf, path("g.spf"), g, n, m)
    out, report = path("sol.spf"), path("report.txt")
    argv = ["stokes-solve", "--tensor", path("A.txt"), "--f", path("f.spf"),
            "--g", path("g.spf"), "--out", out, "--report", report]

    def check():
        nn, mm, comps, c = read_spf(out)
        if (nn, mm, comps) != (n, m, n + 1):
            return f"solution header n={nn} m={mm} components={comps}"
        rho2 = 1.0 + np.sum(_grids(n, m) ** 2, axis=0)
        err2 = np.sum(rho2 * np.abs(c[:n] - u) ** 2) + np.sum(np.abs(c[n] - pres) ** 2)
        ref2 = np.sum(rho2 * np.abs(u) ** 2) + np.sum(np.abs(pres) ** 2)
        rel = float(np.sqrt(err2 / ref2))
        if not rel <= STOKES_RTOL:
            return f"relative H1 error {rel:.3e} > {STOKES_RTOL}"
        if read_report(report).get("estimates_ok") != "1":
            return "report does not say estimates_ok = 1"
        return None

    return Workload("stokes-3d", argv, check, out, lambda: scale_spf(out), report)


def _ns(rng, seed, p, path, save):
    # A fixed base flow plus a seeded 2% perturbation: every seed then needs
    # the same number of Picard iterations (10 at full size). The iteration
    # count is what this workload exists to expose, so the seed must not
    # move it; with fully random data it varies between 9 and 11.
    n, m = p["n"], p["m"]
    base = np.random.default_rng(NS_BASE_SEED)
    entries = elliptic_tensor(base, n)
    u = random_field(base, n, m, n, decay=3.0) + 0.02 * random_field(rng, n, m, n, decay=3.0)
    u = solenoidal(u, n, m)
    u *= p["amplitude"] / h1_norm(u, n, m)
    pres = p["amplitude"] * random_field(rng, n, m, 1, decay=3.0)[0]
    big = 2 * m
    u_big, p_big = embed(u, n, m, big), embed(pres, n, m, big)
    f, _ = stokes_forcing(entries, u_big, p_big, n, big)
    f = f + convection(u, n, m)
    save(write_tensor, path("A.txt"), entries)
    save(write_spf, path("f.spf"), f, n, big)
    out_u, out_p, report = path("u.spf"), path("p.spf"), path("report.txt")
    argv = ["ns-solve", "--tensor", path("A.txt"), "--f", path("f.spf"),
            "--out-u", out_u, "--out-p", out_p, "--report", report]

    def check():
        nn, mm, comps, c = read_spf(out_u)
        if (nn, mm, comps) != (n, big, n):
            return f"velocity header n={nn} m={mm} components={comps}"
        rel = h1_norm(c - u_big, n, big) / h1_norm(u_big, n, big)
        if not rel <= NS_RTOL:
            return f"relative H1 error {rel:.3e} > {NS_RTOL}"
        rep = read_report(report)
        for key in ("converged", "bound_satisfied"):
            if rep.get(key) != "1":
                return f"report does not say {key} = 1"
        return None

    return Workload("ns-3d", argv, check, out_u, lambda: scale_spf(out_u), report)


def _verify(rng, seed, p, path, save):
    report = path("report.txt")
    argv = ["verify", "--suite", "all", "--seed", str(seed % 100_000), "--n", str(p["n"]),
            "--m", str(p["m"]), "--draws", str(p["draws"]), "--report", report]

    def check():
        rep = read_report(report)
        if rep.get("passed") != "1":
            return "report does not say passed = 1"
        for suite in VERIFY_SUITES:
            if rep.get(f"{suite}.failures") != "0":
                return f"suite {suite} failures = {rep.get(f'{suite}.failures')}"
            if int(rep.get(f"{suite}.cases", "0")) <= 0:
                return f"suite {suite} ran no cases"
        return None

    def perturb():
        set_report(report, f"{VERIFY_SUITES[0]}.failures", "1")

    return Workload("verify-2d", argv, check, report, perturb, report)


def _export(rng, seed, p, path, save):
    n, m, N = p["n"], p["m"], p["N"]
    c = random_field(rng, n, m, n + 1, decay=2.0)
    save(write_spf, path("sol.spf"), c, n, m)
    out = path("grid.csv")
    argv = ["export-grid", "--in", path("sol.spf"), "--N", str(N), "--out", out]
    rows = rng.choice(N**n, size=p["samples"], replace=False)
    modes = _grids(n, m).reshape(n, -1)
    flat = c.reshape(n + 1, -1)
    scale = np.sum(np.abs(flat), axis=1)
    header = ",".join([f"x{i + 1}" for i in range(n)] + [f"v{k + 1}" for k in range(n + 1)])

    def check():
        with open(out, encoding="ascii") as fh:
            lines = fh.read().split("\n")
        if lines[-1] != "" or len(lines) != N**n + 2:
            return f"expected {N**n} rows plus header, got {len(lines) - 2}"
        if lines[0] != header:
            return f"header {lines[0]!r}"
        for r in rows:
            vals = [float(v) for v in lines[int(r) + 1].split(",")]
            idx = np.unravel_index(int(r), (N,) * n)
            x = np.array([i / N for i in idx])
            if len(vals) != 2 * n + 1 or any(vals[i] != x[i] for i in range(n)):
                return f"row {r}: coordinates {vals[:n]} != {list(x)}"
            want = (flat @ np.exp(TWO_PI * 1j * (x @ modes))).real
            err = np.abs(np.array(vals[n:]) - want) / scale
            if not np.all(err <= EXPORT_RTOL):
                return f"row {r}: relative error {float(np.max(err)):.3e} > {EXPORT_RTOL}"
        return None

    def perturb():
        """Change the last value of the first sampled row by about 1e-6."""
        with open(out, encoding="ascii") as fh:
            lines = fh.read().split("\n")
        fields = lines[int(rows[0]) + 1].split(",")
        fields[-1] = repr(float(fields[-1]) * (1.0 + 1e-6) + 1e-6)
        lines[int(rows[0]) + 1] = ",".join(fields)
        with open(out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines))

    return Workload("export-2d", argv, check, out, perturb)
