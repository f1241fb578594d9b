"""Dump formats: spectral fields, tensors, CSV export, reports."""

import os
import stat

import numpy as np
import pytest

from tsflow.io import (
    _atomic_file,
    export_grid_csv,
    read_field,
    read_tensor,
    write_field,
    write_report,
    write_tensor,
)
from tsflow.spectral import (
    DIMENSIONS,
    SpectralScalarField,
    SpectralVectorField,
    make_lattice,
    random_scalar_field,
    random_vector_field,
    scalar_field,
    vector_field,
)
from tsflow.viscosity import make_isotropic


class TestFieldDump:
    def test_scalar_round_trip(self, tmp_path):
        g = random_scalar_field(1, make_lattice(2, 4), decay=2.0)
        path = tmp_path / "g.spf"
        write_field(path, g)
        back = read_field(path)
        assert isinstance(back, SpectralScalarField)
        assert back.lattice == g.lattice
        assert back.is_real == g.is_real
        assert np.array_equal(back.coeffs, g.coeffs)

    def test_vector_round_trip(self, tmp_path):
        u = random_vector_field(2, make_lattice(3, 2), decay=2.0, divergence_free=True)
        path = tmp_path / "u.spf"
        write_field(path, u)
        back = read_field(path)
        assert isinstance(back, SpectralVectorField)
        assert np.array_equal(back.coeffs, u.coeffs)
        assert back.zero_mean

    def test_header_layout(self, tmp_path):
        g = random_scalar_field(3, make_lattice(2, 2))
        path = tmp_path / "g.spf"
        write_field(path, g)
        blob = path.read_bytes()
        head = blob.split(b"\n", 5)
        assert head[0] == b"SPF1"
        assert head[1] == b"n=2" and head[2] == b"m=2"
        assert head[3] == b"components=1" and head[4] == b"real=1"
        assert len(head[5]) == 16 * g.lattice.size

    def test_write_is_deterministic(self, tmp_path):
        u = random_vector_field(4, make_lattice(2, 3), decay=2.0)
        a, b = tmp_path / "a.spf", tmp_path / "b.spf"
        write_field(a, u)
        write_field(b, u)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_corrupt_files(self, tmp_path):
        path = tmp_path / "bad.spf"
        path.write_bytes(b"SPX1\nn=2\nm=2\ncomponents=1\nreal=1\n")
        with pytest.raises(ValueError):
            read_field(path)
        g = random_scalar_field(5, make_lattice(2, 2))
        path2 = tmp_path / "trunc.spf"
        write_field(path2, g)
        path2.write_bytes(path2.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_field(path2)

    def test_rejects_real_flag_on_non_hermitian_data(self, tmp_path):
        # real=1 is a promise the real FFT path relies on
        g = random_scalar_field(6, make_lattice(2, 3))
        c = g.coeffs.copy()
        c[4, 5] += 1e-3
        path = tmp_path / "lying.spf"
        write_field(path, SpectralScalarField(g.lattice, c, True, True))
        with pytest.raises(ValueError, match="Hermitian"):
            read_field(path)
        write_field(path, SpectralScalarField(g.lattice, c, False, True))
        assert not read_field(path).is_real  # the same data flagged complex is fine


def _joined_spf(field_or_pair):
    """Reference SPF1 bytes: the header and one joined payload, in one blob."""
    if isinstance(field_or_pair, tuple):
        u, p = field_or_pair
        data = np.concatenate([u.coeffs, p.coeffs[None]], axis=0)
        lat, real = u.lattice, u.is_real and p.is_real
    elif isinstance(field_or_pair, SpectralVectorField):
        data, lat, real = field_or_pair.coeffs, field_or_pair.lattice, field_or_pair.is_real
    else:
        data, lat, real = field_or_pair.coeffs[None], field_or_pair.lattice, field_or_pair.is_real
    header = (
        f"n={lat.n}\nm={lat.m}\ncomponents={data.shape[0]}\nreal={int(real)}\n"
    ).encode("ascii")
    return b"SPF1\n" + header + np.ascontiguousarray(data, dtype="<c16").tobytes()


class TestCombinedDump:
    @staticmethod
    def _pair(n, is_real):
        lat = make_lattice(n, 2)
        u = random_vector_field(80 + n, lat, decay=2.0)
        p = random_scalar_field(90 + n, lat, decay=2.0)
        if not is_real:
            u = vector_field(lat, 1j * u.coeffs + u.coeffs[:, ::-1])
            p = scalar_field(lat, p.coeffs + 0.5j * p.coeffs[::-1])
        return u, p

    @pytest.mark.parametrize("is_real", [True, False])
    @pytest.mark.parametrize("n", [2, 3])
    def test_bytes_match_joined_writer(self, tmp_path, n, is_real):
        u, p = self._pair(n, is_real)
        for what in ((u, p), u, p):
            path = tmp_path / "out.spf"
            write_field(path, what)
            assert path.read_bytes() == _joined_spf(what)

    @pytest.mark.parametrize("n", [2, 3])
    def test_pair_round_trip(self, tmp_path, n):
        u, p = self._pair(n, True)
        path = tmp_path / "sol.spf"
        write_field(path, (u, p))
        back_u, back_p = read_field(path)
        assert isinstance(back_u, SpectralVectorField)
        assert isinstance(back_p, SpectralScalarField)
        assert back_u.is_real and back_p.is_real
        assert back_u.zero_mean and back_p.zero_mean
        assert np.array_equal(back_u.coeffs, u.coeffs)
        assert np.array_equal(back_p.coeffs, p.coeffs)

    @pytest.mark.parametrize("is_real, bound", [(True, 1.75), (False, 1.25)])
    def test_payload_is_allocated_once(self, tmp_path, is_real, bound):
        # the fields are views of the buffer that was read: beyond it only
        # the finite check and, for real=1, one component's Hermitian check
        # allocate; copying the payload into the fields doubled the peak
        import tracemalloc

        lat = make_lattice(3, 8)
        rng = np.random.default_rng(7)
        if is_real:
            pair = (random_vector_field(5, lat), random_scalar_field(6, lat))
        else:
            c = rng.standard_normal((4,) + lat.shape) + 1j * rng.standard_normal((4,) + lat.shape)
            pair = (vector_field(lat, c[:3]), scalar_field(lat, c[3]))
        path = tmp_path / "sol.spf"
        write_field(path, pair)
        payload = 16 * 4 * lat.size
        tracemalloc.start()
        try:
            u, p = read_field(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * payload
        assert u.coeffs.base is not None and u.coeffs.base is p.coeffs.base
        assert u.coeffs.dtype == p.coeffs.dtype == np.complex128

    def test_signed_zero_mean_reads_as_zero(self, tmp_path):
        # a dumped -0 mean is a zero mean, stored as +0 as the constructors store it
        u, p = self._pair(2, True)
        c = u.coeffs.copy()
        c[(slice(None),) + u.lattice.zero_index] = complex(-0.0, -0.0)
        path = tmp_path / "sol.spf"
        write_field(path, (SpectralVectorField(u.lattice, c, True, True), p))
        back, _ = read_field(path)
        assert back.zero_mean
        zero = back.coeffs[(slice(None),) + u.lattice.zero_index]
        assert zero.tobytes() == np.zeros(2, np.complex128).tobytes()

    def test_rejects_bad_pairs(self, tmp_path):
        u, p = self._pair(2, True)
        path = tmp_path / "bad.spf"
        with pytest.raises(TypeError):
            write_field(path, (p, u))
        with pytest.raises(TypeError):
            write_field(path, (u, random_scalar_field(1, make_lattice(2, 3))))
        assert not path.exists()

    def test_rejects_non_hermitian_pressure(self, tmp_path):
        u, p = self._pair(2, True)
        c = p.coeffs.copy()
        c[1, 2] += 1e-3
        path = tmp_path / "lying.spf"
        write_field(path, (u, SpectralScalarField(p.lattice, c, True, True)))
        with pytest.raises(ValueError, match="Hermitian"):
            read_field(path)

    def test_rejects_wrong_payload_size(self, tmp_path):
        u, p = self._pair(2, True)
        path = tmp_path / "sol.spf"
        write_field(path, (u, p))
        blob = path.read_bytes()
        for bad in (blob[:-16], blob + bytes(16), blob[:-3]):
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="coefficients"):
                read_field(path)
        path.write_bytes(blob.replace(b"components=3", b"components=5"))
        with pytest.raises(ValueError, match="components=5"):
            read_field(path)

    def test_header_checked_before_allocation(self, tmp_path, forbid_large_empty):
        # a 40-byte dump declaring n=3, m=4000 (7.45 TiB): the reader must
        # compare the declared payload with the file before np.empty
        path = tmp_path / "huge.spf"
        path.write_bytes(b"SPF1\nn=3\nm=4000\ncomponents=3\nreal=0\n" + bytes(4))
        assert len(path.read_bytes()) == 40
        with pytest.raises(ValueError, match=r"huge\.spf: expected 3 x 8001\^3 coefficients"):
            read_field(path)
        # the lattice rejects an n outside DIMENSIONS before 3^n is taken
        path.write_bytes(b"SPF1\nn=1000000000\nm=1\ncomponents=1\nreal=0\n" + bytes(16))
        with pytest.raises(ValueError, match=r"huge\.spf: dimension n=1000000000 is not in DIMENSIONS"):
            read_field(path)

    @pytest.mark.parametrize("lines, message", [
        (b"n=0\nm=2", r"dimension n=0 is not in DIMENSIONS = \(2, 3\)"),
        (b"n=x\nm=2", "invalid literal"),
        (b"n=-2\nm=2", r"dimension n=-2 is not in DIMENSIONS = \(2, 3\)"),
        (b"n=2\nmm=2", "missing header field 'm'"),
    ])
    def test_header_errors_name_the_path(self, tmp_path, lines, message):
        path = tmp_path / "bad.spf"
        path.write_bytes(b"SPF1\n" + lines + b"\ncomponents=1\nreal=0\n")
        with pytest.raises(ValueError, match=f"bad\\.spf: {message}"):
            read_field(path)

    @pytest.mark.parametrize("flag", [b"2", b"7", b"-3", b"-1"])
    def test_real_flag_must_be_0_or_1(self, tmp_path, flag):
        path = tmp_path / "flag.spf"
        write_field(path, random_scalar_field(4, make_lattice(2, 2), decay=2.0))
        path.write_bytes(path.read_bytes().replace(b"real=1\n", b"real=" + flag + b"\n", 1))
        with pytest.raises(ValueError, match=f"flag\\.spf: real={flag.decode()} is not 0 or 1"):
            read_field(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_rejects_non_finite_coefficients(self, tmp_path, bad):
        u, p = self._pair(2, False)
        c = u.coeffs.copy()
        c[1, 0, 3] = c[0, 4, 4] = bad
        path = tmp_path / "nan.spf"
        write_field(path, (SpectralVectorField(u.lattice, c), p))
        with pytest.raises(ValueError, match=r"nan\.spf: 2 non-finite coefficients"):
            read_field(path)


class TestTensorFile:
    def test_round_trip(self, tmp_path):
        A = make_isotropic(1.5, 0.75, 2)
        path = tmp_path / "iso.txt"
        write_tensor(path, A)
        back = read_tensor(path)
        assert back.n == 2
        np.testing.assert_allclose(back.entries, A.entries, atol=0)

    def test_format_is_one_based_and_sparse(self, tmp_path):
        A = make_isotropic(0.0, 1.0, 2)
        path = tmp_path / "iso.txt"
        write_tensor(path, A)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "n=2"
        assert "1 1 1 1 2" in lines
        # zero entries are omitted: the unit isotropic tensor has 6 nonzero
        # entries in two dimensions
        assert len(lines) == 7

    def test_omitted_entries_are_zero(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("n=2\n# just one entry\n1 2 1 2 3.5\n")
        A = read_tensor(path)
        assert A.entries[0, 1, 0, 1] == 3.5
        assert np.sum(A.entries != 0) == 1

    def test_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n=2\n1 2 3\n")
        with pytest.raises(ValueError):
            read_tensor(path)
        path.write_text("m=2\n")
        with pytest.raises(ValueError):
            read_tensor(path)
        path.write_text("n=2\n1 2 5 1 1.0\n")
        with pytest.raises(ValueError):
            read_tensor(path)

    @pytest.mark.parametrize("text, message", [
        ("n=2\n1 1 1 1 1.0\n# c\n1 2 1 2 nan\n", r"line 4: non-finite entry in line '1 2 1 2 nan'"),
        ("n=2\n\n1 1 1 1 -inf\n", "line 3: non-finite entry"),
        ("n=2\n1 1 x 1 1.0\n", "line 2: malformed entry line '1 1 x 1 1.0'"),
        ("n=2\n1 1 1 1 one\n", "line 2: malformed entry line"),
        ("n=x\n1 1 1 1 1.0\n", r"dimension n=x is not in DIMENSIONS = \(2, 3\)"),
        ("n=0\n", r"dimension n=0 is not in DIMENSIONS = \(2, 3\)"),
    ])
    def test_errors_name_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"bad\.txt(, |: )" + message):
            read_tensor(path)

    @pytest.mark.parametrize("n", [4, 1000, 10**12])
    def test_header_above_3_rejected_before_allocation(self, tmp_path, forbid_large_zeros, n):
        path = tmp_path / "big.txt"
        path.write_text(f"n={n}\n1 1 1 1 1.0\n")
        with pytest.raises(ValueError, match=rf"big\.txt: dimension n={n} is not in DIMENSIONS"):
            read_tensor(path)

    def test_header_longer_than_int_conversion_names_the_path(self, tmp_path, capsys):
        # int() refuses decimals above its digit limit (4300 by default) with
        # an error that knows no path; the header error names it as for any n
        from tsflow.cli import main

        path = tmp_path / "long.txt"
        path.write_text("n=" + "9" * 5000 + "\n1 1 1 1 1.0\n")
        message = r"long\.txt: dimension n=9{5000} is not in DIMENSIONS"
        with pytest.raises(ValueError, match=message):
            read_tensor(path)
        assert main(["tensor-check", "--tensor", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: dimension n=999")

    @pytest.mark.parametrize("n", DIMENSIONS)
    def test_headers_up_to_3_read(self, tmp_path, n):
        path = tmp_path / "ok.txt"
        path.write_text(f"n={n}\n{n} 1 1 {n} 2.5\n")
        A = read_tensor(path)
        assert A.n == n and A.entries[n - 1, 0, 0, n - 1] == 2.5


class TestGridExport:
    def test_row_count_and_header(self, tmp_path):
        u = random_vector_field(6, make_lattice(2, 2), decay=2.0)
        path = tmp_path / "u.csv"
        export_grid_csv(path, u, 6)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x1,x2,v1,v2"
        assert len(lines) == 1 + 36

    def test_constant_scalar_values(self, tmp_path):
        lat = make_lattice(2, 1)
        c = np.zeros(lat.shape, np.complex128)
        c[lat.zero_index] = 2.25
        path = tmp_path / "c.csv"
        export_grid_csv(path, scalar_field(lat, c, is_real=True), 3)
        rows = path.read_text().strip().split("\n")[1:]
        for row in rows:
            assert row.endswith(",2.25")

    def test_complex_fields_export_re_im(self, tmp_path):
        lat = make_lattice(2, 1)
        c = np.zeros(lat.shape, np.complex128)
        c[lat.m + 1, lat.m] = 1.0  # not Hermitian, complex samples
        path = tmp_path / "z.csv"
        export_grid_csv(path, scalar_field(lat, c), 3)
        assert path.read_text().split("\n")[0] == "x1,x2,v1_re,v1_im"

    def test_aliasing_warning_names_the_caller(self, tmp_path):
        # one warning for the whole export, placed at this line, not in io.py
        import warnings

        from tsflow.spectral import AliasingWarning

        lat = make_lattice(2, 3)
        fields = [random_vector_field(1, lat), random_scalar_field(2, lat)]
        path = tmp_path / "coarse.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            export_grid_csv(path, fields, 4)
        (w,) = [w for w in caught if issubclass(w.category, AliasingWarning)]
        assert w.filename == __file__
        assert "grid of 4 points per axis aliases a band limit of m=3" in str(w.message)
        assert len(path.read_text().strip().split("\n")) == 1 + 16


def _rowwise_csv(samples, n, N):
    """The row-by-row writer: one `_fmt` call per coordinate and value."""
    from tsflow.io import _fmt

    is_real = not np.iscomplexobj(samples)
    cols = [f"x{i + 1}" for i in range(n)]
    for c in range(samples.shape[0]):
        cols += [f"v{c + 1}"] if is_real else [f"v{c + 1}_re", f"v{c + 1}_im"]
    out = [",".join(cols)]
    for flat in range(N**n):
        idx = np.unravel_index(flat, (N,) * n)
        row = [_fmt(i / N) for i in idx]
        for val in samples[(slice(None),) + idx]:
            row += [_fmt(float(val))] if is_real else [_fmt(val.real), _fmt(val.imag)]
        out.append(",".join(row))
    return "\n".join(out) + "\n"


def _export_with_samples(path, monkeypatch, fields, N, make):
    """Export fields with grid_transform(f, N) replaced by make(f, N);
    returns the sample table that the writer received."""
    import tsflow.io as tio

    n = fields[0].lattice.n
    parts = []

    def sampled(f, N):
        s = make(f, N)
        parts.append(s if s.ndim > n else s[None])
        return s

    monkeypatch.setattr(tio, "grid_transform", sampled)
    export_grid_csv(path, fields, N)
    return np.concatenate(parts)


class TestGridExportBytes:
    @pytest.mark.parametrize("n, N", [(2, 7), (2, 70), (3, 5)])  # 70^2: five blocks
    @pytest.mark.parametrize("is_real", [True, False])
    def test_matches_rowwise_writer(self, tmp_path, monkeypatch, n, N, is_real):
        import tsflow.io as tio

        lat = make_lattice(n, 2)
        u = random_vector_field(30 + n, lat, decay=2.0)
        p = random_scalar_field(40 + n, lat, decay=2.0)
        if not is_real:  # non-Hermitian coefficients sample to complex values
            u = vector_field(lat, 1j * u.coeffs + u.coeffs[:, ::-1])
            p = scalar_field(lat, p.coeffs + 0.5j * p.coeffs[::-1])
        real_transform = tio.grid_transform

        def with_negative_zeros(f, N):
            s = np.array(real_transform(f, N))
            s.reshape(-1)[::7] = -0.0 if is_real else complex(-0.0, -0.0)
            return s

        path = tmp_path / "out.csv"
        samples = _export_with_samples(path, monkeypatch, [u, p], N, with_negative_zeros)
        expected = _rowwise_csv(samples, n, N)
        assert ",-0," in expected or ",-0\n" in expected
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("n, N", [(2, 32), (2, 33)])
    def test_block_boundaries(self, tmp_path, monkeypatch, n, N):
        import tsflow.io as tio

        assert tio._EXPORT_ROWS == 1024  # N^n rows: 32^2 is one block, 33^2 a block and 65 rows
        lat = make_lattice(n, 2)
        u = random_vector_field(50 + n, lat, decay=2.0)
        path = tmp_path / "out.csv"
        samples = _export_with_samples(path, monkeypatch, [u], N, tio.grid_transform)
        assert path.read_bytes() == _rowwise_csv(samples, n, N).encode("utf-8")

    def test_extreme_values(self, tmp_path, monkeypatch):
        # subnormals, +-1e+-300, both sides of the switch of %.17g to
        # exponent notation (1e16 prints in full, 1e17 as 1e+17), integers
        values = np.array([
            5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300, 1e300, -1e300,
            1.7976931348623157e308, 9999999999999998.0, 1e16, 1e16 + 2, 99999999999999984.0,
            1e17, -1e17, 0.0, -0.0, 1.0, -7.0, 123456789.0, 2.0**53, 0.1, 1.0 / 3.0,
        ])
        lat = make_lattice(2, 2)
        u = random_vector_field(60, lat, decay=2.0)
        p = random_scalar_field(61, lat, decay=2.0)
        N = 9

        def tiled(f, N):
            shape = f.coeffs.shape[:-2] + (N, N)
            return np.resize(values, shape) * (1.0 if f is u else -1.0)

        path = tmp_path / "out.csv"
        samples = _export_with_samples(path, monkeypatch, [u, p], N, tiled)
        expected = _rowwise_csv(samples, 2, N)
        for text in ("4.9406564584124654e-324", "2.2250738585072009e-308", ",-1e-300,",
                     "-1.0000000000000001e+300", ",10000000000000000,", ",99999999999999984,",
                     ",1e+17,", ",123456789,", ",9007199254740992,", ",-7,"):
            assert text in expected
        assert path.read_bytes() == expected.encode("utf-8")

    def test_complex_vector_with_real_scalar(self, tmp_path, monkeypatch):
        # a complex u and a real p: p gets a (re, im) pair with im = 0
        import tsflow.io as tio

        lat = make_lattice(2, 2)
        u = random_vector_field(70, lat, decay=2.0)
        u = vector_field(lat, 1j * u.coeffs + u.coeffs[:, ::-1])
        p = random_scalar_field(71, lat, decay=2.0)
        path = tmp_path / "out.csv"
        samples = _export_with_samples(path, monkeypatch, [u, p], 11, tio.grid_transform)
        assert samples.dtype == np.complex128
        expected = _rowwise_csv(samples, 2, 11)
        assert expected.startswith("x1,x2,v1_re,v1_im,v2_re,v2_im,v3_re,v3_im\n")
        assert path.read_bytes() == expected.encode("utf-8")


class TestReport:
    def test_flat_layout_and_echo(self, tmp_path):
        path = tmp_path / "report.txt"
        write_report(
            path,
            [("residual", 1.25e-13), ("modes", 48)],
            config_echo=[("command", "stokes-solve"), ("s", 1.0)],
            history=[0.5, 0.0625],
        )
        text = path.read_text()
        lines = text.strip().split("\n")
        assert "config.command = stokes-solve" in lines
        assert "residual = 1.25e-13" in lines
        assert "modes = 48" in lines
        assert lines[-3] == "iteration,residual"
        assert lines[-2] == "1,0.5"
        assert lines[-1] == "2,0.0625"

    def test_seventeen_digit_floats(self, tmp_path):
        path = tmp_path / "r.txt"
        write_report(path, [("value", 1.0 / 3.0)])
        assert "0.33333333333333331" in path.read_text()


class TestAtomicWrites:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_modes_follow_the_umask(self, tmp_path, umask):
        # as for a file opened plainly: 0o666 without the umask's bits
        u = random_vector_field(8, make_lattice(2, 2), decay=2.0)
        writers = {
            "u.spf": lambda path: write_field(path, u),
            "report.txt": lambda path: write_report(path, [("modes", 24)]),
            "grid.csv": lambda path: export_grid_csv(path, u, 5),
        }
        old = os.umask(umask)
        try:
            for name, write in writers.items():
                write(tmp_path / name)
        finally:
            os.umask(old)
        for name in writers:
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask, name

    def test_failed_write_keeps_the_target_and_no_temp_file(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("before\n")
        with pytest.raises(RuntimeError, match="interrupted"):
            with _atomic_file(path) as fh:
                fh.write(b"partial")
                raise RuntimeError("interrupted")
        assert path.read_text() == "before\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt"]
