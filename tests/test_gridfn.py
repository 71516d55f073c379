import hashlib
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curveflow import gridfn
from curveflow.errors import NonFiniteError
from curveflow.gridfn import (
    GridFunction1D,
    GridFunction2D,
    ModulationField,
    read_grid_function,
    write_grid_function,
)


def make1d():
    xs = np.linspace(-2.0, 2.0, 81)
    return GridFunction1D(-2.0, 0.05, np.exp(1j * xs) * np.cos(xs))


def make2d():
    x1 = np.linspace(-1.0, 1.0, 21)
    x2 = np.linspace(0.0, 3.0, 31)
    v = np.outer(np.sin(x1), np.cos(x2)) + 1j * np.outer(x1, x2)
    return GridFunction2D(-1.0, 0.1, 0.0, 0.1, v)


def test_grid1d_validation():
    with pytest.raises(ValueError):
        GridFunction1D(0.0, -1.0, np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction1D(0.0, 1.0, np.zeros(1))


def test_sample_linear_interpolation():
    f = GridFunction1D(0.0, 1.0, np.array([0.0, 2.0, 4.0]))
    assert f.sample(0.5) == pytest.approx(1.0)
    assert f.sample(1.75) == pytest.approx(3.5)
    # zero extension outside
    assert f.sample(-0.01) == 0.0
    assert f.sample(2.01) == 0.0
    assert f.sample(2.0) == pytest.approx(4.0)


def test_sample_bilinear_interpolation():
    v = np.array([[0.0, 1.0], [2.0, 3.0]])
    f = GridFunction2D(0.0, 1.0, 0.0, 1.0, v)
    assert f.sample(0.5, 0.5) == pytest.approx(1.5)
    assert f.sample(0.0, 1.0) == pytest.approx(1.0)
    assert f.sample(1.0, 1.0) == pytest.approx(3.0)
    assert f.sample(-0.1, 0.5) == 0.0
    assert f.sample(0.5, 1.2) == 0.0


@pytest.mark.parametrize("fmt,suffix", [("csv", ".csv"), ("binary", ".cfgf")])
def test_roundtrip_1d(tmp_path, fmt, suffix):
    f = make1d()
    p = tmp_path / f"f{suffix}"
    write_grid_function(str(p), f, fmt=fmt)
    g = read_grid_function(str(p))
    assert isinstance(g, GridFunction1D)
    assert g.origin == f.origin and g.step == f.step
    np.testing.assert_array_equal(g.values, f.values)


@pytest.mark.parametrize("fmt,suffix", [("csv", ".csv"), ("binary", ".cfgf")])
def test_roundtrip_2d(tmp_path, fmt, suffix):
    f = make2d()
    p = tmp_path / f"f{suffix}"
    write_grid_function(str(p), f, fmt=fmt)
    g = read_grid_function(str(p))
    assert isinstance(g, GridFunction2D)
    assert (g.x1_origin, g.h1, g.x2_origin, g.h2) == (
        f.x1_origin,
        f.h1,
        f.x2_origin,
        f.h2,
    )
    np.testing.assert_array_equal(g.values, f.values)


def test_binary_magic_bytes(tmp_path):
    f = make1d()
    p = tmp_path / "f.cfgf"
    write_grid_function(str(p), f)
    assert p.read_bytes()[:4] == b"CFGF"


def test_binary_short_or_long_payload_refused(tmp_path):
    # a 100-sample file cut to 90 samples used to read back as n = 90
    f = GridFunction1D(0.0, 0.1, np.arange(100.0) + 0j)
    p = tmp_path / "f.cfgf"
    write_grid_function(str(p), f)
    full = p.read_bytes()
    p.write_bytes(full[: len(full) - 16 * 10])
    with pytest.raises(ValueError, match="promises 100 samples"):
        read_grid_function(str(p))
    p.write_bytes(full + bytes(16))
    with pytest.raises(ValueError, match="promises 100 samples"):
        read_grid_function(str(p))


@given(which=st.sampled_from(["1d", "2d"]), frac=st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_binary_truncated_anywhere_refused(tmp_path, which, frac):
    f = make1d() if which == "1d" else make2d()
    p = tmp_path / f"{which}.cfgf"
    write_grid_function(str(p), f)
    full = p.read_bytes()
    p.write_bytes(full[: int(frac * len(full))])
    with pytest.raises(ValueError):
        read_grid_function(str(p))


@pytest.mark.parametrize("fmt,suffix", [("csv", ".csv"), ("binary", ".cfgf")])
@pytest.mark.parametrize("which", ["1d", "2d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
def test_reader_refuses_non_finite_samples(tmp_path, fmt, suffix, which, bad):
    f = make1d() if which == "1d" else make2d()
    vals = f.values.copy()
    vals.flat[7] = bad
    p = tmp_path / f"f{suffix}"
    write_grid_function(str(p), f.with_values(vals), fmt=fmt)
    with pytest.raises(NonFiniteError, match=f"1 of {vals.size} samples"):
        read_grid_function(str(p))


# the file formats, pinned byte for byte: each header is one (origin, step, n)
# triple per axis, and a whole file for a fixed small function has a fixed hash
PIN_1D = GridFunction1D(-1.5, 0.25, np.array([0.0, 1 + 0.5j, -2.25, 3j, 0.1 - 7.0j]))
PIN_2D = GridFunction2D(
    -1.0, 0.1, 2.0, 0.5, (np.arange(6.0) - 2.5j * np.arange(6.0)[::-1]).reshape(2, 3)
)


@pytest.mark.parametrize("f,fmt,header,sha256", [
    (PIN_1D, "csv", b"# grid1d -1.5 0.25 5\n",
     "705c7d5c3c0a9043af10182c7393066d360ff8ecae2e4ac76a58688abe7596b0"),
    (PIN_1D, "binary",
     b"CFGF" + bytes.fromhex("0101000000000000f8bf000000000000d03f0500000000000000"),
     "5ad3197140a2cc3af3716540885a3769dbbb80bbd04df5298c7da34900b4120c"),
    (PIN_2D, "csv", b"# grid2d -1.0 0.1 2 2.0 0.5 3\n",
     "cb0a998e1ac947b637737b109a3791e302554214ddc1040a726e97a613991d65"),
    (PIN_2D, "binary",
     b"CFGF" + bytes.fromhex("0102000000000000f0bf9a9999999999b93f0200000000000000"
                             "0000000000000040000000000000e03f0300000000000000"),
     "088976c630dd433eab01581cebbe88f50f8e8a5ccec8f88cc3f40a99cd32e939"),
], ids=["1d-csv", "1d-binary", "2d-csv", "2d-binary"])
def test_file_format_pinned(tmp_path, f, fmt, header, sha256):
    p = tmp_path / "pinned"
    write_grid_function(str(p), f, fmt=fmt)
    data = p.read_bytes()
    assert data[:len(header)] == header
    assert hashlib.sha256(data).hexdigest() == sha256
    g = read_grid_function(str(p))
    assert type(g) is type(f)
    np.testing.assert_array_equal(g.values, f.values)


def test_csv_rows_written_in_blocks_are_the_per_row_text(tmp_path, monkeypatch):
    # blocks of 2 over 5 rows: two full blocks and a partial one; signed
    # zeros, subnormals and the extremes print as f"{x:.17g}" does
    monkeypatch.setattr(gridfn, "_CSV_BLOCK", 2)
    vals = np.array([complex(-0.0, 5e-324), complex(1.7976931348623157e308, -2.2250738585072014e-308),
                     0.1 + 0.2j, complex(-1e-310, -0.0), 3.0])
    p = tmp_path / "f.csv"
    write_grid_function(str(p), GridFunction1D(0.0, 1.0, vals))
    assert p.read_text().splitlines()[1:] == [f"{z.real:.17g},{z.imag:.17g}" for z in vals]
    np.testing.assert_array_equal(read_grid_function(str(p)).values, vals)


@pytest.mark.parametrize("text,match", [
    ("# grid1d 0.0 0.1\n0,0\n1,0\n", "header needs origin, step and n per axis"),
    ("# grid2d 0.0 0.1 2 0.0 0.1\n" + "0,0\n" * 4, "header needs origin, step and n per axis"),
    ("# grid1d 0.0 0.1 3\n0\n1\n2\n", "two columns"),
], ids=["short-1d-header", "short-2d-header", "one-column"])
def test_csv_reader_refuses_malformed_file(tmp_path, text, match):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=match) as exc:
        read_grid_function(str(p))
    assert str(p) in str(exc.value)


@pytest.mark.parametrize("build,name", [
    (lambda bad: GridFunction1D(bad, 0.1, np.zeros(4)), "origin"),
    (lambda bad: GridFunction1D(0.0, bad, np.zeros(4)), "step"),
    (lambda bad: GridFunction2D(bad, 0.1, 0.0, 0.1, np.zeros((3, 3))), "x1_origin"),
    (lambda bad: GridFunction2D(0.0, bad, 0.0, 0.1, np.zeros((3, 3))), "h1"),
    (lambda bad: GridFunction2D(0.0, 0.1, bad, 0.1, np.zeros((3, 3))), "x2_origin"),
    (lambda bad: GridFunction2D(0.0, 0.1, 0.0, bad, np.zeros((3, 3))), "h2"),
], ids=["origin", "step", "x1_origin", "h1", "x2_origin", "h2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_refuses_non_finite_origin_or_step(build, name, bad):
    with pytest.raises(NonFiniteError, match=rf"\.{name} is"):
        build(bad)


def test_readers_refuse_non_finite_origin(tmp_path):
    csv = tmp_path / "nan.csv"
    csv.write_text("# grid1d nan 0.01 401\n" + "1,0\n" * 401)
    binary = tmp_path / "nan.cfgf"
    binary.write_bytes(b"CFGF" + struct.pack("<BBddQ", 1, 1, float("nan"), 0.01, 4) + bytes(64))
    for p in (csv, binary):
        with pytest.raises(NonFiniteError, match="origin is nan") as exc:
            read_grid_function(str(p))
        assert str(exc.value).startswith(f"{p}: ")


def test_csv_header_shape(tmp_path):
    f = make2d()
    p = tmp_path / "f.csv"
    write_grid_function(str(p), f)
    first = p.read_text().splitlines()[0].split()
    assert first[:2] == ["#", "grid2d"]
    assert int(first[4]) == f.n1 and int(first[7]) == f.n2


def test_modulation_constant_and_polynomial():
    u = ModulationField.constant(3.0)
    assert np.all(u.eval(np.array([-5.0, 0.0, 7.0])) == 3.0)
    p = ModulationField.polynomial([1.0, 2.0, 1.0])  # 1 + 2x + x^2
    assert p.eval(2.0) == pytest.approx(9.0)


def test_modulation_piecewise():
    u = ModulationField.piecewise([0.0, 1.0], [-1.0, 5.0, 2.0])
    got = u.eval(np.array([-0.5, 0.5, 0.99, 1.01]))
    np.testing.assert_allclose(got, [-1.0, 5.0, 5.0, 2.0])
    with pytest.raises(ValueError):
        ModulationField.piecewise([1.0, 0.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ModulationField.piecewise([0.0], [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [
    lambda bad: ModulationField.constant(bad),
    lambda bad: ModulationField.piecewise([0.0], [1.0, bad]),
    lambda bad: ModulationField.polynomial([1.0, bad]),
    lambda bad: ModulationField.from_grid(GridFunction1D(0.0, 1.0, np.array([2.0, bad, 6.0]))),
], ids=["constant", "piecewise", "polynomial", "from_grid"])
def test_modulation_refuses_non_finite(build, bad):
    with pytest.raises(NonFiniteError, match="NaN or inf"):
        build(bad)


def test_modulation_from_grid_clamps_edges():
    g = GridFunction1D(0.0, 1.0, np.array([2.0, 4.0, 6.0]))
    u = ModulationField.from_grid(g)
    assert u.eval(0.5) == pytest.approx(3.0)
    assert u.eval(-10.0) == pytest.approx(2.0)
    assert u.eval(10.0) == pytest.approx(6.0)


def test_modulation_from_grid_refuses_a_2d_grid():
    with pytest.raises(ValueError, match="must be 1D, got GridFunction2D"):
        ModulationField.from_grid(make2d())
