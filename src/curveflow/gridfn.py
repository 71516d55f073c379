"""Uniformly sampled grid functions, modulation fields, and their file formats.

Grid functions are complex-valued samples on a uniform 1D interval or 2D
rectangle.  Out-of-grid reads follow the compact-support convention (zero),
with linear / bilinear interpolation in between; every operator precondition
is phrased so the needed translates stay inside the grid.

Both file formats give a grid as one (origin, step, n) triple per axis:
  * CSV: a comment header `# grid1d` or `# grid2d` and its triples
    (`# grid2d x1_origin h1 n1 x2_origin h2 n2`), then one `re,im` line
    per sample, row-major for 2D.
  * Binary: little-endian, magic `CFGF`, version byte, dims byte, one
    `<ddQ` triple per axis, then the interleaved re,im payload.
A CSV header short of a field, a CSV without two columns, and a binary file
cut short or with bytes past the promised payload are refused.

Both readers refuse NaN or inf samples, and both constructors a NaN or inf
origin or step, with a NonFiniteError, as every operator and every
ModulationField constructor does.  Every reader refusal names the file.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NonFiniteError

__all__ = [
    "GridFunction1D",
    "GridFunction2D",
    "ModulationField",
    "read_grid_function",
    "write_grid_function",
]

_MAGIC = b"CFGF"
_VERSION = 1
_CSV_BLOCK = 65_536  # CSV rows formatted per write: bounds the text held at once


def _require_finite(values: np.ndarray, what: str) -> None:
    """Refuse NaN or inf samples in one np.isfinite pass."""
    bad = values.size - int(np.count_nonzero(np.isfinite(values)))
    if bad:
        raise NonFiniteError(f"{what}: {bad} of {values.size} samples are NaN or inf")


def _set_grid(f, names: Tuple[str, ...]) -> None:
    """Validate and store a frozen grid function's fields in place.

    names are its (origin, step) fields, axis by axis: each becomes a finite
    float, each step must be positive, and values becomes a contiguous
    complex array with one axis per (origin, step) pair, each of length >= 2.
    """
    for i, name in enumerate(names):
        value = float(getattr(f, name))
        if not math.isfinite(value):
            raise NonFiniteError(f"{type(f).__name__}.{name} is {value}; it must be finite")
        if i % 2 and not value > 0:
            raise ValueError(f"{name} must be positive")
        object.__setattr__(f, name, value)
    v = np.ascontiguousarray(np.asarray(f.values, dtype=np.complex128))
    if v.ndim != len(names) // 2 or min(v.shape) < 2:
        raise ValueError(f"{type(f).__name__} needs {len(names) // 2}-d values, >= 2 per axis")
    object.__setattr__(f, "values", v)


@dataclass(frozen=True)
class GridFunction1D:
    origin: float
    step: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _set_grid(self, ("origin", "step"))

    @property
    def n(self) -> int:
        return self.values.size

    def xs(self) -> np.ndarray:
        return self.origin + self.step * np.arange(self.n)

    def sample(self, x) -> np.ndarray:
        """Linear interpolation with zero extension outside the grid."""
        x = np.asarray(x, dtype=float)
        pos = (x - self.origin) / self.step
        inside = (pos >= 0.0) & (pos <= self.n - 1)
        i0 = np.clip(np.floor(pos).astype(np.int64), 0, self.n - 2)
        frac = np.clip(pos - i0, 0.0, 1.0)
        out = self.values[i0] * (1.0 - frac) + self.values[i0 + 1] * frac
        return np.where(inside, out, 0.0 + 0.0j)

    def with_values(self, values) -> "GridFunction1D":
        return GridFunction1D(self.origin, self.step, values)


@dataclass(frozen=True)
class GridFunction2D:
    x1_origin: float
    h1: float
    x2_origin: float
    h2: float
    values: np.ndarray = field(repr=False)  # shape (n1, n2), row index = x1

    def __post_init__(self):
        _set_grid(self, ("x1_origin", "h1", "x2_origin", "h2"))

    @property
    def n1(self) -> int:
        return self.values.shape[0]

    @property
    def n2(self) -> int:
        return self.values.shape[1]

    def x1s(self) -> np.ndarray:
        return self.x1_origin + self.h1 * np.arange(self.n1)

    def x2s(self) -> np.ndarray:
        return self.x2_origin + self.h2 * np.arange(self.n2)

    def sample(self, x1, x2) -> np.ndarray:
        """Bilinear interpolation with zero extension outside the grid."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        p1 = (x1 - self.x1_origin) / self.h1
        p2 = (x2 - self.x2_origin) / self.h2
        inside = (p1 >= 0.0) & (p1 <= self.n1 - 1) & (p2 >= 0.0) & (p2 <= self.n2 - 1)
        i = np.clip(np.floor(p1).astype(np.int64), 0, self.n1 - 2)
        j = np.clip(np.floor(p2).astype(np.int64), 0, self.n2 - 2)
        fi = np.clip(p1 - i, 0.0, 1.0)
        fj = np.clip(p2 - j, 0.0, 1.0)
        v = self.values
        out = (
            v[i, j] * (1 - fi) * (1 - fj)
            + v[i + 1, j] * fi * (1 - fj)
            + v[i, j + 1] * (1 - fi) * fj
            + v[i + 1, j + 1] * fi * fj
        )
        return np.where(inside, out, 0.0 + 0.0j)

    def with_values(self, values) -> "GridFunction2D":
        return GridFunction2D(self.x1_origin, self.h1, self.x2_origin, self.h2, values)


@dataclass(frozen=True)
class ModulationField:
    """The measurable modulation u, in one of four closed representations."""

    kind: str  # 'constant' | 'piecewise' | 'polynomial' | 'grid'
    const: float = 0.0
    breakpoints: Optional[np.ndarray] = field(default=None, repr=False)
    levels: Optional[np.ndarray] = field(default=None, repr=False)
    coeffs: Optional[np.ndarray] = field(default=None, repr=False)
    grid: Optional[GridFunction1D] = field(default=None, repr=False)

    @staticmethod
    def constant(value: float) -> "ModulationField":
        _require_finite(np.float64(value), "constant modulation")
        return ModulationField(kind="constant", const=float(value))

    @staticmethod
    def piecewise(breakpoints: Sequence[float], levels: Sequence[float]) -> "ModulationField":
        b = np.asarray(breakpoints, dtype=float)
        v = np.asarray(levels, dtype=float)
        if b.ndim != 1 or v.ndim != 1 or v.size != b.size + 1:
            raise ValueError("piecewise needs len(levels) == len(breakpoints) + 1")
        _require_finite(np.concatenate([b, v]), "piecewise modulation")
        if b.size and not np.all(np.diff(b) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        return ModulationField(kind="piecewise", breakpoints=b, levels=v)

    @staticmethod
    def polynomial(coeffs: Sequence[float]) -> "ModulationField":
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("polynomial needs a non-empty coefficient vector")
        _require_finite(c, "polynomial modulation")
        return ModulationField(kind="polynomial", coeffs=c)

    @staticmethod
    def from_grid(gf: GridFunction1D) -> "ModulationField":
        if not isinstance(gf, GridFunction1D):
            raise ValueError(f"a modulation grid must be 1D, got {type(gf).__name__}")
        _require_finite(gf.values, "modulation grid")
        return ModulationField(kind="grid", grid=gf)

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full(x.shape, self.const)
        if self.kind == "piecewise":
            idx = np.searchsorted(self.breakpoints, x, side="right")
            return self.levels[idx]
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval(x, self.coeffs)
        if self.kind == "grid":
            # modulation must stay defined: clamp to edge values, never zero-fill
            return np.interp(x, self.grid.xs(), self.grid.values.real)
        raise ValueError(f"unknown modulation kind {self.kind!r}")


def write_grid_function(path: str, f: Union[GridFunction1D, GridFunction2D], fmt: Optional[str] = None) -> None:
    if fmt is None:
        fmt = "csv" if str(path).lower().endswith(".csv") else "binary"
    if fmt == "csv":
        _write_csv(path, f)
    elif fmt == "binary":
        _write_binary(path, f)
    else:
        raise ValueError(f"unknown grid-function format {fmt!r}")


def read_grid_function(path: str) -> Union[GridFunction1D, GridFunction2D]:
    with open(path, "rb") as fh:
        head = fh.read(4)
    try:
        f = _read_binary(path) if head == _MAGIC else _read_csv(path)
    except NonFiniteError as e:  # a NaN or inf origin or step in the header
        raise NonFiniteError(f"{path}: {e}") from None
    _require_finite(f.values, str(path))
    return f


def _axes(f: Union[GridFunction1D, GridFunction2D]) -> tuple:
    """((origin, step, n), ...), one triple per axis; a 1D grid is one axis."""
    if isinstance(f, GridFunction1D):
        return ((f.origin, f.step, f.n),)
    return ((f.x1_origin, f.h1, f.n1), (f.x2_origin, f.h2, f.n2))


def _grid_function(axes, values) -> Union[GridFunction1D, GridFunction2D]:
    """The grid function with the given per-axis (origin, step, n) triples."""
    values = np.reshape(values, [n for _, _, n in axes])
    cls = GridFunction1D if len(axes) == 1 else GridFunction2D
    return cls(*[v for origin, step, _ in axes for v in (origin, step)], values)


def _write_csv(path, f) -> None:
    """Header, then each block of _CSV_BLOCK rows as one %-format and one write."""
    axes = _axes(f)
    flat = f.values.reshape(-1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# grid{len(axes)}d " + " ".join(f"{o!r} {h!r} {n}" for o, h, n in axes) + "\n")
        for start in range(0, flat.size, _CSV_BLOCK):
            block = flat[start:start + _CSV_BLOCK]
            # '%.17g' % x is f"{x:.17g}" for every float, -0.0 and subnormals too
            fh.write("%.17g,%.17g\n" * block.size % tuple(block.view(np.float64).tolist()))


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        parts = fh.readline().split()
        kind, fields = " ".join(parts[:2]), parts[2:]
        if kind not in ("# grid1d", "# grid2d"):
            raise ValueError(f"{path}: missing grid-function CSV header")
        if len(fields) != 3 * int(kind[-2]):
            raise ValueError(f"{path}: a {kind[2:]} header needs origin, step and n per axis, "
                             f"got {' '.join(fields)!r}")
        axes = [(float(o), float(h), int(n))
                for o, h, n in zip(fields[0::3], fields[1::3], fields[2::3])]
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"{path}: need two columns re,im per sample, found {data.shape[1]}")
    values = data[:, 0] + 1j * data[:, 1]
    if math.prod(n for _, _, n in axes) != values.size:
        promised = "x".join(str(n) for _, _, n in axes)
        raise ValueError(f"{path}: header promises {promised} samples, file has {values.size}")
    return _grid_function(axes, values)


def _write_binary(path, f) -> None:
    axes = _axes(f)
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<BB", _VERSION, len(axes)))
        fh.write(b"".join(struct.pack("<ddQ", *axis) for axis in axes))
        payload = f.values.reshape(-1)
        inter = np.empty(2 * payload.size, dtype="<f8")
        inter[0::2] = payload.real
        inter[1::2] = payload.imag
        fh.write(inter.tobytes())


def _unpack(fh, fmt: str, path):
    size = struct.calcsize(fmt)
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"{path}: header cut short ({len(data)} of {size} bytes)")
    return struct.unpack(fmt, data)


def _read_payload(fh, count: int, path) -> np.ndarray:
    """count complex samples; a payload of any other length is refused."""
    want = 16 * count
    have = os.fstat(fh.fileno()).st_size - fh.tell()
    if have != want:
        raise ValueError(
            f"{path}: header promises {count} samples ({want} bytes), payload has {have} bytes"
        )
    raw = np.frombuffer(fh.read(want), dtype="<f8")
    return raw[0::2] + 1j * raw[1::2]


def _read_binary(path):
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a grid-function binary file")
        version, dims = _unpack(fh, "<BB", path)
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if dims not in (1, 2):
            raise ValueError(f"{path}: unsupported dimension byte {dims}")
        head = _unpack(fh, "<" + "ddQ" * dims, path)
        axes = [head[i:i + 3] for i in range(0, 3 * dims, 3)]
        return _grid_function(axes, _read_payload(fh, math.prod(n for _, _, n in axes), path))
