"""Dataset ingestion, synthesis and embedding utilities.

Two on-disk formats are supported: a CSV with a header naming input
columns ``x0..`` and target columns ``y0..``, and a compact binary
format ("MACD") holding both matrices as little-endian float64.
``ExactReader`` reads binary files field by field, for MACD here and for
MACN model checkpoints.
"""

import io
import struct

import numpy as np

from .model import Dataset, DimensionMismatchError, MacqpError

MACD_MAGIC = b"MACD"


class ExactReader:
    """A binary file read field by field, each field exactly as long as asked.

    A file that ends inside a field, or holds bytes after the last one
    (see ``finish``), raises MacqpError naming the path and byte offset.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self.buf = memoryview(fh.read())
        self.pos = 0

    def take(self, size, what):
        end = self.pos + size
        if end > len(self.buf):
            raise MacqpError(
                f"{self.path}: truncated: {what} at byte offset {self.pos} needs "
                f"{size} bytes, but the file ends at byte {len(self.buf)}"
            )
        field = self.buf[self.pos : end]
        self.pos = end
        return field

    def unpack(self, fmt, what):
        """Fields of a little-endian ``struct`` format (``fmt`` starts with "<")."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def f64_matrix(self, shape, what):
        """A row-major little-endian float64 matrix, as a new array."""
        raw = self.take(8 * shape[0] * shape[1], what)
        return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()

    def finish(self):
        if self.pos != len(self.buf):
            raise MacqpError(
                f"{self.path}: {len(self.buf) - self.pos} trailing bytes "
                f"after the last field, at byte offset {self.pos}"
            )


def save_dataset_f64bin(data, path):
    with open(path, "wb") as fh:
        fh.write(MACD_MAGIC)
        fh.write(struct.pack("<QII", data.n, data.X.shape[1], data.Y.shape[1]))
        fh.write(np.ascontiguousarray(data.X, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(data.Y, dtype="<f8").tobytes())


def save_dataset_csv(data, path):
    d, dp = data.X.shape[1], data.Y.shape[1]
    header = [f"x{i}" for i in range(d)] + [f"y{i}" for i in range(dp)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for xr, yr in zip(data.X, data.Y):
            fh.write(",".join(repr(float(v)) for v in xr) + ",")
            fh.write(",".join(repr(float(v)) for v in yr) + "\n")


def _load_f64bin(path):
    reader = ExactReader(path)
    magic = bytes(reader.take(4, "the magic"))
    if magic != MACD_MAGIC:
        raise MacqpError(f"{path}: bad magic {magic!r}, expected {MACD_MAGIC!r}")
    at = reader.pos
    n, d, dp = reader.unpack("<QII", "the header")
    if 0 in (n, d, dp):
        raise MacqpError(f"{path}: the header at byte offset {at} gives n = {n}, "
                         f"d = {d}, d' = {dp}; none may be 0")
    X = reader.f64_matrix((n, d), "X")
    Y = reader.f64_matrix((n, dp), "Y")
    reader.finish()
    for name, M in (("X", X), ("Y", Y)):
        bad = np.flatnonzero(~np.isfinite(M).all(axis=1))
        if bad.size:
            raise MacqpError(f"{path}: {name} has a non-finite entry in row {bad[0]} (from 0)")
    return Dataset(X, Y)


def read_text(path):
    """The file's contents decoded as UTF-8.  Bytes that are not UTF-8
    raise MacqpError naming the path and their byte offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MacqpError(f"{path}: not UTF-8 text: {exc.reason} at byte offset "
                         f"{exc.start}") from None


def _load_csv(path):
    with io.StringIO(read_text(path), newline=None) as fh:
        header = fh.readline().strip()
        if not header:
            raise MacqpError(f"{path}: missing header row")
        cols = [c.strip() for c in header.split(",")]
        d = sum(1 for c in cols if c.startswith("x"))
        dp = len(cols) - d
        expected = [f"x{i}" for i in range(d)] + [f"y{i}" for i in range(dp)]
        if d == 0 or dp == 0 or cols != expected:
            raise MacqpError(
                f"{path}: header must name input columns x0, x1, ... then target "
                f"columns y0, y1, ..., got {header!r}"
            )
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != d + dp:
                raise DimensionMismatchError(
                    f"{path}:{lineno}: expected {d + dp} cells, got {len(cells)}"
                )
            vals = []
            for colno, cell in enumerate(cells, start=1):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise MacqpError(
                        f"{path}:{lineno}: non-numeric cell in column {colno}: {cell!r}"
                    ) from None
                if not np.isfinite(vals[-1]):
                    raise MacqpError(
                        f"{path}:{lineno}: non-finite cell in column {colno}: {cell!r}")
            rows.append(vals)
    arr = np.asarray(rows, dtype=np.float64)
    if arr.size == 0:
        raise MacqpError(f"{path}: no data rows")
    return Dataset(arr[:, :d], arr[:, d:])


def check_format(fmt, key="dataset format"):
    """MacqpError naming ``key`` unless load_dataset reads format fmt."""
    if fmt not in ("csv", "f64bin"):
        raise MacqpError(f"{key} must be 'csv' or 'f64bin', got {fmt!r}")


def load_dataset(path, fmt):
    """Read a dataset from disk; entries are validated finite."""
    check_format(fmt)
    return _load_csv(path) if fmt == "csv" else _load_f64bin(path)


def synth_manifold_dataset(n, ambient_dim, intrinsic_dim, noise, seed, n_val=0):
    """Autoencoding dataset sampled from a smooth low-dimensional manifold.

    Points come from an affine-plus-sinusoidal embedding of a uniform
    latent cube, with Gaussian noise added and an affine rescale of every
    column into [0, 1].  Targets equal inputs.
    """
    if intrinsic_dim >= ambient_dim:
        raise DimensionMismatchError("intrinsic_dim must be < ambient_dim")
    if noise < 0:
        raise ValueError("noise must be nonnegative")
    rng = np.random.default_rng(seed)
    total = n + n_val
    T = rng.uniform(0.0, 1.0, size=(total, intrinsic_dim))
    B_lin = rng.normal(size=(ambient_dim, intrinsic_dim))
    B_sin = rng.normal(size=(ambient_dim, intrinsic_dim))
    B_cos = rng.normal(size=(ambient_dim, intrinsic_dim))
    X = T @ B_lin.T + np.sin(2 * np.pi * T) @ B_sin.T + np.cos(2 * np.pi * T) @ B_cos.T
    if noise > 0:
        X = X + rng.normal(scale=noise, size=X.shape)
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span[span == 0] = 1.0
    X = (X - lo) / span
    if n_val > 0:
        return Dataset(X[:n], X[:n], X[n:], X[n:])
    return Dataset(X, X)


def pca_embed(X, d):
    """Coordinates of X on its top-d principal directions (deterministic signs)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if d > X.shape[1]:
        raise DimensionMismatchError(f"cannot embed width {X.shape[1]} into {d} dims")
    Xc = X - X.mean(axis=0)
    U, S, Vt = np.linalg.svd(Xc, full_matrices=False)
    # fix each direction's sign by its largest-magnitude component
    for i in range(d):
        j = int(np.argmax(np.abs(Vt[i])))
        if Vt[i, j] < 0:
            Vt[i] = -Vt[i]
            U[:, i] = -U[:, i]
    return U[:, :d] * S[:d]


def write_pgm(path, image):
    """8-bit binary PGM; pixel = round(255 * clamp(v, 0, 1))."""
    image = np.atleast_2d(np.asarray(image, dtype=np.float64))
    px = np.round(255.0 * np.clip(image, 0.0, 1.0)).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{px.shape[1]} {px.shape[0]}\n255\n".encode())
        fh.write(px.tobytes())
