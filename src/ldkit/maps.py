"""Phase-space grids of energy, ell(E), gradient norm B, and temporal LD.

Grids are row-major with the momentum index outermost (p outer, q inner),
matching the CSV layout. Node energies are H = αp² + V(q) on a row of q
nodes broadcast against a column of p nodes, so V runs once per q node.
Node computations are independent, and each map is batched: an ell map
evaluates ell(E) as a piecewise-Chebyshev function of energy, one
``ell_batch`` per refinement round, and a temporal map is one
forward stepper run over its distinct starts (q, p) and (q, -p), since
each backward piece is the forward piece of the start mirrored in p; for a
model with an even V, (q, p) and (-q, -p) also share a lane. A node's value
does not depend on which other nodes share the batch (the quadrature's sums
are row-local, its temporaries are chunked by rows, and each stepper lane
runs on its own values), so a sub-grid reproduces the grid's nodes bit for bit.

Output formats:

* landscape CSV: header ``E,ell[,dell_dE]``, 17 significant digits; the
  reader rejects a file with another header or a line of another width;
* grid CSV (long format): header ``q,p,value,mask``, row-major node order,
  valid nodes carry a value and mask 1, masked nodes an empty value field
  and mask 0; the reader rejects a file whose lines do not form a grid in
  that order, whose q and p nodes are not its ``GridSpec``'s, or that
  breaks that rule. The writer formats, and the reader parses, each
  distinct row once and a row equal to its own reverse up to its middle
  (on exact-negative nodes, E, ell, B and temporal rows repeat in p, and
  are their own mirror for an even V). The writer writes bytes. The
  reader works on the byte offsets of the fields, found in one scan for
  separators, so it takes an ASCII body without NUL bytes and fields of
  at most ``GRID_CSV_FIELD_MAX`` bytes (the writer's longest is 24);
* PGM: binary ``P5``, 16-bit big-endian, nq x np, linear min-max scaling,
  masked nodes map to 0.
"""

import math
import os
import zlib
from dataclasses import dataclass, field
from itertools import compress, repeat

import numpy as np

from ._kernels import STATUS_OK
from .geometric import _ell_function
from .temporal import _ld_lanes


@dataclass(frozen=True)
class GridSpec:
    """A rectangular mesh: ``nq`` q nodes on [q_lo, q_hi] and ``np`` p nodes
    on [p_lo, p_hi], each axis ``np.linspace`` of its bounds. The bounds must
    be finite with lo < hi and a finite width hi - lo, the counts integers
    >= 2, and each axis's nodes distinct (strictly increasing) in floats:
    bounds a few ulps apart give equal nodes, on which a grid CSV cannot be
    read back and B has no step.
    """

    q_lo: float
    q_hi: float
    p_lo: float
    p_hi: float
    nq: int
    np: int

    def __post_init__(self):
        if not (self.q_lo < self.q_hi and self.p_lo < self.p_hi):
            raise ValueError("grid bounds must satisfy lo < hi")
        if not np.isfinite([self.q_lo, self.q_hi, self.p_lo, self.p_hi]).all():
            raise ValueError("grid bounds must be finite")
        if not all(math.isfinite(float(b) - float(a))
                   for a, b in ((self.q_lo, self.q_hi), (self.p_lo, self.p_hi))):
            raise ValueError("grid bounds too far apart: hi - lo overflows")
        if not all(isinstance(n, (int, np.integer)) and n >= 2 for n in (self.nq, self.np)):
            raise ValueError("grid needs an integer count >= 2 of nodes per axis")
        if not ((np.diff(self.q_nodes()) > 0).all() and (np.diff(self.p_nodes()) > 0).all()):
            raise ValueError("grid bounds too close for their node counts: "
                             "two nodes are equal in floats")

    def q_nodes(self):
        return np.linspace(self.q_lo, self.q_hi, self.nq)

    def p_nodes(self):
        return np.linspace(self.p_lo, self.p_hi, self.np)


@dataclass
class GridMap:
    spec: GridSpec
    values: np.ndarray  # shape (np, nq)
    quantity: str
    mask: np.ndarray = field(default=None)  # True where valid

    def __post_init__(self):
        if self.mask is None:
            self.mask = np.ones_like(self.values, dtype=bool)


def _energy_grid(model, spec):
    """Node energies, shape (np, nq): H = αp² + V(q) broadcast from a row of
    q nodes and a column of p nodes, so V runs once per q node."""
    E = np.asarray(model.energy(spec.q_nodes()[None, :], spec.p_nodes()[:, None]),
                   dtype=np.float64)
    shape = (spec.np, spec.nq)
    return E if E.shape == shape else np.broadcast_to(E, shape).copy()


def energy_map(model, spec):
    """Per-node energy values; the trivial base map."""
    return GridMap(spec, _energy_grid(model, spec), "energy")


def ell_map(model, spec, trunc=None, cfg=None, table=False, threads=None):
    """Per-node ell(E(q, p)), from ell(E) as a certified piecewise-Chebyshev
    function of energy (:func:`geometric._ell_function`, without
    derivatives). A node is masked exactly where its direct evaluation fails;
    its value does not depend on the other nodes, and a node at a breakpoint
    b equals ``ell(model, b)`` bit for bit. ``table`` and ``threads`` are
    accepted for compatibility and ignored.
    """
    E = _energy_grid(model, spec)
    values, mask = _ell_function(model, E, trunc, cfg)[:2]
    return GridMap(spec, values.reshape(E.shape), "ell", mask.reshape(E.shape))


def temporal_map(model, spec, t, cfg=None):
    """Per-node temporal LD total over the grid, as one batched forward run
    over the distinct starts (q, p) and (q, -p); on a grid symmetric in p
    that is one lane per node, per two if V is even and q is symmetric too.
    Failed nodes keep their partial value but are masked."""
    Q, P = np.meshgrid(spec.q_nodes(), spec.p_nodes())
    plus, minus, st_p, st_m, _, _ = _ld_lanes(model, Q.ravel(), P.ravel(), t, cfg)
    shape = (spec.np, spec.nq)
    values = (plus + minus).reshape(shape)
    mask = ((st_p == STATUS_OK) & (st_m == STATUS_OK)).reshape(shape)
    return GridMap(spec, values, "temporal", mask)


def b_map(ell_grid):
    """Norm of the finite-difference gradient of an ell grid.

    Central differences on interior nodes, one-sided on edges, using the
    mesh spacings; computed from the grid values themselves (no resampling).
    Nodes adjacent to masked nodes are masked.
    """
    if ell_grid.quantity != "ell":
        raise ValueError("b_map expects a grid with quantity='ell'")
    spec = ell_grid.spec
    dq = (spec.q_hi - spec.q_lo) / (spec.nq - 1)
    dp = (spec.p_hi - spec.p_lo) / (spec.np - 1)
    vals = np.where(ell_grid.mask, ell_grid.values, math.nan)
    gp, gq = np.gradient(vals, dp, dq)
    b = np.hypot(gq, gp)

    m = ell_grid.mask
    ok = m.copy()
    ok[1:, :] &= m[:-1, :]
    ok[:-1, :] &= m[1:, :]
    ok[:, 1:] &= m[:, :-1]
    ok[:, :-1] &= m[:, 1:]
    b = np.where(ok, b, math.nan)
    return GridMap(spec, b, "bnorm", ok)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def write_landscape_csv(landscape, path):
    """Landscape CSV: one ``%.17g`` template per row, with or without the
    ``dell_dE`` column."""
    cols = [landscape.energies, landscape.lengths]
    header = "E,ell"
    if landscape.derivs is not None:
        cols.append(landscape.derivs)
        header += ",dell_dE"
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write("".join(row % r for r in zip(*(np.asarray(c).tolist() for c in cols))))


def read_landscape_csv(path):
    """Read a landscape CSV back; raises ``ValueError`` unless it is one.

    The header must be ``E,ell`` or ``E,ell,dell_dE``. Blank lines are
    skipped, and every other line must have as many fields as the header.
    All values are converted from one split of the body.
    """
    from .geometric import Landscape

    with open(path, "r") as fh:
        header = fh.readline().strip()
        lines = list(filter(str.strip, fh.read().split("\n")))
    if header not in ("E,ell", "E,ell,dell_dE"):
        raise ValueError(f"{path}: not a landscape CSV (header {header!r})")
    if not lines:
        raise ValueError(f"{path}: landscape CSV has no rows")
    ncol = header.count(",") + 1
    if set(map(str.count, lines, repeat(","))) != {ncol - 1}:
        raise ValueError(f"{path}: every landscape CSV line needs {ncol} fields")
    values = np.array(list(map(float, ",".join(lines).split(","))))
    cols = values.reshape(-1, ncol).T.copy()
    return Landscape(cols[0], cols[1], cols[2] if ncol == 3 else None)


def _row_sources(values, mask):
    """Each row's first row with the same value and mask bits, and each
    such source row's last use, as ``(source, last)``."""
    first = {}
    source = [first.setdefault(v.tobytes() + m.tobytes(), j)
              for j, (v, m) in enumerate(zip(values, mask))]
    return source, {s: j for j, s in enumerate(source)}


def write_grid_csv(grid, path):
    """Grid CSV, one p row per ``write`` of bytes; each distinct row is
    formatted once.

    Every number is written with 17 significant digits, which round-trips
    doubles. Each q node has line templates, formatted once: ``q,<p>,%.17g,1``
    and ``q,<p>,%s,1`` for a valid node, ``q,<p>,,0`` for a masked one; the
    templates of a whole valid row are joined once per call. A row fills
    the templates its mask picks (the joined ones when no node is masked)
    with one ``%`` and puts in its p string by ``bytes.replace``; a row
    whose value bits equal their reverse formats only its first ceil(nq/2)
    values, into ``%s`` templates. A row bitwise equal to an earlier row
    (values and mask) reuses that row's bytes, which are kept only until
    their last reuse.
    """
    qs = [b"%.17g" % q for q in grid.spec.q_nodes().tolist()]
    valid = np.array([q + b",\0,%.17g,1\n" for q in qs], dtype=object)
    filled = np.array([q + b",\0,%s,1\n" for q in qs], dtype=object)
    masked = np.array([q + b",\0,,0\n" for q in qs], dtype=object)
    all_valid, all_filled = b"".join(valid), b"".join(filled)
    half, rest = len(qs) - len(qs) // 2, len(qs) // 2
    half_fmt = b"\0".join([b"%.17g"] * half)
    values = np.asarray(grid.values, dtype=np.float64)
    mask = np.asarray(grid.mask, dtype=bool)
    full = mask.all(axis=1)
    mirrors = (values.view(np.int64) == values[:, ::-1].view(np.int64)).all(axis=1)
    source, last = _row_sources(values, mask)
    kept = {}
    with open(path, "wb") as fh:
        fh.write(b"q,p,value,mask\n")
        for j, p in enumerate(grid.spec.p_nodes().tolist()):
            s = source[j]
            if s != j:
                text = kept.pop(s)
            else:
                if mirrors[j]:
                    strs = (half_fmt % tuple(values[j, :half].tolist())).split(b"\0")
                    args, lines, joined = strs + strs[:rest][::-1], filled, all_filled
                else:
                    args, lines, joined = values[j].tolist(), valid, all_valid
                if full[j]:
                    text = joined % tuple(args)
                else:
                    text = b"".join(np.where(mask[j], lines, masked).tolist())
                    text %= tuple(compress(args, mask[j].tolist()))
            if last[s] > j:
                kept[s] = text
            fh.write(text.replace(b"\0", b"%.17g" % p))


# the longest q, p or value field the grid CSV reader accepts, in bytes;
# the writer's longest is 24 ("-2.2250738585072014e-308")
GRID_CSV_FIELD_MAX = 64


def _windows(b, starts, width):
    """A copy of the ``width`` bytes from each start, shape
    ``starts.shape + (width,)``; ``b`` is a uint8 array holding ``width``
    bytes after every start. One gather of ``V<width>`` items (numpy copies
    each item whole, where rows of a sliding window go a byte at a time)."""
    items = np.ndarray((b.size - width + 1,), f"V{width}", b, 0, (1,))
    return items[starts].view(np.uint8).reshape(starts.shape + (width,))


def _field_bytes(b, starts, lengths):
    """Each field's bytes as one row of an ``(n, width)`` array, zero past
    its length; ``b`` holds at least ``width`` bytes after every start.
    Fields without NUL bytes are equal exactly where their rows are."""
    width = max(int(lengths.max(initial=0)), 1)
    w = _windows(b, starts, width)
    # row k of the lower-triangular ones: k ones, then zeros
    tri = np.tri(width + 1, width, -1, dtype=np.uint8).ravel()
    w *= _windows(tri, lengths * width, width)
    return w


def _fields_differ(b, starts, lengths, ref):
    """Whether a field's bytes differ from its reference field's. ``starts``
    and ``lengths`` are (npts, nq); ``ref`` picks the reference fields,
    row 0 (``np.s_[:1]``) or column 0 (``np.s_[:, :1]``), whose lengths
    every field must already have. The byte windows are compared under one
    mask per column or row."""
    lengths = lengths[ref]
    width = max(int(lengths.max()), 1)
    w = _windows(b, starts, width)
    ne = w != w[ref]
    ne &= np.arange(width) < lengths[..., None]
    return bool(ne.any())


def read_grid_csv(path, quantity="ell"):
    """Read a grid CSV back; raises ``ValueError`` unless it is one.

    The body must be ASCII without NUL bytes. Lines without a comma must be
    blank and are skipped; every other line must have the four fields
    ``q,p,value,mask``, with q, p and value at most ``GRID_CSV_FIELD_MAX``
    (64) bytes long. The lines must form a grid in the writer's order: the
    row length ``nq`` is where the first q string repeats, every row
    repeats the first row's q strings exactly, and p is one string along
    each row. The first row's q and each row's p must be the nodes of the
    ``GridSpec`` they span, bit for bit. A valid node has a value and mask
    ``1``, a masked node no value and mask ``0``; masked nodes read as NaN.

    The checks run on the byte offsets of the fields, found by one scan for
    the separators (``,`` and ``\\n``, in file order, so a line's comma count
    is the gap between its newline and the one before). The q and p
    strings are checked first by length (equal down each column, constant
    along each row), then as byte windows gathered at their starts, under
    one byte mask per column (q) or per row (p). The values are parsed by
    one cast of their windows to float64, which parses as ``float`` does:
    once per distinct row of windows (a digest key, checked against the
    row it names), and only up to its middle for a row that reads the same
    reversed. Only the first row's q and each row's p are parsed one by one.
    """
    # read into one buffer (the rest, for a pipe); the spaces after the
    # last "\n" are room for the window of the last field
    with open(path, "rb") as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size + 1 + GRID_CSV_FIELD_MAX)
        n = fh.readinto(raw)
        raw[n:] = fh.read() + b"\n" + b" " * GRID_CSV_FIELD_MAX
    if b"\r" in raw:  # universal newlines, as text mode reads them
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    cut = raw.find(b"\n") + 1
    header = raw[:cut].decode()
    if header.strip() != "q,p,value,mask":
        raise ValueError(f"{path}: not a grid CSV (header {header!r})")
    del raw[:cut]
    if not raw.isascii() or b"\0" in raw:
        raise ValueError(f"{path}: a grid CSV must be ASCII without NUL bytes")
    b = np.frombuffer(raw, np.uint8)
    hit = b == ord(",")
    hit |= b == ord("\n")
    seps = np.flatnonzero(hit)
    del hit
    nl = np.flatnonzero(b[seps] == ord("\n"))
    per_line = np.diff(nl, prepend=-1) - 1
    ends = seps[nl]
    starts = np.r_[0, ends[:-1] + 1]
    blank = per_line == 0
    # blank as str.strip has it: \x1c-\x1f are whitespace too
    if (any(raw[a:e].decode().strip() for a, e in zip(starts[blank].tolist(), ends[blank].tolist()))
            or (per_line[~blank] != 3).any()):
        raise ValueError(f"{path}: every grid CSV line needs 4 fields")
    if blank.all():
        raise ValueError(f"{path}: grid CSV has no rows")
    nodes = int(np.count_nonzero(~blank))
    if blank[:nodes].any():  # blank lines before the last node
        seps = np.delete(seps, nl[blank])
    c1, c2, c3, ends = seps[:4 * nodes].reshape(-1, 4).T
    q_at, p_at, v_at = starts[~blank], c1 + 1, c2 + 1
    q_len, p_len, v_len = c1 - q_at, c2 - p_at, c3 - v_at
    if max(q_len.max(), p_len.max(), v_len.max()) > GRID_CSV_FIELD_MAX:
        raise ValueError(f"{path}: a grid CSV field is longer than {GRID_CSV_FIELD_MAX} bytes")

    row = raw.find(b"\n" + raw[q_at[0]:c1[0]] + b",", int(q_at[0]))
    nq = int(np.searchsorted(q_at, row + 1)) if row >= 0 else nodes
    if nodes % nq:
        raise ValueError(f"{path}: ragged grid ({nodes} rows, row length {nq})")
    npts = nodes // nq
    q_at, p_at = q_at.reshape(npts, nq), p_at.reshape(npts, nq)
    q_len, p_len = q_len.reshape(npts, nq), p_len.reshape(npts, nq)
    if (q_len != q_len[0]).any() or _fields_differ(b, q_at, q_len, np.s_[:1]):
        raise ValueError(f"{path}: q nodes differ between rows")
    if (p_len != p_len[:, :1]).any() or _fields_differ(b, p_at, p_len, np.s_[:, :1]):
        raise ValueError(f"{path}: p changes inside a row")
    qs = [float(raw[a:a + k]) for a, k in zip(q_at[0].tolist(), q_len[0].tolist())]
    ps = [float(raw[a:a + k]) for a, k in zip(p_at[:, 0].tolist(), p_len[:, 0].tolist())]
    spec = GridSpec(qs[0], qs[-1], ps[0], ps[-1], nq, npts)
    if qs != spec.q_nodes().tolist() or ps != spec.p_nodes().tolist():
        raise ValueError(f"{path}: the q and p nodes are not those of {spec}")

    mask = b[c3 + 1]
    valid = mask == ord("1")
    if ((ends - c3 != 2) | (~valid & (mask != ord("0"))) | (valid != (v_len > 0))).any():
        raise ValueError(f"{path}: a node needs a value and mask 1, or no value and mask 0")
    v_w = _field_bytes(b, v_at, v_len).reshape(npts, nq, -1)
    half, rest = nq - nq // 2, nq // 2
    mirrors = (v_w[:, :rest] == v_w[:, ::-1][:, :rest]).all(axis=(1, 2))
    source, first, parse = np.arange(npts), {}, np.zeros((npts, nq), bool)
    for j, w in enumerate(v_w):
        s = first.setdefault(zlib.crc32(w), j)
        if s != j and np.array_equal(w, v_w[s]):
            source[j] = s
        else:
            parse[j, :half if mirrors[j] else nq] = True
    parse &= valid.reshape(npts, nq)
    values = np.full((npts, nq), math.nan)
    w = v_w.reshape(nodes, -1) if parse.all() else v_w[parse]
    values[parse] = w.view(f"S{w.shape[1]}").ravel().astype(np.float64)
    values[mirrors, half:] = values[mirrors, :rest][:, ::-1]
    return GridMap(spec, values[source], quantity, valid.reshape(npts, nq))


def write_pgm(grid, path, scale=None):
    """16-bit binary PGM preview; ``scale`` optionally pins (vmin, vmax),
    finite with vmin < vmax."""
    valid = grid.mask & np.isfinite(grid.values)
    if scale is None:
        if valid.any():
            vmin = float(np.min(grid.values, where=valid, initial=math.inf))
            vmax = float(np.max(grid.values, where=valid, initial=-math.inf))
        else:
            vmin, vmax = 0.0, 1.0
    else:
        vmin, vmax = map(float, scale)
        if not (vmin < vmax and math.isfinite(vmax - vmin)):
            raise ValueError("PGM scale needs finite vmin < vmax")
    pix = grid.values - vmin
    pix /= vmax - vmin if vmax > vmin else 1.0
    np.clip(pix, 0.0, 1.0, out=pix)
    pix *= 65535.0
    np.round(pix, out=pix)
    pix[~valid] = 0.0
    with open(path, "wb") as fh:
        fh.write(f"P5\n{grid.spec.nq} {grid.spec.np}\n65535\n".encode("ascii"))
        fh.write(pix.astype(">u2").tobytes())
