"""Discrete averaging and truncated singular convolution operators along
monomial or general polynomial mappings, with sparse and torus-FFT
application paths, and the exact per-block kernel 1-variation table.

Kernel builds, sparse application and the block table work on whole arrays:
the monomial images of all points come from ``multiindex.monomial_images``,
equal images or sites are grouped by ``_row_labels``, and every
floating-point sum is taken in the order the former per-point loops used, so
the results are the same bit for bit.

Scale convention: an operator at parameter t has radius 2**t.  Averaging
kernels place mass 1/#points at the image of every lattice point of the
dilate (image collisions accumulate); singular kernels place the kernel value
at the image of every nonzero point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, PreconditionError
from .lattice import ConvexBody, dyadic_radius, gauge_groups, lattice_points
from .multiindex import (MultiIndexSet, _integers, exact_dtype, integer_rows,
                         monomial_images)
from .variation import PathField, jump_seminorm, r_variation
from .expsums import IntegerPolynomial

DEFAULT_OUTPUT_CAP = 10 ** 7


# ---------------------------------------------------------------------------
# lattice functions
# ---------------------------------------------------------------------------


class LatticeFunction:
    """Finitely supported complex function on an integer lattice.

    Zero values are pruned; iteration order is lexicographic in the site, so
    serialized output is byte-stable.  A site coordinate that is not an
    integer raises ``PreconditionError``.
    """

    __slots__ = ("dim", "_data")

    def __init__(self, dim: int, data: dict | None = None) -> None:
        self.dim = dim
        self._data: dict[tuple[int, ...], complex] = {}
        if data:
            for x, v in data.items():
                self[x] = complex(v)

    @classmethod
    def delta(cls, dim: int, site: Sequence[int] | None = None) -> "LatticeFunction":
        site = tuple(site) if site is not None else (0,) * dim
        return cls(dim, {site: 1.0 + 0j})

    def __getitem__(self, x) -> complex:
        return self._data.get(tuple(x), 0j)

    def __setitem__(self, x, v: complex) -> None:
        x = tuple(_integers(x))
        if len(x) != self.dim:
            raise ValueError("site has wrong dimension")
        if v == 0:
            self._data.pop(x, None)
        else:
            self._data[x] = complex(v)

    def items(self):
        return sorted(self._data.items())

    def sites(self):
        return sorted(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def norm_l1(self) -> float:
        return sum(abs(v) for v in self._data.values())

    def total(self) -> complex:
        return sum(self._data.values())

    def scaled(self, c: complex) -> "LatticeFunction":
        return LatticeFunction(self.dim, {x: c * v for x, v in self._data.items()})

    # -- text and JSON round trips ------------------------------------------

    def to_text(self) -> str:
        lines = []
        for x, v in self.items():
            coords = " ".join(str(c) for c in x)
            lines.append(f"{coords} {v.real!r} {v.imag!r}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "LatticeFunction":
        data = {}
        dim = None
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if dim is None:
                dim = len(parts) - 2
                if dim < 1:
                    raise ValueError("each line needs coordinates plus re and im")
            x = tuple(int(c) for c in parts[:dim])
            data[x] = complex(float(parts[dim]), float(parts[dim + 1]))
        if dim is None:
            raise ValueError("empty lattice function file")
        return cls(dim, data)

    def to_json(self) -> str:
        pts = [{"x": list(x), "re": v.real, "im": v.imag} for x, v in self.items()]
        return json.dumps({"dim": self.dim, "points": pts})

    @classmethod
    def from_json(cls, text: str) -> "LatticeFunction":
        obj = json.loads(text)
        data = {tuple(p["x"]): complex(p["re"], p["im"]) for p in obj["points"]}
        return cls(obj["dim"], data)


# ---------------------------------------------------------------------------
# Calderon-Zygmund kernel specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CZKernelSpec:
    """A truncation-compatible singular kernel paired with the body for which
    its annulus integrals vanish.

    ``holder_constant`` records the constant in the smoothness inequality
    |K(x) - K(x+y)| <= C |y|^sigma |x|^(-k-sigma) for |y| <= |x|/2; the size
    inequality |K| <= |x|^(-k) holds with constant one for the shipped kernels.
    """

    name: str
    k: int
    sigma: float
    holder_constant: float
    body: ConvexBody
    evaluate: Callable[[Sequence[float]], complex] = field(compare=False)


def cz_inverse(body: ConvexBody) -> CZKernelSpec:
    """K(y) = 1/y in one dimension, paired with a symmetric interval."""
    if body.k != 1:
        raise ValueError("1/y kernel requires k = 1")
    return CZKernelSpec("inverse", 1, 1.0, 2.0, body, lambda y: 1.0 / y[0])


def cz_quadrupole(body: ConvexBody) -> CZKernelSpec:
    """K(y) = (y1^2 - y2^2)/|y|^4, zero spherical mean, paired with a ball."""
    if body.k != 2:
        raise ValueError("quadrupole kernel requires k = 2")

    def ev(y):
        s = y[0] * y[0] + y[1] * y[1]
        return (y[0] * y[0] - y[1] * y[1]) / (s * s)

    return CZKernelSpec("quadrupole", 2, 1.0, 8.0, body, ev)


def cz_product(body: ConvexBody) -> CZKernelSpec:
    """K(y) = y1*y2/|y|^4, odd in each variable, paired with a ball."""
    if body.k != 2:
        raise ValueError("product kernel requires k = 2")

    def ev(y):
        s = y[0] * y[0] + y[1] * y[1]
        return (y[0] * y[1]) / (s * s)

    return CZKernelSpec("product", 2, 1.0, 8.0, body, ev)


def _check_flavor(flavor: str, cz: CZKernelSpec | None) -> None:
    if flavor not in ("averaging", "singular"):
        raise ValueError("flavor must be 'averaging' or 'singular'")
    if flavor == "singular" and cz is None:
        raise ValueError("singular flavor needs a kernel spec")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadonKernel:
    """A finitely supported convolution kernel at scale 2**t.

    For the averaging flavor the integer multiplicities and the normalizer
    are kept alongside the complex entries, so the unit total mass is exact.
    """

    flavor: str                  # "averaging" | "singular"
    t: float
    dim: int
    entries: tuple[tuple[tuple[int, ...], complex], ...]
    multiplicities: tuple[tuple[tuple[int, ...], int], ...] | None = None
    normalizer: int | None = None

    def entry_dict(self) -> dict[tuple[int, ...], complex]:
        return dict(self.entries)

    def total_mass(self):
        if self.flavor == "averaging" and self.multiplicities is not None:
            return Fraction(sum(m for _, m in self.multiplicities), self.normalizer)
        return sum(v for _, v in self.entries)

    def norm_l1(self) -> float:
        return sum(abs(v) for _, v in self.entries)

    def support_radius(self) -> tuple[int, ...]:
        radii = [0] * self.dim
        for x, _ in self.entries:
            for i, c in enumerate(x):
                radii[i] = max(radii[i], abs(c))
        return tuple(radii)

    def __len__(self) -> int:
        return len(self.entries)


def _row_labels(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels of the rows of an (n, d) integer array, equal rows sharing one
    and the distinct rows numbered in lexicographic order, and the index of
    the first row with each label.

    Each column enters a mixed-radix key as its offset from its minimum, or
    as its rank among its distinct values when it is sparse or held as
    Python integers; the key is re-ranked whenever it could reach 2^62."""
    key, size = np.zeros(len(rows), np.int64), 1
    if not len(rows):
        return key, key
    for col in rows.T:
        lo = col.min()
        span = int(col.max()) - int(lo) + 1
        if col.dtype == object or span > len(col):
            values, r = np.unique(col, return_inverse=True)
            span = len(values)
        else:
            r = col - lo
        if size * span >= 2 ** 62:
            distinct, key = np.unique(key, return_inverse=True)
            size = len(distinct)
        key, size = key * span + r, size * span
    _, first, labels = np.unique(key, return_index=True, return_inverse=True)
    return labels, first


def _tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of a 2-D integer array as tuples of Python integers."""
    return list(zip(*rows.T.tolist())) if rows.shape[1] else [()] * len(rows)


def _complex_list(re: np.ndarray, im: np.ndarray) -> list[complex]:
    """complex(re[i], im[i]) for each i, bit for bit."""
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    return z.tolist()


def _label_sums(labels: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per label, the real and imaginary parts of the sum of its complex
    ``values``, added in input order from 0.0 as ``0j + v + ...`` adds."""
    return (np.bincount(labels, weights=values.real),
            np.bincount(labels, weights=values.imag))


def _kernel(flavor: str, body: ConvexBody, t: float, dim: int, mapper,
            cz: CZKernelSpec | None) -> RadonKernel:
    """The kernel at scale 2**t whose entries sit at the images under
    ``mapper`` (an array of points to the array of their images) of the
    lattice points of the dilate."""
    pts = lattice_points(body, dyadic_radius(t)).points
    if flavor == "averaging":
        images = mapper(pts)
        labels, first = _row_labels(images)
        sites, counts = _tuples(images[first]), np.bincount(labels)
        # complex(m) / n is complex(m / n, 0.0), with m / n correctly rounded
        masses = _complex_list(counts / len(pts), np.zeros(len(counts)))
        return RadonKernel("averaging", t, dim, tuple(zip(sites, masses)),
                           tuple(zip(sites, counts.tolist())), len(pts))
    ys = [y for y in pts if any(y)]
    images = mapper(ys)
    labels, first = _row_labels(images)
    re, im = _label_sums(labels, np.array([complex(cz.evaluate(y)) for y in ys], complex))
    keep = (re != 0) | (im != 0)
    return RadonKernel("singular", t, dim, tuple(zip(_tuples(images[first[keep]]),
                                                     _complex_list(re[keep], im[keep]))))


def averaging_kernel(body: ConvexBody, t: float, gammas: MultiIndexSet) -> RadonKernel:
    """Uniform average over the lattice points of the dilate by 2**t, pushed
    through the canonical monomial map.  Collisions accumulate mass."""
    return _kernel("averaging", body, t, len(gammas),
                   lambda pts: monomial_images(pts, gammas.members), None)


def singular_kernel(body: ConvexBody, t: float, gammas: MultiIndexSet,
                    cz: CZKernelSpec) -> RadonKernel:
    """Kernel values at nonzero lattice points of the dilate, pushed through
    the canonical map; empty when the dilate contains only the origin."""
    if cz.k != body.k:
        raise ValueError("kernel and body dimensions differ")
    return _kernel("singular", body, t, len(gammas),
                   lambda pts: monomial_images(pts, gammas.members), cz)


def radon_along_polynomials(polys: Sequence[IntegerPolynomial], body: ConvexBody,
                            t: float, flavor: str,
                            cz: CZKernelSpec | None = None) -> RadonKernel:
    """Kernel along a general integer polynomial mapping y -> (P_1(y), ..., P_m(y))."""
    _check_flavor(flavor, cz)
    for p in polys:
        if p.k != body.k:
            raise ValueError("polynomial arity does not match the body dimension")
        if not p.is_integer_valued():
            raise ValueError("mapping polynomials must have integer coefficients")
    monos = sorted({g for p in polys for g, _ in p.coeffs})
    coeffs = np.array([[int(p.coeff(g)) for p in polys] for g in monos],
                      dtype=object).reshape(len(monos), len(polys))
    weight = max((sum(abs(c) for c in col) for col in coeffs.T), default=0)

    def mapper(pts):
        m = monomial_images(pts, monos)
        # every image is below max |y^gamma| * weight in magnitude
        if m.dtype == object or exact_dtype(
                int(np.abs(m).max(initial=1)) * weight) is object:
            return m.astype(object) @ coeffs
        return m @ coeffs.astype(np.int64)

    return _kernel(flavor, body, t, len(polys), mapper, cz)


# ---------------------------------------------------------------------------
# application paths
# ---------------------------------------------------------------------------


def apply(kernel: RadonKernel, f: LatticeFunction) -> LatticeFunction:
    """Sparse convolution g(x) = sum_z kernel(z) f(x - z).

    Every product kernel(z) f(x) is formed, and added to its site's sum, in
    the order z-major then x ascending, with the float operations of Python's
    complex arithmetic; sites enter g in the order they are first reached."""
    if f.dim != kernel.dim:
        raise ValueError("kernel and function dimensions differ")
    if (n := len(kernel) * len(f)) > DEFAULT_OUTPUT_CAP:
        raise BudgetError("sparse convolution output cap", n, DEFAULT_OUTPUT_CAP)
    g = LatticeFunction(f.dim)
    if not len(kernel) or not len(f):
        return g
    zs, ws = zip(*kernel.entries)
    xs, vs = zip(*f.items())
    sites = integer_rows(zs, f.dim)[:, None] + integer_rows(xs, f.dim)[None]
    sites = sites.reshape(len(zs) * len(xs), f.dim)
    w, v = np.array(ws, complex)[:, None], np.array(vs, complex)[None]
    # numpy's complex * may round apart from Python's (w.re v.re - w.im v.im, ...)
    prods = np.empty(len(sites), complex)
    prods.real = (w.real * v.real - w.imag * v.imag).ravel()
    prods.imag = (w.real * v.imag + w.imag * v.real).ravel()
    labels, first = _row_labels(sites)
    re, im = _label_sums(labels, prods)
    order = np.argsort(first)
    re, im, first = re[order], im[order], first[order]
    keep = (re != 0) | (im != 0)
    g._data = dict(zip(_tuples(sites[first[keep]]), _complex_list(re[keep], im[keep])))
    return g


def apply_on_torus(kernel: RadonKernel, grid: np.ndarray) -> np.ndarray:
    """Cyclic convolution on (Z/LZ)^dim via the multidimensional FFT.

    The grid must be a cube of side L exceeding twice the kernel's support
    radius in every coordinate; with that margin the result agrees with the
    sparse path wherever no wraparound occurs.
    """
    shape = grid.shape
    if len(shape) != kernel.dim or len(set(shape)) != 1:
        raise ValueError("grid must be a cube matching the kernel dimension")
    L = shape[0]
    radii = kernel.support_radius()
    if any(L <= 2 * r for r in radii):
        raise PreconditionError(
            f"torus side {L} does not exceed twice the support radius {radii}")
    kgrid = np.zeros(shape, dtype=complex)
    if len(kernel):
        zs, ws = zip(*kernel.entries)
        np.add.at(kgrid, tuple((integer_rows(zs, kernel.dim) % L).T), ws)
    return np.fft.ifftn(np.fft.fftn(kgrid) * np.fft.fftn(np.asarray(grid, dtype=complex)))


# ---------------------------------------------------------------------------
# jump profiles of operator families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpProfile:
    field: PathField
    p: float
    jump_norm: float
    variations: dict

    def variation(self, r: float) -> list[float]:
        return self.variations[r]


def jump_profile(family: Sequence[tuple[float, RadonKernel]], f: LatticeFunction,
                 p: float, r_values: Sequence[float] = (2.0,)) -> JumpProfile:
    """Apply a t-increasing kernel family to f and summarize the per-site paths."""
    ts = [t for t, _ in family]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise PreconditionError("family times must be strictly increasing")
    outputs = [apply(kern, f) for _, kern in family]
    sites = sorted({x for g in outputs for x in g.sites()})
    values = tuple(tuple(g[x] for g in outputs) for x in sites)
    field = PathField(tuple(sites), tuple(float(t) for t in ts), values)
    jn = jump_seminorm(field, p)
    variations = {float(r): [r_variation(row, r) for row in values] for r in r_values}
    return JumpProfile(field, p, jn, variations)


# ---------------------------------------------------------------------------
# exact per-block kernel 1-variation table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockVariationRow:
    n: int
    value: float
    ratio: float          # value / n^(tau-1)


@dataclass(frozen=True)
class BlockVariationReport:
    tau: float
    flavor: str
    rows: tuple[BlockVariationRow, ...]
    fitted_slope: float

    def values(self) -> list[float]:
        return [r.value for r in self.rows]


def _averaging_steps(labels, sizes, pair_group, starts, first, added):
    """||K_next - K_prev||_1 at each breakpoint of an averaging family, as one
    Fraction each.

    A breakpoint adds s points to the c before it.  An image it reaches with
    a points, which held m, goes from mass m/c to (m + a)/(c + s); an image
    it misses loses m s / (c (c + s)), and those hold c - sum m points.  So
    the step is N / (c (c + s)) with the integer
    N = (c - sum m) s + sum |a c - m s|, both sums over the images reached."""
    n = len(labels)
    # a, m, c and s are below n, so every product, and N < 3 n^2, is below 4 n^2
    dtype = exact_dtype(4 * n * n)
    # m: the points that share a point's image and come before it
    order = np.argsort(labels, kind="stable")
    run = np.flatnonzero(np.diff(labels[order], prepend=-1))
    before = np.empty(n, np.int64)
    before[order] = np.arange(n) - np.repeat(run, np.diff(np.append(run, n)))
    m = before[1 + first].astype(dtype)
    s = sizes.astype(dtype)
    c = 1 + np.concatenate(([0], np.cumsum(s)[:-1])).astype(dtype)
    a = added.astype(dtype)
    reached = np.abs(a * c[pair_group] - m * s[pair_group])
    nums = (c - np.add.reduceat(m, starts)) * s + np.add.reduceat(reached, starts)
    return (Fraction(num, cc * (cc + ss))
            for num, cc, ss in zip(nums.tolist(), c.tolist(), s.tolist()))


def _singular_steps(values, pair_of_point, first, starts):
    """||K_next - K_prev||_1 at each breakpoint of a singular family: the sum,
    over the images the breakpoint's points reach in the order they are
    first reached, of the absolute kernel mass they add there."""
    re, im = _label_sums(pair_of_point, values)
    order = np.argsort(first)
    mass = [abs(z) for z in _complex_list(re[order], im[order])]
    bounds = starts.tolist() + [len(mass)]
    return (sum(mass[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


def kernel_block_variation_report(body: ConvexBody, gammas: MultiIndexSet,
                                  flavor: str, tau: float, n_max: int,
                                  cz: CZKernelSpec | None = None) -> BlockVariationReport:
    """Exact l^1 norms of the kernel 1-variation over the blocks
    t in [n^tau, (n+1)^tau], computed from the scales where the lattice set
    of the dilate actually changes.

    The kernel path t -> K_{2^t} is a step function; its 1-variation in l^1
    over a block is the sum of ||K_next - K_prev||_1 over the breakpoints
    inside the block, and each difference is computed incrementally from the
    lattice points entering at that breakpoint.
    """
    if not 0 < tau <= 1:
        raise PreconditionError("tau must lie in (0, 1]")
    if n_max < 0:
        raise PreconditionError("n_max must be >= 0")
    _check_flavor(flavor, cz)

    groups = gauge_groups(body, dyadic_radius((n_max + 1) ** tau))
    sizes = np.array([len(pts) for _, pts in groups], dtype=np.int64)
    # label 0 is the origin's image, where the kernel starts
    pts = [(0,) * body.k] + [y for _, group in groups for y in group]
    labels = _row_labels(monomial_images(pts, gammas.members))[0]
    # one (breakpoint, image) pair per image a breakpoint's points reach
    n_images = int(labels.max()) + 1
    group = np.repeat(np.arange(len(groups)), sizes)
    pair, first, pair_of_point, added = np.unique(
        group * n_images + labels[1:],
        return_index=True, return_inverse=True, return_counts=True)
    pair_group = pair // n_images
    starts = np.flatnonzero(np.diff(pair_group, prepend=-1))
    if flavor == "averaging":
        steps = _averaging_steps(labels, sizes, pair_group, starts, first, added)
    else:
        values = np.array([complex(cz.evaluate(y)) for y in pts[1:]], complex)
        steps = _singular_steps(values, pair_of_point, first, starts)

    totals = [Fraction(0) if flavor == "averaging" else 0.0] * (n_max + 1)
    for (gauge, _), step in zip(groups, steps):
        # block n owns the breakpoints with n^tau <= log2(gauge) < (n+1)^tau
        lg = math.log2(gauge) if gauge > 0 else 0.0
        block = int(math.floor(lg ** (1.0 / tau))) if lg > 0 else 0
        while lg >= (block + 1) ** tau:
            block += 1
        while block >= 1 and lg < block ** tau:
            block -= 1
        if block > n_max:
            break
        totals[block] += step

    rows = []
    for n in range(1, n_max + 1):
        v = float(totals[n])
        rows.append(BlockVariationRow(n, v, v / n ** (tau - 1.0)))
    fit = [(math.log(r.n), math.log(r.value)) for r in rows if r.value > 0]
    slope = float(np.polyfit(*zip(*fit), 1)[0]) if len(fit) >= 2 else float("nan")
    return BlockVariationReport(tau, flavor, tuple(rows), slope)
