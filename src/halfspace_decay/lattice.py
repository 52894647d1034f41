"""Lattices in R^(d-1), their duals, quasimomenta and integral quadratic forms.

Duality convention: the dual basis satisfies f_i . e_j = 2*pi*delta_ij, so
plane waves exp(i k.x) with k in the dual lattice are periodic under the
primal lattice.  Exact arithmetic (Python integers and fractions) is used
wherever a rational Gram matrix or a rational quasimomentum is involved;
floating point enters only through the geometric basis matrices.

Rationality is never detected from floats.  An exact Gram matrix is supplied
by the caller as fractions and validated against the float geometry.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateLatticeError,
    RationalityRequiredError,
    SchemaError,
)
from .runconfig import _POSITIVE_INT, _is_number, check_keys, parse_json

TWO_PI = 2.0 * math.pi

RationalMatrix = tuple[tuple[Fraction, ...], ...]


def parse_rational(entry) -> Fraction:
    """Parse a rational entry: 'p/q', 'p', an int, or a [p, q] pair."""
    if isinstance(entry, Fraction):
        return entry
    if isinstance(entry, int) and not isinstance(entry, bool):
        return Fraction(entry)
    if isinstance(entry, str):
        return Fraction(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2 and all(
        isinstance(v, int) and not isinstance(v, bool) for v in entry
    ):
        return Fraction(entry[0], entry[1])
    raise SchemaError(f"cannot parse rational entry {entry!r}")


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _as_rational_matrix(rows) -> RationalMatrix:
    try:
        mat = tuple(tuple(parse_rational(v) for v in row) for row in rows)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"exact Gram matrix is not a matrix of rationals: {exc}") from exc
    if any(abs(v) > sys.float_info.max for row in mat for v in row):
        raise SchemaError("exact Gram matrix entries must lie in the float range")
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise SchemaError("exact Gram matrix must be square")
    for i in range(n):
        for j in range(n):
            if mat[i][j] != mat[j][i]:
                raise SchemaError("exact Gram matrix must be symmetric")
    return mat


def _check_gram_matches(gram: RationalMatrix, basis: np.ndarray, what: str) -> None:
    """Exact Gram entries must match e_i.e_j of the float basis to 1e-12 relative."""
    num = basis.T @ basis
    if len(gram) != len(num):
        raise SchemaError(f"{what} is {len(gram)}x{len(gram)} for a basis of dimension {len(num)}")
    for i in range(len(gram)):
        for j in range(len(gram)):
            g = float(gram[i][j])
            scale = max(1.0, abs(g), abs(num[i, j]))
            if abs(g - num[i, j]) > 1e-12 * scale:
                raise SchemaError(
                    f"{what} entry ({i},{j})={g} disagrees with basis geometry "
                    f"{num[i, j]!r}"
                )


# The lattice document: basis rows are the generators, and _as_rational_matrix
# parses the entries of the exact Gram matrices.
_MATRIX = ("a matrix (a list of rows)", lambda v: isinstance(v, list) and all(isinstance(r, list) for r in v))
_BASIS = ("a non-empty square matrix of finite numbers", lambda v: _MATRIX[1](v) and len(v) > 0 and all(
    len(row) == len(v) and all(map(_is_number, row)) for row in v))
_LATTICE_KEYS = {
    "dim": (_POSITIVE_INT, False),
    "basis": (_BASIS, True),
    "gram_exact": (_MATRIX, False),
    "dual_gram_exact": (_MATRIX, False),
}


@dataclass(frozen=True, eq=False)
class Lattice:
    """A full-rank lattice given by basis column vectors.

    ``basis[:, i]`` is the i-th generator.  ``gram_exact`` optionally holds the
    exact rational Gram matrix of this basis; ``dual_gram_exact`` optionally
    holds the exact rational Gram matrix of the dual basis (the two are
    mutually exclusive under the 2*pi duality convention, except in trivial
    dimension-0 cases, since one is (2*pi)^2 times the inverse of the other).
    """

    basis: np.ndarray
    gram_exact: RationalMatrix | None = None
    dual_gram_exact: RationalMatrix | None = None
    _dual: DualLattice | None = field(default=None, init=False, repr=False)  # dual_basis fills it

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise SchemaError("lattice basis must be a square matrix")
        basis = basis.copy()
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        if abs(np.linalg.det(basis)) < 1e-300 or not np.all(np.isfinite(basis)):
            raise DegenerateLatticeError("lattice basis is singular")
        if self.gram_exact is not None:
            object.__setattr__(self, "gram_exact", _as_rational_matrix(self.gram_exact))
            _check_gram_matches(self.gram_exact, basis, "gram_exact")
        if self.dual_gram_exact is not None:
            object.__setattr__(
                self, "dual_gram_exact", _as_rational_matrix(self.dual_gram_exact)
            )
            dual = TWO_PI * np.linalg.inv(basis.T)
            _check_gram_matches(self.dual_gram_exact, dual, "dual_gram_exact")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @staticmethod
    def cubic(scale: float, dim: int) -> "Lattice":
        return Lattice(basis=scale * np.eye(dim))

    @staticmethod
    def from_dual_gram(dual_gram) -> "Lattice":
        """Build a lattice whose dual has the given exact rational Gram matrix.

        The dual basis is taken as the upper Cholesky factor of the Gram
        matrix, and the primal basis follows from the duality convention.
        """
        gram = _as_rational_matrix(dual_gram)
        g = np.array([[float(v) for v in row] for row in gram])
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise DegenerateLatticeError("dual Gram matrix is not positive definite") from exc
        # dual basis F = chol.T has F^T F = gram; primal B = 2*pi*(F^T)^{-1}
        basis = TWO_PI * np.linalg.inv(chol)
        return Lattice(basis=basis, dual_gram_exact=gram)

    @staticmethod
    def from_json(doc) -> "Lattice":
        check_keys("lattice", doc, _LATTICE_KEYS)
        basis = np.array(doc["basis"], dtype=float).T  # rows in JSON are generators
        lat = Lattice(basis, gram_exact=doc.get("gram_exact"), dual_gram_exact=doc.get("dual_gram_exact"))
        if doc.get("dim", lat.dim) != lat.dim:
            raise SchemaError("lattice 'dim' disagrees with basis shape")
        return lat

    def to_json(self) -> dict:
        doc = {"dim": self.dim, "basis": self.basis.T.tolist()}
        if self.gram_exact is not None:
            doc["gram_exact"] = [[format_rational(v) for v in row] for row in self.gram_exact]
        if self.dual_gram_exact is not None:
            doc["dual_gram_exact"] = [
                [format_rational(v) for v in row] for row in self.dual_gram_exact
            ]
        return doc

    @staticmethod
    def load(path) -> "Lattice":
        return Lattice.from_json(parse_json(Path(path).read_bytes(), f"lattice file {path}"))


@dataclass(frozen=True, eq=False)
class DualLattice:
    """Dual lattice with basis columns f_i satisfying f_i.e_j = 2*pi*delta_ij."""

    basis: np.ndarray
    parent: Lattice
    gram_exact: RationalMatrix | None = None

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float).copy()
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        prod = basis.T @ self.parent.basis
        if np.max(np.abs(prod - TWO_PI * np.eye(self.dim))) > 1e-12:
            raise DegenerateLatticeError("dual basis violates f_i.e_j = 2*pi*delta_ij")
        if self.gram_exact is not None:
            object.__setattr__(self, "gram_exact", _as_rational_matrix(self.gram_exact))
            _check_gram_matches(self.gram_exact, basis, "dual gram_exact")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def gram(self) -> np.ndarray:
        return self.basis.T @ self.basis


def dual_basis(lat: Lattice) -> DualLattice:
    """Dual basis 2*pi*(B^T)^{-1}; attaches the exact dual Gram when supplied.

    Computed once per lattice and kept on it (both are frozen); a singular
    basis is refused on every call.
    """
    if lat._dual is not None:
        return lat._dual
    try:
        inv_t = np.linalg.inv(lat.basis.T)
    except np.linalg.LinAlgError as exc:
        raise DegenerateLatticeError("cannot invert lattice basis") from exc
    cond = np.linalg.cond(lat.basis)
    if not np.isfinite(cond) or cond > 1e12:
        raise DegenerateLatticeError(f"lattice basis is numerically singular (cond={cond:.3g})")
    dual = DualLattice(basis=TWO_PI * inv_t, parent=lat, gram_exact=lat.dual_gram_exact)
    object.__setattr__(lat, "_dual", dual)
    return dual


def unit_cell_volume(lat) -> float:
    """|det basis| of a Lattice or DualLattice."""
    vol = abs(np.linalg.det(lat.basis))
    if vol <= 0.0 or not np.isfinite(vol):
        raise DegenerateLatticeError("unit cell volume is not positive")
    return float(vol)


@dataclass(frozen=True, eq=False)
class Quasimomentum:
    """Point of the dual unit cell in dual-basis coordinates mu in [0,1)^(d-1).

    ``exact`` optionally holds (l, (r_1,...,r_{d-1})) with mu_i = r_i / l.
    """

    coeffs: np.ndarray
    exact: tuple[int, tuple[int, ...]] | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float).reshape(-1).copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        if not np.all((coeffs >= 0.0) & (coeffs < 1.0)):  # NaN fails too
            raise SchemaError("quasimomentum coordinates must lie in [0,1)")
        if self.exact is not None:
            l, residues = self.exact
            residues = tuple(int(r) for r in residues)
            l = int(l)
            if l <= 0 or len(residues) != coeffs.size:
                raise SchemaError("exact quasimomentum must be (l, residues) matching dim")
            if any(r < 0 or r >= l for r in residues):
                raise SchemaError("residues must lie in {0,...,l-1}")
            for mu, r in zip(coeffs, residues):
                if mu != r / l:
                    raise SchemaError("float coordinates disagree with exact residues")
            object.__setattr__(self, "exact", (l, residues))

    @property
    def dim(self) -> int:
        return self.coeffs.size

    @staticmethod
    def zero(dim: int) -> "Quasimomentum":
        return Quasimomentum.from_rational(1, (0,) * dim)

    @staticmethod
    def from_rational(l: int, residues) -> "Quasimomentum":
        residues = tuple(int(r) for r in residues)
        coeffs = np.array([r / l for r in residues], dtype=float)
        return Quasimomentum(coeffs=coeffs, exact=(int(l), residues))

    @staticmethod
    def parse(text: str) -> "Quasimomentum":
        """Parse '1/2,0' (rational, exact) or '0.5,0.25' (float) coordinates."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        try:
            if not all(("/" in p) or p.lstrip("+-").isdigit() for p in parts):
                return Quasimomentum(coeffs=np.array([float(p) for p in parts]))
            fracs = [Fraction(p) for p in parts]
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"cannot parse quasimomentum {text!r}: {exc}") from exc
        l = math.lcm(*(f.denominator for f in fracs))
        residues = []
        for f in fracs:
            r = f.numerator * (l // f.denominator)
            residues.append(r % l)
            if Fraction(r % l, l) != f % 1:
                raise SchemaError(f"coordinate {f} not in [0,1)")
        return Quasimomentum.from_rational(l, residues)


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """Positive definite integral quadratic form q(m) = m^T G m with scale sigma."""

    G: np.ndarray
    sigma: Fraction = Fraction(1)

    def __post_init__(self):
        G = np.asarray(self.G)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise SchemaError("quadratic form matrix must be square")
        if not np.array_equal(G, np.round(G)):
            raise SchemaError("quadratic form matrix must be integral")
        G = G.astype(np.int64)
        if not np.array_equal(G, G.T):
            raise SchemaError("quadratic form matrix must be symmetric")
        G.flags.writeable = False
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "sigma", Fraction(self.sigma))
        if self.sigma <= 0:
            raise SchemaError("sigma must be positive")
        for k in range(1, self.dim + 1):
            if _int_det(self.G[:k, :k]) <= 0:
                raise SchemaError("quadratic form must be positive definite")

    @property
    def dim(self) -> int:
        return self.G.shape[0]

    def __call__(self, m) -> int:
        m = np.asarray(m, dtype=object).reshape(-1)
        total = 0
        for i in range(self.dim):
            for j in range(self.dim):
                total += int(self.G[i, j]) * int(m[i]) * int(m[j])
        return int(total)

    def is_diagonal(self) -> bool:
        return bool(np.all(self.G == np.diag(np.diag(self.G))))


def form_on_grid(G, axes, factor: int = 1):
    """sum_ij G_ij x_i x_j on the broadcast grid of the per-axis coordinates.

    Float coordinates are evaluated in float64.  Integer ones are evaluated in
    int64 unless |value| * factor could reach 2**62, bounded in Python ints
    from the per-axis extremes; then in Python ints (dtype=object).
    """
    dim = len(axes)
    if axes[0].dtype.kind == "i":
        G = [[int(G[i][j]) for j in range(dim)] for i in range(dim)]
        peak = [int(np.abs(ax).max(initial=0)) for ax in axes]
        worst = sum(abs(G[i][j]) * peak[i] * peak[j] for i in range(dim) for j in range(dim))
        if max(worst, 1) * factor >= 2**62:
            axes = [ax.astype(object) for ax in axes]
    return sum(
        (1 + (i != j)) * G[i][j] * axes[i] * axes[j]
        for i in range(dim) for j in range(i, dim) if G[i][j]
    )


def _int_det(G: np.ndarray) -> int:
    """Exact determinant of a small integer matrix (cofactor expansion)."""
    n = G.shape[0]
    if n == 1:
        return int(G[0, 0])
    total = 0
    for j in range(n):
        minor = np.delete(np.delete(G, 0, axis=0), j, axis=1)
        total += (-1) ** j * int(G[0, j]) * _int_det(minor)
    return total


def integer_gram(gram: RationalMatrix) -> tuple[int, list[list[int]]]:
    """(D, nums) with D the lcm of the entry denominators and nums = D * gram."""
    denom_lcm = math.lcm(*(v.denominator for row in gram for v in row))
    return denom_lcm, [[int(v * denom_lcm) for v in row] for row in gram]


def rational_structure(dual: DualLattice, theta: Quasimomentum):
    """Reduce |k + theta|^2 over the dual lattice to an integral quadratic form.

    Returns (sigma, q, l, r) such that for k = sum_i m_i f_i,

        |k + theta|^2 = (sigma / l^2) * q(l*m + r),

    where q is positive definite integral with content 1 and sigma is the
    largest positive scale making it so.  Requires the dual Gram matrix and
    theta to be exactly rational.
    """
    if dual.gram_exact is None:
        raise RationalityRequiredError("dual lattice carries no exact rational Gram matrix")
    if theta.exact is None:
        raise RationalityRequiredError("quasimomentum is not exactly rational")
    if theta.dim != dual.dim:
        raise SchemaError("quasimomentum dimension disagrees with lattice")
    denom_lcm, nums = integer_gram(dual.gram_exact)
    content = 0
    for row in nums:
        for v in row:
            content = math.gcd(content, abs(v))
    if content == 0:
        raise DegenerateLatticeError("dual Gram matrix is zero")
    sigma = Fraction(content, denom_lcm)
    G = np.array([[v // content for v in row] for row in nums], dtype=np.int64)
    q = QuadraticForm(G=G, sigma=sigma)
    l, residues = theta.exact
    return sigma, q, l, np.array(residues, dtype=np.int64)
