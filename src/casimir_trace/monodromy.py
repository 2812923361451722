"""Spectral data, monodromy, flat sections, and graded traces of the
truncated Casimir acting weight space by weight space.

The connection d + hbar kappa dz/z on the punctured disk has monodromy
exp(-2 pi i hbar kappa) around l loops; writing mu = 2 pi i hbar l and
q = exp(4 pi i hbar), an eigenvalue c of kappa contributes q^(-l c/2) and
each nilpotent part enters polynomially in mu.  Traces are mu-free and,
summed over weight spaces, give the q-series the closed forms predict.

Everything is exact: integer kappa matrices, certified integer spectra
(see kernel), Fraction similarity transforms.  The graded-trace driver
never builds eigenvectors; algebraic multiplicities suffice for traces,
so it scales to the large tensor products the equality checks need.

Graded traces take one of three routes.  The default, "character", needs
no matrix.  kappa = C - h^2/2 with C = ef + fe + h^2/2 the Casimir, and C
acts on every composition factor of a Verma module M_mu by the central
character mu(mu+2)/2 (L_mu and L_(-mu-2) share it).  Every module here has
a Verma flag in the Grothendieck group, with signed multiplicity
n_mu = dim W_mu - dim W_(mu+2), so on the weight-w space kappa has the
generalized eigenvalue c = (mu(mu+2) - w^2)/2 with multiplicity the sum of
n_mu over the mu >= w, mu = w (mod 2), that give this c.  That sum is the
dimension of a generalized eigenspace, so a negative one is an invariant
violation.  The character of a tensor branch is the product of its atom
characters.  "spectral" takes the same per-branch spectra from the kappa
matrices instead (the paper's method, kept as the oracle); "whole" walks
the undistributed expression weight by weight.

The cutoff is route-independent: with mu = w + 2j, the flag piece M_mu
contributes -c/2 = -j^2 - (w+1)j - w/2, which is exactly the parabola that
_exponent_floor minimizes over 0 <= j <= (top-w)/2.  So the same floor
bounds every exponent the character produces, and _branch_depth_jobs stops
each branch at the same depth on every route.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import kernel, linalg
from .closed_forms import AppellLerchParams
from .errors import DomainError, InvariantError, UnsupportedInputError
from .rep import (
    BranchKey,
    ModuleExpr,
    branch_expr,
    format_index,
    kappa_flat,
    tensor_branches,
    top_weight,
    weight_space,
)
from .series import BiSeries, MuPoly, QSeries, Rat, as_frac, exp_str, rat_str


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of kappa on one weight space.

    eigen: sorted (eigenvalue, algebraic multiplicity, max Jordan block).
    exact: True when both spectrum and block sizes are proven over Q;
    False when the triple-prime certificate was used (see kernel)."""

    weight: int
    dimension: int
    eigen: tuple[tuple[int, int, int], ...]
    exact: bool

    def to_obj(self) -> dict:
        return {
            "weight": self.weight,
            "dimension": self.dimension,
            "exact": self.exact,
            "eigen": [
                {"value": c, "multiplicity": m, "max_block": b} for c, m, b in self.eigen
            ],
        }


EXACT_BLOCKS_MAX = 80  # above this, block sizes come from the modular certificate


def _int_matpow_minus_c(flat: list[int], n: int, c: int, s: int) -> list[list[int]]:
    base = [[flat[i * n + j] - (c if i == j else 0) for j in range(n)] for i in range(n)]
    power = base
    for _ in range(s - 1):
        power = [
            [sum(power[i][k] * base[k][j] for k in range(n) if power[i][k]) for j in range(n)]
            for i in range(n)
        ]
    return power


def _block_size(flat: list[int], n: int, c: int, m: int, exact: bool) -> int:
    """Smallest s with nullity((A-cI)^s) = m, i.e. the largest Jordan block."""
    if m == 1:
        return 1
    if exact and n <= EXACT_BLOCKS_MAX:
        for s in range(1, m + 1):
            power = _int_matpow_minus_c(flat, n, c, s)
            if n - linalg.rank_int(power, n) == m:
                return s
        raise InvariantError(f"generalized eigenspace of {c} never reached multiplicity {m}")
    for s in range(1, m + 1):
        nulls = {kernel.nullity_mod(flat, n, c, s, p) for p in kernel.CERTIFYING_PRIMES}
        if len(nulls) != 1:
            raise InvariantError("certifying primes disagree on a nullity")
        if nulls.pop() == m:
            return s
    raise InvariantError(f"generalized eigenspace of {c} never reached multiplicity {m}")


def spectral(expr: ModuleExpr, w: int, want_blocks: bool = True) -> SpectralData:
    """Certified eigenvalue data of kappa on the weight-w space."""
    n, flat = kappa_flat(expr, w)
    eigs, exact = kernel.integer_spectrum(flat, n)
    triples = []
    for c, m in eigs:
        b = _block_size(flat, n, c, m, exact) if want_blocks else 0
        triples.append((c, m, b))
    return SpectralData(weight=w, dimension=n, eigen=tuple(triples), exact=exact)


# ---------------------------------------------------------------------------
# exact generalized eigenstructure (small spaces): shared by monodromy
# matrices and flat sections


@dataclass(frozen=True)
class _Components:
    """S-conjugated spectral decomposition of one kappa weight-space matrix.

    terms: (c, j, A_cj) with A_cj = S E_c N_c^j S^-1 in the canonical basis;
    A_c0 is the projection onto the generalized c-eigenspace and
    A_c(j+1) = N_glob,c A_cj."""

    dimension: int
    terms: tuple[tuple[int, int, tuple[tuple[Fraction, ...], ...]], ...]
    blocks: tuple[tuple[int, int, int], ...]  # (c, mult, max block)


def _freeze(mat: list[list[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(row) for row in mat)


def spectral_components(expr: ModuleExpr, w: int) -> tuple[list, _Components]:
    """Exact decomposition kappa = sum_c (c A_c0 + nilpotent chain).

    Proven over Q regardless of matrix size: the generalized eigenspaces
    are computed by exact nullspaces and must exhaust the space."""
    basis = weight_space(expr, w)
    n, flat = kappa_flat(expr, w, basis)
    eigs, _exact = kernel.integer_spectrum(flat, n)
    a_frac = linalg.mat_from_int(flat, n)
    columns: list[list[Fraction]] = []
    spans: list[tuple[int, int, int, int]] = []  # (c, start, size, chain length)
    for c, m in eigs:
        vecs: list[list[Fraction]] = []
        s = 0
        while len(vecs) < m:
            s += 1
            if s > m:
                raise UnsupportedInputError(
                    f"eigenvalue {c} has defect: nullspaces stop short of multiplicity {m}")
            power = _int_matpow_minus_c(flat, n, c, s)
            vecs = linalg.nullspace([[Fraction(x) for x in row] for row in power], n)
        spans.append((c, len(columns), m, s))
        columns.extend(vecs)
    if len(columns) != n:
        raise UnsupportedInputError("generalized eigenspaces do not span; spectrum not integral")
    s_mat = [[columns[j][i] for j in range(n)] for i in range(n)]
    s_inv = linalg.mat_inverse(s_mat)
    d_mat = linalg.mat_mul(s_inv, linalg.mat_mul(a_frac, s_mat))
    terms = []
    blocks = []
    for c, start, size, chain in spans:
        # the conjugated matrix must vanish outside the diagonal blocks
        for i in range(n):
            for j in range(start, start + size):
                if (i < start or i >= start + size) and d_mat[i][j]:
                    raise InvariantError("similarity transform did not block-diagonalize kappa")
        nil = [
            [d_mat[start + i][start + j] - (c if i == j else 0) for j in range(size)]
            for i in range(size)
        ]
        power = linalg.mat_identity(size)
        j = 0
        while True:
            # A_cj = S (0 .. power .. 0) S^-1, assembled without full products
            acj = [[Fraction(0)] * n for _ in range(n)]
            for col in range(n):
                # w = embed(power) @ (S^-1 e_col)
                for bi in range(size):
                    acc = Fraction(0)
                    for bj in range(size):
                        if power[bi][bj]:
                            acc += power[bi][bj] * s_inv[start + bj][col]
                    if acc:
                        for row in range(n):
                            if s_mat[row][start + bi]:
                                acj[row][col] += s_mat[row][start + bi] * acc
            if any(any(row) for row in acj):
                terms.append((c, j, _freeze(acj)))
            else:
                break
            power = linalg.mat_mul(nil, power)
            j += 1
            if j > size:
                raise InvariantError(f"nilpotent part of eigenvalue {c} fails to vanish")
        blocks.append((c, size, chain))
    comp = _Components(dimension=n, terms=tuple(terms), blocks=tuple(blocks))
    # completeness: projections must sum to the identity
    ident = linalg.mat_identity(n)
    total = [[Fraction(0)] * n for _ in range(n)]
    for c, j, mat in comp.terms:
        if j == 0:
            for i in range(n):
                for k in range(n):
                    total[i][k] += mat[i][k]
    if total != ident:
        raise InvariantError("spectral projections do not sum to the identity")
    return basis, comp


# ---------------------------------------------------------------------------
# monodromy matrices over Q[q^(±1/2)][mu]


class QMu:
    """Finite sum of q^e p(mu) with rational e and MuPoly p; exact."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Fraction, MuPoly] | None = None):
        canon: dict[Fraction, MuPoly] = {}
        for e, p in (terms or {}).items():
            if not p.is_zero():
                canon[as_frac(e)] = p
        self.terms = canon

    @classmethod
    def constant(cls, c: Rat) -> "QMu":
        return cls({Fraction(0): MuPoly.constant(c)})

    def __add__(self, other: "QMu") -> "QMu":
        out = dict(self.terms)
        for e, p in other.terms.items():
            out[e] = out.get(e, MuPoly()) + p
        return QMu(out)

    def __mul__(self, other: "QMu") -> "QMu":
        out: dict[Fraction, MuPoly] = {}
        for ea, pa in self.terms.items():
            for eb, pb in other.terms.items():
                e = ea + eb
                out[e] = out.get(e, MuPoly()) + pa * pb
        return QMu(out)

    def scale(self, c: Rat) -> "QMu":
        return QMu({e: p.scale(c) for e, p in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMu):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"QMu({self.terms!r})"

    def is_zero(self) -> bool:
        return not self.terms

    def mu_free(self) -> bool:
        return all(p.is_constant() for p in self.terms.values())

    def as_qseries(self, order: Rat) -> QSeries:
        if not self.mu_free():
            raise InvariantError("q-series projection of a mu-dependent quantity")
        return QSeries({e: p.constant_term() for e, p in self.terms.items() if e < as_frac(order)}, order)

    def to_obj(self) -> list:
        return [[exp_str(e), [rat_str(c) for c in p.coeffs]] for e, p in sorted(self.terms.items())]


@dataclass(frozen=True)
class MonodromyMatrix:
    """Monodromy of l loops on one weight space, in the canonical basis.

    Entries live in Q[q^(±1/2), mu]; q tracks the semisimple part through
    q^(-lc/2) and mu = 2 pi i hbar l carries the unipotent part."""

    weight: int
    loops: int
    labels: tuple[str, ...]
    entries: tuple[tuple[QMu, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def trace(self) -> QMu:
        n = self.dimension
        total = QMu()
        for i in range(n):
            total = total + self.entries[i][i]
        if not total.mu_free():
            raise InvariantError("monodromy trace acquired mu terms")
        return total

    def matmul(self, other: "MonodromyMatrix") -> "MonodromyMatrix":
        if self.dimension != other.dimension:
            raise DomainError("dimension mismatch")
        n = self.dimension
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = QMu()
                for k in range(n):
                    if not self.entries[i][k].is_zero() and not other.entries[k][j].is_zero():
                        acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return MonodromyMatrix(self.weight, self.loops + other.loops, self.labels, tuple(rows))

    def to_obj(self) -> dict:
        return {
            "weight": self.weight,
            "loops": self.loops,
            "basis": list(self.labels),
            "entries": [[e.to_obj() for e in row] for row in self.entries],
        }


def monodromy_matrix(expr: ModuleExpr, w: int, l: int = 1) -> MonodromyMatrix:
    """exp(-l mu kappa) with the semisimple part written as q-powers."""
    if l < 1:
        raise DomainError(f"loop count must be >= 1, got {l}")
    basis, comp = spectral_components(expr, w)
    return _monodromy_from_components(expr, basis, comp, w, l)


def _monodromy_from_components(expr, basis, comp: _Components, w: int, l: int) -> MonodromyMatrix:
    n = comp.dimension
    cells: list[list[dict[Fraction, list[Fraction]]]] = [
        [dict() for _ in range(n)] for _ in range(n)
    ]
    for c, j, mat in comp.terms:
        qe = Fraction(-l * c, 2)
        coef = Fraction((-l) ** j, math.factorial(j))
        for i in range(n):
            for k in range(n):
                v = mat[i][k]
                if v:
                    slot = cells[i][k].setdefault(qe, [])
                    while len(slot) <= j:
                        slot.append(Fraction(0))
                    slot[j] += coef * v
    entries = tuple(
        tuple(QMu({e: MuPoly(cs) for e, cs in cell.items()}) for cell in row) for row in cells
    )
    labels = tuple(format_index(expr, idx) for idx in basis)
    return MonodromyMatrix(weight=w, loops=l, labels=labels, entries=entries)


# ---------------------------------------------------------------------------
# flat sections


@dataclass(frozen=True)
class FlatSectionExpr:
    """Fundamental flat section z^(-hbar kappa) on one weight space.

    terms (c, j, A_cj) encode sum_c z^(-c hbar) sum_j (-hbar log z)^j / j! A_cj
    with A_cj = N_c^j P_c.  Methods verify the defining ODE and the
    monodromy consistency as exact symbolic identities."""

    weight: int
    labels: tuple[str, ...]
    terms: tuple[tuple[int, int, tuple[tuple[Fraction, ...], ...]], ...]
    kappa: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.kappa)

    def check_ode(self) -> bool:
        """kappa A_ct = c A_ct + A_c(t+1): the coefficient-wise content of
        z dPsi/dz + hbar kappa Psi = 0."""
        n = self.dimension
        table = {(c, j): mat for c, j, mat in self.terms}
        for (c, t), mat in table.items():
            nxt = table.get((c, t + 1))
            for i in range(n):
                for k in range(n):
                    lhs = sum(self.kappa[i][r] * mat[r][k] for r in range(n) if self.kappa[i][r])
                    rhs = c * mat[i][k] + (nxt[i][k] if nxt else 0)
                    if lhs != rhs:
                        return False
        # completeness of the projections
        total = [[Fraction(0)] * n for _ in range(n)]
        for (c, t), mat in table.items():
            if t == 0:
                for i in range(n):
                    for k in range(n):
                        total[i][k] += mat[i][k]
        return total == linalg.mat_identity(n)

    def check_monodromy(self, mono: MonodromyMatrix) -> bool:
        """log z -> log z + 2 pi i on the section equals left multiplication
        by the one-loop monodromy, term by term in (c, t)."""
        if mono.loops != 1:
            raise DomainError("consistency check is stated for the one-loop monodromy")
        n = self.dimension
        table = {(c, j): mat for c, j, mat in self.terms}
        keys = sorted(table)
        for (c, t) in keys:
            # left side: M . A_ct
            lhs = []
            for i in range(n):
                row = []
                for k in range(n):
                    acc = QMu()
                    for r in range(n):
                        v = table[(c, t)][r][k]
                        if v and not mono.entries[i][r].is_zero():
                            acc = acc + mono.entries[i][r].scale(v)
                    row.append(acc)
                lhs.append(row)
            # right side: q^(-c/2) sum_s (-mu)^s/s! A_c(t+s)
            qe = Fraction(-c, 2)
            for i in range(n):
                for k in range(n):
                    coeffs: list[Fraction] = []
                    s = 0
                    while (c, t + s) in table:
                        v = table[(c, t + s)][i][k]
                        while len(coeffs) <= s:
                            coeffs.append(Fraction(0))
                        coeffs[s] += Fraction((-1) ** s, math.factorial(s)) * v
                        s += 1
                    rhs = QMu({qe: MuPoly(coeffs)})
                    if lhs[i][k] != rhs:
                        return False
        return True

    def to_obj(self) -> dict:
        return {
            "weight": self.weight,
            "basis": list(self.labels),
            "terms": [
                {"c": c, "j": j, "matrix": [[rat_str(v) for v in row] for row in mat]}
                for c, j, mat in self.terms
            ],
        }


def flat_sections(expr: ModuleExpr, w: int) -> FlatSectionExpr:
    basis, comp = spectral_components(expr, w)
    n, flat = kappa_flat(expr, w, basis)
    rows = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
    labels = tuple(format_index(expr, idx) for idx in basis)
    fs = FlatSectionExpr(weight=w, labels=labels, terms=comp.terms, kappa=rows)
    if not fs.check_ode():
        raise InvariantError("flat section fails its defining ODE")
    return fs


# ---------------------------------------------------------------------------
# graded traces


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("CASIMIR_TRACE_THREADS", "1")))
    except ValueError:
        return 1


def _exponent_floor(top: int, w) -> Fraction:
    """Validated lower bound on -c/2 over the weight-w space, given top weight.

    Every eigenvalue there comes from a Verma flag piece with highest weight
    w + 2j <= top, which contributes -c/2 = -j^2 - (w+1)j - w/2.  That is a
    downward parabola in j, so its minimum over 0 <= j <= (top-w)/2 sits at
    an endpoint.  Dips below zero when top > 0 (Laurent terms), climbs
    without bound once w < 0."""
    big_j = Fraction(top - w, 2)
    at_zero = Fraction(-w, 2)
    at_end = -big_j * big_j - (w + 1) * big_j - Fraction(w, 2)
    return min(at_zero, at_end)


# The conjecture suite fills 315 keys and one oracle-battery round of
# perfbench 180; an entry is a few integer pairs.
@lru_cache(maxsize=4096)
def _branch_spectrum(key: BranchKey, w: int) -> tuple[tuple[tuple[int, int], ...], bool]:
    expr = branch_expr(key)
    basis = weight_space(expr, w)
    if not basis:
        return (), True
    n, flat = kappa_flat(expr, w, basis)
    eigs, exact = kernel.integer_spectrum(flat, n)
    return tuple(eigs), exact


def _branch_depth_jobs(key: BranchKey, l: int, order: Fraction) -> list[int]:
    top = sum(t[1] for t in key)
    jobs = []
    d = 0
    # the floor is increasing once the weight goes negative; before that it
    # can dip, so never cut inside the dip region
    while top - 2 * d >= 0 or l * _exponent_floor(top, top - 2 * d) < order:
        jobs.append(d)
        d += 1
    return jobs


def _validate_exponent(exp_unit: Fraction, floor: Fraction, w, key) -> None:
    # exp_unit is the l=1 exponent -c/2; the floor scales linearly with l
    if exp_unit < floor:
        raise InvariantError(
            f"cutoff bound violated: branch {key} weight {w} produced exponent "
            f"slope {exp_unit} < {floor}")


def _character_spectra(key: BranchKey, depths: list[int]) -> list[list[tuple[int, int]]]:
    """(eigenvalue, multiplicity) pairs of kappa at each depth, read off the
    branch character (see the module docstring)."""
    top = sum(t[1] for t in key)
    deepest = depths[-1] if depths else 0
    # convolve the atom characters 1 + t + t^2 + ... (M) and 1 + ... + t^n (L_n)
    dims = [1] + [0] * deepest
    for kind, k in key:
        width = deepest if kind == "M" else k
        dims = [sum(dims[max(0, d - width) : d + 1]) for d in range(deepest + 1)]
    flag = [dims[j] - (dims[j - 1] if j else 0) for j in range(deepest + 1)]
    spectra = []
    for d in depths:
        w = top - 2 * d
        by_c: dict[int, int] = {}
        for j in range(d + 1):
            if flag[j]:
                mu = top - 2 * j
                c = (mu * (mu + 2) - w * w) // 2
                by_c[c] = by_c.get(c, 0) + flag[j]
        if any(m < 0 for m in by_c.values()):
            raise InvariantError(
                f"branch {key} weight {w}: negative generalized multiplicity {sorted(by_c.items())}")
        spectra.append(sorted((c, m) for c, m in by_c.items() if m))
    return spectra


def _check_route(route: str, allowed: tuple[str, ...]) -> None:
    if route not in allowed:
        raise DomainError(f"unknown route {route!r}; expected one of {', '.join(allowed)}")


def _branch_spectra(expr: ModuleExpr, l: int, order: Fraction, route: str):
    """Yield (branch, multiplicity, weight, exponent floor, spectrum) for every
    branch weight space above the cutoff, the spectrum taken by ``route``."""
    branches = sorted(tensor_branches(expr).items())
    if route == "spectral" and _threads() > 1 and kernel.backend_name() == "compiled":
        jobs = [(key, sum(t[1] for t in key) - 2 * d)
                for key, _ in branches for d in _branch_depth_jobs(key, l, order)]
        with ThreadPoolExecutor(max_workers=_threads()) as pool:
            list(pool.map(lambda j: _branch_spectrum(*j), jobs))
    for key, mult in branches:
        top = sum(t[1] for t in key)
        depths = _branch_depth_jobs(key, l, order)
        spectra = _character_spectra(key, depths) if route == "character" else None
        for i, d in enumerate(depths):
            w = top - 2 * d
            eigs = spectra[i] if spectra is not None else _branch_spectrum(key, w)[0]
            yield key, mult, w, _exponent_floor(top, w), eigs


def trace_series(expr: ModuleExpr, l: int, order: Rat, route: str = "character") -> QSeries:
    """Graded monodromy trace: sum over weight spaces of sum_c m_c q^(-lc/2).

    Distributes over direct sums and tensor-of-sum structure (an exact
    isomorphism, independent of any conjecture), groups repeated branches,
    and walks each branch down in depth until the validated cutoff bound
    proves all remaining exponents lie at or beyond ``order``.  ``route``
    picks where the spectra come from: "character" (default), "spectral"
    (kappa matrices per branch) or "whole" (kappa matrices of the
    undistributed expression)."""
    if l < 1:
        raise DomainError(f"loop count must be >= 1, got {l}")
    _check_route(route, ("character", "spectral", "whole"))
    order = as_frac(order)
    out: dict[Fraction, Fraction] = {}

    def accumulate(eigs, mult: int, w, floor: Fraction, key) -> None:
        for c, m in eigs:
            exp_unit = Fraction(-c, 2)
            _validate_exponent(exp_unit, floor, w, key)
            e = l * exp_unit
            if e < order:
                out[e] = out.get(e, Fraction(0)) + mult * m

    if route != "whole":
        for key, mult, w, floor, eigs in _branch_spectra(expr, l, order, route):
            accumulate(eigs, mult, w, floor, key)
    else:
        branches = tensor_branches(expr)
        top = top_weight(expr)
        # branch tops of mixed parity populate both weight parities
        parities = {sum(t[1] for t in key) % 2 for key in branches}
        step = 1 if len(parities) > 1 else 2
        w = top
        while w >= 0 or l * _exponent_floor(top, w) < order:
            basis = weight_space(expr, w)
            if basis:
                n, flat = kappa_flat(expr, w, basis)
                eigs, _ = kernel.integer_spectrum(flat, n)
                accumulate(eigs, 1, w, _exponent_floor(top, w), "whole expression")
            w -= step
    return QSeries(out, order)


def trace_deformed(expr: ModuleExpr, l: int, order: Rat, route: str = "character") -> BiSeries:
    """Weight-graded refinement: weight w contributes x^(-l w/2).

    Only defined when every populated weight is even and non-positive;
    otherwise the x-grading leaves the allowed lattice and the input is
    rejected.  ``route`` is "character" (default) or "spectral", as in
    trace_series."""
    if l < 1:
        raise DomainError(f"loop count must be >= 1, got {l}")
    _check_route(route, ("character", "spectral"))
    order = as_frac(order)
    out: dict[tuple[Fraction, int], Fraction] = {}
    for key, mult, w, floor, eigs in _branch_spectra(expr, l, order, route):
        if w % 2 or w > 0:
            raise UnsupportedInputError(
                f"x-grading needs even non-positive weights; found weight {w}")
        xe = -l * w // 2
        for c, m in eigs:
            exp_unit = Fraction(-c, 2)
            _validate_exponent(exp_unit, floor, w, key)
            e = l * exp_unit
            if e < order:
                ky = (e, xe)
                out[ky] = out.get(ky, Fraction(0)) + mult * m
    return BiSeries(out, order)


def trace_via_decomposition(alphas, betas, p: int, l: int, order: Rat) -> QSeries:
    """Second route to the tensor-product trace: Verma constituents.

    sum_{n>=0} sum_k a_{k,p} q^(l(n^2 + (2n+1)k)) with a_{k,p} the
    multiplicity coefficients; independent of the spectral route."""
    from .closed_forms import verma_multiplicities

    AppellLerchParams(tuple(alphas), tuple(betas), p, l)  # validate
    order = as_frac(order)
    if order <= 0:
        return QSeries.zero(order)
    kmax = 0
    while l * (2 * 0 + 1) * (kmax + 1) < order:  # n = 0 reaches the deepest k
        kmax += 1
    mults = verma_multiplicities(alphas, betas, p, kmax)
    out: dict[Fraction, Fraction] = {}
    n = 0
    while l * n * n < order:
        k = 0
        while True:
            e = Fraction(l * (n * n + (2 * n + 1) * k))
            if e >= order:
                break
            if k <= kmax and mults[k]:
                out[e] = out.get(e, Fraction(0)) + mults[k]
            k += 1
        n += 1
    return QSeries(out, order)


# ---------------------------------------------------------------------------
# 2x2 Jordan forms (closed form; used for the rank-two blocks)


def _frac_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def jordan_2x2(mat) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[tuple[Fraction, ...], ...]]:
    """Jordan form of a 2x2 rational matrix: (J, S) with A = S J S^-1.

    Distinct rational eigenvalues sort ascending; a defective eigenvalue c
    yields J = [[c, 2], [0, c]] with S = [(A-c)v/2 | v], matching the
    normalized chain bases of the rank-two weight spaces."""
    a = [[as_frac(x) for x in row] for row in mat]
    if len(a) != 2 or any(len(r) != 2 for r in a):
        raise DomainError("jordan_2x2 expects a 2x2 matrix")
    tr = a[0][0] + a[1][1]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    disc = tr * tr - 4 * det
    root = _frac_sqrt(disc)
    if root is None:
        raise UnsupportedInputError("eigenvalues are irrational or complex")
    if root:
        c1, c2 = (tr - root) / 2, (tr + root) / 2
        v1 = _eigvec_2x2(a, c1)
        v2 = _eigvec_2x2(a, c2)
        s = ((v1[0], v2[0]), (v1[1], v2[1]))
        j = ((c1, Fraction(0)), (Fraction(0), c2))
    else:
        c = tr / 2
        shifted = [[a[0][0] - c, a[0][1]], [a[1][0], a[1][1] - c]]
        if not any(shifted[0]) and not any(shifted[1]):
            j = ((c, Fraction(0)), (Fraction(0), c))
            s = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        else:
            v2 = (Fraction(0), Fraction(1))
            w = (shifted[0][1], shifted[1][1])
            if not any(w):
                v2 = (Fraction(1), Fraction(0))
                w = (shifted[0][0], shifted[1][0])
            v1 = (w[0] / 2, w[1] / 2)
            s = ((v1[0], v2[0]), (v1[1], v2[1]))
            j = ((c, Fraction(2)), (Fraction(0), c))
    _assert_similarity(a, j, s)
    return j, s


def _eigvec_2x2(a, c) -> tuple[Fraction, Fraction]:
    rows = [[a[0][0] - c, a[0][1]], [a[1][0], a[1][1] - c]]
    basis = linalg.nullspace(rows, 2)
    if not basis:
        raise InvariantError("eigenvector missing for a certified eigenvalue")
    v = basis[0]
    return (v[0], v[1])


def _assert_similarity(a, j, s) -> None:
    det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
    if not det:
        raise InvariantError("similarity matrix is singular")
    left = linalg.mat_mul([list(r) for r in a], [list(r) for r in s])
    right = linalg.mat_mul([list(r) for r in s], [list(r) for r in j])
    if left != right:
        raise InvariantError("A S != S J after Jordan reduction")
