"""Spectral data, monodromy, flat sections, and graded traces of the
truncated Casimir acting weight space by weight space.

The connection d + hbar kappa dz/z on the punctured disk has monodromy
exp(-2 pi i hbar kappa) around l loops; writing mu = 2 pi i hbar l and
q = exp(4 pi i hbar), an eigenvalue c of kappa contributes q^(-l c/2) and
each nilpotent part enters polynomially in mu.  Traces are mu-free and,
summed over weight spaces, give the q-series the closed forms predict.

Everything is exact: integer kappa matrices, integer spectra predicted by
the character and proven against them by a walk down the Verma flag (see
_branch_spectrum), Jordan block sizes carried along the same walk, exact
integer nullspaces.
The graded-trace driver never builds eigenvectors; algebraic
multiplicities suffice for traces, so it scales to the large tensor
products the equality checks need.

On a small weight space the flat section z^(-hbar kappa) is kappa's exact
Jordan decomposition, and the monodromy matrices expand it: both come from
spectral_components, which builds the section over the integers (fraction-
free nullspaces of (kappa - c)^s and S^-1 as B / d, one division per entry
at the end), checks its ODE once on integer matrices over one common
denominator, keeps it in a bounded LRU (a handful of entries: callers ask
for the same space back to back), and refuses spaces above
COMPONENTS_DIM_MAX before building a matrix.

Graded traces read kappa's spectra off the character; they build no
matrix.  kappa = C - h^2/2 with C = ef + fe + h^2/2 the Casimir, and C acts
on every composition factor of a Verma module M_mu by the central
character mu(mu+2)/2 (L_mu and L_(-mu-2) share it).  Every module here has
a Verma flag in the Grothendieck group, with signed multiplicity
n_mu = dim W_mu - dim W_(mu+2), so on the weight-w space kappa has the
generalized eigenvalue c = (mu(mu+2) - w^2)/2 with multiplicity the sum of
n_mu over the mu >= w, mu = w (mod 2), that give this c.  That sum is the
dimension of a generalized eigenspace, so a negative one is an invariant
violation.  The character of a tensor branch is the product of its atom
characters.  prove_spectra proves those per-branch spectra against the
kappa matrices, the paper's method: it visits the same branch weight spaces
that trace_series reads, and the oracle battery runs it before every trace
it checks.

The proof walks each branch down from its top weight.  kappa = ef + fe =
2fe + h, so on the weight-v space kappa_v = 2 F_v E_v + v, with
F_v: W_(v+2) -> W_v the matrix of f and E_v: W_v -> W_(v+2) that of e.  If
[e, f] = h holds on W_(v+2) and F_v is injective, then U = F_v W_(v+2) is
kappa_v-invariant, kappa_v acts on U like kappa_(v+2) + 2v + 2 and on
W_v / U as the scalar v, so

    spec kappa_v = (spec kappa_(v+2) + 2v + 2) + {v}^(dim W_v - dim W_(v+2)).

Each level costs O(nnz) and no prime.  A branch with a Verma leg has a
Verma flag (Humphreys, BGG Category O, 1.3 and 3.6): branch_expr puts that
leg first, so f sends (k, r) to (k+1, r) with coefficient 1 plus terms of
first index k, and unit leading entries show F_v injective.  On a branch
of finite irreducibles alone, E_v F_v = (kappa_(v+2) + v + 2) / 2, so F_v
is injective when -(v+2) is not an eigenvalue already derived, which holds
at every positive weight; below weight 0 the walk runs up from the bottom
instead, mirrored (kappa = 2ef - h, e steps).  Where that test passes,
the new eigenvalue never meets a carried one, so kappa stays
diagonalizable and its Jordan blocks have size 1.  _ahead proves
[e, f] = h on every level the walk passes or a caller asks for; on W_v,
kappa_v - (2 F_v E_v + v) = [e, f] - h, so that is kappa = 2 F E + v (or
2 E F - v) entry by entry, with kappa read off the same action of e and f.

The walk carries kappa's largest Jordan block b(c) for every eigenvalue c
as well.  F_v maps kappa_(v+2) + 2v + 2 on W_(v+2) onto kappa_v on U, and
kappa_v - v maps W_v into U.  So for c != v the generalized c-eigenspace
of W_v lies in U: it is F_v applied to the generalized (c - 2v - 2)-
eigenspace of W_(v+2), and c inherits that eigenvalue's block.  For c = v,
let G be the generalized v-eigenspace of W_v and G' the generalized
(-v - 2)-eigenspace of W_(v+2), with largest block b'.  kappa_v - v maps G
into its intersection with U, which is F_v G'.  With no such G' every block
of v has size 1; with no
new flag piece at v, G = F_v G' and b(v) = b'; otherwise, at a collision,
b' <= b(v) <= b' + 1, and b(v) = b' iff (kappa_v - v)^b' has nullity
dim G.  So one exact rank per collision decides a block (_collision_block,
on kappa_v - v = 2 F_v E_v, which [e, f] = h on W_v proves), and
every other block costs nothing.  The walk up from the bottom mirrors the
rule.  On a branch of finite irreducibles the injectivity test rules out
collisions, so its blocks all have size 1.

The cutoff: with mu = w + 2j, the flag piece M_mu contributes
-c/2 = -j^2 - (w+1)j - w/2, which is exactly the parabola that
_exponent_floor minimizes over 0 <= j <= (top-w)/2.  So the floor bounds
every exponent the character produces, and _branch_depth_jobs stops each
branch at the depth past which no exponent lies below the order.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from . import linalg
from .closed_forms import AppellLerchParams
from .errors import DomainError, InvariantError, UnsupportedInputError
from .rep import (
    BranchKey,
    ModuleExpr,
    action_columns,
    branch_dimensions,
    branch_expr,
    kappa_matrix,
    tensor_branches,
    weight_space,
)
from .series import BiSeries, MuPoly, QSeries, Rat, as_frac, exp_str, rat_str


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of kappa on one weight space.

    eigen: sorted (eigenvalue, algebraic multiplicity, max Jordan block),
    every entry proven over Q at any dimension: spectra and blocks both come
    from the walk down the flag (module docstring).  The JSON keeps
    ``"exact": true`` for compatibility: block sizes above dimension 80 used
    to come from a certificate modulo primes."""

    weight: int
    dimension: int
    eigen: tuple[tuple[int, int, int], ...]

    def to_obj(self) -> dict:
        return {
            "weight": self.weight,
            "dimension": self.dimension,
            "exact": True,
            "eigen": [
                {"value": c, "multiplicity": m, "max_block": b} for c, m, b in self.eigen
            ],
        }


def _int_powers_minus_c(kappa: tuple[tuple[int, ...], ...],
                        c: int) -> Iterator[list[list[int]]]:
    """(kappa - c)^s for s = 1, 2, ... from kappa's rows: each power is the
    one before times (kappa - c), computed only when the next one is asked for."""
    n = len(kappa)
    base = [[x - c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(kappa)]
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in base]
    power = base
    while True:
        yield power
        nxt = []
        for row in power:
            acc = [0] * n
            for k, a in enumerate(row):
                if a:
                    for j, b in sparse[k]:
                        acc[j] += a * b
            nxt.append(acc)
        power = nxt


def spectral(expr: ModuleExpr, w: int) -> SpectralData:
    """Exact eigenvalue data of kappa on the weight-w space.

    Computed branch by branch: tensor products distribute over direct sums
    as modules, so the weight space is the direct sum of the weight spaces
    of the distinct tensor branches, each repeated by its multiplicity, and
    kappa preserves every summand.  Dimensions and multiplicities add, and
    the largest Jordan block is the largest over the branches.  Each
    branch's spectrum and blocks come from its walk (_branch_spectrum)."""
    dimension = 0
    mults: dict[int, int] = {}
    blocks: dict[int, int] = {}
    for key, k in tensor_branches(expr).items():
        for c, m, b in _branch_spectrum(key, w):
            dimension += k * m
            mults[c] = mults.get(c, 0) + k * m
            blocks[c] = max(blocks.get(c, 0), b)
    if not dimension:
        raise DomainError(f"weight space at w={w} is zero")
    triples = tuple((c, m, blocks[c]) for c, m in sorted(mults.items()))
    return SpectralData(weight=w, dimension=dimension, eigen=triples)


# ---------------------------------------------------------------------------
# exact generalized eigenstructure (small spaces): the flat section, read by
# monodromy matrices too


def _outer_sum(cols: list[list[int]], rows: list[list[int]], d: int, n: int):
    """sum_b cols[b] (x) rows[b] / d as a frozen n x n matrix: the sums run
    on integers, and each entry is divided by d once."""
    fracs = {0: Fraction(0)}  # entries repeat: one Fraction per distinct value
    out = []
    for i in range(n):
        acc = [0] * n
        for col, r in zip(cols, rows):
            x = col[i]
            if x:
                acc = [a + x * y for a, y in zip(acc, r)]
        out.append(tuple([fracs[a] if a in fracs else fracs.setdefault(a, Fraction(a, d))
                          for a in acc]))
    return tuple(out)


def _scaled(mat: tuple[tuple[Fraction, ...], ...], f: Fraction) -> list[list[Fraction]]:
    """f times each entry of mat: entries repeat, so one product per distinct
    value."""
    products: dict[Fraction, Fraction] = {}
    out = []
    for row in mat:
        scaled_row = []
        for v in row:
            x = products.get(v)
            scaled_row.append(products.setdefault(v, f * v) if x is None else x)
        out.append(scaled_row)
    return out


# Largest weight space spectral_components decomposes.  On P x P, on a
# 2-vCPU VM with CPython 3.11.7 (in-process CPU, median of 3 processes), a
# cold flat_sections takes 0.45 s at n = 72 (18 eigenvalues) and 1.2 s at
# n = 96, and monodromy_matrix 0.15 s and 0.4 s more.  check_monodromy,
# which verify and the tests run on the section, takes 0.06 s at n = 48,
# 0.15 s at n = 64, 0.22 s at n = 72 and 0.6 s at n = 96 (section cached,
# check_ode included).  Time no longer sets the bound: memory does.  One
# cached entry holds 3.7 MB at n = 72 and 8.9 MB at n = 96 (13 MB at its
# peak while it is built; tracemalloc).
COMPONENTS_DIM_MAX = 72


# monodromy_matrix at several loop counts and flat_sections ask for the same
# (expr, w) back to back, so a few entries catch every repeat.  One entry
# holds 0.04 MB at n = 12, 2.2 MB at n = 60 and 3.7 MB at n = 72 (P x P).
@lru_cache(maxsize=4)
def spectral_components(expr: ModuleExpr, w: int) -> FlatSectionExpr:
    """The flat section on the weight-w space: kappa = sum_c (c A_c0 + A_c1),
    proven over Q at any size by exact nullspaces and the section's ODE.

    For each pair (c, m) the character predicts, some s <= m must give m
    independent vectors in null((kappa - c)^s): a primitive integer basis,
    by fraction-free elimination.  S has those vectors as columns and
    S B = d I (linalg.inverse_int).  With s_b, b_b the c-block's columns of
    S and rows of B, A_cj = sum_b ((kappa - c)^j s_b) (x) b_b / d: the
    chain columns stay integer, the sum runs on integers, and each entry is
    divided by d once.  The columns must vanish exactly at the nullspace
    index.  A_c0 is the projection onto the generalized c-eigenspace along
    the others and A_cj = (kappa - c)^j A_c0, so the terms do not depend on
    the basis chosen.  check_ode proves sum_c A_c0 = I; generalized
    eigenspaces of distinct c are independent, so each has dimension
    exactly m and kappa has no other eigenvalue.

    Spaces above COMPONENTS_DIM_MAX, by the character's dimension, are
    refused before any matrix is built.  Results are cached (bounded) and
    immutable."""
    eigs = _predicted_spectrum(tensor_branches(expr), w)
    predicted = sum(m for _c, m in eigs)
    if predicted > COMPONENTS_DIM_MAX:
        raise UnsupportedInputError(
            f"weight space at w={w} has dimension {predicted}; exact monodromy and "
            f"flat sections are limited to dimension {COMPONENTS_DIM_MAX}")
    wm = kappa_matrix(expr, w)
    n = wm.dimension
    columns: list[list[int]] = []
    spans: list[tuple[int, int, int, int]] = []  # (c, start, size, chain length)
    for c, m in eigs:
        for s, power in zip(range(1, m + 1), _int_powers_minus_c(wm.entries, c)):
            vecs = linalg.nullspace_int(power, n)
            if len(vecs) >= m:
                break
        else:
            raise InvariantError(
                f"eigenvalue {c} has defect: nullspaces stop short of multiplicity {m}")
        spans.append((c, len(columns), m, s))
        columns.extend(vecs)
    if len(columns) != n:
        raise InvariantError(
            "generalized eigenspaces do not span; the predicted spectrum is wrong")
    # S B = d I: the rows of S^-1 are those of B over d
    d, s_inv = linalg.inverse_int([[columns[j][i] for j in range(n)] for i in range(n)])
    sparse = [[(k, x) for k, x in enumerate(row) if x] for row in wm.entries]
    terms = []
    for c, start, size, chain in spans:
        cols, rows = columns[start : start + size], s_inv[start : start + size]
        for j in range(chain):
            terms.append((c, j, _outer_sum(cols, rows, d, n)))
            last = cols
            cols = [[sum(x * v[k] for k, x in sparse[i]) - c * v[i] for i in range(n)]
                    for v in cols]
        if any(map(any, cols)) or not any(map(any, last)):
            raise InvariantError(
                f"(kappa - {c})^j does not vanish exactly at the nullspace index {chain}")
    fs = FlatSectionExpr(weight=w, labels=wm.labels, terms=tuple(terms), kappa=wm.entries)
    if not fs.check_ode():
        raise InvariantError("flat section fails its defining ODE")
    return fs


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
    def _canonical(cls, terms: dict[Fraction, MuPoly]) -> "QMu":
        """From terms already canonical: Fraction keys and no zero
        polynomial.  Nothing is checked; other callers use QMu(...)."""
        q = object.__new__(cls)
        q.terms = terms
        return q

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
    """exp(-l mu kappa) with the semisimple part written as q-powers: the
    flat section's sum_c q^(-lc/2) sum_j (-l mu)^j / j! A_cj."""
    if l < 1:
        raise DomainError(f"loop count must be >= 1, got {l}")
    fs = spectral_components(expr, w)
    n = fs.dimension
    chains: dict[int, dict[int, tuple]] = {}
    for c, j, mat in fs.terms:
        chains.setdefault(c, {})[j] = mat
    cells: list[list[dict[Fraction, MuPoly] | None]] = [[None] * n for _ in range(n)]
    for c, chain in chains.items():
        # the exponent of q^(-lc/2), made and hashed once: dict.fromkeys and
        # dict.update copy its stored hash into each cell
        q_key = {Fraction(-l * c, 2): None}
        # the mu^j coefficients: (-l)^j / j! A_cj, and A_c0 as it is
        mats = [chain[0]] + [_scaled(chain[j], Fraction((-l) ** j, math.factorial(j)))
                             for j in range(1, len(chain))]
        for i, cell_row in enumerate(cells):
            for k, coeffs in enumerate(zip(*[mat[i] for mat in mats])):
                top = len(coeffs)
                while top and not coeffs[top - 1]:
                    top -= 1
                if top:
                    term = dict.fromkeys(q_key, MuPoly._canonical(coeffs[:top]))
                    if cell_row[k] is None:
                        cell_row[k] = term
                    else:
                        cell_row[k].update(term)
    entries = tuple(tuple(QMu._canonical(cell or {}) for cell in row) for row in cells)
    return MonodromyMatrix(weight=w, loops=l, labels=fs.labels, entries=entries)


# ---------------------------------------------------------------------------
# flat sections


@dataclass(frozen=True)
class FlatSectionExpr:
    """Fundamental flat section z^(-hbar kappa) on one weight space: kappa's
    Jordan decomposition.

    terms (c, j, A_cj) encode sum_c z^(-c hbar) sum_j (-hbar log z)^j / j! A_cj
    with A_c0 the projection onto the generalized c-eigenspace and
    A_cj = (kappa - c)^j A_c0.  check_ode proves the defining ODE on
    integer matrices, and check_monodromy then compares a monodromy matrix
    with the terms entry by entry."""

    weight: int
    labels: tuple[str, ...]
    terms: tuple[tuple[int, int, tuple[tuple[Fraction, ...], ...]], ...]
    kappa: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.kappa)

    def _well_formed(self) -> bool:
        """Each (c, j) stored once, each chain whole (j = 0, 1, ... with no
        gap) and every term n x n; the checks read a malformed section as
        failing, not as an error."""
        n = self.dimension
        chains = Counter(c for c, _j, _mat in self.terms)
        return ({(c, j) for c, j, _mat in self.terms}
                == {(c, j) for c, k in chains.items() for j in range(k)}
                and all(len(mat) == n and all(len(row) == n for row in mat)
                        for _c, _j, mat in self.terms))

    def check_ode(self) -> bool:
        """kappa A_ct = c A_ct + A_c(t+1): the coefficient-wise content of
        z dPsi/dz + hbar kappa Psi = 0, with sum_c A_c0 = I.

        Both are proven exactly on the integer matrices d A_ct, d the least
        common denominator of every stored entry, with kappa's sparse rows:
        O(nnz(kappa) n) integer steps per term."""
        if not self._well_formed():
            return False
        n = self.dimension
        dens = {x.denominator for _c, _j, mat in self.terms for row in mat for x in row}
        d = math.lcm(*dens)
        scale = {q: d // q for q in dens}
        chains: dict[int, dict[int, tuple]] = {}
        for c, j, mat in self.terms:
            chains.setdefault(c, {})[j] = mat
        sparse = [[(r, x) for r, x in enumerate(row) if x] for row in self.kappa]
        zero = [0] * n
        total = [zero] * n
        for c, chain in chains.items():
            # one eigenvalue's terms scaled at a time
            scaled = {j: [[x.numerator * scale[x.denominator] for x in row] for row in mat]
                      for j, mat in chain.items()}
            for t, mat in scaled.items():
                nxt = scaled.get(t + 1)
                for i, krow in enumerate(sparse):
                    lhs = zero
                    for r, x in krow:
                        lhs = [a + x * y for a, y in zip(lhs, mat[r])]
                    if lhs != [c * a + b for a, b in zip(mat[i], nxt[i] if nxt else zero)]:
                        return False
            if 0 in scaled:
                total = [[a + b for a, b in zip(x, y)] for x, y in zip(total, scaled[0])]
        # completeness of the projections: sum_c d A_c0 = d I
        return all(row == [d * (i == k) for k in range(n)] for i, row in enumerate(total))

    def check_monodromy(self, mono: MonodromyMatrix) -> bool:
        """log z -> log z + 2 pi i on the section equals left multiplication
        by the one-loop monodromy: with M_(e,s) the matrix of the q^e mu^s
        coefficients of mono's entries, M_(e,s) A_ct = (-1)^s/s! A_c(t+s)
        if e = -c/2, else 0, for every (c, t) and every (e, s).

        Given check_ode, with each chain stored whole (j = 0, 1, ... with no
        gap), these identities hold iff M_(-c/2,s) = (-1)^s/s! A_cs for every
        stored (c, s) and M_(e,s) = 0 for every other (e, s), so mono is
        compared with the terms entry by entry, with no matrix product.  The
        lemma: for a chain of length k, (kappa - c)^k A_c0 = 0, so A_c0 maps
        into the generalized c-eigenspace G_c; with sum_c A_c0 = I and the G_c
        independent, A_c0 is the projection onto G_c along the others and
        A_ct = (kappa - c)^t A_c0.  So A_cs A_ct = A_c(s+t) and A_c's A_ct = 0
        for c' != c, which gives "if"; for "only if", sum the identities over
        c at t = 0 and use sum_c A_c0 = I.  Every entry of mono is read: a
        nonzero coefficient with no matching term fails."""
        if mono.loops != 1:
            raise DomainError("consistency check is stated for the one-loop monodromy")
        n = self.dimension
        if (len(mono.entries) != n or any(len(row) != n for row in mono.entries)
                or not self.check_ode()):
            return False
        keyed = [(c, j, _scaled(mat, Fraction((-1) ** j, math.factorial(j))) if j else mat)
                 for c, j, mat in self.terms]
        eigenvalue: dict[Fraction, Rat] = {}  # q^e belongs to c = -2e, an int if any
        for i, row in enumerate(mono.entries):
            rows = [(c, j, mat[i]) for c, j, mat in keyed]
            for k, entry in enumerate(row):
                want = {(c, j): r[k] for c, j, r in rows if r[k]}
                got = {}
                for e, p in entry.terms.items():
                    c = eigenvalue.get(e)
                    if c is None:
                        c = -2 * e
                        c = eigenvalue[e] = c.numerator if c.denominator == 1 else c
                    for s, x in enumerate(p.coeffs):
                        if x:
                            got[c, s] = x
                if got != want:
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
    """The flat section on the weight-w space, ODE-checked and cached."""
    return spectral_components(expr, w)


# ---------------------------------------------------------------------------
# graded traces


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


def _is_finite(key: BranchKey) -> bool:
    return all(kind == "L" for kind, _n in key)


class _Walk:
    """A branch walked one level at a time from an end of its weights to
    ``weight``: down from the top (sign 1, f steps, kappa = 2fe + h) or up
    from the bottom (sign -1, e steps, kappa = 2ef - h).  Holds the basis of
    the weight space reached, kappa's spectrum there as {c: m} and its
    largest Jordan blocks as {c: b}, the columns of the stepping generator
    into it from the level before (``step``) and of the other generator back
    (``back``), and, once a caller has asked for this weight, the next level
    as _ahead returns it, with [e, f] = h proven here (``ahead``)."""

    __slots__ = ("key", "expr", "sign", "weight", "basis", "spectrum", "blocks", "step", "back",
                 "ahead")

    def __init__(self, key: BranchKey, expr: ModuleExpr, sign: int, weight: int, basis: list,
                 spectrum: dict[int, int], step: list[dict[int, int]],
                 back: list[dict[int, int]]):
        self.key, self.expr, self.sign, self.weight = key, expr, sign, weight
        self.basis, self.spectrum, self.step, self.back = basis, spectrum, step, back
        self.blocks = dict.fromkeys(spectrum, 1)
        self.ahead = None


# Walks between calls, the latest last, so that prove_spectra's consecutive
# depths of one branch continue one walk.  Measured on perfbench, seeds 1 to
# 10: an oracle-battery round starts 10 walks and continues one 163 or 164
# times, 159 times the latest, 4 times the fifth latest (conjecture proves F'
# one level deeper on F's branches) and sometimes once the third latest
# (spectral on P below where conjecture walked P's branch); none older.
# On a 2-vCPU VM restarting those 5 costs 15 to 26 ms a round, continuing
# them 0.3 to 2 ms: a continued walk reuses the look-ahead proven at the
# level it was last asked for.  trace-cli starts 3 walks and continues none;
# exact-monodromy never walks.  A walk holds three bases and two levels of
# sparse e and f (with the look-ahead): 0.07 MB on the benchmark's largest
# space (n = 66), 0.37 MB on L20 x L20 x L20 at 0 (n = 331; tracemalloc).
WALKS_MAX = 5
_WALKS: OrderedDict[BranchKey, _Walk] = OrderedDict()


def _lead(idx) -> int:
    """Depth on the first (Verma) leg of a branch basis index."""
    return idx if isinstance(idx, int) else idx[0]


def _successor(idx):
    return idx + 1 if isinstance(idx, int) else (idx[0] + 1,) + idx[1:]


def _start_walk(key: BranchKey, sign: int) -> _Walk:
    expr = branch_expr(key)
    top = sum(t[1] for t in key)
    basis = weight_space(expr, sign * top)
    # past the end the space is zero, so there kappa = sign h = top: blocks of size 1
    back = action_columns("e" if sign > 0 else "f", expr, basis, [])
    return _Walk(key, expr, sign, sign * top, basis, {top: len(basis)}, [], back)


def _ahead(walk: _Walk) -> tuple[list, list[dict[int, int]], list[dict[int, int]]]:
    """(here, step, back): the basis of the level past the walk's W_u, the
    stepping generator's columns into it and the other's back, after proving
    [e, f] = h on W_u: there, kappa = 2 step back + sign u (module docstring)."""
    sign, u = walk.sign, walk.weight
    prev = walk.basis
    here = weight_space(walk.expr, u - 2 * sign)
    step = action_columns("f" if sign > 0 else "e", walk.expr, prev, here)
    back = action_columns("e" if sign > 0 else "f", walk.expr, here, prev)
    for j, col in enumerate(step):
        # column j of back_v step_v - step_u back_u - sign u, zero when [e, f] = h
        acc = {j: -sign * u}
        for i, a in col.items():
            for r, b in back[i].items():
                acc[r] = acc.get(r, 0) + a * b
        for i, a in walk.back[j].items():
            for r, b in walk.step[i].items():
                acc[r] = acc.get(r, 0) - a * b
        if any(acc.values()):
            raise InvariantError(f"[e, f] != h on the weight {u} space of {walk.expr}")
    return here, step, back


def _step(walk: _Walk) -> None:
    """Moves the walk from W_u to W_v, v = u - 2 sign, after proving that
    [e, f] = h on W_u (_ahead) and that the stepping generator is injective
    there."""
    sign, u = walk.sign, walk.weight
    v = u - 2 * sign
    prev = walk.basis
    here, step, back = walk.ahead or _ahead(walk)
    if _is_finite(walk.key):
        # back step = (kappa_u + sign u) / 2 on W_u, invertible unless
        # -sign u is an eigenvalue there.  Without it no carried eigenvalue
        # c + sign (u + v) equals the new one, sign v, so kappa stays
        # diagonalizable.
        if -sign * u in walk.spectrum:
            raise InvariantError(
                f"{walk.expr} at weight {u}: kappa has the eigenvalue {-sign * u}, so the "
                f"injectivity of the step to {v} is not proven")
    else:
        for j, col in enumerate(step):
            k = _lead(prev[j])
            deeper = [(here[r], c) for r, c in col.items() if _lead(here[r]) > k]
            if deeper != [(_successor(prev[j]), 1)]:
                raise InvariantError(
                    f"f on {walk.expr} at weight {u}: no unit leading entry one level deeper "
                    f"on the Verma leg, so its injectivity is not proven")
    shift = sign * (u + v)
    spectrum = {c + shift: m for c, m in walk.spectrum.items()}
    blocks = {c + shift: b for c, b in walk.blocks.items()}
    fresh = len(here) - len(prev)
    if fresh:
        new = sign * v
        spectrum[new] = spectrum.get(new, 0) + fresh
        carried = blocks.get(new)
        blocks[new] = 1 if carried is None else _collision_block(step, back, carried, spectrum[new])
    walk.weight, walk.basis, walk.spectrum, walk.blocks = v, here, spectrum, blocks
    walk.step, walk.back, walk.ahead = step, back, None


def _times(cols: list[dict[int, int]], mat: list[dict[int, int]]) -> list[dict[int, int]]:
    """mat times each sparse column, all as {row: entry} columns."""
    out = []
    for col in cols:
        acc: dict[int, int] = {}
        for i, a in col.items():
            for r, b in mat[i].items():
                acc[r] = acc.get(r, 0) + a * b
        out.append({r: x for r, x in acc.items() if x})
    return out


def _collision_block(step: list[dict[int, int]], back: list[dict[int, int]], carried: int,
                     m: int) -> int:
    """Largest Jordan block of the new eigenvalue sign v where fresh flag
    pieces meet a carried block of size ``carried``: that size or one more,
    and the same size iff (kappa_v - sign v)^carried has nullity m, the
    eigenvalue's multiplicity (module docstring).  kappa_v - sign v is
    2 step back, as _ahead proves on W_v before the walk passes or returns
    it, and its powers have the ranks of those of step back.  The power is
    ranked in the sparse {row: entry} columns that _times builds."""
    half = _times(back, step)
    power = half
    for _ in range(carried - 1):
        power = _times(power, half)
    return carried if len(back) - linalg.rank_int(power) == m else carried + 1


def _walk_to(key: BranchKey, w: int) -> _Walk:
    """The branch's walk at weight w, continued from the cached one when it
    has not yet passed w; iterative, so any depth is fine.  A branch of
    finite irreducibles is walked from its nearer end, where the stepping
    generator is injective."""
    sign = -1 if w < 0 and _is_finite(key) else 1
    walk = _WALKS.pop(key, None)
    if walk is None or walk.sign != sign or sign * (walk.weight - w) < 0:
        walk = _start_walk(key, sign)
    while sign * (walk.weight - w) > 0:
        _step(walk)
    _WALKS[key] = walk
    if len(_WALKS) > WALKS_MAX:
        _WALKS.popitem(last=False)
    return walk


# The conjecture suite fills 315 keys and one oracle-battery round of
# perfbench 180; an entry is a few integer triples.
@lru_cache(maxsize=4096)
def _branch_spectrum(key: BranchKey, w: int) -> tuple[tuple[int, int, int], ...]:
    """kappa's spectrum on the branch's weight-w space as sorted (c, m, b),
    b the largest Jordan block of c: the character's prediction of (c, m),
    proven against kappa, and the blocks the walk carries (module
    docstring)."""
    top = sum(t[1] for t in key)
    depth, odd = divmod(top - w, 2)
    if depth < 0 or odd or (w < -top and _is_finite(key)):
        return ()
    predicted = _character_spectra(key, [depth])[0]
    walk = _walk_to(key, w)
    if walk.ahead is None:
        walk.ahead = _ahead(walk)
    derived = sorted(walk.spectrum.items())
    if derived != predicted:
        raise InvariantError(f"branch {key} weight {w}: the walk gives {derived}, "
                             f"the character {predicted}")
    return tuple((c, m, walk.blocks[c]) for c, m in derived)


def _branch_depth_jobs(key: BranchKey, l: int, order: Fraction) -> list[int]:
    top = sum(t[1] for t in key)
    bottom = -top if _is_finite(key) else -math.inf  # no finite weight lies below -top
    jobs = []
    w = top
    # the floor is increasing once the weight goes negative; before that it
    # can dip, so never cut inside the dip region
    while w >= 0 or (w >= bottom and l * _exponent_floor(top, w) < order):
        jobs.append((top - w) // 2)
        w -= 2
    return jobs


def _character_spectra(key: BranchKey, depths: list[int]) -> list[list[tuple[int, int]]]:
    """(eigenvalue, multiplicity) pairs of kappa at each depth, read off the
    branch character (see the module docstring)."""
    top = sum(t[1] for t in key)
    deepest = depths[-1] if depths else 0
    dims = branch_dimensions(key, deepest)
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


def _predicted_spectrum(branches: Counter, w: int) -> list[tuple[int, int]]:
    """kappa's spectrum on the weight-w space of a direct sum of tensor
    branches (a Counter as from tensor_branches), read off their characters."""
    total: dict[int, int] = {}
    for key, mult in branches.items():
        depth, odd = divmod(sum(t[1] for t in key) - w, 2)
        if depth < 0 or odd:
            continue
        for c, m in _character_spectra(key, [depth])[0]:
            total[c] = total.get(c, 0) + mult * m
    return sorted(total.items())


def _branch_terms(expr: ModuleExpr, l: int, order: Fraction):
    """Yield (weight, exponent, count) for every eigenvalue on every branch
    weight space above the cutoff, the spectrum read off the character and
    each exponent checked against the validated floor."""
    for key, mult in sorted(tensor_branches(expr).items()):
        top = sum(t[1] for t in key)
        depths = _branch_depth_jobs(key, l, order)
        for d, eigs in zip(depths, _character_spectra(key, depths)):
            w = top - 2 * d
            floor = _exponent_floor(top, w)
            bound = l * floor  # the floor bounds the l = 1 exponent -c/2
            for c, m in eigs:
                e = Fraction(-l * c, 2)
                if e < bound:
                    raise InvariantError(
                        f"cutoff bound violated: branch {key} weight {w} produced exponent "
                        f"slope {Fraction(-c, 2)} < {floor}")
                yield w, e, mult * m


def prove_spectra(expr: ModuleExpr, l: int, order: Rat) -> None:
    """Prove against the kappa matrices every branch spectrum that
    trace_series(expr, l, order) and trace_deformed read off the character.

    Visits the same (branch, weight) pairs, through the bounded
    _branch_spectrum cache; raises InvariantError on the first spectrum that
    kappa contradicts.  The negative weights of a branch of finite
    irreducibles are visited bottom up, the way _walk_to walks them."""
    if l < 1:
        raise DomainError(f"loop count must be >= 1, got {l}")
    order = as_frac(order)
    for key in sorted(tensor_branches(expr)):
        top = sum(t[1] for t in key)
        weights = [top - 2 * d for d in _branch_depth_jobs(key, l, order)]
        if _is_finite(key):
            weights = [w for w in weights if w >= 0] + sorted(w for w in weights if w < 0)
        for w in weights:
            _branch_spectrum(key, w)


def trace_series(expr: ModuleExpr, l: int, order: Rat) -> QSeries:
    """Graded monodromy trace: sum over weight spaces of sum_c m_c q^(-lc/2).

    Distributes over direct sums and tensor-of-sum structure (an exact
    isomorphism, independent of any conjecture), groups repeated branches,
    and walks each branch down in depth until the validated cutoff bound
    proves all remaining exponents lie at or beyond ``order``.  The spectra
    come from the character; prove_spectra proves them against kappa."""
    if l < 1:
        raise DomainError(f"loop count must be >= 1, got {l}")
    order = as_frac(order)
    out: dict[Fraction, Fraction] = {}
    for _w, e, count in _branch_terms(expr, l, order):
        if e < order:
            out[e] = out.get(e, Fraction(0)) + count
    return QSeries(out, order)


def trace_deformed(expr: ModuleExpr, l: int, order: Rat) -> BiSeries:
    """Weight-graded refinement: weight w contributes x^(-l w/2).

    Only defined when every populated weight is even and non-positive;
    otherwise the x-grading leaves the allowed lattice and the input is
    rejected.  Spectra as in trace_series."""
    if l < 1:
        raise DomainError(f"loop count must be >= 1, got {l}")
    order = as_frac(order)
    out: dict[tuple[Fraction, int], Fraction] = {}
    for w, e, count in _branch_terms(expr, l, order):
        if w % 2 or w > 0:
            raise UnsupportedInputError(
                f"x-grading needs even non-positive weights; found weight {w}")
        if e < order:
            ky = (e, -l * w // 2)
            out[ky] = out.get(ky, Fraction(0)) + count
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
    """The first canonical nullspace vector of a - c = [[p, q], [r, s]]:
    (-q/p, 1) if p != 0, else (-s/r, 1) if r != 0, else (1, 0)."""
    (p, q), (r, s) = (a[0][0] - c, a[0][1]), (a[1][0], a[1][1] - c)
    if p:
        v = (-q / p, Fraction(1))
    elif r:
        v = (-s / r, Fraction(1))
    else:
        v = (Fraction(1), Fraction(0))
    if p * v[0] + q * v[1] or r * v[0] + s * v[1]:
        raise InvariantError("eigenvector missing for a certified eigenvalue")
    return v


def _assert_similarity(a, j, s) -> None:
    det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
    if not det:
        raise InvariantError("similarity matrix is singular")
    for i in range(2):
        for k in range(2):
            if a[i][0] * s[0][k] + a[i][1] * s[1][k] != s[i][0] * j[0][k] + s[i][1] * j[1][k]:
                raise InvariantError("A S != S J after Jordan reduction")
