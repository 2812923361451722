"""sl2 modules as syntax trees, with exact integer actions on weight spaces.

Atoms are Verma modules M(lam) with basis f^k.v (k >= 0), finite irreducibles
L(n) with basis f^j.u (0 <= j <= n), and the rank-two indecomposable P.  Direct
sums, tensor products, and direct-sum multiplicity powers combine them.  Every
function in this module reads P as the tensor product M(-1) (x) L(1) and M^k
as the direct sum of k copies of M, through their ``parts``; only equality,
hashing and repr tell them from what they denote.  Generator actions:

    h . f^k v_lam = (lam - 2k) f^k v_lam
    f . f^k v_lam = f^(k+1) v_lam
    e . f^k v_lam = k (lam - k + 1) f^(k-1) v_lam

and the same shape on L(n) with f^(n+1) u = 0.  Tensor legs follow the
Leibniz rule.  The truncated Casimir is the composition e f + f e.

Basis indices mirror the expression tree: an integer depth for an atom, a
(branch, inner) pair for sums and powers, a tuple of leg indices for tensors.
The canonical order within a weight space puts deeper earlier legs first
(ascending branch indices), which reproduces the natural bases
(f^k v (x) u_+1, f^(k-1) v (x) u_-1) of the weight spaces of P.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import DomainError, InvariantError, UnsupportedInputError
from . import linalg

Index = Union[int, tuple]


@dataclass(frozen=True)
class Verma:
    lam: int

    def __post_init__(self):
        if not isinstance(self.lam, int):
            raise DomainError("Verma highest weight must be an integer")


@dataclass(frozen=True)
class Irr:
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise DomainError("irreducible label must be a non-negative integer")


@dataclass(frozen=True)
class BigP:
    parts = (Verma(-1), Irr(1))  # read as this tensor product; not a field


@dataclass(frozen=True)
class DirectSum:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise DomainError("direct sum needs at least one part")


@dataclass(frozen=True)
class Tensor:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise DomainError("tensor product needs at least one factor")


@dataclass(frozen=True)
class Power:
    base: "ModuleExpr"
    mult: int
    parts: tuple = field(init=False, compare=False, repr=False)  # mult copies of base

    def __post_init__(self):
        if not isinstance(self.mult, int) or self.mult < 1:
            raise DomainError("direct-sum multiplicity must be a positive integer")
        object.__setattr__(self, "parts", (self.base,) * self.mult)


ModuleExpr = Union[Verma, Irr, BigP, DirectSum, Tensor, Power]


def top_weight(expr: ModuleExpr) -> int:
    """Largest weight supporting a nonzero weight space."""
    if isinstance(expr, Verma):
        return expr.lam
    if isinstance(expr, Irr):
        return expr.n
    if isinstance(expr, (DirectSum, Power)):
        return max(top_weight(p) for p in expr.parts)
    if isinstance(expr, (Tensor, BigP)):
        return sum(top_weight(p) for p in expr.parts)
    raise DomainError(f"not a module expression: {expr!r}")


def bottom_weight(expr: ModuleExpr) -> int | None:
    """Smallest weight of a finite-dimensional module; None when there is a
    Verma factor, whose weights go down without end."""
    if isinstance(expr, Irr):
        return -expr.n
    if isinstance(expr, Verma):
        return None
    parts = [bottom_weight(p) for p in expr.parts]
    if None in parts:
        return None
    return min(parts) if isinstance(expr, (DirectSum, Power)) else sum(parts)


def index_weight(expr: ModuleExpr, idx: Index) -> int:
    if isinstance(expr, Verma):
        return expr.lam - 2 * idx
    if isinstance(expr, Irr):
        return expr.n - 2 * idx
    if isinstance(expr, (DirectSum, Power)):
        branch, inner = idx
        return index_weight(expr.parts[branch], inner)
    if isinstance(expr, (Tensor, BigP)):
        return sum(index_weight(p, i) for p, i in zip(expr.parts, idx))
    raise DomainError(f"not a module expression: {expr!r}")


def _iter_indices(expr: ModuleExpr, w: int) -> Iterator[Index]:
    """All basis indices of weight w, in no particular order."""
    if isinstance(expr, Verma):
        d = expr.lam - w
        if d >= 0 and d % 2 == 0:
            yield d // 2
        return
    if isinstance(expr, Irr):
        d = expr.n - w
        if d >= 0 and d % 2 == 0 and d // 2 <= expr.n:
            yield d // 2
        return
    if isinstance(expr, (DirectSum, Power)):
        for b, part in enumerate(expr.parts):
            for inner in _iter_indices(part, w):
                yield (b, inner)
        return
    if isinstance(expr, (Tensor, BigP)):
        head, rest = expr.parts[0], expr.parts[1:]
        if not rest:
            yield from ((i,) for i in _iter_indices(head, w))
            return
        rest_expr = Tensor(rest)
        rest_top = sum(top_weight(p) for p in rest)
        rest_bottom = bottom_weight(rest_expr)
        w1 = top_weight(head)
        # a head whose branch tops differ in parity has weights of both
        mixed = not isinstance(head, (Verma, Irr, BigP)) and len(
            {sum(t[1] for t in key) % 2 for key in tensor_branches(head)}) > 1
        step = 1 if mixed else 2
        # finite factors bound the head's weight from both sides
        if rest_bottom is not None and w1 > w - rest_bottom:
            w1 -= -(-(w1 - w + rest_bottom) // step) * step
        lowest = w - rest_top
        head_bottom = bottom_weight(head)
        if head_bottom is not None:
            lowest = max(lowest, head_bottom)
        while w1 >= lowest:
            for i in _iter_indices(head, w1):
                for tail in _iter_indices(rest_expr, w - w1):
                    yield (i,) + tail
            w1 -= step
        return
    raise DomainError(f"not a module expression: {expr!r}")


def _sort_key(expr: ModuleExpr, idx: Index) -> tuple:
    # deeper atom indices first; branch indices ascend
    if isinstance(expr, (Verma, Irr)):
        return (-idx,)
    if isinstance(expr, (DirectSum, Power)):
        b, inner = idx
        return (b,) + _sort_key(expr.parts[b], inner)
    key: tuple = ()
    for p, i in zip(expr.parts, idx):
        key += _sort_key(p, i)
    return key


def weight_space(expr: ModuleExpr, w: int) -> list[Index]:
    """Canonically ordered basis of the weight-w subspace (may be empty)."""
    found = list(_iter_indices(expr, w))
    found.sort(key=lambda idx: _sort_key(expr, idx))
    return found


def format_index(expr: ModuleExpr, idx: Index) -> str:
    if isinstance(expr, Verma):
        head = "" if idx == 0 else ("f " if idx == 1 else f"f^{idx} ")
        return f"{head}v({expr.lam})"
    if isinstance(expr, Irr):
        if expr.n == 1:
            return "u(+1)" if idx == 0 else "u(-1)"
        return f"u{expr.n}_{idx}"
    if isinstance(expr, (DirectSum, Power)):
        b, inner = idx
        return f"#{b}:{format_index(expr.parts[b], inner)}"
    return " ⊗ ".join(format_index(p, i) for p, i in zip(expr.parts, idx))


def act(gen: str, expr: ModuleExpr, idx: Index) -> dict[Index, int]:
    """Image of a basis vector under e, f, or h, as an integer combination."""
    if gen not in ("e", "f", "h"):
        raise DomainError(f"generator must be 'e', 'f', or 'h', got {gen!r}")
    if isinstance(expr, Verma):
        k, lam = idx, expr.lam
        if gen == "h":
            return {k: lam - 2 * k} if lam - 2 * k else {}
        if gen == "f":
            return {k + 1: 1}
        c = k * (lam - k + 1)
        return {k - 1: c} if k > 0 and c else {}
    if isinstance(expr, Irr):
        j, n = idx, expr.n
        if gen == "h":
            return {j: n - 2 * j} if n - 2 * j else {}
        if gen == "f":
            return {j + 1: 1} if j < n else {}
        c = j * (n - j + 1)
        return {j - 1: c} if j > 0 and c else {}
    if isinstance(expr, (DirectSum, Power)):
        b, inner = idx
        return {(b, i): c for i, c in act(gen, expr.parts[b], inner).items()}
    if isinstance(expr, (Tensor, BigP)):
        out: dict[Index, int] = {}
        for leg, (p, i) in enumerate(zip(expr.parts, idx)):
            for i2, c in act(gen, p, i).items():
                key = idx[:leg] + (i2,) + idx[leg + 1 :]
                s = out.get(key, 0) + c
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return out
    raise DomainError(f"not a module expression: {expr!r}")


def act_combo(gen: str, expr: ModuleExpr, vec: dict[Index, int]) -> dict[Index, int]:
    out: dict[Index, int] = {}
    for idx, coeff in vec.items():
        for i2, c in act(gen, expr, idx).items():
            s = out.get(i2, 0) + coeff * c
            if s:
                out[i2] = s
            elif i2 in out:
                del out[i2]
    return out


def kappa_image(expr: ModuleExpr, vec: dict[Index, int]) -> dict[Index, int]:
    """Truncated Casimir e f + f e applied to a sparse vector {index:
    coefficient}; the image keeps no zero coefficient."""
    out = act_combo("e", expr, act_combo("f", expr, vec))
    for i2, c in act_combo("f", expr, act_combo("e", expr, vec)).items():
        s = out.get(i2, 0) + c
        if s:
            out[i2] = s
        elif i2 in out:
            del out[i2]
    return out


@dataclass(frozen=True)
class WeightMatrix:
    """Integer matrix of the truncated Casimir on one weight space.

    Columns are images: entries[i][j] is the coefficient of basis[i] in
    kappa(basis[j])."""

    weight: int
    basis: tuple
    labels: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def to_obj(self) -> dict:
        return {
            "weight": self.weight,
            "dimension": self.dimension,
            "basis": list(self.labels),
            "entries": [list(row) for row in self.entries],
        }


# Largest weight space kappa_flat builds: its n^2 list sets the cost.  On a
# 2-vCPU VM under CPython 3.11 (in-process CPU, tracemalloc peak), n = 7392
# (P x P x P x P at -28) takes 2.0 s and 442 MB, n = 7746 (P x P x P at -88)
# 1.7 s and 484 MB, and a deeply nested sum of tensors at n = 6480 4.0 s
# (4.6 s with P and the powers spelled out).  The peak is 8.1 n^2 bytes, so
# memory reaches 500 MB at n = 7800, before time reaches 10 s.
_KAPPA_DIM_MAX = 7800


def kappa_flat(expr: ModuleExpr, w: int, basis: list[Index] | None = None) -> tuple[int, list[int]]:
    """Dimension and row-major entries of kappa on the weight-w space;
    spaces above _KAPPA_DIM_MAX are refused before the matrix is built."""
    if basis is None:
        basis = weight_space(expr, w)
    n = len(basis)
    if n == 0:
        raise DomainError(f"weight space at w={w} is zero")
    if n > _KAPPA_DIM_MAX:
        raise UnsupportedInputError(
            f"weight space at w={w} has dimension {n}; the dense kappa is limited to "
            f"dimension {_KAPPA_DIM_MAX}")
    pos = {idx: i for i, idx in enumerate(basis)}
    flat = [0] * (n * n)
    for j, idx in enumerate(basis):
        for i2, c in kappa_image(expr, {idx: 1}).items():
            i = pos.get(i2)
            if i is None:
                raise InvariantError(f"kappa moved weight {w} off its weight space (index {i2})")
            flat[i * n + j] = c
    return n, flat


def kappa_matrix(expr: ModuleExpr, w: int) -> WeightMatrix:
    basis = weight_space(expr, w)
    n, flat = kappa_flat(expr, w, basis)
    rows = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
    labels = tuple(format_index(expr, idx) for idx in basis)
    return WeightMatrix(weight=w, basis=tuple(basis), labels=labels, entries=rows)


def character(expr: ModuleExpr, depth: int) -> dict[int, int]:
    """Nonzero weight-space dimensions at the weights top - 2*depth <= w <= top,
    summed over the tensor branches, whose tops may differ in parity."""
    if depth < 0:
        raise DomainError("character depth must be non-negative")
    bottom = top_weight(expr) - 2 * depth
    out: dict[int, int] = {}
    for key, mult in tensor_branches(expr).items():
        top = sum(t[1] for t in key)
        if top < bottom:
            continue
        for j, dim in enumerate(branch_dimensions(key, (top - bottom) // 2)):
            if dim:
                out[top - 2 * j] = out.get(top - 2 * j, 0) + mult * dim
    return out


# ---------------------------------------------------------------------------
# structural decomposition: any expression is a direct sum of tensor products
# of atoms (multiplicities counted), because tensor distributes over (+)


BranchKey = tuple[tuple, ...]


def _atom_key(atom) -> tuple:
    if isinstance(atom, Verma):
        return ("M", atom.lam)
    return ("L", atom.n)


def _atom_from_key(key) -> ModuleExpr:
    return Verma(key[1]) if key[0] == "M" else Irr(key[1])


def tensor_branches(expr: ModuleExpr) -> Counter:
    """Multiset of atom-tensor branches, keyed by sorted atom tuples.

    P counts as its two legs M(-1) (x) L(1).  The regrouping by multiset
    uses commutativity of the tensor character data only; every consumer
    works per-branch on weight spaces, which are isomorphic under leg
    permutation."""
    if isinstance(expr, (Verma, Irr)):
        return Counter({(_atom_key(expr),): 1})
    if isinstance(expr, (DirectSum, Power)):
        total: Counter = Counter()
        for p in expr.parts:
            total.update(tensor_branches(p))
        return total
    if isinstance(expr, (Tensor, BigP)):
        acc: Counter = Counter({(): 1})
        for p in expr.parts:
            nxt: Counter = Counter()
            part_branches = tensor_branches(p)
            for left, cl in acc.items():
                for right, cr in part_branches.items():
                    nxt[tuple(sorted(left + right))] += cl * cr
            acc = nxt
        return acc
    raise DomainError(f"not a module expression: {expr!r}")


def branch_expr(key: BranchKey) -> ModuleExpr:
    """The branch as a module, Verma legs first.

    Any leg order gives a similar kappa.  This one lets the Verma-flag walk
    (monodromy) see that f is injective from the basis alone: with a Verma
    leg first, f sends an index (k, r) to (k + 1, r) with coefficient 1 plus
    terms whose first index is still k."""
    atoms = tuple(_atom_from_key(k) for k in sorted(key, key=lambda k: k[0] != "M"))
    return atoms[0] if len(atoms) == 1 else Tensor(atoms)


def branch_dimensions(key: BranchKey, deepest: int) -> list[int]:
    """dim of the weight-(top - 2d) space of a branch for d = 0..deepest: the
    convolution of its atom characters 1 + t + t^2 + ... (M) and
    1 + t + ... + t^n (L_n)."""
    dims = [1] + [0] * deepest
    for kind, k in key:
        width = deepest if kind == "M" else k
        dims = [sum(dims[max(0, d - width) : d + 1]) for d in range(deepest + 1)]
    return dims


def action_columns(gen: str, expr: ModuleExpr, src: list[Index],
                   tgt: list[Index]) -> list[dict[int, int]]:
    """Sparse matrix of a generator from the span of the basis ``src`` to the
    span of ``tgt``: per source vector, its image as {target position:
    coefficient}."""
    pos = {idx: i for i, idx in enumerate(tgt)}
    cols = []
    for idx in src:
        col = {}
        for i2, c in act(gen, expr, idx).items():
            i = pos.get(i2)
            if i is None:
                raise InvariantError(f"{gen} image escaped the target weight space")
            col[i] = c
        cols.append(col)
    return cols


def singular_count(expr: ModuleExpr, w: int) -> int:
    """Dimension of the kernel of e on the weight-w space.

    Counts all singular vectors at weight w.  This overshoots the Verma-flag
    multiplicity whenever a flag piece with top weight 0 sits above w = -2:
    inside M_0 the vector f v is itself singular."""
    total = 0
    for key, mult in tensor_branches(expr).items():
        b = branch_expr(key)
        src = weight_space(b, w)
        cols = action_columns("e", b, src, weight_space(b, w + 2))
        total += mult * (len(src) - linalg.rank_int(cols))
    return total


def hwv_count(expr: ModuleExpr, w: int) -> int:
    """Number of Verma pieces with top weight w in a Verma flag of expr.

    Computed as dim W_w - dim W_{w+2}, the first difference of the character;
    a flag piece M_mu contributes one dimension to every layer below mu, so
    the difference isolates the generators that appear at w."""
    dim_w = len(weight_space(expr, w))
    dim_up = len(weight_space(expr, w + 2))
    return dim_w - dim_up
