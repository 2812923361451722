"""Character oracle for graded monodromy traces, written apart from casimir_trace.

Module expressions are small tuples that the benchmark builds itself:

    ("M", lam)          Verma module M_lam
    ("L", n)            finite irreducible L_n
    ("P",)              the rank-two module P = M_-1 x L_1
    ("+", e1, e2, ...)  direct sum
    ("x", e1, e2, ...)  tensor product
    ("^", e, k)         k-fold direct sum of e

``render`` writes one in the --rep grammar of the command line.

Why the character fixes the trace.  C = ef + fe + h^2/2 acts on every
composition factor of the Verma module M_mu by mu(mu+2)/2, because L_mu and
M_(-mu-2) share that value.  A module whose character is
sum_mu n_mu ch M_mu, with n_mu = dim W_mu - dim W_(mu+2), therefore has on its
weight-w space the generalized eigenvalue c = (mu(mu+2) - w^2)/2 of
kappa = ef + fe = C - h^2/2 with signed multiplicity n_mu, for every mu >= w
with mu = w (mod 2).  l loops contribute q^(-lc/2) = q^(l(w^2 - mu(mu+2))/4);
the deformed trace multiplies by x^(-lw/2).

Cutoff.  On the weight-w space of a branch with top weight T every exponent
per loop is (w^2 + 1 - (mu+1)^2)/4 for some w <= mu <= T.  (mu+1)^2 is largest
at an end of that range, so the exponent is at least
min(-w/2, (w^2 - T(T+2))/4).  For w <= 0 both terms grow as w decreases, so
the first such weight whose bound reaches order/l ends the walk: neither it
nor any deeper weight has an exponent below the order.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction


# ---------------------------------------------------------------------------
# expressions


def render(expr, compact: bool = False) -> str:
    """The expression in the --rep grammar; ``compact`` drops the spaces."""
    plus, times = ("+", "x") if compact else (" + ", " x ")
    kind = expr[0]
    if kind == "M":
        return f"M{expr[1]}"
    if kind == "L":
        return f"L{expr[1]}"
    if kind == "P":
        return "P"
    if kind == "+":
        return plus.join(render(p, compact) for p in expr[1:])
    if kind == "x":
        return times.join(
            f"({render(p, compact)})" if p[0] == "+" else render(p, compact) for p in expr[1:])
    if kind == "^":
        base = render(expr[1], compact)
        return f"{base}^{expr[2]}" if expr[1][0] in ("M", "L", "P") else f"({base})^{expr[2]}"
    raise ValueError(f"not an expression: {expr!r}")


def branches(expr) -> Counter:
    """Multiset of tensor branches: sorted tuples of atoms ("M", lam) or
    ("L", n), with P split into its legs M_-1 and L_1."""
    kind = expr[0]
    if kind in ("M", "L"):
        return Counter({(expr,): 1})
    if kind == "P":
        return Counter({(("L", 1), ("M", -1)): 1})
    if kind == "+":
        total: Counter = Counter()
        for part in expr[1:]:
            total.update(branches(part))
        return total
    if kind == "^":
        return Counter({k: v * expr[2] for k, v in branches(expr[1]).items()})
    if kind == "x":
        acc: Counter = Counter({(): 1})
        for part in expr[1:]:
            nxt: Counter = Counter()
            for left, cl in acc.items():
                for right, cr in branches(part).items():
                    nxt[tuple(sorted(left + right))] += cl * cr
            acc = nxt
        return acc
    raise ValueError(f"not an expression: {expr!r}")


def branch_top(branch) -> int:
    return sum(label for _, label in branch)


def branch_dims(branch, depth: int) -> list[int]:
    """dim W_(T-2d) for d = 0..depth: the convolution of the atom characters
    (M_lam has one vector per layer, L_n has n+1 layers)."""
    dims = [1] + [0] * depth
    for kind, label in branch:
        layers = depth + 1 if kind == "M" else label + 1
        nxt = [0] * (depth + 1)
        for d, count in enumerate(dims):
            if count:
                for j in range(min(layers, depth + 1 - d)):
                    nxt[d + j] += count
        dims = nxt
    return dims


# ---------------------------------------------------------------------------
# spectra and traces


def _branch_eigen(branch, w: int, dims: list[int]):
    """(c, signed multiplicity) pairs of kappa on the weight-w space."""
    top = branch_top(branch)
    d_w = (top - w) // 2
    for d in range(d_w, -1, -1):
        mu = top - 2 * d
        n_mu = dims[d] - (dims[d - 1] if d else 0)
        if n_mu:
            yield (mu * (mu + 2) - w * w) // 2, n_mu


def _weight_in(branch, w: int) -> bool:
    top = branch_top(branch)
    return w <= top and (top - w) % 2 == 0


def dimension(expr, w: int) -> int:
    total = 0
    for branch, mult in branches(expr).items():
        if _weight_in(branch, w):
            d = (branch_top(branch) - w) // 2
            total += mult * branch_dims(branch, d)[d]
    return total


def spectrum(expr, w: int) -> dict[int, int]:
    """Generalized eigenvalues of kappa on the weight-w space with their
    algebraic multiplicities."""
    out: Counter = Counter()
    for branch, mult in branches(expr).items():
        if _weight_in(branch, w):
            dims = branch_dims(branch, (branch_top(branch) - w) // 2)
            for c, m in _branch_eigen(branch, w, dims):
                out[c] += mult * m
    if any(m < 0 for m in out.values()):
        raise ValueError(f"negative multiplicity at weight {w}: {dict(out)}")
    return {c: m for c, m in out.items() if m}


def _stop_depth(top: int, l: int, order: Fraction) -> int:
    """First depth whose weight is <= 0 and whose exponent bound reaches the
    order; see the module docstring."""
    d = 0
    while True:
        w = top - 2 * d
        if w <= 0 and l * min(Fraction(-w, 2), Fraction(w * w - top * (top + 2), 4)) >= order:
            return d
        d += 1


def _walk(expr, l: int, order: Fraction):
    """(weight, exponent, multiplicity) for every contribution below order."""
    for branch, mult in sorted(branches(expr).items()):
        top = branch_top(branch)
        stop = _stop_depth(top, l, order)
        dims = branch_dims(branch, stop)
        for d in range(stop):
            w = top - 2 * d
            for c, m in _branch_eigen(branch, w, dims):
                e = Fraction(-l * c, 2)
                if e < order:
                    yield w, e, mult * m


def trace(expr, l: int, order) -> dict[Fraction, int]:
    """Graded trace sum_w sum_c m_c q^(-lc/2), exponents below ``order``."""
    out: Counter = Counter()
    for _w, e, m in _walk(expr, l, Fraction(order)):
        out[e] += m
    return {e: m for e, m in out.items() if m}


def trace_deformed(expr, l: int, order) -> dict[tuple[Fraction, int], int]:
    """Bigraded trace: weight w also contributes x^(-lw/2)."""
    out: Counter = Counter()
    for w, e, m in _walk(expr, l, Fraction(order)):
        if w % 2 or w > 0:
            raise ValueError(f"x-grading needs even non-positive weights, found {w}")
        out[(e, -l * w // 2)] += m
    return {k: m for k, m in out.items() if m}


def weight_trace(expr, w: int, l: int) -> dict[Fraction, int]:
    """Trace of the l-loop monodromy on the single weight-w space."""
    out: Counter = Counter()
    for c, m in spectrum(expr, w).items():
        out[Fraction(-l * c, 2)] += m
    return dict(out)
