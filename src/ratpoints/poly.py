"""Exact multivariate integer polynomials and their graded linear algebra.

A polynomial is a mapping from exponent tuples to nonzero Python ints:

    IntPoly(3, {(2, 0, 0): 1, (0, 1, 1): -4})   # x0^2 - 4*x1*x2

Arithmetic never rounds.  The text grammar used by the CLI and configs is
variables ``x0..xN`` or ``t1..tN``, integer coefficients and the operators
``+ - * ^`` (parentheses allowed, whitespace ignored), for example
``x0^3 + 2*x1*x2^2 - x3^3``.

Monomials are ordered graded-lexicographically throughout: first by total
degree, then with later variables weighing more, so for two variables the
ascending order is 1, z1, z2, z1^2, z1*z2, z2^2 and leading terms are taken
at the top of that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .linalg import rank_sparse


def grlex_key(e):
    """Sort key realizing the graded order 1, z1, z2, z1^2, z1*z2, z2^2, ..."""
    return (sum(e), tuple(reversed(e)))


class IntPoly:
    """Sparse exact polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("num_vars", "terms", "_degree")

    def __init__(self, num_vars: int, terms=None):
        self.num_vars = num_vars
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = int(c)
                if c != 0:
                    exp = tuple(int(e) for e in exp)
                    if len(exp) != num_vars:
                        raise ValueError("exponent tuple of wrong length")
                    clean[exp] = c
        self.terms = clean
        self._degree = max((sum(e) for e in clean), default=-1)

    # -- constructors ------------------------------------------------

    @classmethod
    def _exact(cls, num_vars: int, terms) -> "IntPoly":
        """The polynomial of an exact-arithmetic result: zero terms are
        dropped and nothing else is checked.  Every coefficient must be a
        Python int and every exponent a tuple of ``num_vars`` Python ints,
        as they are in any result computed from IntPoly terms."""
        self = object.__new__(cls)
        self.num_vars = num_vars
        self.terms = {e: c for e, c in terms.items() if c}
        self._degree = max(map(sum, self.terms), default=-1)
        return self

    @classmethod
    def zero(cls, num_vars: int) -> "IntPoly":
        return cls._exact(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, c: int) -> "IntPoly":
        return cls(num_vars, {(0,) * num_vars: int(c)})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "IntPoly":
        if not 0 <= index < num_vars:
            raise ValueError("variable index out of range")
        e = [0] * num_vars
        e[index] = 1
        return cls(num_vars, {tuple(e): 1})

    # -- basic queries -----------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return self._degree

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def content(self) -> int:
        return gcd(*self.terms.values())

    def primitive_part(self) -> "IntPoly":
        g = self.content()
        if g <= 1:
            return self
        return IntPoly._exact(self.num_vars,
                              {e: c // g for e, c in self.terms.items()})

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return IntPoly._exact(self.num_vars, out)

    def __neg__(self):
        return IntPoly._exact(self.num_vars,
                              {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return IntPoly._exact(self.num_vars, out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = IntPoly.constant(self.num_vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def _coerce(self, other):
        if isinstance(other, IntPoly):
            if other.num_vars != self.num_vars:
                raise ValueError("variable count mismatch")
            return other
        return IntPoly.constant(self.num_vars, other)

    # -- evaluation and substitution ----------------------------------

    def evaluate(self, point) -> int:
        point = tuple(point)
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, p in zip(point, e):
                if p:
                    v *= x ** p
            total += v
        return total

    def substitute_value(self, index: int, value: int) -> "IntPoly":
        """Set variable ``index`` to a Python int and drop its slot."""
        out = {}
        for e, c in self.terms.items():
            ne = e[:index] + e[index + 1 :]
            out[ne] = out.get(ne, 0) + c * value ** e[index]
        return IntPoly._exact(self.num_vars - 1, out)

    def partial(self, index: int) -> "IntPoly":
        out = {}
        for e, c in self.terms.items():
            if e[index]:
                ne = list(e)
                ne[index] -= 1
                out[tuple(ne)] = out.get(tuple(ne), 0) + c * e[index]
        return IntPoly._exact(self.num_vars, out)

    def hasse_second(self, i: int, j: int) -> "IntPoly":
        """Second-order divided derivative: the coefficient of y_i*y_j
        (i != j) or y_i^2 (i == j) in the degree-2 Taylor term, that is
        d_i d_j F, halved exactly when i == j.

        Integer-valued in every characteristic, unlike Hessian entries.
        """
        d = self.partial(i).partial(j)
        if i != j:
            return d
        return IntPoly._exact(self.num_vars,
                              {e: c // 2 for e, c in d.terms.items()})

    def __repr__(self):
        return f"IntPoly({self.num_vars}, {self.to_text()!r})"

    def to_text(self, style: str = "x") -> str:
        return format_poly(self, style)


# -- spec operations on polynomials -----------------------------------


def pad_vars(f: IntPoly, num_vars: int) -> IntPoly:
    """Reinterpret f in a larger ring by appending absent variables."""
    if num_vars < f.num_vars:
        raise ValueError("cannot shrink the variable count")
    if num_vars == f.num_vars:
        return f
    extra = (0,) * (num_vars - f.num_vars)
    return IntPoly._exact(num_vars, {e + extra: c for e, c in f.terms.items()})


def substitute_linear(f: IntPoly, images) -> IntPoly:
    """f(images[0], ..., images[n-1]) for images in one common ring."""
    nv = images[0].num_vars
    out = IntPoly.zero(nv)
    for e, c in f.terms.items():
        term = IntPoly.constant(nv, c)
        for image, p in zip(images, e):
            if p:
                term = term * image**p
        out = out + term
    return out


def dehomogenize(F: IntPoly) -> IntPoly:
    """Substitute 1 for the first variable and drop it."""
    return F.substitute_value(0, 1)


def gram_matrix(Q: IntPoly):
    """Symmetric integer matrix M of a quadratic form, with Q(x) = x^T M x / 2:
    twice the square coefficients on the diagonal, the cross terms off it."""
    n = Q.num_vars
    gram = [[0] * n for _ in range(n)]
    for e, c in Q.terms.items():
        i, j = [i for i, p in enumerate(e) for _ in range(p)]
        gram[i][j] += c
        gram[j][i] += c
    return gram


def poly_divides(F: IntPoly, G: IntPoly) -> bool:
    """Exact test whether the form F divides the form G over the rationals.

    F divides G exactly when G lies in the span of the degree-deg(G)
    multiples m*F, that is when adding G to them leaves the rank of that
    graded piece of the ideal (F) unchanged.  The multiples are independent,
    so that rank is the number of monomials m.
    """
    if F.is_zero():
        raise ValueError("division by the zero polynomial")
    if G.is_zero():
        return True
    if G.degree < F.degree:
        return False
    multiples = len(monomials_of_degree(F.num_vars, G.degree - F.degree))
    return graded_piece_basis([F, G], G.degree).ideal_rank == multiples


# -- monomial enumeration ----------------------------------------------


@lru_cache(maxsize=64)
def monomials_of_degree(num_vars: int, degree: int):
    """All exponent tuples of the given total degree, grlex-descending.

    Exponents for later variables are assigned first and run downward, so
    the tuple starts at z_last^degree and ends at z_first^degree.  Results
    are memoized, and are tuples so that no caller can change one.
    """
    if degree < 0:
        return ()
    out = []

    def rec(suffix, remaining, slots):
        if slots == 1:
            out.append((remaining,) + suffix)
            return
        for v in range(remaining, -1, -1):
            rec((v,) + suffix, remaining - v, slots - 1)

    rec((), degree, num_vars)
    return tuple(out)


# -- graded pieces ------------------------------------------------------


@dataclass
class GradedPieceBasis:
    """Monomial basis of one graded piece of a quotient by an ideal."""

    monomials: list        # exponent tuples, ascending grlex
    dimension: int
    ideal_rank: int


def graded_piece_basis(gens, delta: int,
                       num_vars: int | None = None) -> GradedPieceBasis:
    """Monomials spanning degree ``delta`` of the quotient by the ideal of gens.

    The span of {m*g : g a generator, deg(m*g) = delta} is row-reduced
    exactly over Q; the non-pivot monomial columns form the quotient basis
    and their count is the Hilbert function value at delta.  The zero ideal
    is allowed when ``num_vars`` is given.
    """
    if delta < 0:
        raise ValueError("negative degree")
    gens = [g for g in gens if not g.is_zero()]
    if not gens and num_vars is None:
        raise ValueError("no generators and no variable count")
    nv = gens[0].num_vars if gens else num_vars
    for g in gens:
        if g.num_vars != nv:
            raise ValueError("generator variable counts differ")
        if not g.is_homogeneous():
            raise ValueError("generators must be homogeneous")
    cols = monomials_of_degree(nv, delta)
    col_index = {e: i for i, e in enumerate(cols)}

    def rows():
        for g in gens:
            dg = g.degree
            if dg > delta:
                continue
            for m in monomials_of_degree(nv, delta - dg):
                yield {
                    col_index[tuple(a + b for a, b in zip(e, m))]: c
                    for e, c in g.terms.items()
                }

    rank, pivots = rank_sparse(rows(), len(cols))
    basis = [cols[i] for i in range(len(cols)) if i not in pivots]
    # report in ascending grlex, the order graded bases are usually listed in
    basis.sort(key=grlex_key)
    return GradedPieceBasis(monomials=basis, dimension=len(basis),
                            ideal_rank=rank)


# -- text grammar --------------------------------------------------------


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def parse_poly(text: str, num_vars: int | None = None) -> IntPoly:
    """Parse the polynomial text grammar.

    Variables are x0..xN (projective style) or t1..tN (affine style); the
    two families cannot be mixed.  The variable count is inferred from the
    largest index unless ``num_vars`` forces a larger ring.
    """
    tokens = _tokenize(text)
    # the ring is fixed from the variable tokens before parsing, so every
    # subexpression is an IntPoly, whose arithmetic combines like terms
    used = 1 + max((v[1] - (v[0] == "t") for kind, v, _ in tokens
                    if kind == "var"), default=-1)
    parser = _Parser(tokens, max(used, num_vars or 0))
    try:
        f = parser.parse()
    except RecursionError:  # the parser recurses per '(' and unary '-'
        raise PolyParseError("expression nested too deeply",
                             parser.peek()[2]) from None
    if num_vars is not None and num_vars < used:
        raise PolyParseError(
            f"polynomial uses {used} variables, {num_vars} declared", 0
        )
    return f


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch in "xXtT":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolyParseError(f"variable '{ch}' needs an index", i)
            tokens.append(("var", (ch.lower(), int(text[i + 1 : j])), i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over +, -, *, ^ with parentheses, building IntPoly
    values in a ring of ``num_vars`` variables.  ``expr`` reads its own
    products and ``factor`` its own atoms, so a '(' costs two stack frames
    and a unary '-' one."""

    def __init__(self, tokens, num_vars: int):
        self.tokens = tokens
        self.pos = 0
        self.num_vars = num_vars
        self.style = None

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def parse(self):
        f = self.expr()
        kind, _, loc = self.peek()
        if kind != "end":
            raise PolyParseError("trailing input", loc)
        return f

    def expr(self):
        # one dict for the whole sum: adding IntPoly values would copy the
        # partial sum at every term, quadratic in the number of terms
        out = {}
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        while True:
            f = self.factor()
            while self.peek()[0] == "*":
                self.take()
                f = f * self.factor()
            for e, c in f.terms.items():
                out[e] = out.get(e, 0) + sign * c
            if self.peek()[0] not in "+-":
                return IntPoly._exact(self.num_vars, out)
            sign = -1 if self.take()[0] == "-" else 1

    def factor(self):
        kind, val, loc = self.take()
        if kind == "int":
            base = IntPoly.constant(self.num_vars, val)
        elif kind == "var":
            fam, idx = val
            if self.style is None:
                self.style = fam
            elif self.style != fam:
                raise PolyParseError("mixed x- and t-style variables", loc)
            if fam == "t":
                if idx < 1:
                    raise PolyParseError("t-variables start at t1", loc)
                idx -= 1
            base = IntPoly.variable(self.num_vars, idx)
        elif kind == "(":
            base = self.expr()
            kind2, _, loc2 = self.take()
            if kind2 != ")":
                raise PolyParseError("expected ')'", loc2)
        elif kind == "-":
            base = -self.factor()
        else:
            raise PolyParseError("expected a term", loc)
        if self.peek()[0] == "^":
            self.take()
            kind, val, loc = self.take()
            if kind != "int":
                raise PolyParseError("exponent must be an integer literal", loc)
            return base**val
        return base


def format_poly(f: IntPoly, style: str = "x") -> str:
    """Canonical text form, terms in descending grlex order."""
    if f.is_zero():
        return "0"
    if style not in ("x", "t"):
        raise ValueError("style must be 'x' or 't'")
    shift = 0 if style == "x" else 1
    parts = []
    for e in sorted(f.terms, key=grlex_key, reverse=True):
        c = f.terms[e]
        factors = []
        for i, p in enumerate(e):
            if p == 1:
                factors.append(f"{style}{i + shift}")
            elif p > 1:
                factors.append(f"{style}{i + shift}^{p}")
        body = "*".join(factors)
        mag = abs(c)
        if not body:
            chunk = str(mag)
        elif mag == 1:
            chunk = body
        else:
            chunk = f"{mag}*{body}"
        if not parts:
            parts.append(chunk if c > 0 else f"-{chunk}")
        else:
            parts.append(f"+ {chunk}" if c > 0 else f"- {chunk}")
    return " ".join(parts)
