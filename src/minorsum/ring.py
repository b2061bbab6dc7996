"""Exact scalar arithmetic over the integers, the rationals, and sparse
multivariate integer polynomials.

Elements are plain values: Python int, fractions.Fraction, or Poly.  All
three overload +, -, * and unary -, and are false exactly when zero, so
matrix and identity code does its arithmetic with operators.  A Ring object
holds only what differs between the rings: zero and one, coercion,
exact division, the sum of products `dot`, and parsing and formatting.
fractions.Fraction already keeps rationals reduced with a positive
denominator, which is exactly the canonical form required here.

A Poly stores each monomial as one packed int: a 16-bit field per variable,
the first variable highest, and the total degree in the field above them.
The top bit of every variable field is a guard bit that is zero in a valid
monomial.  So graded-lex order is int order, a monomial product is one int
add, and a monomial divides another exactly when their difference has no
guard bit set (a field that would go negative borrows through its guard).
This is the packed exponent layout of Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors" (CASC
2007).  A monomial's total degree may not exceed EXPONENT_LIMIT = 32767,
which bounds every exponent below its guard bit; a product that would
exceed it raises ExponentLimitError instead of carrying into the next field.

`Ring.dot(xs, ys)` returns the sum of the products xs[i] * ys[i].  On
polynomials it is a fused multiply-accumulate, the sparse accumulation of
Monagan and Pearce, "Sparse polynomial multiplication and division in
Maple 14" (2009): every monomial product of every pair is added into one
map of packed keys, and the coefficients that cancel are deleted in place
once at the end.  So a long sum of products that cancels heavily, such
as a determinant's expansion, never builds each product, or a copy of
the running sum, as its own Poly.  Poly multiplication runs the same loop
on a single pair.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from operator import mul
from types import MappingProxyType
from typing import Mapping, Sequence, Union

from .errors import (
    ExponentLimitError,
    InexactDivisionError,
    RingMismatchError,
    ScalarParseError,
)

Scalar = Union[int, Fraction, "Poly"]

_FIELD = 16  # bits per variable, guard bit included
_EXP_MASK = (1 << (_FIELD - 1)) - 1
EXPONENT_LIMIT = _EXP_MASK  # highest total degree of a monomial


def _pack(exps: Sequence[int]) -> int:
    """Packed key of an exponent tuple (one entry per variable)."""
    key = 0
    for k in exps:
        if k < 0:
            raise ValueError(f"negative exponent in {tuple(exps)}")
        key = (key << _FIELD) | k
    degree = sum(exps)
    if degree > EXPONENT_LIMIT:
        raise ExponentLimitError(
            f"monomial of degree {degree} exceeds the limit {EXPONENT_LIMIT}"
        )
    return (degree << (_FIELD * len(exps))) | key


def _unpack(nvars: int, key: int) -> tuple:
    """Exponent tuple of a packed key over nvars variables."""
    return tuple(
        (key >> (_FIELD * i)) & _EXP_MASK for i in range(nvars - 1, -1, -1)
    )


def _guards(nvars: int) -> int:
    # the guard bit of every variable field: a repunit in base 2^_FIELD
    return ((1 << (_FIELD * nvars)) - 1) // ((1 << _FIELD) - 1) << (_FIELD - 1)


def _poly(vars: tuple, mons: dict) -> "Poly":
    # wrap a packed map with no zero coefficients, without copying it
    res = Poly.__new__(Poly)
    res.vars = vars
    res._mons = mons
    return res


def _check_product_degree(a: dict, b: dict, shift: int) -> None:
    # a product's top degree is the sum of its factors' top degrees; checked
    # before multiplying, so no field ever carries into the next
    degree = (max(a) >> shift) + (max(b) >> shift)
    if degree > EXPONENT_LIMIT:
        raise ExponentLimitError(
            f"product of degree {degree} exceeds the limit {EXPONENT_LIMIT}"
        )


def _add_product(acc: dict, a: dict, b: dict, shift: int) -> None:
    """acc += a * b on packed maps (shift = the bit width of the variable
    fields).  Coefficients that cancel stay in acc as zeros, for
    _strip_zeros to drop once at the end."""
    if not a or not b:
        return
    _check_product_degree(a, b, shift)
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    bitems = b.items()
    for e1, c1 in a.items():
        for e2, c2 in bitems:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


def _strip_zeros(acc: dict) -> dict:
    # in place: a filtered copy would hold two maps of the full size at once
    for e in [e for e, c in acc.items() if not c]:
        del acc[e]
    return acc


class Poly:
    """Sparse multivariate polynomial with integer coefficients.

    Built from a map of exponent tuples (one slot per variable of the owning
    ring) to integer coefficients; zero coefficients are dropped, and the
    zero polynomial has no terms.  Monomials are held as packed ints (see the
    module docstring), and `terms` gives a read-only view keyed by exponent
    tuples.  Canonical display order is graded lexicographic, highest first.
    A monomial of total degree above EXPONENT_LIMIT raises
    ExponentLimitError.
    """

    __slots__ = ("vars", "_mons")

    def __init__(self, vars: tuple, terms: Mapping | None = None):
        self.vars = tuple(vars)
        nvars = len(self.vars)
        mons = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent tuple {tuple(exps)} does not fit {nvars} variables"
                    )
                if coeff:
                    mons[_pack(exps)] = coeff
        self._mons = mons

    @property
    def terms(self) -> Mapping:
        """Read-only map of exponent tuples to nonzero coefficients."""
        nvars = len(self.vars)
        return MappingProxyType(
            {_unpack(nvars, key): c for key, c in self._mons.items()}
        )

    @classmethod
    def constant(cls, vars: tuple, value: int) -> "Poly":
        return _poly(tuple(vars), {0: value} if value else {})

    @classmethod
    def variable(cls, vars: tuple, name: str) -> "Poly":
        vars = tuple(vars)
        shift = _FIELD * (len(vars) - 1 - vars.index(name))
        return _poly(vars, {(1 << (_FIELD * len(vars))) | (1 << shift): 1})

    def __bool__(self) -> bool:
        return bool(self._mons)

    def total_degree(self) -> int:
        # degree of the zero polynomial reported as -1
        if not self._mons:
            return -1
        return max(self._mons) >> (_FIELD * len(self.vars))

    def _coerce_other(self, other):
        if isinstance(other, Poly):
            if other.vars is not self.vars and other.vars != self.vars:
                raise RingMismatchError(
                    f"polynomials over different variables: {self.vars} vs {other.vars}"
                )
            return other
        if isinstance(other, int):
            return _poly(self.vars, {0: other} if other else {})
        raise RingMismatchError(f"cannot combine Poly with {type(other).__name__}")

    def __add__(self, other):
        if other.__class__ is not Poly or other.vars is not self.vars:
            other = self._coerce_other(other)
        out = dict(self._mons)
        get = out.get
        for e, c in other._mons.items():
            s = get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return _poly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.vars, {e: -c for e, c in self._mons.items()})

    def __sub__(self, other):
        if other.__class__ is not Poly or other.vars is not self.vars:
            other = self._coerce_other(other)
        out = dict(self._mons)
        get = out.get
        for e, c in other._mons.items():
            s = get(e, 0) - c
            if s:
                out[e] = s
            else:
                del out[e]
        return _poly(self.vars, out)

    def __rsub__(self, other):
        return self._coerce_other(other) - self

    def __mul__(self, other):
        if other.__class__ is not Poly or other.vars is not self.vars:
            other = self._coerce_other(other)
        a, b = self._mons, other._mons
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a term times a polynomial: keys stay distinct, no coefficient
            # vanishes
            _check_product_degree(a, b, _FIELD * len(self.vars))
            ((e1, c1),) = a.items()
            return _poly(self.vars, {e1 + e: c1 * c for e, c in b.items()})
        out = {}
        _add_product(out, a, b, _FIELD * len(self.vars))
        return _poly(self.vars, _strip_zeros(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        acc = Poly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, int):
            return self._mons == ({0: other} if other else {})
        return (
            isinstance(other, Poly)
            and (self.vars is other.vars or self.vars == other.vars)
            and self._mons == other._mons
        )

    def __hash__(self):
        mons = self._mons
        if not mons:
            return hash(0)
        if len(mons) == 1 and 0 in mons:
            # a constant equals its int, so it hashes as one
            return hash(mons[0])
        return hash((self.vars, frozenset(mons.items())))

    def leading(self) -> tuple:
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        e = max(self._mons)
        return _unpack(len(self.vars), e), self._mons[e]

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact quotient self/other; raises InexactDivisionError otherwise."""
        other = self._coerce_other(other)
        if not other:
            raise InexactDivisionError("polynomial division by zero")
        if not self:
            return _poly(self.vars, {})
        guards = _guards(len(self.vars))
        omons = other._mons
        if len(omons) == 1:
            # constant or monomial divisor: divide term-wise
            ((oe, oc),) = omons.items()
            if oc == 1 and not oe:
                return self
            quot = {}
            for e, c in self._mons.items():
                qe = e - oe
                if qe & guards:
                    raise InexactDivisionError("monomial does not divide term")
                qc, r = divmod(c, oc)
                if r:
                    raise InexactDivisionError("coefficient not divisible")
                quot[qe] = qc
            return _poly(self.vars, quot)
        # general long division: the remainder's leading monomial is its
        # largest key, tracked with a lazy-deletion max-heap of negated keys
        # instead of a rescan per quotient term
        lt_e = max(omons)
        lt_c = omons[lt_e]
        rem = dict(self._mons)
        heap = [-e for e in rem]
        heapq.heapify(heap)
        quot = {}
        while heap:
            re_ = -heapq.heappop(heap)
            rc = rem.get(re_)
            if rc is None:
                continue
            qe = re_ - lt_e
            if qe & guards:
                raise InexactDivisionError("monomial does not divide remainder")
            qc, r = divmod(rc, lt_c)
            if r:
                raise InexactDivisionError("coefficient not divisible")
            quot[qe] = qc
            for oe, oc in omons.items():
                e = qe + oe
                s = rem.get(e, 0) - qc * oc
                if s:
                    if e not in rem:
                        heapq.heappush(heap, -e)
                    rem[e] = s
                elif e in rem:
                    del rem[e]
        if rem:
            raise InexactDivisionError("nonzero remainder")
        return _poly(self.vars, quot)

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def format_poly(p: Poly) -> str:
    if not p._mons:
        return "0"
    names = p.vars[::-1]  # field i from the bottom holds names[i]
    low = (1 << (_FIELD * len(names))) - 1
    parts = []
    for key, coeff in sorted(p._mons.items(), reverse=True):
        # walk the nonzero fields only, from the first variable down
        rest = key & low
        mono = []
        while rest:
            i = (rest.bit_length() - 1) // _FIELD
            shift = _FIELD * i
            k = rest >> shift
            rest &= (1 << shift) - 1
            mono.append(names[i] if k == 1 else f"{names[i]}^{k}")
        mono = "*".join(mono)
        if not mono:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(mono)
        elif coeff == -1:
            parts.append("-" + mono)
        else:
            parts.append(f"{coeff}*{mono}")
    out = parts[0]
    for s in parts[1:]:
        if s.startswith("-"):
            out += " - " + s[1:]
        else:
            out += " + " + s
    return out


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ScalarParseError(f"bad character at position {pos} in {text!r}")
        if m.lastgroup == "num":
            tokens.append(("num", int(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _PolyParser:
    """Recursive-descent parser for conventional polynomial expressions,
    e.g. "2*x1^2*y3 - 5" or "-(x - 1)*(x + 1)"."""

    def __init__(self, ring: "PolynomialRing", text: str):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        value = self.expr()
        if self.peek()[0] != "end":
            raise ScalarParseError(f"trailing input at token {self.peek()!r}")
        return value

    def expr(self) -> Poly:
        kind, val = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                nxt = self.term()
                acc = acc - nxt if val == "-" else acc + nxt
            else:
                return acc

    def term(self) -> Poly:
        acc = self.power()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = acc * self.power()
            else:
                return acc

    def power(self) -> Poly:
        # a unary minus binds looser than ^, as at the start: x*-y^2 is x*(-(y^2))
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.power()
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            ekind, eval_ = self.take()
            if ekind != "num":
                raise ScalarParseError("exponent must be a non-negative integer")
            # checked before computing: a power of a constant has degree 0,
            # so the product's degree check would never stop it
            if eval_ > EXPONENT_LIMIT:
                raise ExponentLimitError(
                    f"exponent {eval_} exceeds the limit {EXPONENT_LIMIT}"
                )
            return base ** eval_
        return base

    def atom(self) -> Poly:
        kind, val = self.take()
        if kind == "num":
            return Poly.constant(self.ring.vars, val)
        if kind == "name":
            if val not in self.ring.vars:
                raise ScalarParseError(
                    f"unknown variable {val!r}; ring has {self.ring.vars}"
                )
            return Poly.variable(self.ring.vars, val)
        if kind == "op" and val == "(":
            inner = self.expr()
            kind, val = self.take()
            if (kind, val) != ("op", ")"):
                raise ScalarParseError("unbalanced parenthesis")
            return inner
        raise ScalarParseError(f"unexpected token {val!r}")


class Ring:
    """Abstract exact ring interface: `zero` and `one` (set by each concrete
    ring), coercion, exact division, parsing and formatting.  Arithmetic is
    the elements' own operators.  Concrete rings are value-comparable."""

    name = "?"

    def coerce(self, x) -> Scalar:
        raise NotImplementedError

    def exact_divide(self, x, y):
        raise NotImplementedError

    def dot(self, xs: Sequence, ys: Sequence) -> Scalar:
        """Sum of xs[i] * ys[i] over two sequences of equal length, in
        canonical form; the empty sum is this ring's zero."""
        return sum(map(mul, xs, ys), self.zero)

    def parse(self, text: str) -> Scalar:
        raise NotImplementedError

    def format(self, x) -> str:
        raise NotImplementedError

    def to_json_tag(self):
        return self.name

    def __repr__(self):
        return f"<ring {self.name}>"


_INT_RE = re.compile(r"^[+-]?\d+$")
_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class IntegerRing(Ring):
    name = "int"
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise RingMismatchError(f"not an integer: {x!r}")
        return x

    def exact_divide(self, x, y):
        if y == 0:
            raise InexactDivisionError("integer division by zero")
        q, r = divmod(x, y)
        if r:
            raise InexactDivisionError(f"{x} is not divisible by {y}")
        return q

    def parse(self, text):
        text = text.strip()
        if not _INT_RE.match(text):
            raise ScalarParseError(f"not an integer literal: {text!r}")
        return int(text)

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("int")


class RationalRing(Ring):
    name = "rat"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, bool):
            raise RingMismatchError("not a rational: bool")
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Fraction):
            return x
        raise RingMismatchError(f"not a rational: {x!r}")

    def exact_divide(self, x, y):
        if y == 0:
            raise InexactDivisionError("rational division by zero")
        return x / y

    def parse(self, text):
        text = text.strip()
        if not _RAT_RE.match(text):
            raise ScalarParseError(f"not a rational literal: {text!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ScalarParseError(f"zero denominator in {text!r}") from None

    def format(self, x):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("rat")


class PolynomialRing(Ring):
    """Multivariate polynomials over the integers in a fixed ordered set of
    variables.  Variable order is significant: it fixes the graded-lex
    canonical form and must match between interacting elements."""

    name = "poly"

    def __init__(self, vars: Sequence[str]):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError(f"duplicate variable names: {vars}")
        for v in vars:
            if not re.match(r"^[A-Za-z_][A-Za-z_0-9]*$", v):
                raise ValueError(f"bad variable name: {v!r}")
        self.vars = vars
        self.zero = Poly(vars, {})
        self.one = Poly.constant(vars, 1)

    def gens(self) -> tuple:
        return tuple(Poly.variable(self.vars, v) for v in self.vars)

    def gen(self, name: str) -> Poly:
        return Poly.variable(self.vars, name)

    def coerce(self, x):
        if isinstance(x, bool):
            raise RingMismatchError("not a polynomial: bool")
        if isinstance(x, int):
            return Poly.constant(self.vars, x)
        if isinstance(x, Poly):
            if x.vars is not self.vars and x.vars != self.vars:
                raise RingMismatchError(
                    f"polynomial over {x.vars}, ring has {self.vars}"
                )
            return x
        raise RingMismatchError(f"not a polynomial: {x!r}")

    def exact_divide(self, x, y):
        return x.exact_div(y)

    def dot(self, xs, ys):
        """Sum of xs[i] * ys[i], fused: every monomial product of every pair
        is added into one map, and the coefficients that cancel are dropped
        once at the end, so no product or partial sum is built as a Poly.
        Each pair's degree is checked as in Poly.__mul__; the inputs are
        not changed."""
        vars = self.vars
        shift = _FIELD * len(vars)
        acc = {}
        for x, y in zip(xs, ys):
            if x.__class__ is not Poly or x.vars is not vars:
                x = self.coerce(x)
            if y.__class__ is not Poly or y.vars is not vars:
                y = self.coerce(y)
            _add_product(acc, x._mons, y._mons, shift)
        return _poly(vars, _strip_zeros(acc))

    def parse(self, text):
        try:
            return _PolyParser(self, text.strip()).parse()
        except RecursionError:
            raise ScalarParseError("polynomial text is nested too deeply") from None

    def format(self, x):
        return format_poly(x)

    def to_json_tag(self):
        return {"poly": list(self.vars)}

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and self.vars == other.vars

    def __hash__(self):
        return hash(("poly", self.vars))


ZZ = IntegerRing()
QQ = RationalRing()


def ring_from_json_tag(tag) -> Ring:
    if tag == "int":
        return ZZ
    if tag == "rat":
        return QQ
    if isinstance(tag, dict) and set(tag) == {"poly"}:
        try:
            return PolynomialRing(tag["poly"])
        except ValueError as exc:
            raise ScalarParseError(f"bad ring tag {tag!r}: {exc}") from None
    raise ScalarParseError(f"unknown ring tag: {tag!r}")
