"""Exact scalar arithmetic over the integers, the rationals, and sparse
multivariate integer polynomials.

Elements are plain values: Python int, fractions.Fraction, or Poly.  All
three overload +, -, * and unary -, and are false exactly when zero, so
matrix and identity code does its arithmetic with operators.  A Ring object
holds only what differs between the rings: zero and one, coercion,
exact division, and parsing and formatting.  fractions.Fraction already
keeps rationals reduced with a positive denominator, which is exactly the
canonical form required here.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from operator import add as _pairwise_add
from typing import Sequence, Union

from .errors import InexactDivisionError, RingMismatchError, ScalarParseError

Scalar = Union[int, Fraction, "Poly"]


def _grlex_key(exps: tuple) -> tuple:
    # graded lexicographic: total degree first, then lex on the exponent tuple
    return (sum(exps), exps)


class Poly:
    """Sparse multivariate polynomial with integer coefficients.

    `terms` maps exponent tuples (one slot per variable of the owning ring)
    to nonzero integer coefficients; the zero polynomial has an empty map.
    Canonical display order is graded lexicographic, highest first.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple, terms: dict | None = None):
        self.vars = tuple(vars)
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def constant(cls, vars: tuple, value: int) -> "Poly":
        if value == 0:
            return cls(vars, {})
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def variable(cls, vars: tuple, name: str) -> "Poly":
        idx = vars.index(name)
        exps = tuple(1 if k == idx else 0 for k in range(len(vars)))
        return cls(vars, {exps: 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        # degree of the zero polynomial reported as -1
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _coerce_other(self, other):
        if isinstance(other, int):
            return Poly.constant(self.vars, other)
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise RingMismatchError(
                    f"polynomials over different variables: {self.vars} vs {other.vars}"
                )
            return other
        raise RingMismatchError(f"cannot combine Poly with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce_other(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        res = Poly.__new__(Poly)
        res.vars = self.vars
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = Poly.__new__(Poly)
        res.vars = self.vars
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-self._coerce_other(other))

    def __rsub__(self, other):
        return self._coerce_other(other) + (-self)

    def __mul__(self, other):
        other = self._coerce_other(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(_pairwise_add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        res = Poly.__new__(Poly)
        res.vars = self.vars
        res.terms = out
        return res

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
            return self.terms == Poly.constant(self.vars, other).terms
        return (
            isinstance(other, Poly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def leading(self) -> tuple:
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact quotient self/other; raises InexactDivisionError otherwise."""
        other = self._coerce_other(other)
        if not other:
            raise InexactDivisionError("polynomial division by zero")
        if not self:
            return Poly(self.vars, {})
        oterms = other.terms
        if len(oterms) == 1:
            # constant or monomial divisor: divide term-wise
            ((oe, oc),) = oterms.items()
            if oc == 1 and not any(oe):
                return self
            quot = {}
            by_monomial = any(oe)
            for e, c in self.terms.items():
                if by_monomial:
                    qe = tuple(a - b for a, b in zip(e, oe))
                    if any(x < 0 for x in qe):
                        raise InexactDivisionError("monomial does not divide term")
                else:
                    qe = e
                qc, r = divmod(c, oc)
                if r:
                    raise InexactDivisionError("coefficient not divisible")
                quot[qe] = qc
            return Poly(self.vars, quot)
        # general long division; the remainder's leading term is tracked with
        # a lazy-deletion max-heap instead of a rescan per quotient term
        lt_e, lt_c = other.leading()
        rem = dict(self.terms)
        heap = [(-sum(e), tuple(-x for x in e), e) for e in rem]
        heapq.heapify(heap)
        quot = {}
        while heap:
            re_ = heapq.heappop(heap)[2]
            rc = rem.get(re_)
            if rc is None:
                continue
            qe = tuple(a - b for a, b in zip(re_, lt_e))
            if any(x < 0 for x in qe):
                raise InexactDivisionError("monomial does not divide remainder")
            qc, r = divmod(rc, lt_c)
            if r:
                raise InexactDivisionError("coefficient not divisible")
            quot[qe] = qc
            for oe, oc in oterms.items():
                e = tuple(map(_pairwise_add, qe, oe))
                s = rem.get(e, 0) - qc * oc
                if s:
                    if e not in rem:
                        heapq.heappush(heap, (-sum(e), tuple(-x for x in e), e))
                    rem[e] = s
                elif e in rem:
                    del rem[e]
        if rem:
            raise InexactDivisionError("nonzero remainder")
        return Poly(self.vars, quot)

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def format_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)
    parts = []
    for exps, coeff in items:
        mono = "*".join(
            name if k == 1 else f"{name}^{k}"
            for name, k in zip(p.vars, exps)
            if k
        )
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
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            ekind, eval_ = self.take()
            if ekind != "num":
                raise ScalarParseError("exponent must be a non-negative integer")
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
        if kind == "op" and val == "-":
            return -self.atom()
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
            if x.vars != self.vars:
                raise RingMismatchError(
                    f"polynomial over {x.vars}, ring has {self.vars}"
                )
            return x
        raise RingMismatchError(f"not a polynomial: {x!r}")

    def exact_divide(self, x, y):
        return x.exact_div(y)

    def parse(self, text):
        return _PolyParser(self, text).parse()

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
