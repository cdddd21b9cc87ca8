"""Sparse multivariate polynomials over exact rationals, in colored variables.

The variable set is declared by a dimension vector gamma: one block of
variables x_{i,1}, ..., x_{i,gamma^i} per vertex i, flattened in (vertex,
slot) order.  Exponent vectors are packed into a single integer, one byte per
variable with the first variable most significant, so that monomial
multiplication is integer addition and lexicographic comparison is integer
comparison.  Every exponent is at most 127, so bit 7 of each byte is an
overflow guard: the sum of two keys never carries into the next byte, and a
set guard bit marks an exponent above 127.  Int coefficients stay ints
through sums, products and ``exact_divide``.  Fractions come only from the
literals p/q of ``parse_colored_poly``; one that reduces to an integer
compares, hashes and renders like that integer.  ``fractions`` is imported
where the parser makes a Fraction, never at module import, so a mode that
makes no Fraction does not load it.  A product takes two polynomials on one
variable set; a scalar is ``ColoredPoly.constant``.

``exact_divide(f, p)`` is the divided difference d_p f = (f - s_p f) /
(x_(p+1) - x_p), s_p swapping x_p and x_(p+1), the step of every Hall
product.  It uses the closed form on monomials: for exponents a != b of x_p
and x_(p+1),

    d_p(x_p^a x_(p+1)^b) = sign(b - a) * sum_(i < |a - b|)
                           x_p^(min(a,b)+i) x_(p+1)^(max(a,b)-1-i),

and d_p vanishes on a = b.  This is exact: x_p^a x_(p+1)^b - x_p^b x_(p+1)^a
is (x_p x_(p+1))^min(a,b) times x_(p+1)^n - x_p^n, up to the sign, n = |a - b|,
and (x_(p+1)^n - x_p^n) / (x_(p+1) - x_p) is the geometric sum above.  Since
d_p(s_p m) = -d_p m, a pair of terms that s_p swaps into one another gives
its net coefficient times one such sum, so the step visits each pair once
and never builds f - s_p f.  The keys of one sum form an arithmetic strand
of step x_p / x_(p+1) in packed terms; every exponent in it is at most
max(a, b) - 1 <= 126 and at least 0, so no key can overflow or borrow, and
the quotient needs no remainder check.

No floating point appears anywhere in this module.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import accumulate
from operator import or_

from .errors import DomainError, LimitExceededError
from .quiver import DimVector

_MAXEXP = 127


def _pack(exps):
    if max(exps, default=0) > _MAXEXP:
        raise LimitExceededError(
            f"exponent {max(exps)} exceeds the packed-exponent limit {_MAXEXP}")
    return int.from_bytes(bytes(exps), "big")


def _unpack(key, nvars):
    return tuple(key.to_bytes(nvars, "big"))


class ColoredPoly:
    """A polynomial in the variable set declared by ``gamma``, built from
    ``zero``, ``constant``, ``variable`` and ``parse_colored_poly`` by ring
    operations."""

    __slots__ = ("gamma", "nvars", "_terms")

    @classmethod
    def _make(cls, gamma, packed):
        """The polynomial with packed terms {key: nonzero coefficient},
        taken as they are."""
        p = cls.__new__(cls)
        p.gamma = tuple(gamma)
        p.nvars = sum(gamma)
        p._terms = packed
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, gamma) -> "ColoredPoly":
        return cls._make(gamma, {})

    @classmethod
    def constant(cls, gamma, c) -> "ColoredPoly":
        return cls._make(gamma, {0: c} if c else {})

    @classmethod
    def variable(cls, gamma, vertex: int, slot: int) -> "ColoredPoly":
        """x_{vertex, slot}, slot 1-based within the color block."""
        gamma = tuple(gamma)
        if not (0 <= vertex < len(gamma)) or not (1 <= slot <= gamma[vertex]):
            raise DomainError(f"no variable x{vertex}_{slot} for gamma={gamma}")
        flat = sum(gamma[:vertex]) + slot - 1
        exps = [0] * sum(gamma)
        exps[flat] = 1
        return cls._make(gamma, {_pack(exps): 1})

    # -- inspection --------------------------------------------------------

    def __bool__(self):
        return bool(self._terms)

    def terms(self):
        """(exponent tuple, coefficient) pairs, leading (lex-descending) first."""
        for key in sorted(self._terms, reverse=True):
            yield _unpack(key, self.nvars), self._terms[key]

    def __len__(self):
        """The number of terms."""
        return len(self._terms)

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other):
        if self.gamma != other.gamma:
            raise DomainError(
                f"variable sets differ: gamma {self.gamma} vs {other.gamma}")

    def __add__(self, other):
        if not isinstance(other, ColoredPoly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return ColoredPoly._make(self.gamma, out)

    def __neg__(self):
        return ColoredPoly._make(self.gamma, {k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, ColoredPoly):
            return NotImplemented
        self._check_compatible(other)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        guard = int.from_bytes(b"\x80" * self.nvars, "big")
        if reduce(or_, out, 0) & guard:
            top = max(max(_unpack(key, self.nvars)) for key in out)
            raise LimitExceededError(
                f"product exponent {top} exceeds the packed-exponent limit {_MAXEXP}")
        return ColoredPoly._make(self.gamma, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        result = ColoredPoly.constant(self.gamma, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other):
        if not isinstance(other, ColoredPoly):
            return NotImplemented
        return self.gamma == other.gamma and self._terms == other._terms

    __hash__ = None

    # -- symmetry ----------------------------------------------------------

    def is_block_symmetric(self) -> bool:
        """Invariance under permuting variables within each color block.

        Checked on adjacent transpositions, which generate each block's
        symmetric group: ``exact_divide(self, v)`` vanishes for every pair
        of slots v, v + 1 inside one block.  That is exact, since
        (x_(v+1) - x_v) d_v f = f - s_v f and x_(v+1) - x_v is not a zero
        divisor, so d_v f = 0 exactly when f = s_v f.
        """
        starts = set(accumulate(self.gamma))   # v + 1 in starts: v ends a block
        return not any(exact_divide(self, v) for v in range(self.nvars - 1)
                       if v + 1 not in starts)

    # -- rendering ----------------------------------------------------------

    def var_name(self, flat: int) -> str:
        offset = 0
        for i, size in enumerate(self.gamma):
            if flat < offset + size:
                return f"x{i}_{flat - offset + 1}"
            offset += size
        raise DomainError(f"no variable with flat index {flat}")

    def canonical_str(self) -> str:
        """Deterministic rendering: terms in descending lex order."""
        if not self._terms:
            return "0"
        parts = []
        for exps, c in self.terms():
            factors = [f"{self.var_name(v)}" + (f"^{e}" if e > 1 else "")
                       for v, e in enumerate(exps) if e]
            mag = abs(c)
            body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"ColoredPoly(gamma={self.gamma}, {self.canonical_str()})"


def _placement(nvars: int, new_gamma: DimVector, var_map) -> tuple:
    """The bit fields that move variable v of a set of nvars variables to
    variable var_map[v] of the set declared by new_gamma, for ``_place``:
    (source shift, mask, target shift) per maximal run of consecutive
    variables that land on consecutive slots, so a map that keeps the order
    of a whole block moves it as one field.  The map must be injective and
    into the new set, or DomainError is raised; this is the check of a
    substitution that places a factor's variables into chosen slots of a
    product, made once per map."""
    nv_new = sum(new_gamma)
    var_map = tuple(var_map)
    if len(var_map) != nvars:
        raise DomainError("variable map length mismatch")
    if len(set(var_map)) != len(var_map):
        raise DomainError("variable substitution must be injective")
    if any(not 0 <= v < nv_new for v in var_map):
        raise DomainError("variable map target out of range")
    fields = []
    v = 0
    while v < nvars:
        w = v + 1
        while w < nvars and var_map[w] == var_map[w - 1] + 1:
            w += 1
        fields.append((8 * (nvars - w), (1 << 8 * (w - v)) - 1,
                       8 * (nv_new - var_map[v] - (w - v))))
        v = w
    return tuple(fields)


def _place(f: ColoredPoly, new_gamma: DimVector, fields) -> ColoredPoly:
    """f on the variable set of new_gamma, each key moved by the bit fields
    that ``_placement`` built for f's variable count and new_gamma:
    ((key >> s) & mask) << t per field.  The fields are trusted, so this is
    one pass over f's terms with no check."""
    out = {}
    for k, c in f._terms.items():
        key = 0
        for s, m, t in fields:
            key |= (k >> s & m) << t
        out[key] = c
    return ColoredPoly._make(new_gamma, out)


def exact_divide(f: ColoredPoly, p: int) -> ColoredPoly:
    """The divided difference d_p f = (f - s_p f) / (x_(p+1) - x_p), s_p
    swapping x_p and x_(p+1), in one pass over f (see the module docstring).

    Each pair of terms that s_p swaps into one another is visited once, from
    the key whose x_p exponent a exceeds the x_(p+1) exponent b, or from the
    other key when f lacks that one; its net coefficient, with the sign of
    the closed form, is added at the |a - b| keys of its strand.  A term
    symmetric in the two variables contributes nothing.
    """
    if not 0 <= p < f.nvars - 1:
        raise DomainError(f"no variables {p}, {p + 1} among {f.nvars}")
    s2 = 8 * (f.nvars - 2 - p)
    u2 = 1 << s2
    u1 = u2 << 8
    step = u1 - u2
    terms = f._terms
    out = {}
    get = out.get
    for k, c in terms.items():
        n = ((k >> s2 + 8) & 255) - ((k >> s2) & 255)
        if n > 0:   # x_p^a x_(p+1)^b, a > b: -x_p^(b+i) x_(p+1)^(a-1-i), top key first
            c = terms.get(k - n * step, 0) - c
            k -= u1
            inc = -step
        elif n < 0 and k - n * step not in terms:   # a < b, its swap absent
            k -= u2
            inc = step
            n = -n
        else:
            continue
        if c:
            while n:
                s = get(k, 0) + c
                if s:
                    out[k] = s
                else:
                    del out[k]
                k += inc
                n -= 1
    return ColoredPoly._make(f.gamma, out)


# -- parsing ----------------------------------------------------------------

# compiled by the first parse (``re`` caches it), not at import: only
# ``shuffle-eval`` parses literals
_TOKEN = r"\s*(x\d+_\d+|x|\d+|\^|\*|\+|-|/|\(|\))"


def _integer(tok: str) -> int:
    """int(tok); DomainError when tok is longer than the interpreter converts
    (sys.get_int_max_str_digits, 4300 digits by default)."""
    try:
        return int(tok)
    except ValueError:
        raise DomainError(f"integer of {len(tok)} digits in polynomial is too long") from None


class _Parser:
    def __init__(self, gamma, text):
        self.gamma = tuple(gamma)
        self.tokens = []
        token = re.compile(_TOKEN)
        pos = 0
        while pos < len(text):
            m = token.match(text, pos)
            if not m:
                raise DomainError(f"cannot tokenize polynomial at: {text[pos:pos + 10]!r}")
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> ColoredPoly:
        p = self.expr()
        if self.peek() is not None:
            raise DomainError(f"unexpected token {self.peek()!r} in polynomial")
        return p

    def expr(self):
        p = ColoredPoly.zero(self.gamma)
        while True:
            negate = False
            while self.peek() in ("+", "-"):
                if self.next() == "-":
                    negate = not negate
            term = self.term()
            p = p + (-term if negate else term)
            if self.peek() not in ("+", "-"):
                return p

    def term(self):
        p = self.factor()
        while self.peek() == "*":
            self.next()
            p = p * self.factor()
        return p

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.next()
            tok = self.next()
            if tok is None or not tok.isdigit():
                raise DomainError("expected integer exponent after '^'")
            base = base ** _integer(tok)
        return base

    def atom(self):
        tok = self.next()
        if tok is None:
            raise DomainError("unexpected end of polynomial")
        if tok == "(":
            p = self.expr()
            if self.next() != ")":
                raise DomainError("unbalanced parenthesis in polynomial")
            return p
        if tok.isdigit():
            value = _integer(tok)
            if self.peek() == "/":
                self.next()
                den = self.next()
                if den is None or not den.isdigit():
                    raise DomainError("expected integer denominator after '/'")
                if not _integer(den):
                    raise DomainError(f"zero denominator in {value}/{den}")
                from fractions import Fraction   # only a p/q literal makes one
                return ColoredPoly.constant(self.gamma, Fraction(value, int(den)))
            return ColoredPoly.constant(self.gamma, value)
        if tok == "x":
            if sum(self.gamma) != 1:
                raise DomainError("bare 'x' is only allowed with a single variable")
            vertex = next(i for i, s in enumerate(self.gamma) if s)
            return ColoredPoly.variable(self.gamma, vertex, 1)
        m = re.fullmatch(r"x(\d+)_(\d+)", tok)
        if m:
            return ColoredPoly.variable(self.gamma, _integer(m.group(1)), _integer(m.group(2)))
        raise DomainError(f"unexpected token {tok!r} in polynomial")


def parse_colored_poly(gamma, text: str) -> ColoredPoly:
    """Parse the canonical rendering back into a polynomial.

    Grammar: sums of '*'-separated factors; factors are integers, rational
    literals p/q, variables ``x<vertex>_<slot>`` (1-based slot), or a bare
    ``x`` when the variable set has a single member; '^' takes powers.
    A literal nested deeper than the interpreter recurses raises DomainError.
    """
    try:
        return _Parser(gamma, text).parse()
    except RecursionError:
        raise DomainError("polynomial nested too deeply") from None
