"""Truncated Laurent series in q^(1/2), and series with formal x^gamma symbols.

Exponents are integers in units of q^(1/2): stored exponent k means q^(k/2).
Every series carries a finite exactness window [lo, hi]:

  * below lo the series is guaranteed zero (a hard order bound),
  * on [lo, hi] the stored coefficients are exactly right,
  * above hi nothing is claimed.

Arithmetic propagates windows: products obey the convolution rule hi =
min(hi1 + lo2, hi2 + lo1).  Recomputing with a wider window always agrees
on the narrower one; tests rely on that.  No two series are added: the one
sum outside a product, the Moebius sum of ``dtseries``, is a dense list.

A ``HalfSeries`` keys the coefficient of q^(k/2) by its offset k - lo from
the window start, so every key lies on [0, hi - lo], and keeps its terms in
ascending order, each one nonzero.  CPython caches the ints -5 ... 256, so the
keys of a window up to 257 wide are shared objects, wherever the window
starts.  The public constructor takes absolute exponents, and sorts and
filters them; ``items``, ``coeff`` and the repr speak in absolute exponents
too.  Results built in offset order already are taken as they are by the
private ``HalfSeries._make``, which takes offsets: here products
(``_sum_of_products``), negation and integer multiples; in ``dtseries`` the
generating series' pieces and the extracted counts.  Only ``series`` and
``dtseries`` read ``coeffs`` or call ``_make``.  Likewise
``MultiSeries._make`` skips the box-key check for the series that are built
on their box: products, inverses and ``build_generating_series``.

Every product, of two ``HalfSeries`` or of two ``MultiSeries``, is one
accumulation (``_sum_of_products``): a piece (A B)_g = sum_(d <= g) A_d
B_(g-d) takes its window [lo, hi] from all its term products at once, then
adds every term pair into one dense list, the pair of offsets (k1, k2) of
factors on [lo1, hi1] and [lo2, hi2] at index k1 + k2 + (lo1 + lo2 - lo),
which is the result's own offset, walking the second factor as stored, in
ascending offset order, and stopping at that hi.  No intermediate series is
built and no pair above the certified hi is visited.

A ``MultiSeries`` holds one piece for every vector of its box, and a
product or inverse lists them in lex order, where g sits at its flat
position flat(g) = sum_i g_i s_i with mixed-radix strides s_i = prod_(j >
i) (gamma_max_j + 1).  For d <= g, flat(g - d) = flat(g) - flat(d), so
piece g reads A_d and B_(g-d) by position from the flat offsets of its own
sub-box {d <= g}, with no vector built per pair: prod_i (g_i + 1) pairs per piece,
sum_g prod_i (g_i + 1) per product (225 on the (4,4) box, 2025 on (8,8)).
The pairs, and so every sum and window, do not depend on the walk's order.

The inverse needs an x^0 piece that is 1 on its own window [0, h], and 1/A_0
is then known to be 1 on [0, h] only.  Every out_g = -(1/A_0) S_g carries
that factor, so the product rule caps it at min(hi, h + lo), where [lo, hi]
is the window of S_g = sum_(0 < d <= g) A_d out_(g-d).  Taking out_0 = A_0,
window and all, makes the recursion apply that cap by itself: if every
out_(g-d) has hi <= h + lo, then the pair (A_d, out_(g-d)) whose lo is the
least bounds hi(S_g) by hi(out_(g-d)) + lo(A_d) <= h + lo(S_g), and out_0
starts the induction with hi = h + 0.
"""

from __future__ import annotations

from .errors import DomainError
from .quiver import DimVector, enumerate_dim_vectors


def _sum_of_products(pairs) -> "HalfSeries":
    """sum of s1 * s2 over the (s1, s2) in ``pairs`` (at least one), as one
    accumulation: the window of the chain of products and sums, lo = the
    least lo1 + lo2 and hi = the least min(hi1 + lo2, hi2 + lo1), comes
    first, in one pass over the pairs.  When no pair has terms in both
    factors the sum is the empty series on that window.  Otherwise both
    are walked as stored, in ascending offset order, each offset k1 of s1
    moved by base = lo1 + lo2 - lo >= 0 onto the result's offsets: s2 is
    left at the first k1 + base + k2 above hi - lo, and s1 at the first k1 +
    base above hi - lo minus s2's first (least) offset, so no term pair above
    hi is visited, and a pair with an empty s2 is skipped.  Each visited k =
    k1 + base + k2 lies on [0, hi - lo] and adds into a dense list at index
    k, whose nonzero entries are the result's terms in ascending order."""
    lo = hi = None
    live = False
    for s1, s2 in pairs:
        lo1, lo2 = s1.lo, s2.lo
        low, high = lo1 + lo2, s1.hi + lo2
        if s2.hi + lo1 < high:
            high = s2.hi + lo1
        if lo is None or low < lo:
            lo = low
        if hi is None or high < hi:
            hi = high
        if s1.coeffs and s2.coeffs:
            live = True
    if not live:
        return HalfSeries._make({}, lo, hi)
    top = hi - lo
    acc = [0] * (top + 1)
    for s1, s2 in pairs:
        terms2 = s2.coeffs
        if not terms2:
            continue
        base = s1.lo + s2.lo - lo
        last = top - next(iter(terms2))   # the least k2 comes first
        terms2 = terms2.items()
        for k1, c1 in s1.coeffs.items():
            k1 += base
            if k1 > last:
                break
            for k2, c2 in terms2:
                k = k1 + k2
                if k > top:
                    break
                acc[k] += c1 * c2
    return HalfSeries._make({k: c for k, c in enumerate(acc) if c}, lo, hi)


class HalfSeries:
    """One Laurent series in q^(1/2) with a finite exactness window.
    ``coeffs`` holds the nonzero terms on [lo, hi] in ascending order, the
    coefficient of q^(k/2) keyed by its offset k - lo, on [0, hi - lo];
    ``items``, ``coeff`` and the repr use the absolute exponent k."""

    __slots__ = ("coeffs", "lo", "hi")

    def __init__(self, coeffs, lo: int, hi: int):
        """Keeps the nonzero terms of ``coeffs``, keyed by absolute
        exponent, up to hi, in ascending order.  A term below lo raises
        DomainError, naming the least."""
        self.lo = lo
        self.hi = hi
        self.coeffs = {}
        for k, c in sorted(coeffs.items()):
            if k < lo:
                raise DomainError(f"stored exponent {k} below window start {lo}")
            if k > hi:
                break
            if c:
                self.coeffs[k - lo] = c

    @classmethod
    def _make(cls, coeffs: dict, lo: int, hi: int) -> "HalfSeries":
        """The series with the terms ``coeffs``, keyed by offset from lo,
        already nonzero, on [0, hi - lo] and in ascending order, taken as
        they are."""
        s = cls.__new__(cls)
        s.coeffs, s.lo, s.hi = coeffs, lo, hi
        return s

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls, hi: int) -> "HalfSeries":
        return cls({0: 1}, 0, hi)

    # -- inspection ----------------------------------------------------------

    def items(self):
        return [(k + self.lo, c) for k, c in self.coeffs.items()]

    def coeff(self, k: int):
        """Coefficient of q^(k/2): 0 below lo, the order bound, and
        DomainError above hi."""
        if k > self.hi:
            raise DomainError(f"exponent {k} is beyond the certified window {self.window()}")
        return self.coeffs.get(k - self.lo, 0)

    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self):
        return HalfSeries._make({k: -c for k, c in self.coeffs.items()}, self.lo, self.hi)

    def __mul__(self, other):
        if isinstance(other, int):
            terms = {k: c * other for k, c in self.coeffs.items()} if other else {}
            return HalfSeries._make(terms, self.lo, self.hi)
        if not isinstance(other, HalfSeries):
            return NotImplemented
        return _sum_of_products([(self, other)])

    __rmul__ = __mul__

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, HalfSeries):
            return NotImplemented
        return (self.lo == other.lo and self.hi == other.hi
                and self.coeffs == other.coeffs)

    __hash__ = None

    def __repr__(self):
        return f"HalfSeries({dict(self.items())!r}, {self.lo}, {self.hi})"


def _sub_boxes(gamma_max: DimVector):
    """For each g of the box 0 <= g <= gamma_max, in lex (``product``)
    order, the flat positions of its sub-box {d <= g}, also in lex order.
    flat(g) = sum_i g_i s_i with s_i = prod_(j > i) (gamma_max_j + 1) is g's
    index in that order, so the first position is 0 (d = 0) and the last
    flat(g).  Since flat(g - d) = flat(g) - flat(d) for d <= g, a piece
    reads both factors of each pair by position.  Each list is built from
    its prefix's when it is reached, and none is kept.  Only the axes with
    gamma_max_i > 0 are walked, as an axis of size 1 adds no offset, so the
    recursion is at most log2 of the box size deep, whatever the number of
    vertices."""
    axes = []   # (gamma_max_i, s_i) of the walked axes, in axis order
    stride = 1
    for m in reversed(gamma_max):
        if m:
            axes.append((m, stride))
            stride *= m + 1
    axes.reverse()

    def walk(i, offsets):
        if i == len(axes):
            yield offsets
            return
        m, s = axes[i]
        for x in range(m + 1):
            yield from walk(i + 1, [o + j * s for o in offsets for j in range(x + 1)])

    return walk(0, [0])


class MultiSeries:
    """A series sum_gamma (HalfSeries in q) * x^gamma, truncated to a box.

    The domain is {gamma <= gamma_max componentwise}, and ``pieces`` holds
    exactly one piece for each gamma of it.  Pieces outside the domain are
    neither stored nor claimed.
    """

    __slots__ = ("gamma_max", "pieces")

    def __init__(self, gamma_max: DimVector, pieces: dict[DimVector, HalfSeries]):
        """Any other key set than the box, a missing piece or a key of
        another length included, raises DomainError."""
        self.gamma_max = tuple(gamma_max)
        if pieces.keys() != set(enumerate_dim_vectors(self.gamma_max, include_zero=True)):
            raise DomainError(f"the pieces are not exactly the truncation box {self.gamma_max}")
        self.pieces = pieces

    @classmethod
    def _make(cls, gamma_max: tuple, pieces: dict[DimVector, HalfSeries]) -> "MultiSeries":
        """The series with ``pieces``, whose keys are already exactly the
        box of the tuple ``gamma_max``, taken as they are."""
        m = cls.__new__(cls)
        m.gamma_max, m.pieces = gamma_max, pieces
        return m

    def _check_compatible(self, other):
        if self.gamma_max != other.gamma_max:
            raise DomainError("mismatched truncation boxes")

    def __mul__(self, other: "MultiSeries") -> "MultiSeries":
        """(self * other)_g = sum over d <= g of self_d other_(g-d), one
        accumulation per piece g (see ``_sum_of_products``): no
        ``HalfSeries`` per product or partial sum, and no term pair above
        the certified hi of the piece.  Both factors are read by flat
        position from g's sub-box (``_sub_boxes``): prod_i (g_i + 1) pairs
        per piece."""
        self._check_compatible(other)
        keys = sorted(self.pieces)    # the keys are the box: lex order
        a = [self.pieces[g] for g in keys]
        b = [other.pieces[g] for g in keys]
        out = {}
        for g, sub in zip(keys, _sub_boxes(self.gamma_max)):
            f = sub[-1]
            out[g] = _sum_of_products([(a[d], b[f - d]) for d in sub])
        return MultiSeries._make(self.gamma_max, out)

    def inverse(self) -> "MultiSeries":
        """Inverse of a series whose x^0 piece is 1 on its window [0, h]:
        out_0 = A_0, out_g = sum_(0 < d <= g) (-A_d) out_(g-d), walking g in
        lex order, with each -A_d taken once.  For 0 != d <= g, flat(g - d)
        = flat(g) - flat(d) < flat(g), so every out_(g-d) is ready when out_g
        needs it.  Each piece reads its pairs by flat position and is one
        accumulation with the hi cutoff, as in ``__mul__``.  out_0 keeps the
        window [0, h] of A_0, which caps every out_g at h + lo, as the factor
        1/A_0 must (see the module docstring)."""
        keys = sorted(self.pieces)
        unit = self.pieces[keys[0]]
        if unit.lo or unit.coeffs != {0: 1}:
            raise DomainError("generating series must have x^0 piece 1")
        minus = [unit] + [-self.pieces[g] for g in keys[1:]]   # index 0 is never read
        out = [unit]
        subs = _sub_boxes(self.gamma_max)
        next(subs)
        for sub in subs:
            f = sub[-1]
            out.append(_sum_of_products([(minus[d], out[f - d]) for d in sub[1:]]))
        return MultiSeries._make(self.gamma_max, dict(zip(keys, out)))
