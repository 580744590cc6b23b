"""F_p[t] as a ring of chains: dense polynomial arithmetic, irreducible
moduli, kth power residue tests, and the search for chain moduli.  No chain
verifier lives here: the verifiers of `chains` take polynomial candidates
such as 1, t, t^2, ... too, checked by `_ff_terms` and reduced through the
chain core's `_ring` built here.

All F_p[t] arithmetic is one kernel on coefficient tuples, lowest degree
first, with entries in [0, p) and no trailing zeros (the zero polynomial is
the empty tuple): multiplication, division by a monic, and mulmod/powmod
against a fixed monic modulus.  `FFPoly` wraps such a tuple and hands every
operator to the kernel.  The irreducible sieve works on tuples and builds
`FFPoly` objects only for the irreducibles it returns; the modulus search
reduces E as tuples, through the chain core's per-modulus test, and returns
the `FFPoly` moduli the sieve built.

`irreducibles_of_degree` sieves the p^d monics of degree d, held in one
bytearray indexed by base-p value: it marks every product g*h of a monic
irreducible g of degree <= d/2 and a monic h of the complementary degree, and
what stays unmarked is irreducible.  No product is multiplied out: h runs
through its monics in base-p counting order, each step adds 1 + t + ... + t^j
to h, and so g*(1 + t + ... + t^j) to g*h, whose changed digits move the
bytearray index.  One loop serves every p.  Rabin's criterion
(`is_irreducible`) is the independent check.  Enumeration is capped at
MAX_MONICS monics: a call that would sieve or search more raises
SizeLimitError before any work.

The residue test uses the characteristic-p reduction: writing k = p^t * k'
with gcd(k', p) = 1, an element is a kth power residue mod an irreducible f
iff it is a k'th power residue, because x -> x^p is a bijection (Frobenius)
of the residue field.  In particular every element is a kth residue when k is
a power of p.  A nonzero a is a k'th residue iff a^((q-1)/g) = 1, with
q = p^deg f the size of the residue field and g = gcd(k', q-1).  When g
divides p - 1 that power is N(a)^((p-1)/g), where the norm
N(a) = a^((q-1)/(p-1)) lies in F_p and equals the resultant Res(f, a) of the
monic f (Rosen, Number Theory in Function Fields, ch. 3): an O(d^2)
Euclidean resultant and one integer `pow` stand in for a powmod whose
exponent is about q.  That covers every k = 2 test over odd p; the rest
keep square-and-multiply, which over F_2 runs on bitmask ints (bit i the
coefficient of t^i) with carry-less products and hands a tuple back, for
every F_2 power alike.  The public `powmod` and Rabin's test always square
and multiply, since their moduli may be reducible, where the identity
fails.

The constant field is restricted to prime fields F_p; extension constant
fields would add a second layer of field arithmetic without changing any of
the ideas, and are left as an extension point.

Text format (used by the CLI and JSON output): `GF(p)[c0,c1,...]` with
coefficients lowest-degree first, e.g. GF(3)[1,0,1] for t^2 + 1 over F_3.
The zero polynomial prints as GF(p)[0].
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product
from operator import index

from powerchains import _subsets, arith
from powerchains.errors import SizeLimitError

__all__ = [
    "FFPoly",
    "MAX_MONICS",
    "powmod",
    "poly_gcd",
    "is_irreducible",
    "irreducibles_of_degree",
    "is_kth_residue_ff",
    "find_chain_irreducibles",
    "residue_field",
    "poly_from_text",
    "poly_to_text",
]

# Monics one sieve or search may enumerate.  At the cap a search takes about
# 1 s (F_251[t] to degree 2, k = 2, on a 2-core host), so a larger field
# fails fast instead of running for minutes.
MAX_MONICS = 2**16


@lru_cache(maxsize=None)
def _check_characteristic(p: int) -> int:
    if p < 2 or not arith.is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    return p


# -- the kernel: arithmetic on coefficient tuples ---------------------------


def _trim(c) -> tuple:
    """Coefficients in [0, p) as a kernel tuple: trailing zeros dropped."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _add(a: tuple, b: tuple, p: int) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


def _neg(a: tuple, p: int) -> tuple:
    return tuple([-c % p for c in a])


def _product(a: tuple, b: tuple) -> list:
    """Coefficients of a*b over Z, not yet reduced mod p; a, b nonzero."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _mul(a: tuple, b: tuple, p: int) -> tuple:
    if not a or not b:
        return ()
    # the leading coefficient is a product of units mod p: nothing to trim.
    # A list, not a generator, so the tuple is allocated at its final size.
    return tuple([c % p for c in _product(a, b)])


def _divmod(c: list, f: tuple, p: int) -> tuple[tuple, tuple]:
    """(quotient, remainder) of c by a monic f, where c is a list of integer
    coefficients, not necessarily reduced mod p; c is consumed."""
    d = len(f) - 1
    quot = []
    for s in range(len(c) - 1 - d, -1, -1):
        q = c.pop() % p
        quot.append(q)
        if q:
            for j in range(d):
                c[s + j] -= q * f[j]
    return _trim(quot[::-1]), _trim([x % p for x in c])


class _Modulus:
    """A monic modulus f of degree >= 1 over F_p, fixed for a run of
    mulmods; `a % m` reduces a kernel tuple a, as the chain core expects."""

    __slots__ = ("f", "p")

    def __init__(self, f: tuple, p: int):
        self.f = f
        self.p = p

    def __rmod__(self, a: tuple) -> tuple:
        if len(a) < len(self.f):
            return a
        return _divmod(list(a), self.f, self.p)[1]


def _mulmod(a: tuple, b: tuple, m: _Modulus) -> tuple:
    if not a or not b:
        return ()
    return _divmod(_product(a, b), m.f, m.p)[1]


def _powmod(a: tuple, e: int, m: _Modulus) -> tuple:
    """a^e mod m by left-to-right square-and-multiply, e >= 0.

    Over F_2 the loop runs on bitmask ints, bit i the coefficient of t^i, as
    NTL's GF2X does.  Squaring is linear over F_2, r(t)^2 = sum of t^(2i)
    over the set bits i of r, so reading r's binary digits as base-4 digits
    squares it; a product by a XORs in shifted copies of the running value,
    one per set bit of a; and each step's result is reduced by XOR-ing in
    shifted copies of f until its degree is below deg f.  Other p run the
    kernel's `_mulmod`.
    """
    if not e:
        return (1,)
    if m.p == 2:
        f = 0
        for c in reversed(m.f):
            f = f << 1 | c
        r = 0
        for c in reversed(a):
            r = r << 1 | c
        top = len(m.f)  # bit length of f
        while (n := r.bit_length()) >= top:
            r ^= f << (n - top)
        shifts = [i for i in range(r.bit_length()) if r >> i & 1]
        for bit in bin(e)[3:]:
            r = int(bin(r)[2:], 4)
            if bit == "1":
                s = 0
                for i in shifts:
                    s ^= r << i
                r = s
            while (n := r.bit_length()) >= top:
                r ^= f << (n - top)
        return tuple([r >> i & 1 for i in range(r.bit_length())])
    a = a % m
    result = a
    for bit in bin(e)[3:]:
        result = _mulmod(result, result, m)
        if bit == "1":
            result = _mulmod(result, a, m)
    return result


def _norm(a: tuple, m: _Modulus) -> int:
    """N(a) = Res(f, a) mod p for a nonzero a reduced mod the monic irreducible
    f of m: the product of a over the roots of f, by Euclid's algorithm on
    kernel tuples, whose remainders stay nonzero until a is a constant."""
    f, p, out = m.f, m.p, 1
    while len(f) > 1:
        # with a = c * a~, a~ monic, and f = u * a~ + r:
        # N_f(a) = c^deg f * (-1)^(deg f * deg a) * N_a~(r)
        d, c = len(f) - 1, a[-1]
        if d * (len(a) - 1) & 1:
            out = -out % p
        if c != 1:
            out = out * pow(c, d, p) % p
            inv = pow(c, -1, p)
            a = tuple([x * inv % p for x in a])
        f, a = a, _divmod(list(f), a, p)[1]
    return out


def _residue_power(a: tuple, e: int, m: _Modulus) -> tuple:
    """a^e mod m for an irreducible m, a nonzero mod m and e >= 0.  In the
    residue field F_q, q = p^deg m, a^n with n = (q-1)/(p-1) is the norm N(a)
    in F_p; so when n divides e, a^e is the constant N(a)^(e/n).  Otherwise
    `_powmod`.  `Ring.is_residue` settles 0 before it asks for a power."""
    p = m.p
    n = (p ** (len(m.f) - 1) - 1) // (p - 1)
    if e % n:
        return _powmod(a, e, m)
    c = pow(_norm(a % m, m), e // n, p)
    return (c,) if c else ()


# -- polynomials --------------------------------------------------------------


class FFPoly:
    """Dense polynomial over F_p: coeffs[i] is the coefficient of t^i.

    Instances are normalized (coefficients reduced mod p, no trailing zeros;
    the zero polynomial has an empty coefficient tuple), immutable and
    hashable, so they can live in sets of subset sums; two are equal when
    their p and coefficients are, and an int equals none of them.  `coeffs`
    is a kernel tuple, and every operator is computed on it by the kernel.
    p and the coefficients are taken through `operator.index`, so a float
    raises TypeError.  The constructor builds every polynomial, FFPoly(p, ())
    the zero one and FFPoly(p, (c,)) the constant c; `FFPoly.gen(p)` is t.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        p = _check_characteristic(index(p))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", _trim([index(c) % p for c in coeffs]))

    @classmethod
    def _of(cls, p: int, coeffs: tuple) -> "FFPoly":
        """Wrap a kernel tuple over a checked characteristic, skipping the
        normalization it already has."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "p", p)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to {name!r}: FFPoly is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __reduce__(self):
        # pickle and copy would otherwise restore the slots by assignment
        return FFPoly, (self.p, self.coeffs)

    @classmethod
    def gen(cls, p: int) -> "FFPoly":
        """The indeterminate t."""
        return cls(p, (0, 1))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __call__(self, x: int) -> int:
        y = 0
        for c in reversed(self.coeffs):
            y = (y * x + c) % self.p
        return y

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "FFPoly":
        if isinstance(other, FFPoly):
            if other.p != self.p:
                raise ValueError(
                    f"characteristic mismatch: F_{self.p} vs F_{other.p}")
            return other
        if isinstance(other, int):
            return FFPoly(self.p, (other,))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FFPoly._of(self.p, _add(self.coeffs, other.coeffs, self.p))

    __radd__ = __add__

    def __neg__(self):
        return FFPoly._of(self.p, _neg(self.coeffs, self.p))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FFPoly._of(self.p, _mul(self.coeffs, other.coeffs, self.p))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        e = _subsets.check_bound(e, "exponent", 0)
        p, result, base = self.p, (1,), self.coeffs
        while e:
            if e & 1:
                result = _mul(result, base, p)
            e >>= 1
            if e:
                base = _mul(base, base, p)
        return FFPoly._of(p, result)

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        # divide by the monic associate, then scale the quotient back
        p = self.p
        inv = pow(other.coeffs[-1], -1, p)
        quot, rem = _divmod(list(self.coeffs), other.monic().coeffs, p)
        return FFPoly._of(p, tuple([c * inv % p for c in quot])), FFPoly._of(p, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "FFPoly":
        """Scale by the inverse of the leading coefficient."""
        if not self or self.is_monic():
            return self
        inv = pow(self.coeffs[-1], -1, self.p)
        return FFPoly._of(self.p, tuple([c * inv % self.p for c in self.coeffs]))

    # -- formatting --------------------------------------------------------

    def __str__(self):
        if not self:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}t^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return poly_to_text(self)


def _sort_key(f: FFPoly):
    # (degree, coefficients highest-first): same-degree polynomials compare
    # like base-p integer values
    return (f.degree, f.coeffs[::-1])


_GF_TEXT = re.compile(r"^GF\((\d+)\)\[([0-9,\-\s]*)\]$")


def poly_to_text(f: FFPoly) -> str:
    """Canonical text form, e.g. GF(3)[1,0,1] for t^2 + 1 over F_3."""
    coeffs = f.coeffs if f.coeffs else (0,)
    return f"GF({f.p})[{','.join(str(c) for c in coeffs)}]"


def poly_from_text(text: str) -> FFPoly:
    """Parse the GF(p)[c0,c1,...] format (lowest-degree first).

    Coefficients outside [0, p) are reduced; GF(p)[] and GF(p)[0] both parse
    to the zero polynomial.
    """
    m = _GF_TEXT.match(text.strip())
    if not m:
        raise ValueError(f"malformed polynomial literal {text!r}; "
                         f"expected GF(p)[c0,c1,...]")
    p = int(m.group(1))
    body = m.group(2).strip()
    try:
        coeffs = tuple(int(tok) for tok in body.split(",")) if body else ()
    except ValueError:
        raise ValueError(f"malformed coefficient list in {text!r}") from None
    return FFPoly(p, coeffs)


def powmod(base: FFPoly, exp: int, modulus: FFPoly) -> FFPoly:
    """base^exp mod modulus by square-and-multiply."""
    exp = _subsets.check_bound(exp, "exponent", 0)
    if modulus.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    if base.p != modulus.p:
        raise ValueError(f"characteristic mismatch: F_{base.p} vs F_{modulus.p}")
    # a remainder mod f is a remainder mod its monic associate
    m = _Modulus(modulus.monic().coeffs, modulus.p)
    return FFPoly._of(base.p, _powmod(base.coeffs, exp, m))


def poly_gcd(a: FFPoly, b: FFPoly) -> FFPoly:
    """Monic greatest common divisor."""
    a._coerce(b)
    while b:
        a, b = b, a % b
    return a.monic()


def is_irreducible(f: FFPoly) -> bool:
    """Irreducibility over F_p for nonconstant f (constants raise).

    Rabin's criterion: t^(p^d) = t (mod f), and gcd(t^(p^(d/l)) - t, f) = 1
    for every prime l dividing d.  The powers t^(p^i) come one Frobenius
    step x -> x^p at a time, and each gcd runs as soon as its power is
    known, so an f with a factor whose degree divides some d/l fails before
    the last step.  Unit scaling is irrelevant, so non-monic input is
    normalized first.
    """
    if f.degree < 1:
        raise ValueError("irreducibility is only defined for degree >= 1")
    f = f.monic()
    p, d = f.p, f.degree
    t = FFPoly.gen(p)
    gcd_steps = {d // ell for ell, _ in arith.factor(d)}
    x = t % f
    for i in range(1, d + 1):
        x = powmod(x, p, f)
        if i in gcd_steps and poly_gcd(x - t, f).degree > 0:
            return False
    return x == t % f


def _check_monic_count(p: int, degrees: range) -> None:
    """SizeLimitError up front when the monics of these degrees over F_p
    number more than MAX_MONICS."""
    count = 0
    for d in degrees:
        # p^d > MAX_MONICS already for d >= its bit length, so the power
        # never needs to be larger than that
        count += p ** min(d, MAX_MONICS.bit_length())
        if count > MAX_MONICS:
            span = f"{degrees[0]}..{degrees[-1]}" if len(degrees) > 1 else f"{d}"
            raise SizeLimitError(
                f"the monic polynomials of degree {span} over F_{p} number more "
                f"than the enumeration cap of {MAX_MONICS} monics")


def _low_first(p: int, d: int):
    """All coefficient d-tuples over F_p, lowest degree first, ascending by
    base-p value."""
    return (c[::-1] for c in product(range(p), repeat=d))


_irreducible_cache: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def _irreducible_coeffs(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Kernel tuples of the monic irreducibles of degree d, ascending by
    base-p value, by the sieve; cached per (p, d).

    composite[v] marks the monic whose d low coefficients have base-p value
    v (the leading 1 is left out); every reducible one has a monic
    irreducible factor g of degree e <= d/2.  For each g the cofactors h of
    degree n = d - e are walked in base-p counting order from t^n.  Step s
    adds 1 to the j + 1 lowest coefficients of h, j = v_p(s), so g*h gains
    g*(1 + t + ... + t^j), of degree < d: adding that delta digit by digit
    mod p moves v by the digits it changes, with no product computed.
    """
    key = (p, d)
    if key not in _irreducible_cache:
        composite = bytearray(p**d)
        for e in range(1, d // 2 + 1):
            n = d - e
            # ruler[s - 1] = v_p(s) for the steps s = 1 .. p^n - 1
            ruler: list[int] = []
            for j in range(n):
                ruler += ([j] + ruler) * (p - 1)
            for g in _irreducible_coeffs(p, e):
                # per j: the value the delta adds without carries, and its
                # nonzero digits as (position, digit, p^(position + 1)),
                # the last taken back when the digit wraps past p - 1
                deltas = []
                for j in range(n):
                    delta = _mul(g, (1,) * (j + 1), p)
                    deltas.append((
                        sum(c * p**i for i, c in enumerate(delta)),
                        [(i, c, p ** (i + 1)) for i, c in enumerate(delta) if c]))
                digits = [0] * n + list(g[:-1])  # g * t^n below t^d
                v = sum(c * p**i for i, c in enumerate(digits))
                composite[v] = 1
                for j in ruler:
                    added, changed = deltas[j]
                    v += added
                    for i, c, wrap in changed:
                        c += digits[i]
                        if c >= p:
                            c -= p
                            v -= wrap
                        digits[i] = c
                    composite[v] = 1
        _irreducible_cache[key] = tuple(
            low + (1,) for low, marked in zip(_low_first(p, d), composite)
            if not marked)
    return _irreducible_cache[key]


def irreducibles_of_degree(p: int, d: int) -> list[FFPoly]:
    """All monic irreducibles of degree exactly d, in lexicographic
    (base-p value) order.

    A sieve over the p^d monics of degree d marks every product of a monic
    irreducible of degree <= d/2 with a monic of the complementary degree;
    the Rabin criterion (`is_irreducible`) is the independent check of this
    list.  Raises SizeLimitError when p^d passes MAX_MONICS.
    """
    p = _check_characteristic(index(p))
    d = _subsets.check_bound(d, "degree")
    _check_monic_count(p, range(d, d + 1))
    return [FFPoly._of(p, f) for f in _irreducible_coeffs(p, d)]


def _as_modulus(f) -> FFPoly:
    """The modulus f, an irreducible FFPoly, scaled to monic; ValueError
    when it is zero, constant or reducible.  The last modulus that passed is
    kept, so a run of queries against one f runs Rabin's test once."""
    if not isinstance(f, FFPoly):
        raise TypeError(f"expected FFPoly, got {type(f).__name__}")
    return _check_modulus(f.monic())


@lru_cache(maxsize=1)
def _check_modulus(f: FFPoly) -> FFPoly:
    if not f.is_monic():  # only the zero polynomial has no monic associate
        raise ValueError(f"modulus {f!r} is not monic")
    if not is_irreducible(f):
        raise ValueError(f"modulus {f!r} is reducible")
    return f


def _strip_char(k: int, p: int) -> int:
    """Remove every factor of p from k (the characteristic-p reduction)."""
    while k % p == 0:
        k //= p
    return k


def _poly_power(a: FFPoly, e: int, f: FFPoly) -> FFPoly:
    """a^e mod a monic irreducible f, by `_residue_power`."""
    return FFPoly._of(f.p, _residue_power(a.coeffs, e, _Modulus(f.coeffs, f.p)))


def _ring(k: int, f) -> _subsets.Ring:
    k = _subsets.check_bound(k, "k")
    f = _as_modulus(f)
    exponent = _subsets.residue_exponent(_strip_char(k, f.p), f.p**f.degree)
    return _subsets.Ring(f, k, exponent, _poly_power, FFPoly(f.p, (1,)), _sort_key,
                         f"in F_{f.p}[t]")


def is_kth_residue_ff(a: FFPoly, k: int, f) -> bool:
    """True iff x^k = a (mod f) is solvable, f monic irreducible.

    k is first reduced to its prime-to-p part k'; then 0 is always a residue
    and a nonzero residue class satisfies a^((q-1)/g) = 1 with q the residue
    field size and g = gcd(k', q-1).
    """
    ring = _ring(k, f)
    return ring.is_residue(a % ring.modulus)  # raises on a characteristic mismatch


def residue_field(f) -> list[FFPoly]:
    """All residue classes mod f (every polynomial of degree < deg f),
    ascending by base-p value."""
    f = _as_modulus(f)
    return [FFPoly(f.p, coeffs) for coeffs in _low_first(f.p, f.degree)]


def _ff_terms(r) -> tuple[FFPoly, ...]:
    """The polynomial candidate r_1..r_m, m >= 1, as a tuple of `FFPoly`
    over one characteristic: TypeError for any other term."""
    terms = tuple(r)
    if not terms:
        raise ValueError("candidate sequence must have at least one term")
    if not all(isinstance(t, FFPoly) for t in terms):
        raise TypeError("polynomial candidates must consist of FFPoly terms")
    p = terms[0].p
    if any(t.p != p for t in terms):
        raise ValueError("candidate terms must share one characteristic")
    return terms


def find_chain_irreducibles(r, k: int, p: int, max_degree: int) -> list[FFPoly]:
    """All monic irreducibles of degree <= max_degree realizing r as a
    permutation chain of kth power residues, ordered by (degree, value).

    Each modulus f gets the chain core's per-modulus test: E distinct mod f
    and every element a residue.  Above the top degree of E every element is
    its own remainder mod f, so E, distinct over F_p[t], stays distinct and
    only the residue test runs (the F_p[t] form of the Z scan's `p > spread`
    rule).

    Raises InvalidCandidateError when r is not sum-distinct over F_p[t]
    (no modulus can work then), and SizeLimitError, before any work, when
    the monics of degree <= max_degree pass MAX_MONICS.
    """
    terms = _ff_terms(r)
    p = _check_characteristic(index(p))
    if terms[0].p != p:
        raise ValueError(f"candidate lives over F_{terms[0].p}, not F_{p}")
    k = _subsets.check_bound(k, "k")
    max_degree = _subsets.check_bound(max_degree, "max_degree")
    _check_monic_count(p, range(1, max_degree + 1))
    values = sorted(_subsets.require_sum_distinct(terms, f" over F_{p}[t]"),
                    key=_sort_key)
    sums = [v.coeffs for v in values]
    top = len(sums[-1]) - 1  # the sort key orders E by degree first
    k_prime = _strip_char(k, p)
    out: list[FFPoly] = []
    for d in range(1, max_degree + 1):
        exponent = _subsets.residue_exponent(k_prime, p**d)
        for f in irreducibles_of_degree(p, d):
            ring = _subsets.Ring(_Modulus(f.coeffs, p), k, exponent,
                                 _residue_power, (1,), None, f"in F_{p}[t]")
            if (all(map(ring.is_residue, sums)) if d > top
                    else _subsets.modulus_defect(sums, ring) is None):
                out.append(f)
    return out
