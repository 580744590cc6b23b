"""Polynomial chains over F_p[t]: dense polynomial arithmetic, irreducible
moduli, kth power residue tests, and the search for chain moduli.  Chain
verification for polynomial candidates such as 1, t, t^2, ... goes through
the ring-generic chain core in `_subsets`, shared with the integers.

The residue test uses the characteristic-p reduction: writing k = p^t * k'
with gcd(k', p) = 1, an element is a kth power residue mod an irreducible f
iff it is a k'th power residue, because x -> x^p is a bijection (Frobenius)
of the residue field.  In particular every element is a kth residue when k is
a power of p.

The constant field is restricted to prime fields F_p; extension constant
fields would add a second layer of field arithmetic without changing any of
the ideas, and are left as an extension point.

Text format (used by the CLI and JSON output): `GF(p)[c0,c1,...]` with
coefficients lowest-degree first, e.g. GF(3)[1,0,1] for t^2 + 1 over F_3.
The zero polynomial prints as GF(p)[0].
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from powerchains import _subsets, arith
from powerchains._subsets import ChainVerdict, SumDistinctResult, SumSet

__all__ = [
    "FFPoly",
    "IrreducibleModulus",
    "powmod",
    "poly_gcd",
    "is_irreducible",
    "irreducibles_of_degree",
    "is_kth_residue_ff",
    "ff_subset_sums",
    "ff_is_sum_distinct",
    "ff_is_chain",
    "ff_is_cyclic_chain",
    "ff_is_permutation_chain",
    "naive_ff_permutation_chain",
    "find_chain_irreducibles",
    "residue_field",
    "poly_from_text",
    "poly_to_text",
]


@lru_cache(maxsize=None)
def _check_characteristic(p: int) -> int:
    if p < 2 or not arith.is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    return p


@dataclass(frozen=True)
class FFPoly:
    """Dense polynomial over F_p: coeffs[i] is the coefficient of t^i.

    Instances are normalized (coefficients reduced mod p, no trailing zeros;
    the zero polynomial has an empty coefficient tuple) and hashable, so they
    can live in sets of subset sums.
    """

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        p = _check_characteristic(self.p)
        coeffs = [c % p for c in self.coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "FFPoly":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "FFPoly":
        return cls(p, (1,))

    @classmethod
    def constant(cls, p: int, c: int) -> "FFPoly":
        return cls(p, (c,))

    @classmethod
    def gen(cls, p: int) -> "FFPoly":
        """The indeterminate t."""
        return cls(p, (0, 1))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return FFPoly(self.p, tuple(out))

    __radd__ = __add__

    def __neg__(self):
        return FFPoly(self.p, tuple(-c for c in self.coeffs))

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
        if self.is_zero() or other.is_zero():
            return FFPoly.zero(self.p)
        p = self.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % p
        return FFPoly(p, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponents are not supported")
        result = FFPoly.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        db = other.degree
        inv = pow(other.coeffs[-1], p - 2, p)
        quot = [0] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db:
            if rem[-1] == 0:
                rem.pop()
                continue
            c = rem[-1] * inv % p
            shift = len(rem) - 1 - db
            quot[shift] = c
            for i, b in enumerate(other.coeffs):
                rem[shift + i] = (rem[shift + i] - c * b) % p
            while rem and rem[-1] == 0:
                rem.pop()
        return FFPoly(p, tuple(quot)), FFPoly(p, tuple(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "FFPoly":
        """Scale by the inverse of the leading coefficient."""
        if self.is_zero() or self.is_monic():
            return self
        inv = pow(self.coeffs[-1], self.p - 2, self.p)
        return FFPoly(self.p, tuple(c * inv % self.p for c in self.coeffs))

    # -- formatting --------------------------------------------------------

    def __str__(self):
        if self.is_zero():
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
    if exp < 0:
        raise ValueError("exponent must be nonnegative")
    if modulus.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    if base.p != modulus.p:
        raise ValueError(f"characteristic mismatch: F_{base.p} vs F_{modulus.p}")
    base = base % modulus
    result = FFPoly.one(base.p)
    while exp:
        if exp & 1:
            result = result * base % modulus
        base = base * base % modulus
        exp >>= 1
    return result


def poly_gcd(a: FFPoly, b: FFPoly) -> FFPoly:
    """Monic greatest common divisor."""
    a._coerce(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def is_irreducible(f: FFPoly) -> bool:
    """Irreducibility over F_p for nonconstant f (constants raise).

    Rabin's criterion: t^(p^d) = t (mod f), and gcd(t^(p^(d/l)) - t, f) = 1
    for every prime l dividing d.  Unit scaling is irrelevant, so non-monic
    input is normalized first.
    """
    if f.degree < 1:
        raise ValueError("irreducibility is only defined for degree >= 1")
    f = f.monic()
    p, d = f.p, f.degree
    t = FFPoly.gen(p)
    if powmod(t, p**d, f) != t % f:
        return False
    for ell in {q for q, _ in arith.factor(d).factors}:
        g = poly_gcd(powmod(t, p ** (d // ell), f) - t, f)
        if g.degree > 0:
            return False
    return True


_irreducible_cache: dict[tuple[int, int], tuple[FFPoly, ...]] = {}


def _low_first(p: int, d: int):
    """All coefficient d-tuples over F_p, lowest degree first, ascending by
    base-p value."""
    return (c[::-1] for c in product(range(p), repeat=d))


def _monics(p: int, d: int):
    """All monic polynomials of degree d, ascending by base-p value."""
    for coeffs in _low_first(p, d):
        yield FFPoly(p, coeffs + (1,))


def irreducibles_of_degree(p: int, d: int) -> list[FFPoly]:
    """All monic irreducibles of degree exactly d, in lexicographic
    (base-p value) order.

    Trial division: a monic of degree d is kept iff no monic irreducible of
    degree <= d/2 divides it.  The Rabin criterion (`is_irreducible`) is the
    independent check of this list.
    """
    _check_characteristic(p)
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    key = (p, d)
    if key not in _irreducible_cache:
        lower = [g for dd in range(1, d // 2 + 1)
                 for g in irreducibles_of_degree(p, dd)]
        _irreducible_cache[key] = tuple(
            f for f in _monics(p, d) if all((f % g).coeffs for g in lower))
    return list(_irreducible_cache[key])


@dataclass(frozen=True)
class IrreducibleModulus:
    """A monic irreducible polynomial, playing the role of a prime modulus;
    its residue field has p^degree elements."""

    f: FFPoly

    def __post_init__(self):
        if not self.f.is_monic():
            raise ValueError(f"modulus {self.f!r} is not monic")
        if not is_irreducible(self.f):
            raise ValueError(f"modulus {self.f!r} is reducible")

    @classmethod
    def _trusted(cls, f: FFPoly) -> "IrreducibleModulus":
        obj = object.__new__(cls)
        object.__setattr__(obj, "f", f)
        return obj

    @property
    def p(self) -> int:
        return self.f.p

    @property
    def degree(self) -> int:
        return self.f.degree

    @property
    def field_size(self) -> int:
        return self.f.p**self.f.degree


def _as_modulus(f) -> FFPoly:
    if isinstance(f, IrreducibleModulus):
        return f.f
    if isinstance(f, FFPoly):
        return IrreducibleModulus(f.monic()).f
    raise TypeError(f"expected FFPoly or IrreducibleModulus, got {type(f).__name__}")


def _strip_char(k: int, p: int) -> int:
    """Remove every factor of p from k (the characteristic-p reduction)."""
    while k % p == 0:
        k //= p
    return k


def _ring(k: int, f) -> _subsets.Ring:
    _subsets.check_k(k)
    f = _as_modulus(f)
    exponent = _subsets.residue_exponent(_strip_char(k, f.p), f.p**f.degree)
    return _subsets.Ring(f, k, exponent, powmod, FFPoly.one(f.p), _sort_key,
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
    terms = tuple(r)
    if not terms:
        raise ValueError("candidate sequence must have at least one term")
    if not all(isinstance(t, FFPoly) for t in terms):
        raise TypeError("polynomial candidates must consist of FFPoly terms")
    p = terms[0].p
    if any(t.p != p for t in terms):
        raise ValueError("candidate terms must share one characteristic")
    return terms


def ff_subset_sums(r, *, with_witnesses: bool = False) -> SumSet:
    """All nonempty subset sums of a polynomial candidate (exact, in F_p[t])."""
    return _subsets.sum_set(_ff_terms(r), with_witnesses)


def ff_is_sum_distinct(r) -> SumDistinctResult:
    """Candidate condition over F_p[t]: all 2^m - 1 subset sums distinct
    as polynomials (coefficient arithmetic mod p)."""
    return _subsets.sum_distinct(_ff_terms(r))[0]


def ff_is_chain(r, k: int, f) -> bool:
    """Window sums of r distinct mod f and all kth power residues."""
    terms = _ff_terms(r)
    return _subsets.window_failure(terms, _ring(k, f), "chain") is None


def ff_is_cyclic_chain(r, k: int, f) -> bool:
    """Every rotation of r is a chain mod f."""
    terms = _ff_terms(r)
    return _subsets.cyclic_failure(terms, _ring(k, f)) is None


def ff_is_permutation_chain(r, k: int, f, *, debug: bool = False) -> ChainVerdict:
    """Chain / cyclic / permutation verdict mod an irreducible f: the
    permutation level is exact sum-distinctness in F_p[t] plus distinctness
    and residueness of the subset sums mod f."""
    terms = _ff_terms(r)
    return _subsets.verdict(terms, _ring(k, f), debug)


def naive_ff_permutation_chain(r, k: int, f) -> bool:
    """Literal all-orderings verifier; reference implementation, m <= 8."""
    terms = _ff_terms(r)
    return _subsets.naive_permutation_chain(terms, _ring(k, f))


def find_chain_irreducibles(r, k: int, p: int, max_degree: int) -> list[IrreducibleModulus]:
    """All monic irreducibles of degree <= max_degree realizing r as a
    permutation chain of kth power residues, ordered by (degree, value).

    Raises InvalidCandidateError when r is not sum-distinct over F_p[t]
    (no modulus can work then).
    """
    terms = _ff_terms(r)
    _check_characteristic(p)
    if terms[0].p != p:
        raise ValueError(f"candidate lives over F_{terms[0].p}, not F_{p}")
    _subsets.check_k(k)
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    values = sorted(_subsets.require_sum_distinct(terms, f" over F_{p}[t]"),
                    key=_sort_key)
    max_value_degree = max(v.degree for v in values)
    out: list[IrreducibleModulus] = []
    for d in range(1, max_degree + 1):
        for f in irreducibles_of_degree(p, d):
            modulus = IrreducibleModulus._trusted(f)
            # sums of degree < d are their own distinct residues
            if _subsets.modulus_defect(values, _ring(k, modulus),
                                       distinct=d <= max_value_degree) is None:
                out.append(modulus)
    return out
