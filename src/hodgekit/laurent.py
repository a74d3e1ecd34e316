"""Laurent polynomials: the group algebra of Z^a over an exact field.

Finitely many terms c * t1^e1 ... ta^ea with nonzero coefficients, stored
as a map from integer exponent tuples to coefficients.  Units are exactly
the single-term elements.  One class serves every rank hodgekit uses:
rank 1 is the chart coordinate z of a bundle on P^1 and the parameter of
an arc, rank 2 is Langton's (z, s), and rank a is the character torus of
the jump loci.  Coefficients are ``Scalar``, or ``univariate.RatFunc`` for
Langton's families in z over K(s).  The class never invents a zero or a
one of its coefficient field (callers that need them, such as
``birkhoff._column_reduce``, take them as arguments), so it adds, hashes
and scales through the coefficients' own operations.  An int, ``Fraction``
or ``Scalar`` is compared and combined as a constant, which hashes like it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import PreconditionError
from .scalars import Scalar, power


def _coerce(c):
    """Rationals become ``Scalar``; field elements pass unchanged."""
    return Scalar.rational(c) if isinstance(c, (int, Fraction)) else c


class LaurentPoly:
    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        if rank < 0:
            raise PreconditionError("rank must be non-negative")
        self.rank = rank
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != rank:
                raise PreconditionError(
                    f"exponent vector {exp} has length {len(exp)}, want {rank}")
            coeff = _coerce(coeff)
            if not coeff.is_zero:
                if exp in clean:
                    coeff = clean[exp] + coeff
                if coeff.is_zero:
                    del clean[exp]
                else:
                    clean[exp] = coeff
        self.terms = clean

    @staticmethod
    def _trusted(rank, terms):
        """Wrap a term dict already in normal form (int tuples of length
        ``rank`` to nonzero coefficients), skipping the re-validation."""
        out = object.__new__(LaurentPoly)
        out.rank, out.terms = rank, terms
        return out

    # ---- constructors

    @staticmethod
    def zero(rank):
        return LaurentPoly(rank)

    @staticmethod
    def constant(rank, c):
        return LaurentPoly(rank, {(0,) * rank: c})

    @staticmethod
    def one(rank):
        return LaurentPoly.constant(rank, 1)

    @staticmethod
    def var(rank, j, power=1):
        """The monomial t_j^power (j is 0-based)."""
        if not 0 <= j < rank:
            raise PreconditionError(f"variable index {j} out of range")
        exp = [0] * rank
        exp[j] = power
        return LaurentPoly(rank, {tuple(exp): Scalar.one()})

    @staticmethod
    def monomial(rank, exp, coeff):
        return LaurentPoly(rank, {tuple(exp): coeff})

    # ---- structure

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_unit(self):
        return len(self.terms) == 1

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def coeff(self, exp, zero=None):
        """The coefficient of t^exp, or ``zero`` where there is no term."""
        return self.terms.get(exp, zero)

    def shift(self, exp):
        """The product with the monomial t^exp."""
        return LaurentPoly._trusted(
            self.rank, {tuple(map(add, e, exp)): c for e, c in self.terms.items()})

    def _lift(self, other):
        """An int, ``Fraction`` or ``Scalar`` as a constant of this rank;
        None for anything else."""
        if isinstance(other, (int, Fraction, Scalar)):
            return LaurentPoly.constant(self.rank, other)
        return None

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            other = self._lift(other)
            if other is None:
                return NotImplemented
        # coefficient equality is by value, so the term dicts compare directly
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        # a constant equals its coefficient, so it hashes like it
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1:
            c = self.terms.get((0,) * self.rank)
            if c is not None:
                return hash(c)
        return hash((self.rank, frozenset(self.terms.items())))

    # ---- arithmetic

    def _check(self, other):
        if not isinstance(other, LaurentPoly):
            lifted = self._lift(other)
            if lifted is None:
                raise TypeError(f"cannot combine LaurentPoly with {type(other)}")
            return lifted
        if other.rank != self.rank:
            raise PreconditionError("rank mismatch")
        return other

    def __add__(self, other):
        other = self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            acc = c if exp not in out else out[exp] + c
            if acc.is_zero:
                out.pop(exp, None)
            else:
                out[exp] = acc
        return LaurentPoly._trusted(self.rank, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._trusted(self.rank,
                                    {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                acc = out.get(exp)
                acc = c1 * c2 if acc is None else acc + c1 * c2
                if acc.is_zero:
                    out.pop(exp, None)
                else:
                    out[exp] = acc
        return LaurentPoly._trusted(self.rank, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return power(self, k, LaurentPoly.one(self.rank))

    def scale(self, c):
        c = _coerce(c)
        if c.is_zero:
            return LaurentPoly.zero(self.rank)
        return LaurentPoly._trusted(self.rank,
                                    {e: x * c for e, x in self.terms.items()})

    # ---- evaluation and substitution

    def eval_character(self, rho):
        """Evaluate at t_j = rho_j; every component must be invertible."""
        if len(rho) != self.rank:
            raise PreconditionError("character length mismatch")
        rho = [r if isinstance(r, Scalar) else Scalar.rational(r) for r in rho]
        for r in rho:
            if r.is_zero:
                raise PreconditionError("character has a zero component")
        total = Scalar.zero()
        for exp, c in self.terms.items():
            val = c
            for r, e in zip(rho, exp):
                if e:
                    val = val * (r ** e)
            total = total + val
        return total

    def substitute_monomials(self, zeta, exponent_matrix):
        """Substitute t_j -> zeta_j * prod_k s_k^(E[j][k]); result has rank b.

        ``exponent_matrix`` is an a-by-b integer matrix.  Components of
        ``zeta`` must be invertible.
        """
        a = self.rank
        if len(zeta) != a or len(exponent_matrix) != a:
            raise PreconditionError("substitution data must match rank")
        b = len(exponent_matrix[0]) if a else 0
        for row in exponent_matrix:
            if len(row) != b:
                raise PreconditionError("ragged exponent matrix")
        zeta = [z if isinstance(z, Scalar) else Scalar.rational(z) for z in zeta]
        for z in zeta:
            if z.is_zero:
                raise PreconditionError("translation has a zero component")
        out = LaurentPoly.zero(b)
        for exp, c in self.terms.items():
            coeff = c
            newexp = [0] * b
            for j, e in enumerate(exp):
                if e:
                    coeff = coeff * (zeta[j] ** e)
                    for k in range(b):
                        newexp[k] += e * exponent_matrix[j][k]
            out = out + LaurentPoly.monomial(b, newexp, coeff)
        return out

    def has_integer_coefficients(self):
        for c in self.terms.values():
            if not (c.is_gaussian and c.im == 0 and c.re.denominator == 1):
                return False
        return True

    def __str__(self):
        if self.is_zero:
            return "0"
        bits = []
        for exp, c in self.sorted_terms():
            mono = "*".join(f"t{j + 1}^{e}" for j, e in enumerate(exp) if e)
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def __repr__(self):
        return f"LaurentPoly({self})"


def eval_character(p: LaurentPoly, rho) -> Scalar:
    return p.eval_character(rho)
