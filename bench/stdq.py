"""Exact arithmetic in the standard library only, for the generators and
the checker.

Nothing here imports hodgekit: the benchmark builds its inputs and checks
the answers with this module, so a change to hodgekit can neither move the
inputs nor vouch for its own outputs.

* ``G`` -- a Gaussian rational re + im*i with the wire text form of
  hodgekit scalars ("a/b+c/d*i", zero parts omitted).
* Laurent polynomials -- dicts {exponent tuple: G} with zero terms dropped;
  a one-variable polynomial uses 1-tuples.
* Matrices -- lists of rows, with unimodular factors built from elementary
  operations together with their exact inverses.
"""

from __future__ import annotations

from fractions import Fraction


class G:
    """Gaussian rational; immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        o = _g(o)
        return G(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = _g(o)
        return G(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return _g(o) - self

    def __neg__(self):
        return G(-self.re, -self.im)

    def __mul__(self, o):
        o = _g(o)
        return G(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conj(self):
        return G(self.re, -self.im)

    def inv(self):
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return G(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * _g(o).inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = G(1)
        for _ in range(k):
            out = out * self
        return out

    @property
    def is_zero(self):
        return not self.re and not self.im

    def __eq__(self, o):
        if isinstance(o, (int, Fraction)):
            o = G(o)
        if not isinstance(o, G):
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        im = f"{self.im}*i"
        if not self.re:
            return im
        return f"{self.re}+{im}" if self.im > 0 else f"{self.re}{im}"

    __repr__ = __str__


def _g(x):
    return x if isinstance(x, G) else G(x)


def parse(text):
    """Read a wire scalar (string or integer) back into a ``G``."""
    if isinstance(text, int) and not isinstance(text, bool):
        return G(text)
    if not isinstance(text, str):
        raise ValueError(f"not a gaussian scalar: {text!r}")
    t = text.replace(" ", "")
    if not t.endswith("i"):
        return G(Fraction(t))
    body = t[:-1].rstrip("*")
    k = max(body.rfind("+"), body.rfind("-"))
    re_part, im_part = (body[:k], body[k:]) if k > 0 else ("", body)
    im = Fraction(im_part + "1" if im_part in ("", "+", "-") else im_part)
    return G(Fraction(re_part) if re_part else 0, im)


def vec_str(v):
    return [str(x) for x in v]


def mat_str(m):
    return [vec_str(r) for r in m]


# -- Laurent polynomials: {exponent tuple: G} ----------------------------


def padd(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, G(0)) + c
        if s.is_zero:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def pmul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, G(0)) + c1 * c2
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def pconst(c, nvars):
    c = _g(c)
    return {} if c.is_zero else {(0,) * nvars: c}


def pmono(c, exp):
    c = _g(c)
    return {} if c.is_zero else {tuple(exp): c}


def peval(p, point):
    total = G(0)
    for exp, c in p.items():
        term = c
        for x, e in zip(point, exp):
            term = term * (x ** e)
        total = total + term
    return total


# -- matrices -------------------------------------------------------------


def mat_mul(a, b, add, mul):
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = mul(row[0], b[0][j])
            for k in range(1, len(b)):
                acc = add(acc, mul(row[k], b[k][j]))
            new.append(acc)
        out.append(new)
    return out


def gmat_mul(a, b):
    return mat_mul(a, b, lambda x, y: x + y, lambda x, y: x * y)


def pmat_mul(a, b):
    return mat_mul(a, b, padd, pmul)


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def elementary_pair(rng, n, factors, nvars=1):
    """(M, M^-1) for a product of elementary row operations.

    Operation k adds ``factors[k]`` (a polynomial dict in ``nvars``
    variables) times a random row j to a random row i != j; its inverse
    subtracts the same multiple, so both products stay exact and
    unimodular.
    """
    one, zero = pconst(1, nvars), {}
    m = identity(n, one, zero)
    minv = identity(n, one, zero)
    for f in factors:
        i = rng.randrange(n)
        j = rng.choice([k for k in range(n) if k != i])
        neg = {e: -c for e, c in f.items()}
        m[i] = [padd(x, pmul(f, y)) for x, y in zip(m[i], m[j])]
        # (E_k ... E_1)^-1 = E_1^-1 ... E_k^-1: column operation on the right
        for row in minv:
            row[j] = padd(row[j], pmul(row[i], neg))
    return m, minv


def rank(m):
    """Rank over Q(i) by Gaussian elimination."""
    a = [list(r) for r in m]
    rk = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rk, len(a)) if not a[i][c].is_zero), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        inv = a[rk][c].inv()
        for i in range(rk + 1, len(a)):
            if not a[i][c].is_zero:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[rk])]
        rk += 1
    return rk


def int_det(m):
    """Determinant of a square integer matrix, exactly."""
    a = [[Fraction(x) for x in r] for r in m]
    n, det = len(a), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return int(det)
