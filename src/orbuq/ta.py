"""Truncated multivariate Taylor polynomial algebra, one polynomial or a stack.

Evaluating a program on :class:`TaylorPoly` operands instead of floats yields
the Taylor expansion of the program output around the nominal input, truncated
at the order fixed by the :class:`AlgebraContext`.  That expansion is the
quantity every other part of this package manipulates: flow maps, Jacobians,
nonlinearity bounds and domain splits are all read off the coefficient tables
produced here.

Coefficients are stored densely over the graded-lexicographic monomial basis
of the context (28 entries for order 2 in 6 variables).  A polynomial holds
one coefficient vector, shape ``(size,)``, or a stack of B independent
members side by side, shape ``(size, B)``.  On a stack every operation acts on
each member as it would on that member alone: constant parts, series
coefficients and scalar operands are per member, and a lone operand takes part
as the same polynomial in every member.  The cost of a Python-level operation
is then paid once per stack instead of once per member, which is what makes
evaluating a whole program on many expansion points at once cheap.

Products are truncated convolutions driven by an index table precomputed per
context.  A lone product sums each output coefficient's contributions with
``np.bincount``; a stacked one gathers all pairwise products in one multiply
and adds them slot by slot, in the table's order and starting from zero, which
is the same sequence of roundings.  The kernel is chosen by array shape, and a
member of a stack carries exactly the bits of the same polynomial computed
alone.  Transcendental constants come from the ``math`` module member by
member for the same reason.  The sparse coefficient-map view used by
serialization and debugging, evaluation and composition read lone
polynomials.  Polynomials are immutable after construction and all
operations are pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product as _iproduct
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["AlgebraContext", "TaylorPoly", "DAVector"]


def _monomials(order: int, nvars: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= order, graded-lex sorted."""
    monos = [e for e in _iproduct(range(order + 1), repeat=nvars) if sum(e) <= order]
    monos.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    return monos


@lru_cache(maxsize=None)
def _context_tables(order: int, nvars: int):
    monos = _monomials(order, nvars)
    index = {e: i for i, e in enumerate(monos)}
    degs = np.array([sum(e) for e in monos], dtype=np.intp)
    expmat = np.array(monos, dtype=np.intp)

    # truncated-convolution table: result[K] += a[I] * b[J]
    big_i, big_j, big_k = [], [], []
    for i, ei in enumerate(monos):
        di = sum(ei)
        for j, ej in enumerate(monos):
            if di + sum(ej) > order:
                continue
            big_i.append(i)
            big_j.append(j)
            big_k.append(index[tuple(a + b for a, b in zip(ei, ej))])
    mul_i = np.array(big_i, dtype=np.intp)
    mul_j = np.array(big_j, dtype=np.intp)
    mul_k = np.array(big_k, dtype=np.intp)

    # slot table of stacked products: slots[s, K] is the position in the
    # convolution table of the s-th term of result[K], in table order, or
    # the position one past the end (a zero) when K has fewer terms
    counts = np.bincount(mul_k, minlength=len(monos))
    slots = np.full((counts.max(), len(monos)), mul_k.size, dtype=np.intp)
    filled = np.zeros(len(monos), dtype=np.intp)
    for t, k in enumerate(big_k):
        slots[filled[k], k] = t
        filled[k] += 1

    # per-variable differentiation tables: out[dst] = c[src] * fac
    dtabs = []
    for v in range(nvars):
        src, dst, fac = [], [], []
        for i, e in enumerate(monos):
            if e[v] == 0:
                continue
            lowered = list(e)
            lowered[v] -= 1
            src.append(i)
            dst.append(index[tuple(lowered)])
            fac.append(float(e[v]))
        dtabs.append(
            (
                np.array(src, dtype=np.intp),
                np.array(dst, dtype=np.intp),
                np.array(fac, dtype=np.float64),
            )
        )

    # monomial values degree by degree: value[dst] = value[parent] * x[var],
    # where var is the monomial's last variable and parent lacks one power of it
    lift = []
    for d in range(1, order + 1):
        dst, parent, var = [], [], []
        for i, e in enumerate(monos):
            if sum(e) != d:
                continue
            v = max(j for j, p in enumerate(e) if p)
            lowered = list(e)
            lowered[v] -= 1
            dst.append(i)
            parent.append(index[tuple(lowered)])
            var.append(v)
        lift.append(tuple(np.array(a, dtype=np.intp) for a in (dst, parent, var)))
    return monos, index, degs, expmat, (mul_i, mul_j, mul_k), slots, dtabs, lift


class AlgebraContext:
    """Fixed truncation order and variable count shared by a set of polynomials.

    Two contexts with equal ``(order, nvars)`` are interchangeable; the heavy
    index tables are cached per pair.
    """

    __slots__ = ("order", "nvars", "monomials", "index", "degrees", "expmat",
                 "_multab", "_slots", "_dtabs", "_lift", "size")

    def __init__(self, order: int, nvars: int):
        if order < 1 or nvars < 1:
            raise ValueError("order and nvars must both be >= 1")
        self.order = int(order)
        self.nvars = int(nvars)
        monos, index, degs, expmat, multab, slots, dtabs, lift = _context_tables(
            self.order, self.nvars
        )
        self.monomials = monos
        self.index = index
        self.degrees = degs
        self.expmat = expmat
        self._multab = multab
        self._slots = slots
        self._dtabs = dtabs
        self._lift = lift
        self.size = len(monos)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraContext)
            and self.order == other.order
            and self.nvars == other.nvars
        )

    def __hash__(self):
        return hash((self.order, self.nvars))

    def __repr__(self):
        return f"AlgebraContext(order={self.order}, nvars={self.nvars})"

    def compatible(self, other: "AlgebraContext") -> bool:
        return self is other or (self.order == other.order and self.nvars == other.nvars)

    def monomial_values(self, points: np.ndarray) -> np.ndarray:
        """(m, nvars) points -> (m, size) values of the basis monomials.

        Each monomial is one product of a lower-degree monomial and a
        variable, so every value of degree 2 is a single rounded product.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.nvars:
            raise ValueError(f"points must be (m, {self.nvars})")
        out = np.empty((pts.shape[0], self.size))
        out[:, 0] = 1.0
        for dst, parent, var in self._lift:
            out[:, dst] = out[:, parent] * pts[:, var]
        return out

    # -- constructors -----------------------------------------------------

    def constant(self, value) -> "TaylorPoly":
        """A constant polynomial; a 1-D array of values gives a stack of them."""
        if isinstance(value, np.ndarray) and value.ndim:
            c = np.zeros((self.size, value.size))
            c[0] = value
        else:
            c = np.zeros(self.size)
            c[0] = float(value)
        return TaylorPoly(self, c, _trust=True)

    def variable(self, j: int) -> "TaylorPoly":
        """The basis deviation variable dx_j (1-based index)."""
        if not 1 <= j <= self.nvars:
            raise IndexError(f"variable index {j} out of range 1..{self.nvars}")
        e = [0] * self.nvars
        e[j - 1] = 1
        c = np.zeros(self.size)
        c[self.index[tuple(e)]] = 1.0
        return TaylorPoly(self, c, _trust=True)

    def identity_vector(self) -> "DAVector":
        return DAVector([self.variable(j + 1) for j in range(self.nvars)])

    def zero(self) -> "TaylorPoly":
        return TaylorPoly(self, np.zeros(self.size), _trust=True)


def _coerce_scalar(x):
    """A float, per-member floats as a 1-D array, or None for anything else."""
    if isinstance(x, (int, float, np.integer, np.floating)):
        return float(x)
    if isinstance(x, np.ndarray) and x.dtype.kind == "f":
        if x.ndim == 0:
            return float(x)
        if x.ndim == 1:
            return x
    return None


def _column(c: np.ndarray) -> np.ndarray:
    """Coefficients as a (size, B) stack; a lone vector becomes (size, 1)."""
    return c if c.ndim == 2 else c[:, None]


def _plus_const(c: np.ndarray, s) -> np.ndarray:
    """A fresh coefficient array c with s added to its constant part.

    A lone c with per-member s becomes the stack of its shifted copies.
    """
    if c.ndim == 1 and not isinstance(s, float):
        c = np.repeat(c[:, None], s.size, axis=1)
    c[0] += s
    return c


def _stacked_product(ctx: AlgebraContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of coefficient stacks, member by member.

    Each result coefficient is 0 + t1 + t2 + ... over its convolution terms
    in table order, the order in which ``np.bincount`` accumulates them, so
    every member has the bits of the lone product.
    """
    mi, mj, _ = ctx._multab
    a, b = _column(a), _column(b)
    terms = np.empty((mi.size + 1, max(a.shape[1], b.shape[1])))
    terms[-1] = 0.0
    np.multiply(a.take(mi, axis=0), b.take(mj, axis=0), out=terms[:-1])
    slots = terms.take(ctx._slots, axis=0)
    out = slots[0] + 0.0
    for more in slots[1:]:
        out += more
    return out


class TaylorPoly:
    """One truncated multivariate Taylor polynomial, or a stack of them.

    ``c`` has shape ``(size,)`` for one polynomial and ``(size, B)`` for a
    stack of B members; ``const`` is then a float or a ``(B,)`` array.
    """

    __slots__ = ("ctx", "c")
    # numpy arrays on the left of an operator defer to the methods below, so
    # an array of per-member values combines with a stack member by member
    __array_priority__ = 1000

    def __init__(self, ctx: AlgebraContext, coeffs, _trust: bool = False):
        self.ctx = ctx
        if _trust:
            self.c = coeffs
            return
        if isinstance(coeffs, Mapping):
            c = np.zeros(ctx.size)
            for e, v in coeffs.items():
                key = tuple(int(x) for x in e)
                if len(key) != ctx.nvars:
                    raise ValueError(f"exponent tuple {key} has wrong length")
                if sum(key) > ctx.order:
                    raise ValueError(f"exponent tuple {key} exceeds order {ctx.order}")
                c[ctx.index[key]] = float(v)
        else:
            c = np.asarray(coeffs, dtype=np.float64)
            if c.ndim not in (1, 2) or c.shape[0] != ctx.size:
                raise ValueError(f"coefficient array must have {ctx.size} rows")
            c = c.copy()
        self.c = c

    # -- views -------------------------------------------------------------

    @property
    def const(self):
        """Constant (nominal) part: a float, or one per member of a stack."""
        c0 = self.c[0]
        return float(c0) if self.c.ndim == 1 else c0.copy()

    def coeffs(self) -> dict[tuple[int, ...], float]:
        """Sparse view: exponent tuple -> nonzero coefficient."""
        return {
            self.ctx.monomials[i]: float(v)
            for i, v in enumerate(self.c)
            if v != 0.0
        }

    def nilpotent(self) -> "TaylorPoly":
        """Copy with the constant part removed."""
        c = self.c.copy()
        c[0] = 0.0
        return TaylorPoly(self.ctx, c, _trust=True)

    def is_zero(self) -> bool:
        """True when every coefficient (of every member) is zero."""
        return not self.c.any()

    def _zero_members(self):
        """Whether each member is the zero polynomial: a bool, or one per member."""
        return not self.c.any() if self.c.ndim == 1 else ~self.c.any(axis=0)

    def max_degree(self) -> int:
        nz = np.nonzero(self.c)[0]
        if nz.size == 0:
            return 0
        return int(self.ctx.degrees[nz].max())

    def dump(self) -> str:
        """One monomial per line, ``coeff * dx1^a dx2^b ...``, graded-lex order."""
        lines = []
        for i, v in enumerate(self.c):
            if v == 0.0:
                continue
            e = self.ctx.monomials[i]
            factors = " ".join(
                f"dx{j + 1}^{p}" for j, p in enumerate(e) if p > 0
            )
            val = repr(float(v))
            lines.append(f"{val} * {factors}" if factors else val)
        return "\n".join(lines) if lines else "0.0"

    def __repr__(self):
        if self.c.ndim == 2:
            return f"TaylorPoly({self.ctx.order},{self.ctx.nvars}; stack of {self.c.shape[1]})"
        return f"TaylorPoly({self.ctx.order},{self.ctx.nvars}; {self.dump().replace(chr(10), ' + ')})"

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "TaylorPoly"):
        if not self.ctx.compatible(other.ctx):
            raise ValueError(f"context mismatch: {self.ctx} vs {other.ctx}")

    # a Python float, the commonest scalar operand, takes the first test

    def __add__(self, other):
        if other.__class__ is float:
            c = self.c.copy()
            c[0] += other
            return TaylorPoly(self.ctx, c, _trust=True)
        if isinstance(other, TaylorPoly):
            self._check(other)
            a, b = self.c, other.c
            if a.ndim != b.ndim:
                a, b = _column(a), _column(b)
            return TaylorPoly(self.ctx, a + b, _trust=True)
        s = _coerce_scalar(other)
        if s is None:
            return NotImplemented
        return TaylorPoly(self.ctx, _plus_const(self.c.copy(), s), _trust=True)

    __radd__ = __add__

    def __neg__(self):
        return TaylorPoly(self.ctx, -self.c, _trust=True)

    def __sub__(self, other):
        if other.__class__ is float:
            c = self.c.copy()
            c[0] -= other
            return TaylorPoly(self.ctx, c, _trust=True)
        if isinstance(other, TaylorPoly):
            self._check(other)
            a, b = self.c, other.c
            if a.ndim != b.ndim:
                a, b = _column(a), _column(b)
            return TaylorPoly(self.ctx, a - b, _trust=True)
        s = _coerce_scalar(other)
        if s is None:
            return NotImplemented
        return TaylorPoly(self.ctx, _plus_const(self.c.copy(), -s), _trust=True)

    def __rsub__(self, other):
        if other.__class__ is float:
            c = -self.c
            c[0] += other
            return TaylorPoly(self.ctx, c, _trust=True)
        s = _coerce_scalar(other)
        if s is None:
            return NotImplemented
        return TaylorPoly(self.ctx, _plus_const(-self.c, s), _trust=True)

    def __mul__(self, other):
        if other.__class__ is float:
            return TaylorPoly(self.ctx, self.c * other, _trust=True)
        if isinstance(other, TaylorPoly):
            self._check(other)
            ctx = self.ctx
            a, b = self.c, other.c
            if a.ndim == 1 and b.ndim == 1:
                mi, mj, mk = ctx._multab
                c = np.bincount(mk, weights=a[mi] * b[mj], minlength=ctx.size)
            else:
                c = _stacked_product(ctx, a, b)
            return TaylorPoly(ctx, c, _trust=True)
        s = _coerce_scalar(other)
        if s is None:
            return NotImplemented
        c = self.c * s if isinstance(s, float) else _column(self.c) * s
        return TaylorPoly(self.ctx, c, _trust=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TaylorPoly):
            self._check(other)
            return self * other.reciprocal()
        s = _coerce_scalar(other)
        if s is None:
            return NotImplemented
        c = self.c / s if isinstance(s, float) else _column(self.c) / s
        return TaylorPoly(self.ctx, c, _trust=True)

    def __rtruediv__(self, other):
        s = _coerce_scalar(other)
        if s is None:
            return NotImplemented
        return self.reciprocal() * s

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)) or (
            isinstance(p, float) and p.is_integer()
        ):
            n = int(p)
            if n < 0:
                return self.reciprocal() ** (-n)
            out = self.ctx.constant(1.0)
            base = self
            while n:
                if n & 1:
                    out = out * base
                base = base * base if n > 1 else base
                n >>= 1
            return out
        return self.pow(p)

    def __eq__(self, other):
        if isinstance(other, TaylorPoly):
            return self.ctx.compatible(other.ctx) and np.array_equal(self.c, other.c)
        s = _coerce_scalar(other)
        if isinstance(s, float):
            return self.c[0] == s and not self.c[1:].any()
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.c.tobytes()))

    # -- calculus -----------------------------------------------------------

    def partial(self, j: int) -> "TaylorPoly":
        """Partial derivative with respect to dx_j (1-based)."""
        if not 1 <= j <= self.ctx.nvars:
            raise IndexError(f"variable index {j} out of range 1..{self.ctx.nvars}")
        src, dst, fac = self.ctx._dtabs[j - 1]
        c = np.zeros_like(self.c)
        c[dst] = (self.c[src].T * fac).T
        return TaylorPoly(self.ctx, c, _trust=True)

    def eval(self, point: Sequence[float]) -> float:
        pt = np.asarray(point, dtype=np.float64)
        if pt.shape != (self.ctx.nvars,):
            raise ValueError(f"point must have length {self.ctx.nvars}")
        return float(self.c @ self.ctx.monomial_values(pt[None, :])[0])

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on an (m, nvars) array of points in one shot."""
        return self.ctx.monomial_values(points) @ self.c

    def __call__(self, point):
        return self.eval(point)

    def compose(self, sub: "DAVector | Sequence[TaylorPoly]") -> "TaylorPoly":
        """Substitute sub_j for dx_j, truncating at the context order."""
        comps = list(sub.components) if isinstance(sub, DAVector) else list(sub)
        if len(comps) != self.ctx.nvars:
            raise ValueError(
                f"substitution needs {self.ctx.nvars} components, got {len(comps)}"
            )
        for q in comps:
            self._check(q)
        # cache powers sub_j^k for the exponents that actually occur
        pows: list[list[TaylorPoly | None]] = [[None] * (self.ctx.order + 1) for _ in comps]
        out = self.ctx.zero()
        for i in np.nonzero(self.c)[0]:
            term = self.ctx.constant(self.c[i])
            for j, e in enumerate(self.ctx.monomials[i]):
                if e == 0:
                    continue
                if pows[j][e] is None:
                    p = comps[j]
                    acc = p
                    for _ in range(e - 1):
                        acc = acc * p
                    pows[j][e] = acc
                term = term * pows[j][e]
            out = out + term
        return out

    # -- intrinsics -----------------------------------------------------------
    # Series coefficients are functions of the constant part, evaluated per
    # member by generic.each; every decision on a constant part goes through
    # generic.branch, which refuses a stack whose members disagree.

    def _series(self, series_coeffs: Sequence) -> "TaylorPoly":
        """Horner composition of series coefficients with the nilpotent part."""
        q = self.nilpotent()
        out = self.ctx.constant(series_coeffs[-1])
        for ck in reversed(series_coeffs[:-1]):
            out = out * q + ck
        return out

    def _zero_like(self) -> "TaylorPoly":
        return TaylorPoly(self.ctx, np.zeros_like(self.c), _trust=True)

    def exp(self) -> "TaylorPoly":
        ea = each(math.exp, self.const)
        coeffs = [ea / math.factorial(k) for k in range(self.ctx.order + 1)]
        return self._series(coeffs)

    def log(self) -> "TaylorPoly":
        a = self.const
        if branch(a <= 0.0):
            raise ValueError(f"log requires positive constant part, got {a}")
        coeffs = [each(math.log, a)]
        coeffs += [(-1.0) ** (k + 1) / (k * each(pow, a, k))
                   for k in range(1, self.ctx.order + 1)]
        return self._series(coeffs)

    def sqrt(self) -> "TaylorPoly":
        if branch(self._zero_members()):
            return self._zero_like()
        a = self.const
        if branch(a <= 0.0):
            raise ValueError(f"sqrt requires positive constant part, got {a}")
        # the constant part from sqrt, not pow(a, 0.5): the two round apart for
        # about one value in 1,300, and sqrt matches a float evaluation
        coeffs, binom = [each(math.sqrt, a)], 0.5
        for k in range(1, self.ctx.order + 1):
            coeffs.append(binom * each(pow, a, 0.5 - k))
            binom *= (0.5 - k) / (k + 1)
        return self._series(coeffs)

    def reciprocal(self) -> "TaylorPoly":
        a = self.const
        if branch(a == 0.0):
            raise ZeroDivisionError("division by polynomial with zero constant part")
        coeffs = [(-1.0) ** k / each(pow, a, k + 1) for k in range(self.ctx.order + 1)]
        return self._series(coeffs)

    def pow(self, r: float) -> "TaylorPoly":
        a = self.const
        if branch(a <= 0.0):
            raise ValueError(f"fractional pow requires positive constant part, got {a}")
        coeffs, binom = [], 1.0
        for k in range(self.ctx.order + 1):
            coeffs.append(binom * each(pow, a, r - k))
            binom *= (r - k) / (k + 1)
        return self._series(coeffs)

    def sin(self) -> "TaylorPoly":
        a = self.const
        s, c = each(math.sin, a), each(math.cos, a)
        cycle = [s, c, -s, -c]
        coeffs = [cycle[k % 4] / math.factorial(k) for k in range(self.ctx.order + 1)]
        return self._series(coeffs)

    def cos(self) -> "TaylorPoly":
        a = self.const
        s, c = each(math.sin, a), each(math.cos, a)
        cycle = [c, -s, -c, s]
        coeffs = [cycle[k % 4] / math.factorial(k) for k in range(self.ctx.order + 1)]
        return self._series(coeffs)

    def tan(self) -> "TaylorPoly":
        return self.sin() * self.cos().reciprocal()

    def _atan_nilpotent(self) -> "TaylorPoly":
        # Maclaurin of atan composed with a zero-constant argument
        if branch(self.const != 0.0):
            raise ValueError("internal: argument must have zero constant part")
        coeffs = [0.0] * (self.ctx.order + 1)
        for k in range(1, self.ctx.order + 1, 2):
            coeffs[k] = (-1.0) ** ((k - 1) // 2) / k
        return self._series(coeffs)

    def atan(self) -> "TaylorPoly":
        a = self.const
        u = (self - a) * (1.0 + self * a).reciprocal()
        return u._atan_nilpotent() + each(math.atan, a)

    def atan2(self, x: "TaylorPoly | float") -> "TaylorPoly":
        """Polar angle atan2(self, x), expanded around the constant parts."""
        y = self
        if not isinstance(x, TaylorPoly):
            x = self.ctx.constant(x)
        y._check(x)
        ybar, xbar = y.const, x.const
        if branch((xbar == 0.0) & (ybar == 0.0)):
            if branch(y._zero_members() & x._zero_members()):
                return y._zero_like() + x._zero_like()
            raise ValueError("atan2 undefined: both constant parts are zero")
        # tan(theta - theta0) = (y*x0 - x*y0) / (x*x0 + y*y0); RHS is nilpotent
        num = y * xbar - x * ybar
        den = x * xbar + y * ybar
        u = num * den.reciprocal()
        return u._atan_nilpotent() + each(math.atan2, ybar, xbar)

    def asin(self) -> "TaylorPoly":
        a = self.const
        if not (branch(-1.0 < a) and branch(a < 1.0)):
            raise ValueError(f"asin requires |constant part| < 1, got {a}")
        return self.atan2((1.0 - self * self).sqrt())

    def absolute(self) -> "TaylorPoly":
        """|p| as a smooth local branch; requires a nonzero constant part."""
        if branch(self._zero_members()):
            return self._zero_like()
        a = self.const
        if branch(a == 0.0):
            raise ValueError("absolute value non-smooth at zero constant part")
        return self if branch(a > 0) else -self


class DAVector:
    """Ordered tuple of polynomials sharing one context (a DA state vector).

    Its components may be stacks: ``DAVector.stack`` lays several vectors
    side by side and ``members`` takes them apart again.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable[TaylorPoly]):
        comps = list(components)
        if not comps:
            raise ValueError("DAVector needs at least one component")
        ctx = comps[0].ctx
        for p in comps[1:]:
            if not ctx.compatible(p.ctx):
                raise ValueError("all components must share one context")
        self.components = comps

    @property
    def ctx(self) -> AlgebraContext:
        return self.components[0].ctx

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    @classmethod
    def affine(cls, ctx: AlgebraContext, mu: Sequence[float],
               amp: np.ndarray) -> "DAVector":
        """Build mu_i + sum_j amp[i, j] * dx_j (the standard DA initialization)."""
        mu = np.asarray(mu, dtype=np.float64)
        amp = np.asarray(amp, dtype=np.float64)
        if amp.shape != (mu.size, ctx.nvars):
            raise ValueError("amplitude matrix must be (len(mu), nvars)")
        comps = []
        for i in range(mu.size):
            c = np.zeros(ctx.size)
            c[0] = mu[i]
            for j in range(ctx.nvars):
                e = [0] * ctx.nvars
                e[j] = 1
                c[ctx.index[tuple(e)]] = amp[i, j]
            comps.append(TaylorPoly(ctx, c, _trust=True))
        return cls(comps)

    @classmethod
    def stack(cls, vectors: Sequence["DAVector"]) -> "DAVector":
        """One vector whose components stack the given vectors' components."""
        first = vectors[0]
        return cls(
            TaylorPoly(first.ctx, np.stack([v[i].c for v in vectors], axis=1), _trust=True)
            for i in range(len(first))
        )

    def members(self, width: int) -> list["DAVector"]:
        """The ``width`` member vectors of a stacked vector.

        A lone component is the same polynomial in every member.
        """
        cols = [np.broadcast_to(_column(p.c), (p.c.shape[0], width)) for p in self.components]
        return [
            DAVector([TaylorPoly(self.ctx, col[:, b].copy(), _trust=True) for col in cols])
            for b in range(width)
        ]

    def constant_part(self) -> np.ndarray:
        return np.array([p.const for p in self.components])

    def nilpotent(self) -> "DAVector":
        return DAVector([p.nilpotent() for p in self.components])

    def eval(self, point: Sequence[float]) -> np.ndarray:
        return np.array([p.eval(point) for p in self.components])

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """(m, nvars) points -> (m, len(self)) values."""
        cmat = np.stack([p.c for p in self.components], axis=1)
        return self.ctx.monomial_values(points) @ cmat

    def __repr__(self):
        return f"DAVector({len(self.components)} components, {self.ctx})"


# generic imports this module; its helpers are bound once both are loaded
from .generic import branch, each  # noqa: E402
