"""Numeric shims that let one code path run on floats, numpy arrays and polynomials.

Conversion formulas, analytical theories and force models in this package are
written once against these helpers.  Fed plain floats (or numpy arrays) they
behave like ``numpy``; fed :class:`~orbuq.ta.TaylorPoly` operands they produce
truncated Taylor expansions, of one polynomial or of a stack of them.

A formula decides control flow only on constant parts (``cons``), and every
such decision goes through ``branch``.  The constant part of a stack, like a
float column, holds one value per member, so a condition on it is an array:
``branch`` turns it into one plain bool when all members agree and raises
``MixedBranch`` when they do not, and the caller then evaluates the members
one at a time.  Float computations on constant parts that are not plain
arithmetic (Newton loops, whole-turn counts, series coefficients) go through
``each``, which runs the float code member by member.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .ta import DAVector, TaylorPoly

__all__ = [
    "MixedBranch", "branch", "each", "cons", "is_poly", "sqrt", "sin", "cos",
    "tan", "exp", "log", "atan", "atan2", "asin", "power", "absval", "norm3",
    "dot3", "cross3",
]


class MixedBranch(ValueError):
    """Members of a stack, or rows of float columns, disagree at a branch."""


def branch(cond) -> bool:
    """A control-flow decision on constant parts, as a plain bool.

    ``cond`` is a bool, or a bool array with one entry per member of a stack
    (or per row of float columns); an array decides only when its entries
    agree.
    """
    if isinstance(cond, np.ndarray) and cond.ndim:
        if cond.all():
            return True
        if not cond.any():
            return False
        raise MixedBranch(f"{np.count_nonzero(cond)} of {cond.size} members take the branch")
    return bool(cond)


def each(fn, *args):
    """A function of floats applied to constant parts.

    Plain numbers go to ``fn`` as they are.  Arrays (per-member constant
    parts, float columns) are broadcast and mapped element by element, so
    every element gets the bits ``fn`` gives that float alone.
    """
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim:
            break
    else:
        return fn(*args)
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))

    def column(a):
        if not (isinstance(a, np.ndarray) and a.ndim):
            return repeat(a)
        return (a if a.shape == shape else np.broadcast_to(a, shape)).ravel().tolist()

    return np.array([fn(*v) for v in zip(*map(column, args))]).reshape(shape)


def is_poly(x) -> bool:
    return isinstance(x, TaylorPoly)


def cons(x):
    """Constant (nominal) part of x; identity on plain numerics."""
    if isinstance(x, TaylorPoly):
        return x.const
    if isinstance(x, DAVector):
        return x.constant_part()
    if isinstance(x, np.ndarray) and x.dtype == object:
        return np.array([cons(v) for v in x.ravel()]).reshape(x.shape)
    if isinstance(x, (list, tuple)):
        return np.array([cons(v) for v in x])
    return x


# plain floats (numpy scalars included: np.float64 subclasses float) take the
# math fast path; arrays and object arrays go through numpy

def sqrt(x):
    if isinstance(x, TaylorPoly):
        return x.sqrt()
    if isinstance(x, float):
        return math.sqrt(x)
    return np.sqrt(x)


def sin(x):
    if isinstance(x, TaylorPoly):
        return x.sin()
    if isinstance(x, float):
        return math.sin(x)
    return np.sin(x)


def cos(x):
    if isinstance(x, TaylorPoly):
        return x.cos()
    if isinstance(x, float):
        return math.cos(x)
    return np.cos(x)


def tan(x):
    if isinstance(x, TaylorPoly):
        return x.tan()
    if isinstance(x, float):
        return math.tan(x)
    return np.tan(x)


def exp(x):
    if isinstance(x, TaylorPoly):
        return x.exp()
    if isinstance(x, float):
        return math.exp(x)
    return np.exp(x)


def log(x):
    if isinstance(x, TaylorPoly):
        return x.log()
    if isinstance(x, float):
        return math.log(x)
    return np.log(x)


def atan(x):
    if isinstance(x, TaylorPoly):
        return x.atan()
    if isinstance(x, float):
        return math.atan(x)
    return np.arctan(x)


def atan2(y, x):
    if isinstance(y, TaylorPoly):
        return y.atan2(x)
    if isinstance(x, TaylorPoly):
        return x.ctx.constant(y).atan2(x)
    if isinstance(y, float) and isinstance(x, float):
        return math.atan2(y, x)
    return np.arctan2(y, x)


def asin(x):
    if isinstance(x, TaylorPoly):
        return x.asin()
    if isinstance(x, float):
        return math.asin(x)
    return np.arcsin(x)


def power(x, r):
    """x**r for fractional r (positive base around the expansion point)."""
    if isinstance(x, TaylorPoly):
        return x ** r
    if isinstance(x, float) and isinstance(r, float):
        return math.pow(x, r)
    return np.power(x, r)


def absval(x):
    """Smooth local |x|; on polynomials requires a sign-definite constant part."""
    if isinstance(x, TaylorPoly):
        return x.absolute()
    if isinstance(x, float):
        return abs(x)
    return np.abs(x)


# -- small 3-vector helpers over sequences of algebra elements ----------------

def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def norm3(a):
    return sqrt(dot3(a, a))


def cross3(a, b):
    return [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
