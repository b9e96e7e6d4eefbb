"""Taylor algebra: arithmetic, intrinsics, calculus and unit-box bounds.

Derived expectations are produced by independent oracles coded in this file:
brute-force convolution over coefficient dicts, central finite differences of
pointwise evaluation, extended-precision monomial summation (mpmath) and
corner sampling of the unit box.
"""

import math
from itertools import product

import mpmath
import numpy as np
import pytest

from orbuq.ta import AlgebraContext, DAVector, TaylorPoly


def random_poly(ctx, rng, scale=1.0):
    return TaylorPoly(ctx, rng.uniform(-scale, scale, ctx.size))


def brute_force_mul(ctx, a, b):
    """Oracle: dict-based convolution of coefficient tables, then truncation."""
    out = {}
    for ea, va in a.coeffs().items():
        for eb, vb in b.coeffs().items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) > ctx.order:
                continue
            out[e] = out.get(e, 0.0) + va * vb
    return out


class TestArith:
    def test_difference_of_squares(self):
        ctx = AlgebraContext(2, 1)
        x = ctx.variable(1)
        p = (1 + x) * (1 - x)
        assert p.coeffs() == {(0,): 1.0, (2,): -1.0}

    def test_truncation_closure(self):
        ctx = AlgebraContext(2, 1)
        x = ctx.variable(1)
        assert ((x * x) * x).is_zero()

    def test_mul_matches_bruteforce_convolution(self):
        rng = np.random.default_rng(7)
        ctx = AlgebraContext(2, 3)
        for _ in range(25):
            a, b = random_poly(ctx, rng), random_poly(ctx, rng)
            expected = brute_force_mul(ctx, a, b)
            got = (a * b).coeffs()
            keys = set(expected) | set(got)
            for k in keys:
                assert math.isclose(
                    expected.get(k, 0.0), got.get(k, 0.0), rel_tol=0, abs_tol=1e-13
                )

    def test_div_by_zero_constant_raises(self):
        ctx = AlgebraContext(2, 1)
        x = ctx.variable(1)
        with pytest.raises(ZeroDivisionError):
            (1 + x) / x

    def test_div_inverts_mul(self):
        rng = np.random.default_rng(8)
        ctx = AlgebraContext(3, 2)
        for _ in range(10):
            a = random_poly(ctx, rng)
            b = random_poly(ctx, rng) + 2.0  # keep constant part away from 0
            c = (a * b) / b
            np.testing.assert_allclose(c.c, a.c, atol=1e-12)

    def test_context_mismatch_raises(self):
        p = AlgebraContext(2, 2).variable(1)
        q = AlgebraContext(2, 3).variable(1)
        with pytest.raises(ValueError):
            p + q

    def test_ring_axioms(self):
        rng = np.random.default_rng(42)
        ctx = AlgebraContext(2, 4)
        for _ in range(50):
            a, b, c = (random_poly(ctx, rng) for _ in range(3))
            assoc = ((a + b) + c).c - (a + (b + c)).c
            distr = (a * (b + c)).c - (a * b + a * c).c
            assert np.abs(assoc).max() < 1e-12
            assert np.abs(distr).max() < 1e-12

    def test_truncation_closure_random_ops(self):
        rng = np.random.default_rng(3)
        ctx = AlgebraContext(2, 3)
        for _ in range(20):
            a = random_poly(ctx, rng)
            b = random_poly(ctx, rng) + 1.5
            for r in (a * b, a / b, b.sqrt(), b.exp(), a.sin()):
                assert r.max_degree() <= ctx.order


class TestIntrinsics:
    def test_sin_linear(self):
        ctx = AlgebraContext(2, 1)
        x = ctx.variable(1)
        assert x.sin().coeffs() == {(1,): 1.0}

    def test_sqrt_binomial(self):
        ctx = AlgebraContext(2, 1)
        x = ctx.variable(1)
        got = (1 + x).sqrt().coeffs()
        assert math.isclose(got[(0,)], 1.0)
        assert math.isclose(got[(1,)], 0.5)
        assert math.isclose(got[(2,)], -0.125)

    def test_sqrt_constant_part_is_float_sqrt(self):
        # pow(a, 0.5) and sqrt(a) round apart for about one value in 1,300
        ctx = AlgebraContext(2, 2)
        x = ctx.variable(1)
        values = np.random.default_rng(5).uniform(1e7, 1e9, 20_000)
        apart = [float(a) for a in values if pow(float(a), 0.5) != math.sqrt(a)]
        assert apart
        for a in apart:
            assert (a + x).sqrt().const == math.sqrt(a)

    def test_exp_first_partials_match_finite_differences(self):
        ctx = AlgebraContext(2, 2)
        x1, x2 = ctx.variable(1), ctx.variable(2)
        p = (0.3 + 0.1 * x1 + 0.2 * x2).exp()

        def f(d1, d2):
            return math.exp(0.3 + 0.1 * d1 + 0.2 * d2)

        h = 1e-6
        for j, fd in enumerate(
            [(f(h, 0) - f(-h, 0)) / (2 * h), (f(0, h) - f(0, -h)) / (2 * h)]
        ):
            da = p.partial(j + 1).const
            assert abs(da - fd) / abs(fd) < 1e-6

    @pytest.mark.parametrize(
        "name,func,ref,shift",
        [
            ("exp", TaylorPoly.exp, math.exp, 0.4),
            ("log", TaylorPoly.log, math.log, 1.3),
            ("sqrt", TaylorPoly.sqrt, math.sqrt, 1.7),
            ("sin", TaylorPoly.sin, math.sin, 0.9),
            ("cos", TaylorPoly.cos, math.cos, 0.9),
            ("reciprocal", TaylorPoly.reciprocal, lambda v: 1.0 / v, 2.1),
            ("atan", TaylorPoly.atan, math.atan, 0.6),
        ],
    )
    def test_intrinsic_derivative_vs_finite_difference(self, name, func, ref, shift):
        # derivative consistency at the expansion point, against central FD of
        # the scalar function composed with the same affine argument
        ctx = AlgebraContext(3, 2)
        x1, x2 = ctx.variable(1), ctx.variable(2)
        arg = shift + 0.21 * x1 - 0.13 * x2
        p = func(arg)
        h = 1e-6
        for j, w in ((1, 0.21), (2, -0.13)):
            da = p.partial(j).const

            def g(t):
                return ref(shift + w * t)

            fd = (g(h) - g(-h)) / (2 * h)
            assert abs(da - fd) / max(abs(fd), 1e-12) < 1e-6

    def test_atan2_matches_pointwise_oracle(self):
        # order-4 expansion on a small box keeps the truncation residual
        # below the comparison tolerance
        rng = np.random.default_rng(5)
        ctx = AlgebraContext(4, 2)
        for _ in range(20):
            y = random_poly(ctx, rng) + rng.uniform(0.5, 2.0)
            x = random_poly(ctx, rng) + rng.uniform(0.5, 2.0)
            got = y.atan2(x)
            pts = rng.uniform(-0.01, 0.01, size=(25, 2))
            ref = np.arctan2(y.eval_many(pts), x.eval_many(pts))
            np.testing.assert_allclose(got.eval_many(pts), ref, atol=1e-9)

    def test_domain_violations(self):
        ctx = AlgebraContext(2, 1)
        x = ctx.variable(1)
        with pytest.raises(ValueError):
            (x - 1.0).sqrt()
        with pytest.raises(ValueError):
            (x + 0.0).log()
        with pytest.raises(ValueError):
            x.atan2(0.0 * x)  # nonzero polynomial, zero constant parts

    def test_sqrt_of_exact_zero_is_zero(self):
        ctx = AlgebraContext(2, 2)
        assert ctx.zero().sqrt().is_zero()


class TestCompose:
    def test_identity_substitution(self):
        rng = np.random.default_rng(11)
        ctx = AlgebraContext(2, 3)
        p = random_poly(ctx, rng)
        q = p.compose(ctx.identity_vector())
        np.testing.assert_array_equal(q.c, p.c)

    def test_zero_substitution_gives_constant(self):
        rng = np.random.default_rng(12)
        ctx = AlgebraContext(2, 3)
        p = random_poly(ctx, rng)
        q = p.compose([ctx.zero()] * 3)
        assert q.const == p.const and not q.c[1:].any()

    def test_compose_matches_pointwise_evaluation(self):
        rng = np.random.default_rng(13)
        ctx = AlgebraContext(2, 2)
        p = random_poly(ctx, rng)
        sub = DAVector([0.5 + 0.25 * ctx.variable(1), ctx.variable(2)])
        comp = p.compose(sub)
        pts = rng.uniform(-0.3, 0.3, size=(40, 2))
        target = np.array([p.eval([0.5 + 0.25 * d1, d2]) for d1, d2 in pts])
        np.testing.assert_allclose(comp.eval_many(pts), target, atol=1e-12)

    def test_dimension_mismatch(self):
        ctx = AlgebraContext(2, 2)
        with pytest.raises(ValueError):
            ctx.variable(1).compose([ctx.variable(1)])


class TestPartialEval:
    def test_power_rule(self):
        ctx = AlgebraContext(2, 1)
        x = ctx.variable(1)
        p = 3 + 2 * x + 5 * x * x
        assert p.partial(1).coeffs() == {(0,): 2.0, (1,): 10.0}

    def test_partial_of_independent_variable_is_zero(self):
        ctx = AlgebraContext(2, 2)
        p = 1 + ctx.variable(1) + ctx.variable(1) ** 2
        assert p.partial(2).is_zero()

    def test_partial_matches_finite_difference_of_eval(self):
        rng = np.random.default_rng(21)
        ctx = AlgebraContext(2, 3)
        for _ in range(10):
            p = random_poly(ctx, rng)
            pt = rng.uniform(-0.4, 0.4, 3)
            h = 1e-6
            for j in range(3):
                dp, dm = pt.copy(), pt.copy()
                dp[j] += h
                dm[j] -= h
                fd = (p.eval(dp) - p.eval(dm)) / (2 * h)
                da = p.partial(j + 1).eval(pt)
                assert abs(da - fd) / max(abs(fd), 1.0) < 1e-8

    def test_eval_examples(self):
        ctx = AlgebraContext(2, 1)
        x = ctx.variable(1)
        p = 1 + x - x * x
        assert p.eval([0.0]) == 1.0
        assert p.eval([2.0]) == -1.0

    def test_eval_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(23)
        ctx = AlgebraContext(2, 3)
        with mpmath.workdps(50):
            for _ in range(10):
                p = random_poly(ctx, rng)
                pt = rng.uniform(-1, 1, 3)
                acc = mpmath.mpf(0)
                for e, v in p.coeffs().items():
                    term = mpmath.mpf(v)
                    for x, k in zip(pt, e):
                        term *= mpmath.mpf(x) ** k
                    acc += term
                assert abs(p.eval(pt) - float(acc)) < 1e-13

    def test_index_out_of_range(self):
        ctx = AlgebraContext(2, 2)
        with pytest.raises(IndexError):
            ctx.variable(1).partial(3)


class TestBoundLinear:
    def test_hand_values(self):
        ctx = AlgebraContext(2, 2)
        x1, x2 = ctx.variable(1), ctx.variable(2)
        assert (0.3 * x1 - 0.4 * x2).bound_linear() == pytest.approx(0.7)
        assert ctx.zero().bound_linear() == 0.0

    def test_bound_dominates_box_and_is_attained_at_a_vertex(self):
        rng = np.random.default_rng(31)
        ctx = AlgebraContext(1, 4)
        for _ in range(10):
            w = rng.uniform(-1, 1, 4)
            p = sum(w[j] * ctx.variable(j + 1) for j in range(4))
            b = p.bound_linear()
            samples = rng.uniform(-1, 1, size=(100_000, 4))
            vals = p.eval_many(samples)
            assert np.abs(vals).max() <= b + 1e-12
            vertex = np.sign(w)
            assert abs(abs(p.eval(vertex)) - b) < 1e-12


class TestDerivativeConsistencyProperty:
    def test_intrinsics_partial_vs_fd_at_origin(self):
        # spec-level property: eval(partial(f(p), j), 0) vs central differences
        rng = np.random.default_rng(41)
        ctx = AlgebraContext(2, 3)
        h = 1e-6
        for fname in ("exp", "sin", "cos", "sqrt", "log", "reciprocal"):
            p = random_poly(ctx, rng, scale=0.3) + 1.8
            fp = getattr(p, fname)()
            for j in range(3):
                da = fp.partial(j + 1).eval([0, 0, 0])
                ej = np.zeros(3)
                ej[j] = h
                fd = (
                    getattr(p.compose(DAVector([ctx.constant(v) for v in ej])), fname)().const
                    - getattr(p.compose(DAVector([ctx.constant(v) for v in -ej])), fname)().const
                ) / (2 * h)
                assert abs(da - fd) / max(abs(fd), 1e-9) < 1e-6


class TestDAVector:
    def test_affine_builder(self):
        ctx = AlgebraContext(2, 2)
        v = DAVector.affine(ctx, [1.0, 2.0], np.array([[0.5, 0.0], [0.1, 0.2]]))
        np.testing.assert_allclose(v.eval([1.0, 1.0]), [1.5, 2.3])

    def test_eval_many_matches_eval(self):
        rng = np.random.default_rng(55)
        ctx = AlgebraContext(2, 3)
        v = DAVector([random_poly(ctx, rng) for _ in range(4)])
        pts = rng.uniform(-1, 1, size=(17, 3))
        batch = v.eval_many(pts)
        for i, pt in enumerate(pts):
            np.testing.assert_allclose(batch[i], v.eval(pt), atol=1e-14)


def test_dump_roundtrip():
    ctx = AlgebraContext(2, 2)
    p = 1.5 - 2.0 * ctx.variable(2) + 0.25 * ctx.variable(1) * ctx.variable(2)
    text = p.dump()
    assert "1.5" in text and "dx2^1" in text and "dx1^1 dx2^1" in text
    # graded-lex: constant line first, cross term last
    lines = text.splitlines()
    assert lines[0] == "1.5"
    assert lines[-1].endswith("dx1^1 dx2^1")


def same_bits(stacked, alone, member):
    """Member ``member`` of a stacked polynomial has the lone polynomial's bits."""
    return np.array_equal(stacked.c[:, member].view(np.int64), alone.c.view(np.int64))


def stack(polys):
    return TaylorPoly(polys[0].ctx, np.stack([p.c for p in polys], axis=1))


class TestStacks:
    """A stack of polynomials computes every member as it would alone, bit for bit."""

    PROGRAMS = {
        # criterion 3's randomized programs
        "assoc_left": lambda a, b, c: (a + b) + c,
        "assoc_right": lambda a, b, c: a + (b + c),
        "distrib_left": lambda a, b, c: a * (b + c),
        "distrib_right": lambda a, b, c: a * b + a * c,
        "sqrt": lambda a, b, c: (a + 2.0).sqrt(),
        "exp": lambda a, b, c: (a + 2.0).exp(),
        "sin": lambda a, b, c: a.sin(),
        "exp_partials": lambda a, b, c: sum(((a + 2.0).exp().partial(j) for j in (1, 2, 3)),
                                            a.ctx.zero()),
        # the other intrinsics, scalars and powers
        "log_cos_tan": lambda a, b, c: (a + 2.0).log() * a.cos() - (0.3 * b).tan(),
        "recip_pow": lambda a, b, c: (b + 3.0).reciprocal() + (c + 2.0) ** 1.5 + (a - 4.0) ** 3,
        "atan_family": lambda a, b, c: (0.5 * a).atan() + a.atan2(b + 3.0) + (0.3 * c).asin(),
        "scalars": lambda a, b, c: 2.5 - a / 3.0 + 7.0 * b - 1.0 / (c + 4.0),
        "absolute": lambda a, b, c: (a + 3.0).absolute() + (b - 3.0).absolute(),
    }

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_programs_match_alone(self, name):
        rng = np.random.default_rng(3)
        ctx = AlgebraContext(2, 3)
        prog = self.PROGRAMS[name]
        members = [[random_poly(ctx, rng) for _ in range(3)] for _ in range(40)]
        out = prog(*(stack([m[i] for m in members]) for i in range(3)))
        assert out.c.shape == (ctx.size, 40)
        for b, m in enumerate(members):
            assert same_bits(out, prog(*m), b)

    def test_lone_operands_and_per_member_scalars(self):
        rng = np.random.default_rng(4)
        ctx = AlgebraContext(2, 6)
        lone = random_poly(ctx, rng)
        members = [random_poly(ctx, rng) for _ in range(5)]
        scalars = rng.uniform(1.0, 2.0, 5)
        st = stack(members)
        out = [lone * st + scalars, scalars * st - lone, st / scalars, lone - scalars,
               (scalars - st) * lone, ctx.constant(scalars).atan2(lone + 2.0)]
        for b, p in enumerate(members):
            s = scalars[b]
            want = [lone * p + s, s * p - lone, p / s, lone - s, (s - p) * lone,
                    ctx.constant(s).atan2(lone + 2.0)]
            for got, w in zip(out, want):
                assert same_bits(got, w, b)
        np.testing.assert_array_equal(st.const, [p.const for p in members])

    def test_members_disagreeing_at_a_branch_raise(self):
        from orbuq.generic import MixedBranch

        ctx = AlgebraContext(2, 2)
        st = stack([ctx.constant(1.0) + ctx.variable(1), ctx.constant(-1.0) + ctx.variable(2)])
        with pytest.raises(MixedBranch):
            st.sqrt()
        with pytest.raises(MixedBranch):
            st.absolute()
        with pytest.raises(ValueError, match="positive"):
            (st - 5.0).log()  # every member is out of range: the lone error

    def test_davector_stack_and_members(self):
        rng = np.random.default_rng(5)
        ctx = AlgebraContext(2, 3)
        vecs = [DAVector([random_poly(ctx, rng) for _ in range(4)]) for _ in range(3)]
        st = DAVector.stack(vecs)
        assert [p.c.shape for p in st] == [(ctx.size, 3)] * 4
        for got, want in zip(st.members(3), vecs):
            for p, q in zip(got, want):
                np.testing.assert_array_equal(p.c, q.c)
                assert p.c.flags.c_contiguous
        # a lone component is the same polynomial in every member
        mixed = DAVector([st[0], ctx.constant(2.0)])
        assert all(np.array_equal(m[1].c, ctx.constant(2.0).c) for m in mixed.members(3))
