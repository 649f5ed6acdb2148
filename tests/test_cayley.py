import random
from fractions import Fraction

import pytest

from heptalift.cayley import (
    _ALPHA_2E,
    QQ,
    ZZ,
    Octonion,
    Zmod,
    _build_structure,
    _mat_inv_frac,
    gram_det,
    structure_constants,
    trace_pairing_gram,
)


def from_e_coords(e_coords):
    """Octonion from ordinary e-basis coordinates (must land in the order)."""
    w2 = [2 * Fraction(v) for v in e_coords]
    inv, _ = _mat_inv_frac(_ALPHA_2E)
    return Octonion(ZZ, [sum(w2[i] * inv[i][k] for i in range(8)) for k in range(8)])


def e_coords_doubled(x):
    """Integer vector of 2x the e-basis coordinates of x."""
    out = [0] * 8
    for i, c in enumerate(x.co):
        if c:
            for j in range(8):
                out[j] += c * _ALPHA_2E[i][j]
    return out


def rand_oct(rng, ring=ZZ, bound=4):
    return Octonion(ring, [rng.randint(-bound, bound) for _ in range(8)])


def test_e_basis_products():
    def e(i):
        v = [0] * 8
        v[i] = 1
        return from_e_coords(v)

    assert e(1) * e(2) == e(4)
    assert e(2) * e(1) == -e(4)
    assert e(2) * e(3) == e(5)
    assert e(4) * e(5) == e(7)
    for i in range(1, 8):
        assert e(i) * e(i) == -e(0)
        # e_i (e_{i+1} e_{i+3}) = e_i e_i = -1
        j = i % 7 + 1
        k = (i + 2) % 7 + 1
        assert e(i) * (e(j) * e(k)) == -e(0)


def test_basis_norms_and_traces():
    for i in range(8):
        a = Octonion.basis(i)
        assert a.norm() == 1
    traces = [Octonion.basis(i).trace() for i in range(8)]
    assert traces == [2, 0, 0, 0, 0, -1, -1, -1]


def test_order_closure_integral():
    S = structure_constants()
    for i in range(8):
        for j in range(8):
            assert all(isinstance(v, int) for v in S[i][j])
    a4 = Octonion.basis(4)
    assert (a4 * a4).to_list() == [-1, 0, 0, 0, 0, 0, 0, 0]


def test_basis_leaving_the_order_is_refused():
    # swapping e_1 and e_2 maps the order onto an E8 lattice that contains 1
    # and has a unimodular trace pairing, but is not closed under
    # multiplication: the build that runs at import must refuse it
    alpha = [[r[0], r[2], r[1]] + list(r[3:]) for r in _ALPHA_2E]
    inv, det = _mat_inv_frac([[sum(a * b for a, b in zip(u, v)) // 2 for v in alpha]
                              for u in alpha])
    assert det == 1
    with pytest.raises(ArithmeticError, match="not closed under multiplication"):
        _build_structure(alpha, [[int(v) for v in row] for row in inv])


def test_mat_inv_frac_inverse_and_determinant():
    assert _mat_inv_frac([[0, 1], [1, 0]]) == ([[0, 1], [1, 0]], -1)
    assert _mat_inv_frac([[2, 1], [4, 3]]) == (
        [[Fraction(3, 2), Fraction(-1, 2)], [-2, 1]], 2)
    with pytest.raises(ArithmeticError):
        _mat_inv_frac([[1, 2], [2, 4]])
    G = trace_pairing_gram()
    inv, det = _mat_inv_frac(G)
    assert det == gram_det() == 1
    assert all(sum(G[i][k] * inv[k][j] for k in range(8)) == (i == j)
               for i in range(8) for j in range(8))


def test_gram_unimodular():
    G = trace_pairing_gram()
    assert gram_det() == 1
    for i in range(8):
        assert G[i][i] == 2  # doubled norms: Tr(a_i conj(a_i)) = 2 N(a_i)
        for j in range(8):
            assert G[i][j] == G[j][i]


def test_composition_law():
    rng = random.Random(101)
    for _ in range(10 ** 4):
        x, y = rand_oct(rng), rand_oct(rng)
        assert (x * y).norm() == x.norm() * y.norm()


def test_alternative_laws():
    rng = random.Random(103)
    for _ in range(2000):
        x, y = rand_oct(rng), rand_oct(rng)
        assert x * (x * y) == (x * x) * y
        assert (y * x) * x == y * (x * x)
        assert x * (y * x) == (x * y) * x  # flexible


def test_conjugation_and_quadratic_relation():
    rng = random.Random(107)
    one = Octonion.scalar(1)
    for _ in range(2000):
        x, y = rand_oct(rng), rand_oct(rng)
        assert (x * y).conj() == y.conj() * x.conj()
        assert x + x.conj() == x.trace() * one
        assert x * x.conj() == x.norm() * one
        # x^2 - Tr(x) x + N(x) = 0
        assert x * x - x.trace() * x + x.norm() * one == Octonion.zero()


def test_trace_form_identities():
    rng = random.Random(109)
    for _ in range(1000):
        x, y, z = rand_oct(rng, bound=3), rand_oct(rng, bound=3), rand_oct(rng, bound=3)
        assert (x * y).trace() == (y * x).trace()
        assert ((x * y) * z).trace() == (x * (y * z)).trace()
        assert x.trace_with(y) == (x * y).trace()
        assert x.norm_polar(y) == (x + y).norm() - x.norm() - y.norm()
    # trace_with reads Tr(x y) off the trace pairing in every ring
    for ring in (ZZ, QQ, Zmod(7), Zmod(4)):
        for _ in range(200):
            x, y = (Octonion(ring, [Fraction(rng.randint(-9, 9), rng.randint(1, 6) if ring is QQ else 1)
                                    for _ in range(8)]) for _ in range(2))
            want = (x * y).trace()
            got = x.trace_with(y)
            assert got == want and type(got) is type(want)


def test_norm_is_half_gram_form():
    # the generated norm kernel against N(x) = x^T G x / 2 summed in full
    rng = random.Random(131)
    G = trace_pairing_gram()
    for ring in (ZZ, QQ, Zmod(7), Zmod(9)):
        for _ in range(300):
            co = [rng.randint(-9, 9) for _ in range(8)]
            if ring is QQ:
                co = [Fraction(v, rng.randint(1, 6)) for v in co]
            x = Octonion(ring, co)
            full = sum(G[i][j] * x.co[i] * x.co[j] for i in range(8) for j in range(8))
            assert full % 2 == 0 or ring is QQ
            want = ring.el(Fraction(full, 2))
            got = x.norm()
            assert got == want and type(got) is type(want)


def test_integer_coordinates_are_canonical():
    # plain ints pass through; anything else goes through the ring
    x = Octonion(ZZ, [Fraction(4, 2), True, 3, 0, 0, 0, 0, -1])
    assert x.co == (2, 1, 3, 0, 0, 0, 0, -1)
    assert all(type(v) is int for v in x.co)
    with pytest.raises(ValueError):
        Octonion(ZZ, [Fraction(1, 2)] + [0] * 7)


def test_mod_ring_reduction_commutes():
    rng = random.Random(113)
    for m in (2, 3, 8, 25):
        R = Zmod(m)
        for _ in range(300):
            x, y = rand_oct(rng, bound=9), rand_oct(rng, bound=9)
            assert (x * y).map_ring(R) == x.map_ring(R) * y.map_ring(R)
            assert (x + y).map_ring(R) == x.map_ring(R) + y.map_ring(R)
            assert (x * y).map_ring(R).norm() == R.el(x.norm() * y.norm())


def test_mod_rings_are_values():
    # rings built apart with the same modulus are equal; no cache ties them
    R, S = Zmod(49), Zmod(49)
    assert R == S and hash(R) == hash(S) and R is not S
    assert R != Zmod(7) and R != ZZ and ZZ != QQ
    x, y = Octonion(R, range(8)), Octonion(S, range(8))
    assert x == y and hash(x) == hash(y)
    assert x != Octonion(ZZ, range(8)) and x != Octonion(Zmod(7), range(8))
    assert (x * y).ring == R and x * y == Octonion(R, x.co) * Octonion(S, y.co)
    assert (repr(R), repr(ZZ), repr(QQ)) == ("Z/49", "Z", "Q")
    assert repr(x) == "Octonion(Z/49, [0, 1, 2, 3, 4, 5, 6, 7])"
    assert repr(Octonion.basis(1)) == "Octonion(Z, [0, 1, 0, 0, 0, 0, 0, 0])"
    assert repr(Octonion.basis(0, QQ)) == \
        "Octonion(Q, [%s])" % ", ".join(["Fraction(1, 1)"] + ["Fraction(0, 1)"] * 7)
    with pytest.raises(ValueError):
        Zmod(1)


def test_rational_ring():
    x = Octonion(QQ, [Fraction(1, 2), Fraction(-1, 3), 0, 0, 1, 0, 0, 0])
    assert x.norm() == x.norm()  # well-defined Fraction
    assert (x - x).is_zero()
    assert (2 * x).co[0] == 1


def test_e_coords_roundtrip():
    rng = random.Random(127)
    for _ in range(200):
        x = rand_oct(rng)
        d = e_coords_doubled(x)
        y = from_e_coords([Fraction(v, 2) for v in d])
        assert y == x


def test_trace_pairing_nondegenerate_mod_p():
    # for every nonzero x mod p some basis vector pairs to a unit;
    # this is what the reduction step search relies on
    G = trace_pairing_gram()
    for p in (2, 3, 5):
        for mask in range(1, 2 ** 8 if p == 2 else 256):
            co = [(mask >> i) & 1 for i in range(8)]
            vals = [sum(G[i][j] * co[j] for j in range(8)) % p for i in range(8)]
            assert any(vals), (p, co)


def test_json_roundtrip():
    x = Octonion(ZZ, [1, -2, 3, 0, 0, 5, 0, -1])
    assert Octonion.from_list(x.to_list()) == x
