import itertools
import random
from fractions import Fraction

import pytest

from heptalift.cayley import Octonion, QQ, ZZ, Zmod
from heptalift.jordan import (
    JordanElement,
    apply_gamma,
    apply_m,
    apply_perm,
    apply_theta,
    apply_word,
    word_multiplier,
)


def rand_oct(rng, ring=ZZ, bound=3):
    return Octonion(ring, [rng.randint(-bound, bound) for _ in range(8)])


def rand_jordan(rng, ring=ZZ, bound=3):
    return JordanElement(
        ring,
        rng.randint(-bound, bound), rng.randint(-bound, bound), rng.randint(-bound, bound),
        rand_oct(rng, ring, bound), rand_oct(rng, ring, bound), rand_oct(rng, ring, bound),
    )


def rand_word(rng, length, bound=2):
    word = []
    for _ in range(length):
        kind = rng.randrange(4)
        if kind == 0:
            word.append(("gamma", rng.choice([1, -1])))
        elif kind == 1:
            i = rng.randint(1, 3)
            j = rng.choice([t for t in (1, 2, 3) if t != i])
            word.append(("m", rand_oct(rng, bound=bound), i, j))
        elif kind == 2:
            word.append(("theta", tuple(rng.choice([1, -1]) for _ in range(3))))
        else:
            word.append(("perm", tuple(rng.sample([1, 2, 3], 3))))
    return word


def test_det_example():
    T = JordanElement(ZZ, 2, 2, 1, Octonion.basis(1), Octonion.zero(), Octonion.zero())
    assert T.det() == 3


def test_identity_element():
    I = JordanElement.diag(1, 1, 1)
    assert I.det() == 1
    assert I.inner(I) == 3
    assert I.adj() == I
    IQ = I.map_ring(QQ)
    assert IQ.circ(IQ) == IQ


def test_adjoint_identity():
    rng = random.Random(211)
    for _ in range(1000):
        X = rand_jordan(rng, bound=2)
        assert X.adj().adj() == X.scale(X.det())


def test_det_directional_derivative():
    rng = random.Random(223)
    for _ in range(1000):
        X, Y = rand_jordan(rng, bound=2), rand_jordan(rng, bound=2)
        d = X.det_expansion(Y)
        assert d[1] == X.adj().inner(Y)
        for t in (1, -1, 2):
            assert (X + Y.scale(t)).det() == d[0] + d[1] * t + d[2] * t * t + d[3] * t ** 3


def test_cross_is_polarized_adjoint():
    rng = random.Random(227)
    for _ in range(200):
        X, Y = rand_jordan(rng, QQ, 2), rand_jordan(rng, QQ, 2)
        assert X.cross(X) == X.adj()
        assert X.cross(Y) == Y.cross(X)
        two_cross = (X + Y).adj() - X.adj() - Y.adj()
        assert X.cross(Y).scale(2) == two_cross


def test_jordan_product_laws():
    rng = random.Random(229)
    I = JordanElement.diag(1, 1, 1, QQ)
    for _ in range(120):
        X, Y = rand_jordan(rng, QQ, 2), rand_jordan(rng, QQ, 2)
        assert X.circ(Y) == Y.circ(X)
        assert X.circ(I) == X
        # Jordan identity: (X o Y) o (X o X) = X o (Y o (X o X))
        X2 = X.circ(X)
        assert X.circ(Y).circ(X2) == X.circ(Y.circ(X2))
        # trace-form associativity
        Z = rand_jordan(rng, QQ, 2)
        assert X.circ(Y).inner(Z) == Y.inner(X.circ(Z))


def test_inner_matches_trace_of_circ():
    rng = random.Random(233)
    for _ in range(200):
        X, Y = rand_jordan(rng, QQ, 3), rand_jordan(rng, QQ, 3)
        assert X.inner(Y) == X.circ(Y).trace()


def test_circ_integrality_guard():
    X = JordanElement.diag(1, 0, 0)
    Y = JordanElement(ZZ, 0, 0, 0, Octonion.basis(0), Octonion.zero(), Octonion.zero())
    with pytest.raises(ArithmeticError):
        X.circ(Y)  # (X Y + Y X)/2 has a half-integral entry
    with pytest.raises(ZeroDivisionError):
        X.map_ring(Zmod(4)).circ(Y.map_ring(Zmod(4)))


def test_m_generator_diagonal_formula():
    rng = random.Random(239)
    for _ in range(100):
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        D = JordanElement.diag(a, b, c)
        xi = rand_oct(rng)
        assert apply_m(D, xi, 2, 1).a == a + b * xi.norm()
        assert apply_m(D, xi, 1, 2).b == b + a * xi.norm()
        assert apply_m(D, xi, 3, 2).b == b + c * xi.norm()


def test_perm_transpositions():
    rng = random.Random(241)
    for _ in range(50):
        X = rand_jordan(rng)
        s12 = apply_perm(X, (2, 1, 3))
        assert (s12.a, s12.b, s12.c) == (X.b, X.a, X.c)
        assert s12.x == X.x.conj() and s12.y == X.z and s12.z == X.y
        s23 = apply_perm(X, (1, 3, 2))
        assert (s23.a, s23.b, s23.c) == (X.a, X.c, X.b)
        assert s23.x == X.y and s23.y == X.x and s23.z == X.z.conj()
        assert apply_perm(apply_perm(X, (2, 1, 3)), (2, 1, 3)) == X


def test_generator_word_multipliers():
    rng = random.Random(251)
    for _ in range(1000):
        X = rand_jordan(rng, bound=2)
        word = rand_word(rng, rng.randint(1, 12))
        assert apply_word(X, word).det() == word_multiplier(word) * X.det()


def rand_rational_word(rng, length, bound=2):
    """A word over Q: rand_word's tokens, with m over Q and theta scalings by
    rationals, most of them not +-1."""
    word = []
    for token in rand_word(rng, length, bound):
        if token[0] == "m":
            token = ("m", token[1].map_ring(QQ), *token[2:])
        elif token[0] == "theta":
            token = ("theta", tuple(
                Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3])) for _ in range(3)
            ))
        word.append(token)
    return word


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["ZZ", "QQ"])
def test_long_word_multipliers(ring):
    rng = random.Random(263)
    words = {ZZ: rand_word, QQ: rand_rational_word}[ring]
    for _ in range(8):
        X = rand_jordan(rng, ring, bound=2)
        while not X.det():
            X = rand_jordan(rng, ring, bound=2)
        word = words(rng, rng.randint(100, 200))
        assert apply_word(X, word).det() == word_multiplier(word, ring) * X.det()


def test_generators_preserve_inner_products_scaled():
    # m and perm preserve det; check they also keep integrality
    rng = random.Random(257)
    for _ in range(200):
        X = rand_jordan(rng, bound=2)
        Y = apply_m(X, rand_oct(rng, bound=2), 1, 3)
        assert all(isinstance(v, int) for v in Y.coords())


def test_positivity():
    rng = random.Random(263)
    assert JordanElement.diag(1, 1, 1).is_positive()
    assert not JordanElement.diag(1, 1, -1).is_positive()
    assert not JordanElement.diag(0, 1, 1).is_positive()
    assert not JordanElement.zero().is_positive()
    found = 0
    while found < 200:
        S = rand_jordan(rng, QQ, 2)
        if S.det() == 0:
            continue
        sq = S.circ(S)
        found += 1
        assert sq.is_positive(), S
        assert sq.scale(-1).is_positive() is False


def test_rank_classification_mod_p():
    R = Zmod(2)
    assert JordanElement.zero(R).rank_mod_p() == 0
    assert JordanElement.diag(1, 0, 0, R).rank_mod_p() == 1
    assert JordanElement.diag(1, 1, 0, R).rank_mod_p() == 2
    assert JordanElement.diag(1, 1, 1, R).rank_mod_p() == 3


def test_mod_ring_elements_compare_by_value():
    # two Zmod(49) built apart: equal, hash equal, and repr as before
    rng = random.Random(281)
    X = rand_jordan(rng)
    A, B = X.map_ring(Zmod(49)), X.map_ring(Zmod(49))
    assert A.ring is not B.ring
    assert A == B and hash(A) == hash(B)
    assert A != X.map_ring(Zmod(7)) and A != X
    assert JordanElement(Zmod(49), 1, 2, 50, A.x, B.y, A.z) == JordanElement.diag(1, 2, 1, Zmod(49)) + \
        JordanElement(Zmod(49), 0, 0, 0, A.x, A.y, A.z)
    zero = [0] * 8
    assert repr(JordanElement.diag(1, 2, 50, Zmod(49))) == \
        "JordanElement(Z/49, diag=[1, 2, 1], x=%r, y=%r, z=%r)" % (zero, zero, zero)
    assert repr(JordanElement.diag(1, 1, 1)) == \
        "JordanElement(Z, diag=[1, 1, 1], x=%r, y=%r, z=%r)" % (zero, zero, zero)


def test_json_roundtrip():
    rng = random.Random(269)
    for _ in range(20):
        X = rand_jordan(rng)
        assert JordanElement.from_json(X.to_json()) == X


# -- matrix oracle -----------------------------------------------------------
#
# An independent route for circ, apply_m and apply_perm: the element as its
# full Hermitian 3x3 octonion matrix (scalar octonions on the diagonal,
# conjugates below it), multiplied as matrices entry by entry.

ORACLE_RINGS = (ZZ, QQ, Zmod(7), Zmod(49), Zmod(4))


def as_matrix(X):
    R = X.ring
    return [
        [Octonion.scalar(X.a, R), X.x, X.y],
        [X.x.conj(), Octonion.scalar(X.b, R), X.z],
        [X.y.conj(), X.z.conj(), Octonion.scalar(X.c, R)],
    ]


def unit_matrix(ring, extra=()):
    """Identity matrix plus the given ((row, col), octonion) terms."""
    M = [[Octonion.scalar(int(i == j), ring) for j in range(3)] for i in range(3)]
    for (i, j), o in extra:
        M[i][j] = M[i][j] + o
    return M


def mat_mul(P, Q):
    return [
        [P[i][0] * Q[0][j] + P[i][1] * Q[1][j] + P[i][2] * Q[2][j] for j in range(3)]
        for i in range(3)
    ]


def mat_half(ring, M):
    if ring is QQ:
        return [[Octonion(QQ, [Fraction(v) / 2 for v in o.co]) for o in row] for row in M]
    if ring is ZZ:
        if any(v % 2 for row in M for o in row for v in o.co):
            raise ArithmeticError("half-integral entry")
        return [[Octonion(ZZ, [v // 2 for v in o.co]) for o in row] for row in M]
    if ring.m % 2 == 0:
        raise ZeroDivisionError("2 is not a unit mod %d" % ring.m)
    h = pow(2, -1, ring.m)
    return [[Octonion(ring, [v * h for v in o.co]) for o in row] for row in M]


def outcome(f, *args):
    """The matrix of f(*args), or the type of the exception it raises."""
    try:
        r = f(*args)
    except ArithmeticError as exc:
        return type(exc)
    return r if isinstance(r, list) else as_matrix(r)


def oracle_circ(X, Y):
    E, F = as_matrix(X), as_matrix(Y)
    XY, YX = mat_mul(E, F), mat_mul(F, E)
    return mat_half(X.ring, [[XY[i][j] + YX[i][j] for j in range(3)] for i in range(3)])


def oracle_m(X, w, i, j):
    """(1 + w~ e_ji) X (1 + w e_ij) with 1-indexed i != j."""
    L = unit_matrix(X.ring, [((j - 1, i - 1), w.conj())])
    R = unit_matrix(X.ring, [((i - 1, j - 1), w)])
    return mat_mul(mat_mul(L, as_matrix(X)), R)


def oracle_perm(X, sigma):
    """P X P^T with P_{u, sigma(u)} = 1, so the new X_uv is X_{sigma(u) sigma(v)}."""
    P = [[Octonion.scalar(int(sigma[u] - 1 == v), X.ring) for v in range(3)] for u in range(3)]
    PT = [[P[v][u] for v in range(3)] for u in range(3)]
    return mat_mul(mat_mul(P, as_matrix(X)), PT)


def rand_coord(rng, ring):
    if ring is QQ:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.randint(-3, 3) if ring is ZZ else rng.randrange(ring.m)


def rand_elem(rng, ring):
    def o():
        return Octonion(ring, [rand_coord(rng, ring) for _ in range(8)])

    return JordanElement(ring, *(rand_coord(rng, ring) for _ in range(3)), o(), o(), o())


def test_circ_matches_matrix_oracle():
    rng = random.Random(271)
    E11 = JordanElement.diag(1, 0, 0)
    e0 = JordanElement(ZZ, 0, 0, 0, Octonion.basis(0), Octonion.zero(), Octonion.zero())
    # half-integral over Z, 2 not a unit in Z/4, an even product over Z
    cases = [(E11, e0), (E11.map_ring(Zmod(4)), e0.map_ring(Zmod(4))), (E11, e0.scale(2))]
    for ring in ORACLE_RINGS:
        cases += [(rand_elem(rng, ring), rand_elem(rng, ring)) for _ in range(25)]
    raised = set()
    for X, Y in cases:
        want = outcome(oracle_circ, X, Y)
        assert outcome(X.circ, Y) == want, (X, Y)
        if isinstance(want, type):
            raised.add((repr(X.ring), want))
    assert outcome(E11.circ, e0.scale(2)) == as_matrix(e0)
    assert raised == {("Z", ArithmeticError), ("Z/4", ZeroDivisionError)}


def test_m_generator_matches_matrix_oracle():
    rng = random.Random(277)
    for ring in ORACLE_RINGS:
        for _ in range(4):
            X = rand_elem(rng, ring)
            w = Octonion(ring, [rand_coord(rng, ring) for _ in range(8)])
            for i, j in itertools.permutations((1, 2, 3), 2):
                assert as_matrix(apply_m(X, w, i, j)) == oracle_m(X, w, i, j), (ring, i, j)


def test_perm_matches_matrix_oracle():
    rng = random.Random(281)
    for ring in ORACLE_RINGS:
        for _ in range(4):
            X = rand_elem(rng, ring)
            for sigma in itertools.permutations((1, 2, 3)):
                assert as_matrix(apply_perm(X, sigma)) == oracle_perm(X, sigma), (ring, sigma)
