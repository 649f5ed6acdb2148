"""Local diagonalization: oracle values and scramble round-trips."""

import random

import pytest

from heptalift.cayley import Octonion, ZZ, Zmod
from heptalift.jordan import JordanElement, apply_word, word_multiplier
from heptalift.padic import (
    ElemDivisors,
    MAX_FACTOR_BITS,
    elementary_divisors,
    factor_table,
    factorize,
    genus_invariants,
    is_prime,
    reduce_at,
)


def rand_oct(rng, bound=2, ring=ZZ):
    return Octonion(ring, [rng.randint(-bound, bound) for _ in range(8)])


def unit_word(rng, length):
    """Random word of integrally invertible tokens (multiplier +-1)."""
    word = []
    for _ in range(length):
        kind = rng.randrange(4)
        if kind == 0:
            i, j = rng.sample([1, 2, 3], 2)
            word.append(("m", rand_oct(rng), i, j))
        elif kind == 1:
            sigma = [1, 2, 3]
            rng.shuffle(sigma)
            word.append(("perm", tuple(sigma)))
        elif kind == 2:
            word.append(("theta", tuple(rng.choice([1, -1]) for _ in range(3))))
        else:
            word.append(("gamma", rng.choice([1, -1])))
    return word


def test_identity_all_primes():
    I = JordanElement.diag(1, 1, 1)
    for p in (2, 3, 5, 7, 11):
        assert elementary_divisors(I, p).exps == (0, 0, 0)


def test_scalar_prime_multiples():
    for p in (2, 3, 5):
        X = JordanElement.diag(p, p, p)
        assert elementary_divisors(X, p).exps == (1, 1, 1)
        assert elementary_divisors(X.scale(p), p).exps == (2, 2, 2)


def test_diagonal_prime_powers_any_order():
    for p in (2, 3, 5):
        for exps in [(0, 0, 1), (0, 1, 2), (1, 1, 3), (0, 2, 2), (2, 2, 2)]:
            for order in [(0, 1, 2), (2, 0, 1), (1, 2, 0), (2, 1, 0)]:
                seq = [exps[i] for i in order]
                X = JordanElement.diag(*(p ** e for e in seq))
                assert elementary_divisors(X, p).exps == exps


def test_unit_cofactors_ignored():
    # diag entries need only be unit multiples of prime powers
    assert elementary_divisors(JordanElement.diag(3, 2, 12), 2).exps == (0, 1, 2)
    assert elementary_divisors(JordanElement.diag(3, 2, 12), 3).exps == (0, 1, 1)
    assert elementary_divisors(JordanElement.diag(25, 7, 5), 5).exps == (0, 1, 2)


def test_offdiagonal_minimum():
    # a = b = c = 0 and x = y = z = 1 has det Tr(1) = 2: divisors (0,0,1) at 2
    one = Octonion.scalar(1)
    X = JordanElement(ZZ, 0, 0, 0, one, one, one)
    assert X.det() == 2
    assert elementary_divisors(X, 2).exps == (0, 0, 1)
    assert genus_invariants(X) == {2: ElemDivisors(2, (0, 0, 1))}


def test_scramble_round_trip():
    rng = random.Random(20260815)
    for trial in range(200):
        p = rng.choice([2, 3, 5])
        exps = tuple(sorted(rng.randint(0, 3) for _ in range(3)))
        X0 = JordanElement.diag(*(p ** e for e in exps))
        X = apply_word(X0, unit_word(rng, rng.randint(1, 6)))
        div = elementary_divisors(X, p)
        assert div.exps == exps, (trial, p, exps, div)
        assert div.total == sum(exps)


def test_reduction_word_replays():
    rng = random.Random(7)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        exps = tuple(sorted(rng.randint(0, 2) for _ in range(3)))
        X = apply_word(JordanElement.diag(*(p ** e for e in exps)),
                       unit_word(rng, 4))
        red = reduce_at(X, p)
        assert word_multiplier(red.word) == 1
        replay = apply_word(X.map_ring(Zmod(p ** red.precision)), red.word)
        assert replay == red.reduced
        assert not any(red.reduced.x.co)
        assert not any(red.reduced.y.co)
        assert not any(red.reduced.z.co)


def test_precision_independent():
    rng = random.Random(99)
    X = apply_word(JordanElement.diag(1, 2, 4), unit_word(rng, 5))
    base = elementary_divisors(X, 2)
    assert elementary_divisors(X, 2, precision=base.total + 6) == base


def _order(v, p):
    """Exponent of p in the nonzero integer v."""
    k = 0
    while v % p == 0:
        v //= p
        k += 1
    return k


def _content(values, p):
    """Least p-adic order over the nonzero values."""
    return min(_order(v, p) for v in values if v)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_divisors_match_the_adjoint_route(p):
    # second route: a1 = v(X), a1 + a2 = v(X#) and a1 + a2 + a3 = v(det X),
    # v the least p-adic order over the 27 coordinates; random elements,
    # elements with scaled coordinates and scrambled diagonals, each also
    # scaled as a whole
    rng = random.Random(20261020 + p)
    checked = 0
    while checked < 240:
        kind = checked % 3
        if kind == 2:
            X = apply_word(JordanElement.diag(*(rng.choice([1, -1, p + 1]) * p ** rng.randint(0, 3)
                                                for _ in range(3))),
                           unit_word(rng, rng.randint(1, 4)))
        else:
            coords = [rng.randint(-3, 3) * p ** (kind * rng.randint(0, 2)) for _ in range(27)]
            X = JordanElement(ZZ, *coords[:3],
                              *(Octonion(ZZ, coords[i:i + 8]) for i in (3, 11, 19)))
        X = X.scale(p ** rng.randint(0, 2))
        det = X.det()
        if det == 0:
            continue
        v1, v2, v3 = (_content(X.coords(), p), _content(X.adj().coords(), p),
                      _order(det, p))
        assert reduce_at(X, p).divisors.exps == (v1, v2 - v1, v3 - v2), (X, p)
        checked += 1


def test_genus_invariants_multi_prime():
    inv = genus_invariants(JordanElement.diag(1, 2, 12))
    assert inv == {
        2: ElemDivisors(2, (0, 1, 2)),
        3: ElemDivisors(3, (0, 0, 1)),
    }
    assert genus_invariants(JordanElement.diag(1, 1, 1)) == {}


def test_rejects_singular_and_bad_precision():
    one = Octonion.scalar(1)
    S = JordanElement(ZZ, 1, 1, 1, one, one, one)
    assert S.det() == 0
    with pytest.raises(ValueError):
        elementary_divisors(S, 2)
    with pytest.raises(ValueError):
        elementary_divisors(JordanElement.diag(2, 2, 2), 2, precision=3)


def test_elem_divisors_validation():
    with pytest.raises(ValueError):
        ElemDivisors(2, (1, 0, 0))
    with pytest.raises(ValueError):
        ElemDivisors(2, (0, 0))


def test_factorize_and_primality():
    assert factorize(1) == {}
    assert factorize(2 ** 4 * 3 ** 2 * 101) == {2: 4, 3: 2, 101: 1}
    assert factorize(10403) == {101: 1, 103: 1}
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 32 - 1)
    n = 1000003 * 999983
    assert factorize(n) == {999983: 1, 1000003: 1}


def test_factor_table_matches_factorize():
    assert factor_table(0) == [[]]
    assert factor_table(1) == [[], []]
    assert factor_table(2) == [[], [], [(2, 1)]]
    table = factor_table(10 ** 4)
    assert len(table) == 10 ** 4 + 1 and table[:2] == [[], []]
    for n in range(1, 10 ** 4 + 1):
        assert table[n] == sorted(factorize(n).items()), n
    # a table ending at a prime power holds the same entries
    for N in range(3, 300):
        assert factor_table(N) == table[: N + 1], N


def test_factorize_bounds_the_part_left_after_trial_division():
    # the part free of primes below 2^10 may have MAX_FACTOR_BITS bits, at
    # any power of the small primes; one bit more is refused
    assert MAX_FACTOR_BITS == 64
    p64, p65 = 2 ** 64 - 59, 2 ** 64 + 13
    assert is_prime(p64) and is_prime(p65)
    assert factorize(2 ** 200 * 1021 ** 9 * p64) == {2: 200, 1021: 9, p64: 1}
    inv = genus_invariants(JordanElement.diag(2 ** 200, 1021 ** 9, p64))
    assert {p: d.exps for p, d in inv.items()} == {
        2: (0, 0, 200), 1021: (0, 0, 9), p64: (0, 0, 1),
    }
    for n in (p65, 3 * p64 * 1031):
        with pytest.raises(ValueError, match="at most 64 bits are factored"):
            factorize(n)
        with pytest.raises(ValueError, match="at most 64 bits are factored"):
            genus_invariants(JordanElement.diag(1, 1, n))


def _vp(x, p):
    """p-adic valuation of a nonzero integer."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def test_reduction_round_trips_at_every_prime_to_101():
    # diag(p^e1, p^e2, p^e3), e_i <= 12, scrambled by a unit word: the
    # divisors come back, the reduction word has multiplier 1 and replays
    # onto the reduced form, which is diagonal with valuations e1 <= e2 <= e3
    rng = random.Random(20261019)
    primes = [p for p in range(2, 102) if is_prime(p)]
    for p in primes:
        for _ in range(6):
            exps = tuple(sorted(rng.randint(0, 12) for _ in range(3)))
            X = apply_word(JordanElement.diag(*(p ** e for e in exps)),
                           unit_word(rng, rng.randint(1, 6)))
            assert elementary_divisors(X, p).exps == exps
            red = reduce_at(X, p)
            assert red.divisors.exps == exps
            assert red.divisors.total == sum(exps) == _vp(X.det(), p)
            assert word_multiplier(red.word) == 1
            assert apply_word(X.map_ring(Zmod(p ** red.precision)), red.word) == red.reduced
            Y = red.reduced
            assert not any(Y.x.co) and not any(Y.y.co) and not any(Y.z.co)
            assert tuple(_vp(v, p) for v in (Y.a, Y.b, Y.c)) == exps
