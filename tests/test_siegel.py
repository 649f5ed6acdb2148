"""Siegel polynomial: two routes, functional equation, frozen coefficients."""

import pytest

from heptalift import cli, siegel
from heptalift.exactnum import LaurentPoly
from heptalift.density import exponent_triples
from heptalift.genfun import hp_table_route, lambda_p
from heptalift.lift import eigen_delta, eigen_from_rows, local_factor, satake_power_sums
from heptalift.siegel import SiegelPoly, f_poly, f_poly_oracle, tilde_f
from test_genfun import f_from_table


def all_triples(bound):
    for m1 in range(bound // 3 + 1):
        for m2 in range(bound + 1):
            for m3 in range(m2, bound + 1):
                if 3 * m1 + m2 + m3 <= bound:
                    yield m1, m2, m3


def test_base_cases():
    for p in (2, 3, 5):
        assert f_poly(p, 0, 0, 0).poly == LaurentPoly("X", {0: 1})
        assert f_poly(p, 0, 0, 1).poly == LaurentPoly("X", {0: 1, 1: 1})
        assert f_poly(p, 0, 0, 2).poly == LaurentPoly("X", {0: 1, 1: 1, 2: 1})
        assert f_poly(p, 0, 1, 1).poly == LaurentPoly(
            "X", {0: 1, 1: 1 + p ** 4, 2: 1}
        )


def test_frozen_coefficients():
    assert f_poly(2, 1, 0, 0).coeffs() == [1, 273, 273, 1]
    assert f_poly(2, 0, 1, 2).coeffs() == [1, 17, 17, 1]
    assert f_poly(3, 1, 0, 1).coeffs() == [1, 6643, 13204, 6643, 1]


def test_routes_agree():
    for p in (2, 3):
        for m1, m2, m3 in all_triples(9):
            a = f_poly(p, m1, m2, m3)
            b = f_poly_oracle(p, m1, m2, m3)
            assert a.poly == b.poly, (p, m1, m2, m3)


def test_routes_agree_at_larger_primes():
    for p in (2, 3, 5, 7, 11, 97, 101):
        for m1 in range(3):
            for m3 in range(5):
                for m2 in range(m3 + 1):
                    a = f_poly(p, m1, m2, m3)
                    assert a == f_poly_oracle(p, m1, m2, m3), (p, m1, m2, m3)
                    assert all(type(v) is int for v in a.poly.c.values())


def test_memo_hands_out_unmutated_polys():
    f_poly.cache_clear()
    eigen = eigen_delta(10)
    local_factor(3, (1, 2, 4), eigen)
    lambda_p(3, 7)
    local_factor(3, (1, 2, 4), eigen)
    assert f_poly.cache_info().hits >= 1
    for a1, a2, a3 in exponent_triples(7):
        args = (3, a1, a2 - a1, a3 - a1)
        cached = f_poly(*args)
        assert cached is f_poly(*args)
        assert cached == f_poly.__wrapped__(*args)


def clear_memos():
    f_poly.cache_clear()
    siegel._closed_form_terms.cache_clear()


@pytest.mark.parametrize("factor", ["1", "p^4", "p^8"])
def test_wrong_denominator_raises_in_both_routes(monkeypatch, factor):
    lin = siegel._lin
    clear_memos()
    good = f_poly(2, 1, 0, 2)
    base = {(p, m): f_poly_oracle(p, *m).poly
            for p in (2, 3, 5) for m in all_triples(6) if m[0] == 0}
    try:
        for p in (2, 3, 5):
            target = {"1": 1, "p^4": p ** 4, "p^8": p ** 8}[factor]
            # the factor 1 - c X becomes 1 - (c + 1) X for c = target
            monkeypatch.setattr(
                siegel, "_lin", lambda c, t=target: lin(c + 1 if c == t else c)
            )
            if p == 2:
                # a hit in any memo would hide the mutation
                assert f_poly(2, 1, 0, 2) is good
                f_poly.cache_clear()
                assert f_poly(2, 1, 0, 2) == good
                clear_memos()
            for m in all_triples(6):
                if m[0] == 0:
                    # f_poly's base polynomial reads no denominator
                    assert f_poly(p, *m).poly == base[p, m]
                else:
                    with pytest.raises(ArithmeticError):
                        f_poly(p, *m)
                with pytest.raises(ArithmeticError):
                    f_poly_oracle(p, *m)
                # the table route reads the same per-prime terms
                with pytest.raises(ArithmeticError):
                    f_from_table(p, *m)
            with pytest.raises(ArithmeticError):
                hp_table_route(p, 4)
    finally:
        monkeypatch.undo()
        clear_memos()


def test_warm_memo_matches_cold_route_and_oracle():
    # the per-prime terms are shared by every call at p; a call must
    # neither see them stale nor change them
    f_poly.cache_clear()
    siegel._closed_form_terms.cache_clear()
    for p in (2, 3, 5, 7, 97):
        for m in all_triples(10):
            warm = f_poly(p, *m)
            assert warm == f_poly.__wrapped__(p, *m) == f_poly_oracle(p, *m), (p, m)
        terms, full = siegel._closed_form_terms(p)
        fresh_terms, fresh_full = siegel._closed_form_terms.__wrapped__(p)
        assert full == fresh_full and terms == fresh_terms
        assert all(type(v) is int for cof, *monos in terms
                   for v in (*cof.c.values(), *(c for c, _ in monos)))
    hits = siegel._closed_form_terms.cache_info()
    assert hits.currsize == 5 and hits.hits > 0


def test_base_polynomial_is_the_eight_term_sum_at_m1_zero():
    # f_poly returns the base polynomial at m1 = 0; the plain sum of the
    # eight closed-form terms keeps the closed form checked there
    for p in (2, 3, 5, 7, 97, 1000003):
        for m3 in range(13):
            for m2 in range(min(m3, 12 - m3) + 1):
                base = siegel._base_poly(p, m2, m3)
                assert f_poly(p, 0, m2, m3).poly == base == f_poly_oracle(p, 0, m2, m3).poly
                assert f_from_table(p, 0, m2, m3) == base, (p, m2, m3)


def test_lift_table_builds_terms_only_where_m1_is_positive(capsys):
    # below 200 only p = 2, 3 and 5 divide a determinant to a profile with
    # m1 >= 1 (p^3 | det); every other prime reads only the base polynomial
    clear_memos()
    try:
        assert cli.dispatch(["lift-table", "--k", "10", "--max-det", "200"]) == 0
        assert siegel._closed_form_terms.cache_info().currsize == 3
    finally:
        capsys.readouterr()
        clear_memos()


def test_degree_and_constant_term():
    for p in (2, 5):
        for m1, m2, m3 in all_triples(7):
            s = f_poly(p, m1, m2, m3)
            assert s.weight == 3 * m1 + m2 + m3
            assert s.poly.coeff(0) == 1
            if s.weight:
                assert s.poly.degree() == s.weight


def test_functional_equation():
    for p in (2, 3, 5):
        for m1, m2, m3 in all_triples(9):
            t = tilde_f(f_poly(p, m1, m2, m3))
            assert t == t.subst_inverse()
            m = 3 * m1 + m2 + m3
            for e in sorted(t.c):
                assert abs(e) <= m and (e - m) % 2 == 0


def test_tilde_small():
    assert tilde_f(f_poly(2, 0, 0, 0)) == LaurentPoly("X", {0: 1})
    assert tilde_f(f_poly(2, 0, 0, 1)) == LaurentPoly("X", {1: 1, -1: 1})
    assert tilde_f(f_poly(3, 0, 0, 2)) == LaurentPoly("X", {2: 1, 0: 1, -2: 1})


def tilde_local_factor(p, exps, eigen):
    """Oracle: p^{m(2k-9)/2} tilde_f(alpha_p) read off tilde_f itself, its
    coefficients c_j at X^j and X^-j paired with the power sums t_j."""
    a1, a2, a3 = exps
    m = a1 + a2 + a3
    t = tilde_f(f_poly(p, a1, a2 - a1, a3 - a1))
    ts = satake_power_sums(eigen.a(p), p, eigen.k, m)
    total = 0
    for j in range(m, -1, -2):
        assert t.coeff(j) == t.coeff(-j)
        total += t.coeff(j) * p ** ((m - j) // 2 * (2 * eigen.k - 9)) * (ts[j] if j else 1)
    return total


def test_local_factor_matches_tilde_oracle():
    s = f_poly(2, 0, 1, 2)
    assert [tilde_f(s).coeff(j) for j in range(s.weight, -1, -2)] == [1, 17]
    primes = (2, 3, 5, 97)
    tables = (eigen_delta(100),
              eigen_from_rows(13, [(p, (-1) ** p * (p ** 8 + 3 * p)) for p in primes]))
    for eigen in tables:
        for p in primes:
            for m in range(9):
                for exps in exponent_triples(m):
                    assert local_factor(p, exps, eigen) == tilde_local_factor(p, exps, eigen)


def _skewed(poly):
    """poly with its X coefficient raised by one: same degree and f(0), and
    not palindromic at degree 3 or more."""
    return poly + LaurentPoly.monomial(1, 1, "X")


def test_siegel_poly_rejects_non_palindromic(monkeypatch):
    with pytest.raises(ArithmeticError, match="not palindromic"):
        SiegelPoly(2, (0, 0, 2), LaurentPoly("X", {0: 1, 1: 3, 2: 2}))
    with pytest.raises(ArithmeticError, match="not palindromic"):
        SiegelPoly(3, (1, 0, 0), LaurentPoly("X", {0: 1, 1: 5, 2: 4, 3: 1}))

    class Skewed(SiegelPoly):
        def __post_init__(self):
            object.__setattr__(self, "poly", _skewed(self.poly))
            super().__post_init__()

    # each route builds its value through SiegelPoly, so each is checked
    monkeypatch.setattr(siegel, "SiegelPoly", Skewed)
    for route in (f_poly.__wrapped__, f_poly_oracle):
        for p in (2, 3):
            for m in [(0, 0, 3), (0, 1, 2), (1, 0, 2), (2, 1, 3)]:
                with pytest.raises(ArithmeticError, match="not palindromic"):
                    route(p, *m)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        f_poly(4, 0, 0, 0)
    with pytest.raises(ValueError):
        f_poly(2, 0, 2, 1)
    with pytest.raises(ValueError):
        f_poly(2, -1, 0, 0)


def test_evaluate():
    s = f_poly(2, 0, 0, 1)
    assert s.evaluate(3) == 4
    assert s.evaluate(0) == 1
