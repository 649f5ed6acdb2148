"""Siegel polynomial: two routes, functional equation, frozen coefficients."""

import pytest

from heptalift import genfun, siegel
from heptalift.exactnum import LaurentPoly
from heptalift.density import exponent_triples
from heptalift.genfun import hp_table_route, lambda_p
from heptalift.lift import eigen_delta, local_factor
from heptalift.siegel import (
    SiegelPoly,
    f_poly,
    f_poly_oracle,
    symmetric_coefficients,
    tilde_f,
)
from test_genfun import tilde_from_table


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
    genfun._cleared_table.cache_clear()


@pytest.mark.parametrize("factor", ["1", "p^4", "p^8"])
def test_wrong_denominator_raises_in_both_routes(monkeypatch, factor):
    lin = siegel._lin
    clear_memos()
    good = f_poly(2, 1, 0, 2)
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
                with pytest.raises(ArithmeticError):
                    f_poly(p, *m)
                with pytest.raises(ArithmeticError):
                    f_poly_oracle(p, *m)
                # the table route reads the same per-prime terms
                with pytest.raises(ArithmeticError):
                    tilde_from_table(p, *m)
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
            for e in t.support():
                assert abs(e) <= m and (e - m) % 2 == 0


def test_tilde_small():
    assert tilde_f(f_poly(2, 0, 0, 0)) == LaurentPoly("X", {0: 1})
    assert tilde_f(f_poly(2, 0, 0, 1)) == LaurentPoly("X", {1: 1, -1: 1})
    assert tilde_f(f_poly(3, 0, 0, 2)) == LaurentPoly("X", {2: 1, 0: 1, -2: 1})


def test_symmetric_coefficients():
    assert symmetric_coefficients(LaurentPoly("X", {1: 1, -1: 1}), 1) == [1]
    assert symmetric_coefficients(LaurentPoly("X", {2: 1, 0: 1, -2: 1}), 2) == [1, 1]
    s = f_poly(2, 0, 1, 2)
    t = tilde_f(s)
    cs = symmetric_coefficients(t, s.weight)
    assert cs == [1, 17]
    rebuilt = LaurentPoly.zero("X")
    js = list(range(s.weight, -1, -2))
    for j, c in zip(js, cs):
        if j > 0:
            rebuilt = rebuilt + LaurentPoly("X", {j: c, -j: c})
        else:
            rebuilt = rebuilt + LaurentPoly("X", {0: c})
    assert rebuilt == t


def test_symmetric_coefficients_rejects():
    with pytest.raises(ValueError):
        symmetric_coefficients(LaurentPoly("X", {1: 1}), 1)
    with pytest.raises(ValueError):
        symmetric_coefficients(LaurentPoly("X", {1: 1, -1: 1}), 2)


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
