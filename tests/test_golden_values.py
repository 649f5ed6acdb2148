"""Golden exact values: SHA-256 of repr for the H_p routes and local factors,
the octonion order's tables and local reductions.

`hp-verify` prints only whether its routes agree, so a change that moved the
lambda sum, the table route and the product form together would leave the
CLI corpus unchanged.  These digests pin each route's own values, and the
local factors of the lift at three eigen tables (k = 10, an integer table at
k = 13 and a rational one at k = 12), through exponent sums 12 (6 at 97).
Those reach the Siegel series f only through lambda_p and the local factors,
so the f_poly digests pin f itself at every profile of weight <= 12, also at
the 61-bit prime.
The CLI corpus pins only the length of a reduction word, so the last digests
pin the structure constants, the trace-pairing Gram and the whole
(divisors, word, reduced, precision) of 150 seeded reductions at each prime.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from heptalift.cayley import ZZ, Octonion, structure_constants, trace_pairing_gram
from heptalift.density import exponent_triples
from heptalift.genfun import hp_closed_form, hp_table_route, lambda_p
from heptalift.jordan import JordanElement, apply_word
from heptalift.lift import eigen_delta, eigen_from_rows, local_factor
from heptalift.padic import reduce_at
from heptalift.siegel import f_poly

M61 = 2 ** 61 - 1
PRIMES = (2, 3, 5, 7, 11, 13, 97)


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


LAMBDA = {
    2: "bead099b8573236c90f94c95817ff82f73052345a07abe3f0510dca472c99cf5",
    3: "16d74884f01d4e7d0bc7694ff6bc2c370671fb99ccb2fa7112346cc25bd7cc99",
    5: "88ef3ae2e2f72e713aabe896cd32e2909a85c32b447551316236d050bc03a98e",
    7: "a708e29010ee6776237bd7ca4fd5f95cc8b87bbf3b15917ca6222f979d16b37b",
    97: "a4df5af93378c1f0a98a0a260b7cd51c34b60fdaa88c2b3e3bc166d6f839a01b",
    M61: "eaea45be333f16cf5ced0c82801bbb364b92b17aa12a5da84d36540c7c67ecab",
}

TABLE = {
    2: "75599d3ce622fb211a67e3813e65e1485741df080b2d900d122b0a6a8b707617",
    3: "100e9750f55dce4b043fde7bf36ea49c12c7525efa919689f88a1297676bf283",
    5: "cf7533a140080efe65d801eff2c90ef020d32ef503f3d3ba3f2d2023538a5f12",
    7: "5fb3732a450ba1bbaddd341bcf4f23f10fcf69b7a919a96b20e57117fccc6cda",
    11: "4e9b11ea3584895343bd7ccec5c19fae755144c495f713c6212b1f20ba3249d2",
    97: "6be7ec2def97b6754b4067e5a75061f2db8e3e7a399a121655f3f0a87e294ace",
}

CLOSED = {
    2: "caaa933f7ada4a8841b842f92358a88f38bf77b38b2fa666ea5169ed9b67c9a1",
    3: "eca45ee8b2ee751d092fe1d41b976e6f527ffda469510f1ef26bc997a5b3ba60",
    5: "40ebbca626640726fbffb10418959580ca318c126551db6cc39b06c3b884c27a",
    7: "c9a0e056719553bb0ecba60e56d51a6ef5d5a4dcb7a76c76c36e3c0a09b218a2",
    97: "9c3fcb667e71021bb547e29666c14ea0e9e47f90bb121363f26a2aef079919c3",
    M61: "c783849372173f166c55ac3e74556db550b1cb62544a8951b0ae2c4897aa21cb",
}

F_POLY = {
    2: "3caf8e64248ee232de35c219b28d67f726f2ae7de1581926efa897d1db829785",
    3: "0a36450b68581ef8e79072353ac29330446ab2a57dcbd3faea3dd411569b4e0b",
    97: "e8b9ab14988ac2643986554e058e0dfa84f8327ac1a1dc1cd940e845fb7c31b8",
    M61: "103cc98814f50bd78d0c06905ab38d68bc1a19dc7ffb47c2ed83c39d03a8a288",
}

LOCAL = {
    "tau": {
        2: "1ab454b74eb44727db88b09b3a942fe67fdb9b034d453dc4f911c97dcb4253a5",
        3: "32517569c8961344d7d1a4f2df1eec69ef0f68045860a49107e470e721128ccb",
        5: "1a89dcf4aa623841fb520cb570c26b9b3ae5474202a0dc4b550550171a645634",
        7: "a5a13960e3dfa16fbf43fbe266049b95ebe14c04a63ca1a468ff88fbe29204fd",
        11: "2ce8b78aeaac98327855bee37496e8e53d3cf1623636c97291161a786e452d50",
        13: "ea51f62a27ac0e7bd58d4322c4b5dd7203f39eaa0d4171465459253e7ee9fdb6",
        97: "954f36d5114f79fa3128fd89df239cd286eac0000f138f4632c9c4f9e5c1b01d",
    },
    "k13": {
        2: "b8d0b33f2eb924d9433631241468de85f60d38a66e3d79a70cdbfccc2eb8c067",
        3: "d753fe747791d9ebb6dad5f2e30f8c11edf7de26ba455ed4ba251bd3ead6aff3",
        5: "605081b72f5c4b4c37f04fb82e40c343e7b97e6d17e4e32c9e82b0f219a12b8f",
        7: "d9bb9b929786a666108c5367ef07b948e723783d0f38d0a7543bc6754313318b",
        11: "0c9ef4fb6ecd9d2284637bd0728284f0919e9d788280f030e716a9cfe08be5e8",
        13: "272ba9036ce998516ba063ca7a8984163a817d988eb9cad3caf6e62e50dc3dce",
        97: "76bd62a46f33448ac9ddd45ef73dbbb94aebb60bf478cd8df0de1560ec015aa5",
    },
    "k12": {
        2: "6e313139ad02caa5a0d980f2c2b34550f6efb50814a48326b40d588e78e58f22",
        3: "57e6b0ccbebcba69b449f0ca466a6adbde6f74beabbf6c2bf6ebc48d0bcd46ff",
        5: "51f9818b46f34d74494b905466d6d4647832757bdbb3047abbdf40a4751272fe",
        7: "0b886ec4b73cd76cafca5e257742fa836d098273d6d0b2b50f416fdb7aab8937",
        11: "42e9c5b277cc990abd6f4e95c51f7c010357c8db1b7106dd0af3a961fa4f1120",
        13: "f8116198f4c5f4f6fee169b46a165919123f3996a3fc22ada14c0200cce93064",
        97: "d512d07d6b5efbca75bfab5bc24643a874913c7e671c9d1ccfe9421daee9337a",
    },
}


def eigen_table(name):
    if name == "tau":
        return eigen_delta(100)
    if name == "k13":
        return eigen_from_rows(13, [(p, (-1) ** p * (p ** 8 + 3 * p)) for p in PRIMES])
    return eigen_from_rows(12, [(p, Fraction(p ** 7 + 1, 3)) for p in PRIMES])


@pytest.mark.parametrize("p", sorted(LAMBDA))
def test_lambda_sum_digest(p):
    assert digest([lambda_p(p, m) for m in range(11 if p < 100 else 7)]) == LAMBDA[p]


@pytest.mark.parametrize("p", sorted(TABLE))
def test_table_route_digest(p):
    assert digest(hp_table_route(p, 8 if p < 97 else 6)) == TABLE[p]


@pytest.mark.parametrize("p", sorted(CLOSED))
def test_closed_form_digest(p):
    assert digest(hp_closed_form(p).expand(10 if p < 100 else 6)) == CLOSED[p]


@pytest.mark.parametrize("p", sorted(F_POLY))
def test_f_poly_digest(p):
    # every profile (m1, m2, m3) of weight 3 m1 + m2 + m3 = a1 + a2 + a3 <= 12
    profiles = [(a1, a2 - a1, a3 - a1) for m in range(13) for a1, a2, a3 in exponent_triples(m)]
    assert digest([f_poly(p, *m) for m in profiles]) == F_POLY[p]


@pytest.mark.parametrize("name", sorted(LOCAL))
def test_local_factor_digests(name):
    eigen = eigen_table(name)
    got = {p: digest([local_factor(p, exps, eigen)
                      for m in range(13 if p < 97 else 7) for exps in exponent_triples(m)])
           for p in PRIMES}
    assert got == LOCAL[name]


STRUCTURE = "b2d9a760fd6662502fbeb60528d6223f1d2bd080f3b8b5f048e5f4d71d059ea1"
GRAM = "8d28b9398ddbec76a50870db93ce228e89c2ca328001686849eb95331fe34c8a"

REDUCTIONS = {
    2: "4cda7313e379fb14bf83a45869ec2d36be6902298eee9ad70270888bd631a961",
    3: "e63e68a4de0c7f1e14b8a01ba59bdf86108727799a0f68205d3c52d632324839",
    5: "ae18e7d50d73ed8758cc880e081fe165289fe818c74061c0ae98fc61fa5d8cc9",
    7: "f11fc9388d052e1ed3bc225c50152676bbbd25a9d48aeae371c7eed470589056",
    11: "ce2be08f6dd7c9361c9c8ad32672cdfa8094bfb86ccd205a6769a482737f69e4",
    97: "9c299fad37f6c10f8c5a3b806fa0d66922e8de2353b97fa690fd36b2478c5d71",
}


def test_order_table_digests():
    assert digest(structure_constants()) == STRUCTURE
    assert digest(trace_pairing_gram()) == GRAM


def _rand_oct(rng, bound):
    return Octonion(ZZ, [rng.randint(-bound, bound) for _ in range(8)])


def _unit_word(rng, length):
    """Random word of integrally invertible tokens."""
    word = []
    for _ in range(length):
        kind = rng.randrange(4)
        if kind == 0:
            i, j = rng.sample([1, 2, 3], 2)
            word.append(("m", _rand_oct(rng, 2), i, j))
        elif kind == 1:
            sigma = [1, 2, 3]
            rng.shuffle(sigma)
            word.append(("perm", tuple(sigma)))
        elif kind == 2:
            word.append(("theta", tuple(rng.choice([1, -1]) for _ in range(3))))
        else:
            word.append(("gamma", rng.choice([1, -1])))
    return word


def _reduction_inputs(p, count=150):
    """Diagonal prime powers in any order, the same scrambled by a unit word,
    and random elements with small entries and nonzero determinant."""
    rng = random.Random(20261020 + p)
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 2:
            X = JordanElement(ZZ, *(rng.randint(-3, 3) for _ in range(3)),
                              *(_rand_oct(rng, 1) for _ in range(3)))
            if X.det() == 0:
                continue
        else:
            X = JordanElement.diag(*(p ** rng.randint(0, 4) for _ in range(3)))
            if kind == 1:
                X = apply_word(X, _unit_word(rng, rng.randint(1, 6)))
        out.append(X)
    return out


@pytest.mark.parametrize("p", sorted(REDUCTIONS))
def test_reduction_digests(p):
    reds = [reduce_at(X, p) for X in _reduction_inputs(p)]
    assert digest([(r.divisors, r.word, r.reduced, r.precision) for r in reds]) == REDUCTIONS[p]
