"""Golden CLI corpus: SHA-256 of stdout for a fixed list of invocations.

Any change to the exact algebra (Siegel polynomials, generating series,
local factors, densities, residue algebra) or to the L-value summation that
alters a printed byte shows up here.  `census` is left out because its payload carries elapsed time.
"""

import hashlib

import pytest

from heptalift import cli

CORPUS = [
    (("siegel", "--prime", "2", "--m", "0,0,0"),
     "d7d1b826b9e243d12c42adefb2a28b3271a4eb9917acf38aa78bb41d6a6a4792"),
    (("siegel", "--prime", "2", "--m", "1,0,1", "--eval", "X=1/3"),
     "d1eeb368186255a4074722fcc7c9b53c994064c5b8d9f33b0236080007b2d822"),
    (("siegel", "--prime", "3", "--m", "2,1,3", "--eval", "X=-2"),
     "c3c0bfef934ba79a200c836c4d91b7f9f4c3a7cec4f25d17ddea4310b66a94f9"),
    (("siegel", "--prime", "5", "--m", "1,2,2"),
     "80623866c4b4f60ca546d0805d510cecdda2c2a6592acfdae0c88cb9735cc54f"),
    (("siegel", "--prime", "7", "--m", "0,1,4", "--eval", "X=5/7"),
     "3565b15ae5c2f298c546b890ef476cd171bbe003bb1e0eecfb8a32acfd61cd25"),
    (("hp-verify", "--prime", "2", "--tmax", "6", "--table-route"),
     "4409a6a46ad249b4d95c02f14ef345a58ec4b0761fb4f192bd5c9f77c61cd180"),
    (("rs-euler", "--prime", "3"),
     "4db41c2b4caa907c188236ce6a9b9dc9d4c939ca3eb6efeda5b9361ff460d134"),
    (("rs-euler", "--prime", "7"),
     "9997516a4f8c3059fbd1fcad14f4c83ddd379a825356e5fbbcfbfbb4fd013f32"),
    (("lift-table", "--k", "10", "--max-det", "60"),
     "b2198a955419994170edcfb05a566ecddf6cab09c41b7847e0a39a0e6b759682"),
    (("igusa-verify", "--prime", "3", "--order", "8"),
     "0bd0b60056211f2e752426dca3241e9583529f7076ad094649e6e31f2bc72371"),
    (("density", "--prime", "5", "--divisors", "1,2,4"),
     "2e18320926ec45d56cabb451457ea7a513efa9988d8daea67bc15066001e3e25"),
    (("gamma-k", "--k", "10", "--derived"),
     "002322b684269407166ff5ada33ea0e1b25396e12876932d56bf50d8610ba53a"),
    (("period", "--k", "10", "--digits", "12"),
     "29e115710bc9cc5cc36a35368abecfb0d56e39d2852cbe27d669aab62e431e74"),
    (("probe", "--k", "10", "--digits", "10,14"),
     "4ed290ae72fca2073ac9d3bbf6ab34d2e8efd566c7ae304afbf40112d27016e8"),
    (("lift-table", "--k", "10", "--max-det", "200"),
     "a7bc03b4c91d93a64bf16fc2f6e49eec74a055c42b43dbc745192a050e741879"),
    (("siegel", "--prime", "199", "--m", "1,1,2", "--eval", "X=3/7"),
     "75b75707a15827fca834deaba181489938df0938375c71773e3a5172b07bf585"),
    (("hp-verify", "--prime", "7", "--tmax", "10", "--table-route"),
     "2fbd3011a4c2c789c6642de8723c186b1a68d9278fea77eac001ecc802aae4e0"),
    (("hp-verify", "--prime", "11", "--tmax", "10", "--table-route"),
     "0c36df956ab0167862016568a14c86af798947473afd505399323868dc4ab0e4"),
    (("hp-verify", "--prime", "3", "--tmax", "12", "--table-route"),
     "bce99cd2486749ff9f3a38f49bbcc00e673ae5b35468c3f8df622eb52007ab6d"),
    (("period", "--k", "10", "--digits", "50"),
     "fbb7e68c1caecd156236ab8bfeebf23d91de2cf39d2336a63d3501b8da08611b"),
    (("probe", "--k", "10", "--digits", "20,30"),
     "49c16e1b27b30c266b7e278fb401f70d9e19d6e6dfe1e6c02cf174faae04cf58"),
    (("gamma-k", "--k", "13", "--derived"),
     "1b0fb70415a039de1d663e34474060436aee6fb1e3bc0ddf51e0cf27c4731d59"),
    (("igusa-verify", "--prime", "5", "--order", "10"),
     "24750d6a877c511f829a988932a4d4128451f8d60d07c111b3a9cd66bf377b8a"),
    (("rs-euler", "--prime", "31"),
     "33ea25044f8b4e332109e9ed0e1502a60172b567952d6f91a9142763b1acb4f7"),
    (("hp-verify", "--prime", "13", "--tmax", "8", "--table-route"),
     "281a2a88564728a43389a69b25999f3ae3590978366635b26542c36c6361ee25"),
]


@pytest.mark.parametrize("argv,digest", CORPUS, ids=[" ".join(a) for a, _ in CORPUS])
def test_cli_output_digest(capsys, argv, digest):
    code = cli.dispatch(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
