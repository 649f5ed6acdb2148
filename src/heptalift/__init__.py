"""Exact arithmetic for the exceptional Jordan algebra over the integral
octonions, its local invariants and densities, the degree-3 lift attached
to an elliptic eigenform, and the period of that lift.

The stack, bottom to top:

- exactnum: Laurent polynomials and their series expansion, symbolic
  zeta/pi monomials, interval-style big floats, rational reconstruction.
- cayley: the integral octonion order on E8; exact composition algebra.
- jordan: 3x3 Hermitian octonion matrices, determinant, adjoint, the
  generator actions of the structure group.
- padic: local diagonalization and elementary divisors at a prime; it
  owns primes and factorizations: one sieve for ranges of integers, and
  Miller-Rabin with Brent's rho for single integers.
- density: local representation densities, the series identity checks,
  the exact mass formula.
- siegel: local series polynomials, closed form against a recursion
  oracle, palindromic normalization.
- genfun: the rank-one generating identity, its Euler-factor rewrite,
  the residue algebra, and the rational period constant gamma_k.
- lift: eigenvalue tables (builtin tau generator or CSV), local factors
  and Fourier coefficients of the lift.
- lvalue: symmetric-square L-values by smoothed and plain summation,
  the period pipeline, the rationality probe.  lvalue and acceptance are
  the modules that import mpmath when loaded (exactnum and cli import it
  only inside the code that needs it), so the package loads lvalue on
  first use of `heptalift.lvalue` or of one of its public names, and
  `import heptalift` loads no mpmath.
- census: exhaustive rank census of the 2^27-element residue space and
  the bridge from counts to a local density.
- acceptance / cli: the twelve-gate acceptance suite and the JSON CLI.
"""

import importlib

from . import cayley, census, density, exactnum, genfun, jordan, lift, padic, siegel
from .cayley import *
from .census import *
from .density import *
from .exactnum import *
from .genfun import *
from .jordan import *
from .lift import *
from .padic import *
from .siegel import *

__version__ = "0.1.0"

# lvalue.__all__, stated here so that listing it does not load mpmath
_LVALUE_NAMES = (
    "CRITICAL_POINTS", "gamma_infinity", "period_report", "rationality_probe",
    "reconstruct_ratio", "sym2_dirichlet_coeffs", "sym2_dirichlet_sum",
    "sym2_lvalue", "sym2_lvalues", "triple_divisor_count",
)

__all__ = sorted(
    [name
     for module in (cayley, census, density, exactnum, genfun, jordan, lift, padic, siegel)
     for name in module.__all__]
    + list(_LVALUE_NAMES)
)


def __getattr__(name):
    """PEP 562: load lvalue, and mpmath with it, when it is first asked for."""
    if name == "lvalue" or name in _LVALUE_NAMES:
        lvalue = importlib.import_module(".lvalue", __name__)
        return lvalue if name == "lvalue" else getattr(lvalue, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
