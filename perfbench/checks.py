"""Output checks for every job.

A job fails when it exits nonzero, prints something that is not the
expected JSON, or fails its check.  Where reference.json holds a SHA-256
for the job's input (every job of the default seed, and the fixed jobs of
every seed), the output must match it byte for byte.  Every job is also
checked independently of the stored hashes:

- `period`, `probe`: L-values and the period against the 50-digit
  references, soundly: |value - reference| <= error_bound + reference
  bound + half a unit in the last printed digit; the probe rationals are
  the pinned ones.
- unrounded period batches: the same enclosure without rounding, and the
  bound slack log10(error_bound / |value - reference|) as a sample when the
  job asked for at most 25 digits (above that the reference itself is too
  close to the error being measured).
- `lift-table`, `lift-coeff`: the Hecke relations of tau on profiles
  (0, 0, m), with tau computed here from the q-expansion of Delta.
- `siegel`: coefficients against the package's recursion oracle.
- verify subcommands: `ok: true`; algebra batches: the identities they
  exercise (composition, alternativity, det multiplier, symmetry of the
  Jordan product, the cubic expansion of det(X + tY)).
"""

import hashlib
import json
from fractions import Fraction

import mpmath

from heptalift import JordanElement, beta_exps, eigen_delta, f_poly_oracle, fourier_coeff, mass

SLACK_MAX_DIGITS = 25


def normalize(job, text):
    """Output text as hashed: census drops its wall-clock and worker-count
    fields, which legitimately differ between runs and machines."""
    if job["kind"] == "cli" and job["argv"][0] == "census":
        data = json.loads(text)
        data.pop("elapsed_seconds", None)
        data.pop("threads", None)
        return json.dumps(data, sort_keys=True)
    return text


def digest(job, text):
    return hashlib.sha256(normalize(job, text).encode()).hexdigest()


class CheckFailure(Exception):
    pass


def _require(cond, what):
    if not cond:
        raise CheckFailure(what)


class Checker:
    """Checks outputs against reference data; remembers verdicts per
    distinct (job, output) so repeated rounds cost nothing extra."""

    def __init__(self, reference):
        self.ref = reference
        self._verdicts = {}
        self._tau = None
        self._table200 = {}

    # -- helpers --------------------------------------------------------------

    def tau(self, n):
        """tau(n) for n <= 400 from Delta = q prod (1 - q^k)^24."""
        if self._tau is None:
            N = 401
            eta = [0] * N  # prod (1 - q^k) by Euler's pentagonal theorem
            k = 0
            while True:
                done = True
                for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                    if g < N:
                        eta[g] = -1 if k % 2 else 1
                        done = False
                if done and k > 0:
                    break
                k += 1

            def mul(a, b):
                out = [0] * N
                for i, ai in enumerate(a):
                    if ai:
                        for j in range(N - i):
                            if b[j]:
                                out[i + j] += ai * b[j]
                return out

            p2 = mul(eta, eta)
            p4 = mul(p2, p2)
            p8 = mul(p4, p4)
            p24 = mul(mul(p8, p8), p8)
            self._tau = [0] + p24[: N - 1]  # tau(n) = coeff of q^(n-1)
        if not 1 <= n < len(self._tau):
            raise ValueError("tau(%d) is out of the checker's range" % n)
        return self._tau[n]

    def tau_prime_power(self, p, m):
        """tau(p^m) by the Hecke recursion from tau(p)."""
        prev, cur = 1, self.tau(p)
        if m == 0:
            return 1
        for _ in range(m - 1):
            prev, cur = cur, self.tau(p) * cur - p ** 11 * prev
        return cur

    def _enclosed(self, value, err, ref_pair, half_ulp=0):
        ref, ref_err = (mpmath.mpf(v) for v in ref_pair)
        dist = abs(value - ref)
        return dist <= err + ref_err + half_ulp, dist, ref_err

    # -- entry point ----------------------------------------------------------

    def check(self, job, rc, output):
        """(ok, reason, slack samples) for one job's result."""
        key = (job["key"], hashlib.sha256(output.encode()).hexdigest(), rc)
        hit = self._verdicts.get(key)
        if hit is None:
            hit = self._check(job, rc, output)
            self._verdicts[key] = hit
        return hit

    def _check(self, job, rc, output):
        if rc != 0:
            return False, "exit code %r" % (rc,), []
        try:
            want = self.ref["hashes"].get(job["key"])
            if want is not None:
                _require(digest(job, output) == want, "output differs from reference hash")
            data = json.loads(output)
            if job["kind"] == "cli":
                self._check_echo(job, data)
            slack = getattr(self, "_check_" + job["check"]["type"])(job, data) or []
        except CheckFailure as exc:
            return False, str(exc), []
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return False, "malformed output: %s: %s" % (type(exc).__name__, exc), []
        return True, "", slack

    _ECHO = {"--prime": "prime", "--k": "k", "--tmax": "tmax", "--order": "order",
             "--max-det": "max_det"}

    def _check_echo(self, job, data):
        """Integer arguments the output repeats must come back unchanged."""
        argv = job["argv"]
        for flag, field in self._ECHO.items():
            if flag in argv and field in data:
                _require(data[field] == int(argv[argv.index(flag) + 1]),
                         "%s does not echo %s" % (field, flag))

    # -- period workload ------------------------------------------------------

    def _check_period(self, job, data):
        d = int(job["argv"][job["argv"].index("--digits") + 1])
        _require(data["k"] == 10 and data["digits"] == d, "wrong header")
        _require(data["gamma_k"] == self.ref["gamma_k_10"], "gamma_k differs")
        _require(data["pi_power"] == -63, "pi power differs")
        with mpmath.workdps(90):
            items = [(data["value"], data["error_bound"], self.ref["period_50"])]
            for lv, s in zip(data["lvalues"], (1, 5, 9)):
                _require(lv["s"] == s, "critical points differ")
                items.append((lv["value"], lv["error_bound"], self.ref["lvalues_50"][str(s)]))
            for value, err, ref in items:
                v = mpmath.mpf(value)
                half_ulp = mpmath.mpf(5) * mpmath.mpf(10) ** (
                    int(mpmath.floor(mpmath.log10(abs(v)))) - d)
                ok, dist, _ = self._enclosed(v, mpmath.mpf(err), ref, half_ulp)
                _require(ok, "value %s outside its error bound" % value)

    def _check_period_unrounded(self, job, data):
        d = data["digits"]
        _require(d == job["args"]["digits"], "wrong digits")
        slack = []
        with mpmath.workdps(90):
            items = [(data["value"], self.ref["period_50"])]
            items += [(lv, self.ref["lvalues_50"][str(s)])
                      for lv, s in zip(data["lvalues"], (1, 5, 9))]
            for (value, err), ref in items:
                v, e = mpmath.mpf(value), mpmath.mpf(err)
                ok, dist, ref_err = self._enclosed(v, e, ref)
                _require(ok, "unsound bound: |%s - ref| > %s" % (value, err))
                if d <= SLACK_MAX_DIGITS:
                    slack.append(float(mpmath.log10(e / max(dist, ref_err))))
        return slack

    def _check_probe(self, job, data):
        pinned = self.ref["probe"]
        for key in ("r5", "r9"):
            _require(data[key] in (None, pinned[key]), "%s reconstructed wrongly" % key)
            if job["check"].get("pinned"):
                _require(data[key] == pinned[key], "%s did not stabilize" % key)

    # -- tables workload ------------------------------------------------------

    def _check_lift_table(self, job, data):
        D = int(job["argv"][job["argv"].index("--max-det") + 1])
        _require(data["max_det"] == D and data["k"] == 10, "wrong header")
        rows = data["rows"]
        _require(rows and rows[0]["det"] == "1" and rows[0]["coefficient"] == "1",
                 "first row is not a(1_3) = 1")
        _require(int(rows[-1]["det"]) <= D, "row beyond max-det")
        for row in rows:
            divs = row["divisors"]
            if len(divs) == 1:
                (p, exps), = divs.items()
                if exps[0] == 0 and exps[1] == 0:
                    want = self.tau_prime_power(int(p), exps[2])
                    _require(int(row["coefficient"]) == want,
                             "Hecke tower fails at det %s" % row["det"])
            key = (row["det"], json.dumps(divs, sort_keys=True))
            if D == 200:
                self._table200[key] = row["coefficient"]
            elif key in self._table200:
                _require(self._table200[key] == row["coefficient"],
                         "tables of different max-det disagree at det %s" % row["det"])

    def _check_ok(self, job, data):
        _require(data["ok"] is True, "verification reported failure")

    def _check_igusa(self, job, data):
        order = int(job["argv"][job["argv"].index("--order") + 1])
        _require(data["ok"] is True and len(data["rows"]) == order + 1, "bad igusa payload")
        for row in data["rows"]:
            _require(row["equal"] and row["lhs"] == row["rhs"], "series rows differ")

    def _check_siegel(self, job, data):
        argv = job["argv"]
        p = int(argv[argv.index("--prime") + 1])
        m = [int(v) for v in argv[argv.index("--m") + 1].split(",")]
        oracle = f_poly_oracle(p, *m)
        _require(data["weight"] == 3 * m[0] + m[1] + m[2], "weight differs")
        want = [Fraction(c) for c in oracle.coeffs()]
        got = [Fraction(c) for c in data["coefficients"]]
        _require(got == want, "coefficients differ from the recursion oracle")
        x = Fraction(data["eval"]["X"])
        _require(Fraction(data["eval"]["value"]) == sum(c * x ** i for i, c in enumerate(got)),
                 "evaluation differs")

    def _check_density(self, job, data):
        p = data["prime"]
        exps = tuple(data["divisors"])
        beta = Fraction(data["beta"])
        _require(beta > 0, "density is not positive")
        _require(beta_exps(p, tuple(e + 1 for e in exps)) == p ** 27 * beta,
                 "density breaks the scaling rule")

    def _check_gamma_k(self, job, data):
        _require(data["derived"] == data["gamma_k"], "derived gamma_k differs")
        if data["k"] == 10:
            _require(data["gamma_k"] == self.ref["gamma_k_10"], "gamma_10 differs")

    def _check_rs_euler(self, job, data):
        _require(data["consistent"] is True, "euler rewrite not certified")

    # -- algebra workload -----------------------------------------------------

    def _check_octonion_laws(self, job, data):
        _require(len(data) == len(job["args"]["pairs"]), "wrong batch length")
        for n, nx, ny, a1, a2, b1, b2 in data:
            _require(n == nx * ny, "composition fails")
            _require(a1 == a2 and b1 == b2, "alternativity fails")

    def _check_det_multiplier(self, job, data):
        _require(len(data) == len(job["args"]["items"]), "wrong batch length")
        for after, nu, before in data:
            _require(Fraction(after) == Fraction(nu) * Fraction(before),
                     "det multiplier fails")

    def _check_jordan_qq(self, job, data):
        for r in data:
            _require(r["circ_xy"] == r["circ_yx"], "Jordan product is not symmetric")
            trace = sum(Fraction(v) for v in r["circ_xy"][:3])
            _require(trace == Fraction(r["inner"]), "trace of X o Y differs from (X, Y)")
            d = [Fraction(v) for v in r["det_expansion"]]
            _require(sum(d) == Fraction(r["det_t1"]), "det(X + Y) differs")
            _require(d[0] + 2 * d[1] + 4 * d[2] + 8 * d[3] == Fraction(r["det_t2"]),
                     "det(X + 2Y) differs")

    def _check_reduce(self, job, data):
        _require(data["divisors"] == job["check"]["exps"], "wrong elementary divisors")

    def _check_lift_coeff(self, job, data):
        diag = job["check"]["diag"]
        n = diag[0] * diag[1] * diag[2]
        _require(data["det"] == str(n), "wrong determinant")
        if diag[0] == diag[1] == 1:
            want = 1
            for p, exps in data["divisors"].items():
                _require(exps[:2] == [0, 0], "unexpected profile")
                want *= self.tau_prime_power(int(p), exps[2])
        else:
            q = max(int(p) for p in data["divisors"])
            want = fourier_coeff(JordanElement.diag(*diag), eigen_delta(max(100, q)))
        _require(int(data["coefficient"]) == want, "coefficient differs")

    def _check_mass(self, job, data):
        diag = job["check"]["diag"]
        _require(data["det"] == str(diag[0] * diag[1] * diag[2]), "wrong determinant")
        _require(Fraction(data["mass"]) == mass(JordanElement.diag(*diag)),
                 "mass is not invariant under the structure group")

    def _check_census(self, job, data):
        want = self.ref["census"]
        _require(data["counts"] == want["counts"], "census counts differ")
        _require(data["beta"] == want["beta"], "census density differs")
