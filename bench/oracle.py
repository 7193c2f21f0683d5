"""Reference computations that check padicdist's outputs.

Nothing here imports padicdist.  The group laws, the Dirac expansion, the
text formats and F_p polynomial arithmetic are written out again, so that a
defect in the library cannot hide inside its own check.

Absolute values are handled as base-p logarithms: ``log_p |x|``, with
``-inf`` for zero and ``inf`` for an unbounded value.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, inf


class OracleMismatch(AssertionError):
    """An output of the library disagrees with the reference computation."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise OracleMismatch(message)


# -- integers and p-adic valuations -------------------------------------------


def vp(x, p: int):
    """p-adic valuation of a rational; inf for 0."""
    x = Fraction(x)
    if x == 0:
        return inf
    v = 0
    num, den = abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def gbinom(x: int, k: int) -> int:
    """C(x, k) = x(x-1)...(x-k+1)/k! for any integer x."""
    if x >= 0:
        return comb(x, k)
    return (-1) ** k * comb(k - x - 1, k)


# -- group laws and Dirac expansions -------------------------------------------


def group_mul(kind: str, p: int, g, h):
    """Product of two elements given by integer chart coordinates."""
    if kind == "heisenberg":
        a1, b1, c1 = g
        a2, b2, c2 = h
        return (a1 + a2, b1 + b2, c1 + c2 - p * a2 * b1)
    return tuple(x + y for x, y in zip(g, h))


def dirac_head(x, T: int):
    """{alpha: C(x_1, a_1)...C(x_d, a_d)} for |alpha| <= T, nonzero entries only.

    Every builtin model has omega = 1, so tau(alpha) = |alpha| and
    delta_g = prod_i (1 + b_i)^(x_i) in the ordered monomials b^alpha."""
    out = {}
    d = len(x)

    def rec(i, alpha, left, prod):
        if i == d:
            out[tuple(alpha)] = prod
            return
        for k in range(left + 1):
            c = gbinom(x[i], k)
            if c == 0:
                break  # C(x, k) = 0 for 0 <= x < k, and then for all larger k
            rec(i + 1, alpha + [k], left - k, prod * c)

    rec(0, [], T, 1)
    return out


# -- the text formats ----------------------------------------------------------


def parse_norm(text: str):
    """`0`, `unbounded` or `p^q` as log_p of the value."""
    text = text.strip()
    if text == "0":
        return -inf
    if text == "unbounded":
        return inf
    check(text.startswith("p^"), f"bad norm value {text!r}")
    return Fraction(text[2:])


def parse_scalar(text: str, p: int):
    """`v:m:N` as (value, N): the value p^v * m is known modulo p^N."""
    v, m, n = (int(x) for x in text.strip().split(":"))
    if m == 0:
        return Fraction(0), n
    return Fraction(m) * Fraction(p) ** v, n


class DistFile:
    """A distribution file: header fields and {alpha: (value, window)}."""

    def __init__(self, text: str):
        lines = text.splitlines()
        self.header = dict(tok.split("=", 1) for tok in lines[0].split())
        self.group = self.header["group"]
        self.p = int(self.header["p"])
        self.N = int(self.header["N"])
        self.T = Fraction(self.header["T"])
        self.exact = self.header["exact"] == "1"
        self.tail = parse_norm(self.header["tail"])
        self.err = parse_norm(self.header.get("err", "0"))
        self.coeffs = {}
        for ln in lines[1:]:
            if ln.strip():
                left, right = ln.split(" : ")
                alpha = tuple(int(a) for a in left.split(","))
                self.coeffs[alpha] = parse_scalar(right, self.p)


def agrees(expected, value, window: int, err_log, p: int) -> bool:
    """expected == value modulo p^window, or within a head error |e| <= p^err_log."""
    need = window if err_log == -inf else min(window, -err_log)
    return vp(Fraction(expected) - value, p) >= need


def check_dirac_file(f: DistFile, coords, what: str) -> dict:
    """Check a file claimed to hold delta_g (g with integer coordinates) up to
    its truncation weight; returns the exact head {alpha: C(g, alpha)}."""
    head = dirac_head(coords, int(f.T))
    p = f.p
    for alpha in set(head) | set(f.coeffs):
        want = head.get(alpha, 0)
        if alpha in f.coeffs:
            value, window = f.coeffs[alpha]
            check(agrees(want, value, window, f.err, p),
                  f"{what}: coefficient at {alpha} is {value} mod p^{window}, "
                  f"expected {want}")
        elif f.exact:
            check(vp(want, p) >= f.N,
                  f"{what}: exact file omits {alpha}, expected {want}")
        else:
            # an unstored index of an inexact file is bounded by the tail
            check(-vp(want, p) <= f.tail,
                  f"{what}: unstored {alpha} = {want} exceeds tail p^{f.tail}")
    return head


def head_norm_log(head: dict, alphas, s: Fraction, p: int):
    """log_p max |d_alpha| p^(-s tau(alpha)) over the given indices."""
    best = -inf
    for alpha in alphas:
        c = head.get(alpha, 0)
        if c:
            best = max(best, -vp(c, p) - s * sum(alpha))
    return best


def check_norm(text: str, head: dict, f: DistFile, s: Fraction, what: str) -> None:
    lo_text, hi_text = text.strip().split(" .. ")
    lo, hi = parse_norm(lo_text), parse_norm(hi_text)
    m = head_norm_log(head, f.coeffs, s, f.p)
    check(lo <= m <= hi,
          f"{what}: interval p^{lo} .. p^{hi} misses the head maximum p^{m}")


def check_symbol(text: str, head: dict, f: DistFile, s: Fraction, what: str) -> None:
    """The symbol's degree is the minimum of v(d_alpha) + s tau(alpha)."""
    deg_line = text.strip().splitlines()[-1]
    check(deg_line.startswith("degree = "), f"{what}: no degree line")
    got = Fraction(deg_line[len("degree = "):])
    want = min((vp(c, f.p) + s * sum(a) for a, c in head.items()
                if c and a in f.coeffs), default=None)
    check(got == want, f"{what}: degree {got}, expected {want}")


def check_projection(text: str, gh, p: int, level: int, what: str) -> None:
    """The level-n image of delta_{gh} is the single coset gh mod p^n."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    check(len(lines) == 1, f"{what}: {len(lines)} cosets, expected 1")
    left, right = lines[0].split(" : ")
    key = tuple(int(a) for a in left.split(","))
    m = p ** level
    check(key == tuple(x % m for x in gh), f"{what}: coset {key}, expected gh={gh}")
    value, window = parse_scalar(right, p)
    check(vp(value - 1, p) >= window, f"{what}: coefficient {value}, expected 1")


def check_pairing(text: str, expected: int, p: int, what: str) -> None:
    """<delta_x, f> = f(x), within the reported error bound."""
    lines = text.strip().splitlines()
    check(lines[0].startswith("value = ") and lines[1].startswith("error <= "),
          f"{what}: malformed output")
    value, window = parse_scalar(lines[0][len("value = "):], p)
    err = parse_norm(lines[1][len("error <= "):])
    if err != inf:
        check(agrees(expected, value, window, err, p),
              f"{what}: value {value}, expected {expected} (error p^{err})")


# -- F_p polynomial arithmetic -------------------------------------------------


def poly_add(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = (out.get(m, 0) + c) % p
    return {m: c for m, c in out.items() if c}


def poly_mul(a: dict, b: dict, p: int) -> dict:
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = (out.get(m, 0) + ca * cb) % p
    return {m: c for m, c in out.items() if c}


def check_cofactors(probe: dict, basis, cofactors, rem: dict, p: int, what: str) -> None:
    """probe = sum cof_i * b_i + rem over F_p."""
    check(len(cofactors) == len(basis), f"{what}: cofactor count mismatch")
    total = dict(rem)
    for cof, b in zip(cofactors, basis):
        total = poly_add(total, poly_mul(cof, b, p), p)
    want = {m: c % p for m, c in probe.items() if c % p}
    check(total == want, f"{what}: sum cof_i*b_i + rem differs from the probe")
