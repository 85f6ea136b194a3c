"""Brute-force genus-2 Jacobian arithmetic over tiny prime fields.

This is an empirical oracle for the structural facts the rest of the
package relies on: a genus-2 Jacobian over F_p decomposes into at most
four invariant factors n1 | n2 | n3 | n4 with n2 | p - 1, and its order
lies in the exact interval [(sqrt(p)-1)^4, (sqrt(p)+1)^4].

Curves use the odd-degree model y^2 = f(x) with f monic, quintic and
squarefree over F_p, p an odd prime between 5 and 61 (every curve with a
rational Weierstrass point converts to this form, and the structural
claims under test do not depend on the degree-6 generality).  Divisor
classes are Mumford pairs (u, v), u monic of degree at most 2,
deg v < deg u, u | f - v^2, held as ``MumfordDivisor`` named tuples
(hashed and compared in C); -(u, v) = (u, -v), with no division.
``all_divisors`` lists them from the roots of u = (x - a)^2 - w, with
no reduction of f modulo each quadratic: a split u carries the chords
through the points above its roots, u = (x - a)^2 the tangents at the
points above a, and an irreducible u carries classes exactly when the
norm of f mod u from F_p^2 is a square, read off the Taylor
coefficients of f at a, taken once per a.

``compose`` takes nearly every input in closed form, after Lange
("Formulae for arithmetic on genus 2 hyperelliptic curves", AAECC 15,
2005): the addition of two degree-2 classes with coprime u and the
doubling of a degree-2 class with u coprime to 2v (including s1 = 0,
where the sum has degree 1); a class plus its negation; a point plus a
point, itself, or a degree-2 class whose u does not vanish at it; and
zero resultants, by splitting the degree-2 operand into its two
rational points.  What remains (a point on a root of the degree-2
operand, and u1 = u2 with v1 != +-v2) goes to ``_cantor``, Cantor's
algorithm ("Computing in the Jacobian of a hyperelliptic curve", Math.
Comp. 48, 1987), which stays the reference the tests compare the closed
forms against.

Groups are small enough (order below ~6200 at p = 61) to enumerate
outright, and every map runs on the enumeration's own indices.  One loop
over the primes q of N recovers the invariant factors: for q^2 | N it
counts the sizes of the iterated images of multiplication by q, and a q
dividing N once gives Z/q.  Only the Sylow q-subgroup S_q = [N/q^v]J
(v = v_q(N)) moves those sizes, since [q] is bijective on every other
Sylow subgroup, so the maps run on the indices of S_q alone: built by
closure from the multiples [N/q^v]P, or all of them when N = q^v.  Each
map over S_q takes its doublings from one table, so only its additions
compose, and only for one class of each pair P, -P.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .integerkit import factorize, is_probable_prime, valuation

Poly = tuple[int, ...]  # little-endian coefficients, no trailing zeros, () = 0


def _trim(c: list[int]) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def p_add(a: Poly, b: Poly, p: int) -> Poly:
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)])


def p_neg(a: Poly, p: int) -> Poly:
    return tuple((-x) % p for x in a)


def p_sub(a: Poly, b: Poly, p: int) -> Poly:
    return p_add(a, p_neg(b, p), p)


def p_mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def p_divmod(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    r = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(r) - 1, db - 1, -1):
        coef = r[i] * inv_lead % p
        if coef:
            q[i - db] = coef
            for j in range(len(b)):
                r[i - db + j] = (r[i - db + j] - coef * b[j]) % p
    return _trim(q), _trim(r[:db])


def p_mod(a: Poly, b: Poly, p: int) -> Poly:
    return p_divmod(a, b, p)[1]


def p_monic(a: Poly, p: int) -> Poly:
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(x * inv % p for x in a)


def p_xgcd(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly, Poly]:
    """Monic g with g = s*a + t*b."""
    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = p_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, p_sub(s0, p_mul(q, s1, p), p)
        t0, t1 = t1, p_sub(t0, p_mul(q, t1, p), p)
    if not r0:
        return (), s0, t0
    inv = pow(r0[-1], -1, p)
    scale = (inv,)
    return p_monic(r0, p), p_mul(s0, scale, p), p_mul(t0, scale, p)


def p_eval(a: Poly, x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def p_deriv(a: Poly, p: int) -> Poly:
    return _trim([i * a[i] % p for i in range(1, len(a))])


@dataclass(frozen=True)
class GenusTwoCurve:
    """y^2 = f(x) with f monic quintic squarefree over F_p."""

    p: int
    f: Poly

    def __post_init__(self) -> None:
        if not (5 <= self.p <= 61) or not is_probable_prime(self.p):
            raise ValueError("p must be a prime between 5 and 61")
        if len(self.f) != 6 or self.f[-1] != 1:
            raise ValueError("f must be monic of degree 5")
        if any(not 0 <= c < self.p for c in self.f):
            raise ValueError("coefficients must be reduced mod p")
        g, _, _ = p_xgcd(self.f, p_deriv(self.f, self.p), self.p)
        if len(g) != 1:
            raise ValueError("f must be squarefree")


class MumfordDivisor(NamedTuple):
    u: Poly
    v: Poly


# _mumford((u, v)) is MumfordDivisor(u, v) built by tuple.__new__ in C,
# skipping the Python-level __new__ that NamedTuple generates
_mumford = partial(tuple.__new__, MumfordDivisor)
IDENTITY = MumfordDivisor((1,), ())


def is_valid_divisor(d: MumfordDivisor, curve: GenusTwoCurve) -> bool:
    u, v, p = d.u, d.v, curve.p
    if not u or u[-1] != 1 or len(u) > 3:
        return False
    if len(v) >= len(u):
        return False
    diff = p_sub(curve.f, p_mul(v, v, p), p)
    return p_mod(diff, u, p) == ()


def compose(d1: MumfordDivisor, d2: MumfordDivisor, curve: GenusTwoCurve) -> MumfordDivisor:
    """The reduced sum d1 + d2.

    u1 = u2 with v2 = -v1, compared coefficient-wise (both are reduced),
    gives the identity.  A degree-1 operand takes ``_add_point``, two
    degree-2 ones ``_explicit``.  A zero resultant there means a rational
    root r of u2 (addition) or u1 (doubling), and the degree-2 operand
    splits into the points at r and at its other root s:
    D1 + D2 = (D1 + (s, v2(s))) + (r, v2(r)), and in doubling v1(r) = 0,
    so 2*D1 = 2*(s, v1(s)).  A point on a root of the degree-2 operand,
    and u1 = u2 with v1 != +-v2, go to ``_cantor``.
    """
    if d1 == IDENTITY:
        return d2
    if d2 == IDENTITY:
        return d1
    p = curve.p
    if len(d1.u) > len(d2.u):
        d1, d2 = d2, d1
    (u1, v1), (u2, v2) = d1, d2
    if u1 == u2 and v2 == p_neg(v1, p):
        return IDENTITY
    if len(u1) == 2:
        out = _add_point(-u1[0] % p, v1[0] if v1 else 0, u2, v2, curve)
    elif u1 != u2 or v1 == v2:
        out = _explicit(u1, v1, u2, v2, curve)
        if out is None and u1 != u2:
            r = (u2[0] - u1[0]) * pow(u1[1] - u2[1], -1, p) % p
            s = (-u2[1] - r) % p
            with_s = compose(d1, _point(s, p_eval(v2, s, p), p), curve)
            return compose(with_s, _point(r, p_eval(v2, r, p), p), curve)
        if out is None:
            s = (v1[0] * pow(v1[1], -1, p) - u1[1]) % p
            q = _point(s, p_eval(v1, s, p), p)
            return compose(q, q, curve)
    else:
        out = None
    return _cantor(d1, d2, curve) if out is None else out


def _point(a: int, b: int, p: int) -> MumfordDivisor:
    """The class of the point (a, b): u = x - a, v = b."""
    return _mumford(((-a % p, 1), (b,) if b else ()))


def _add_point(a: int, b: int, u2: Poly, v2: Poly, curve: GenusTwoCurve) -> MumfordDivisor | None:
    """The point (a, b) plus (u2, v2), not its negation, in closed form;
    None when a is a root of a degree-2 u2.

    Another point (a2, b2), or the same one (b != 0), gives
    u3 = (x - a)(x - a2) and v3 = b + lam*(x - a), with lam the slope of
    the chord or f'(a)/(2b).  A degree-2 u2 with u2(a) != 0 gives
    v = v2 + k*u2, k = (b - v2(a))/u2(a), so that v interpolates both
    classes; u3 = (f - v^2) / ((x - a)*u2), whose remainder is checked,
    and v3 = -v mod u3.
    """
    p = curve.p
    c0, c1 = (v2 + (0, 0))[:2]
    if len(u2) == 2:
        a2 = -u2[0] % p
        if a2 != a:
            lam = (c0 - b) * pow(a2 - a, -1, p) % p
        else:
            lam = p_eval(p_deriv(curve.f, p), a, p) * pow(2 * b, -1, p) % p
        return _mumford(((a * a2 % p, -(a + a2) % p, 1), _trim([(b - lam * a) % p, lam])))
    b0, b1, _ = u2
    ua = (a * a + b1 * a + b0) % p
    if ua == 0:
        return None
    k = (b - c0 - c1 * a) * pow(ua, -1, p) % p
    w1, w0 = c1 + k * b1, c0 + k * b0
    # (x - a)*u2 = x^3 + U2*x^2 + U1*x + U0; the quotient of f - v^2 by
    # it is x^2 + q1*x + q0, the remainder r2*x^2 + r1*x + r0
    f0, f1, f2, f3, f4, _ = curve.f
    U2, U1, U0 = b1 - a, b0 - a * b1, -a * b0
    q1 = (f4 - k * k - U2) % p
    q0 = (f3 - 2 * k * w1 - U1 - q1 * U2) % p
    r2 = f2 - w1 * w1 - 2 * k * w0 - U0 - q1 * U1 - q0 * U2
    r1 = f1 - 2 * w1 * w0 - q1 * U0 - q0 * U1
    r0 = f0 - w0 * w0 - q0 * U0
    if r2 % p or r1 % p or r0 % p:
        raise RuntimeError("(x - a)*u2 does not divide f - v^2")
    return _mumford(((q0, q1, 1), _trim([(k * q0 - w0) % p, (k * q1 - w1) % p])))


def _explicit(u1: Poly, v1: Poly, u2: Poly, v2: Poly, curve: GenusTwoCurve) -> MumfordDivisor | None:
    """Degree-2 addition (u1 != u2) or doubling (u1 = u2, v1 = v2) in
    closed form, or None when the determinant is zero.

    With s = s1*x + s0 the slope and l = v1 + s*u1, the sum is
    u3 = monic((f - l^2) / (u1*u2)), v3 = -l mod u3.  Addition solves
    s*u1 = v2 - v1 mod u2; doubling solves 2*v1*s = (f - v1^2)/u1 mod u1.
    Both are 2x2 systems whose determinant is a resultant, res(u1, u2)
    or res(u1, 2*v1).  When s1 = 0 the quotient is x + h0, so the sum
    has degree 1.  The division by u1*u2 checks its remainder.
    """
    p = curve.p
    f0, f1, f2, f3, f4, _ = curve.f
    a0, a1, _ = u1
    c0, c1 = (v1 + (0, 0))[:2]
    b0, b1, _ = u2
    if u1 != u2:
        # s*(u1 mod u2) = w mod u2 with u1 mod u2 = e1*x + e0
        d0, d1 = (v2 + (0, 0))[:2]
        e1, e0 = a1 - b1, a0 - b0
        w1, w0 = d1 - c1, d0 - c0
    else:
        # k = (f - v1^2) / u1 = x^3 + k2*x^2 + k1*x + k0 by synthetic
        # division, then w = k mod u1
        k2 = f4 - a1
        k1 = f3 - a0 - k2 * a1
        k0 = f2 - c1 * c1 - k2 * a0 - k1 * a1
        e1, e0 = 2 * c1, 2 * c0
        w1 = a1 * a1 - a0 - k2 * a1 + k1
        w0 = a1 * a0 - k2 * a0 + k0
    # (s1*x + s0)*(e1*x + e0) mod (x^2 + b1*x + b0) = w1*x + w0
    m = e0 - e1 * b1
    det = (m * e0 + e1 * e1 * b0) % p
    if det == 0:
        return None
    inv = pow(det, -1, p)
    s1 = (w1 * e0 - w0 * e1) * inv % p
    s0 = (w0 * m + w1 * e1 * b0) * inv % p
    # l = s1*x^3 + l2*x^2 + l1*x + l0 = v1 + s*u1; f - l^2 divided by
    # U = u1*u2 leaves the quotient h2*x^2 + h1*x + h0 and remainder r
    l2 = (s1 * a1 + s0) % p
    l1 = (s1 * a0 + s0 * a1 + c1) % p
    l0 = (s0 * a0 + c0) % p
    U3, U2, U1, U0 = a1 + b1, a0 + b0 + a1 * b1, a1 * b0 + a0 * b1, a0 * b0
    h2 = -s1 * s1
    h1 = 1 - 2 * s1 * l2 - h2 * U3
    h0 = (f4 - l2 * l2 - 2 * s1 * l1 - h2 * U2 - h1 * U3) % p
    r3 = f3 - 2 * (s1 * l0 + l2 * l1) - h2 * U1 - h1 * U2 - h0 * U3
    r2 = f2 - l1 * l1 - 2 * l2 * l0 - h2 * U0 - h1 * U1 - h0 * U2
    r1 = f1 - 2 * l1 * l0 - h1 * U0 - h0 * U1
    r0 = f0 - l0 * l0 - h0 * U0
    if r3 % p or r2 % p or r1 % p or r0 % p:
        raise RuntimeError("u1*u2 does not divide f - l^2")
    if s1 == 0:  # h2 = 0 and h1 = 1: u3 = x + h0, v3 = -l(-h0)
        return _mumford(((h0, 1), _trim([-(l2 * h0 * h0 - l1 * h0 + l0) % p])))
    # u3 = monic quotient = x^2 + t1*x + t0, v3 = -l mod u3
    inv = pow(h2, -1, p)
    t1 = h1 * inv % p
    t0 = h0 * inv % p
    x3 = s1 * (t1 * t1 - t0) - l2 * t1 + l1
    x0 = s1 * t1 * t0 - l2 * t0 + l0
    return _mumford(((t0, t1, 1), _trim([-x0 % p, -x3 % p])))


def _cantor(d1: MumfordDivisor, d2: MumfordDivisor, curve: GenusTwoCurve) -> MumfordDivisor:
    """Cantor composition followed by reduction to degree <= 2."""
    p, f = curve.p, curve.f
    (u1, v1), (u2, v2) = d1, d2
    d0, e1, e2 = p_xgcd(u1, u2, p)
    d, c1, c2 = p_xgcd(d0, p_add(v1, v2, p), p)
    s1 = p_mul(c1, e1, p)
    s2 = p_mul(c1, e2, p)
    s3 = c2

    u, rem = p_divmod(p_mul(u1, u2, p), p_mul(d, d, p), p)
    if rem != ():
        raise RuntimeError("d^2 does not divide u1*u2")
    num = p_add(
        p_add(p_mul(p_mul(s1, u1, p), v2, p), p_mul(p_mul(s2, u2, p), v1, p), p),
        p_mul(s3, p_add(p_mul(v1, v2, p), f, p), p),
        p,
    )
    vq, vrem = p_divmod(num, d, p)
    if vrem != ():
        raise RuntimeError("d does not divide the composed v numerator")
    v = p_mod(vq, u, p)

    while len(u) > 3:
        u_next, r = p_divmod(p_sub(f, p_mul(v, v, p), p), u, p)
        if r != ():
            raise RuntimeError("u does not divide f - v^2 during reduction")
        u_next = p_monic(u_next, p)
        v = p_mod(p_neg(v, p), u_next, p)
        u = u_next
    return _mumford((p_monic(u, p), v))


def negate(d: MumfordDivisor, curve: GenusTwoCurve) -> MumfordDivisor:
    """(u, -v), coefficient-wise: deg v < deg u, so -v is reduced mod u."""
    return _mumford((d.u, p_neg(d.v, curve.p)))


def scalar_mul(k: int, d: MumfordDivisor, curve: GenusTwoCurve) -> MumfordDivisor:
    if k < 0:
        return scalar_mul(-k, negate(d, curve), curve)
    acc = IDENTITY
    add = d
    while k:
        if k & 1:
            acc = compose(acc, add, curve)
        k >>= 1
        if k:
            add = compose(add, add, curve)
    return acc


def _sqrt_table(p: int) -> dict[int, list[int]]:
    roots: dict[int, list[int]] = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    return roots


def all_divisors(curve: GenusTwoCurve) -> list[MumfordDivisor]:
    """Every reduced Mumford pair on the curve: the identity, then the
    points by root, then the quadratic u by (u1, u0), v by (v1, v0).

    A point (r, s) has s^2 = f(r).  A quadratic u is (x - a)^2 - w with
    a = -u1/2 and w = a^2 - u0, and f = sum h_k (x - a)^k by its Taylor
    coefficients at a, taken once per a, so with X = x - a
    f = Y0 + Y1*X mod u, Y0 = h0 + h2*w + h4*w^2, Y1 = h1 + h3*w + h5*w^2.
    Writing v = V0 + V1*X, u | f - v^2 reads V0^2 + w*V1^2 = Y0 and
    2*V0*V1 = Y1, and the classes on u follow from w:

    - w = d^2 != 0: u = (x - a - d)(x - a + d), and v is the chord
      through a point above each root, for every such pair.
    - w = 0: v is the tangent at a point (a, s) with s != 0, V0 = s and
      2*s*V1 = f'(a).  f(a) = f'(a) = 0 would make every V1 a solution:
      f has a repeated root, which is a fault.
    - w a nonsquare: (V0 + V1*sqrt(w))^2 = Y0 + Y1*sqrt(w) in F_p^2, so u
      carries classes exactly when the norm Y0^2 - w*Y1^2 is a square
      m^2, and then +-v.  V0^2 = (Y0 +- m)/2 for one sign.  With Y1 != 0
      exactly one of the two is a nonzero square, and V1 = Y1/(2*V0).
      With Y1 = 0 they are Y0 and 0: a nonzero square Y0 gives V1 = 0,
      and otherwise V0 = 0 and V1^2 = Y0/w.
    """
    p, f = curve.p, curve.f
    roots = _sqrt_table(p)  # each list ascending, without repeats
    sqrts = [roots.get(z) for z in range(p)]  # None for a nonsquare
    nonsquares = [z for z in range(p) if sqrts[z] is None]
    inv = [0] + [pow(x, -1, p) for x in range(1, p)]
    half = inv[2]
    above = [roots.get(p_eval(f, r, p), ()) for r in range(p)]
    out = [IDENTITY]
    for r in range(p):
        for s in above[r]:
            out.append(_point(r, s, p))
    for u1 in range(p):
        a = -u1 * half % p
        h = list(f)  # Taylor shift to a by repeated synthetic division
        for k in range(5):
            for i in range(4, k - 1, -1):
                h[i] = (h[i] + a * h[i + 1]) % p
        h0, h1, h2, h3, h4, _ = h  # h5 = 1
        aa = a * a
        found = []  # (u0, v1, v0), v1 = V1 and v0 = V0 - V1*a
        if h0:
            for s in above[a]:
                t = h1 * inv[2 * s % p] % p
                found.append((aa % p, t, (s - t * a) % p))
        elif not h1:
            raise RuntimeError(f"f is not squarefree: every v1 solves u = {(aa % p, u1, 1)}")
        for d in range(1, (p + 1) // 2):
            ss, ts = above[(a + d) % p], above[(a - d) % p]
            if ss and ts:
                u0, k = (aa - d * d) % p, inv[2 * d % p]
                for s in ss:
                    for t in ts:
                        v1 = (s - t) * k % p
                        found.append((u0, v1, (s - v1 * (a + d)) % p))
        for w in nonsquares:
            y0 = (h0 + w * (h2 + w * h4)) % p
            y1 = (h1 + w * (h3 + w)) % p
            ms = sqrts[(y0 * y0 - w * y1 * y1) % p]
            if ms is None:
                continue
            u0 = (aa - w) % p
            for sq in ((y0 + ms[0]) * half % p, (y0 - ms[0]) * half % p):
                if sq and sqrts[sq]:
                    for s in sqrts[sq]:
                        t = y1 * inv[2 * s % p] % p
                        found.append((u0, t, (s - t * a) % p))
                    break
            else:
                for t in sqrts[y0 * inv[w] % p]:
                    found.append((u0, t, -t * a % p))
        found.sort()
        for u0, v1, v0 in found:
            out.append(_mumford(((u0, u1, 1), (v0, v1) if v1 else (v0,) if v0 else ())))
    return out


def _symmetric_map(neg: dict[int, int], image) -> dict[int, int]:
    """image(i) for every key i of neg, computed once per pair i, neg[i]:
    the map commutes with negation."""
    out: dict[int, int] = {}
    for i, n in neg.items():
        if i not in out:
            k = image(i)
            out[n], out[i] = neg[k], k  # in this order, so n = i keeps k
    return out


def _ladder(k: int, i: int, double, add) -> int:
    """The index of [k]P, k >= 1, P at index i, by a binary ladder."""
    acc = i
    for bit in bin(k)[3:]:  # below the leading bit, which takes P itself
        acc = double(acc)
        if bit == "1":
            acc = add(acc, i)
    return acc


class _Index(dict):
    """Element -> index; a sum outside the enumeration is a Cantor fault."""

    def __missing__(self, d: MumfordDivisor) -> int:
        raise RuntimeError(f"{d} is not an enumerated divisor")


def _sylow_subgroup(N: int, q: int, order: int, add) -> list[int]:
    """Indices of S_q = [m]J, m = N/order, order = q^v, starting at the
    identity 0; add(a, b) is the index of the sum.  When order = N,
    S_q is J, and every index is returned with nothing composed.

    Otherwise H starts as {0}.  For P in enumeration order, R = [m]P
    outside H grows H to H + <R>, the cosets jR + H for j < k, kR the
    first multiple back in H.  The loops are bounded by q^v: H + <R> may
    not exceed it, its cosets may not overlap, and an H that ends below
    it is a fault too.
    """
    if order == N:
        return list(range(N))
    members, seen = [0], {0}
    for i in range(1, N):
        if len(members) == order:
            break
        r = _ladder(N // order, i, lambda a: add(a, a), add)
        if r in seen:
            continue
        steps = [r]  # jR for 0 < j < k
        while len(members) * (len(steps) + 1) <= order:
            nxt = add(steps[-1], r)
            if nxt in seen:
                break
            steps.append(nxt)
        else:
            raise RuntimeError(f"the Sylow {q}-subgroup exceeds {order} elements")
        base = list(members)
        for s in steps:
            for g in base:
                c = add(s, g)
                if c in seen:
                    raise RuntimeError(f"cosets of the Sylow {q}-subgroup overlap")
                seen.add(c)
                members.append(c)
    if len(members) != order:
        raise RuntimeError(f"the Sylow {q}-subgroup reaches {len(members)} of {order} elements")
    return members


def _image_counts(members: list[int], elements: list[MumfordDivisor], index: _Index,
                  q: int, curve: GenusTwoCurve) -> list[int]:
    """counts[j-1] = log_q(T_j / T_{j-1}), the number of invariant factors
    of the q-group S_q, the enumeration indices ``members`` (identity
    first), divisible by q^j.

    Every table is keyed by enumeration index, and every sum and
    negation is checked to stay in S_q (a class off the curve fails the
    enumeration lookup first).  Multiplication by q runs as a binary
    ladder: doublings are lookups in one table of 2*e, so only the
    additions compose.  The table and the ladder compose for one element
    of each pair P, -P and take the other from [k](-P) = -[k]P; -(u, v)
    is (u, -v), an index lookup.  2P = 0 exactly when P = -P, which
    checks the table against the negation.  The counts of a q-group never
    grow with j.
    """
    sylow = set(members)

    def member(d: MumfordDivisor) -> int:
        i = index[d]
        if i not in sylow:
            raise RuntimeError(f"{d} is not in the Sylow {q}-subgroup")
        return i

    def add(a: int, b: int) -> int:
        return member(compose(elements[a], elements[b], curve))

    neg = {i: member(negate(elements[i], curve)) for i in members}
    dbl = _symmetric_map(neg, lambda i: add(i, i))
    for i, n in neg.items():
        if (dbl[i] == 0) != (n == i):
            raise RuntimeError(f"2P = 0 disagrees with P = -P at {elements[i]}")
    phi = _symmetric_map(neg, lambda i: _ladder(q, i, dbl.__getitem__, add))
    counts: list[int] = []
    image = sylow
    while len(nxt := {phi[i] for i in image}) < len(image):
        ratio, rem = divmod(len(image), len(nxt))
        r = valuation(ratio, q)
        if rem or q ** r != ratio:
            raise RuntimeError(f"image size ratio is not a power of {q}")
        if counts and r > counts[-1]:
            raise RuntimeError(f"image size ratios of multiplication by {q} grow")
        counts.append(r)
        image = nxt
    return counts


def enumerate_jacobian(curve: GenusTwoCurve) -> tuple[int, list[int]]:
    """Group order and invariant factors d1 | d2 | ... by exhaustion.

    One loop over the primes q of N, with v = v_q(N), builds the factor
    chain from the counts c_1 >= c_2 >= ... of invariant factors
    divisible by q, q^2, ...: each c_j multiplies the c_j largest
    factors by q once more.  A prime with v = 1 needs no map: the Sylow
    q-subgroup has order q, and a group of prime order is cyclic, so its
    counts are [1].  For the others the counts are read, with T_j the
    number of elements killed by q^j, as log_q(T_j / T_{j-1}) from the
    sizes of the iterated images of multiplication by q.  The maps run
    on S_q = [N/q^v]J alone, as indices into the enumeration (all of
    them when N = q^v): [N/q^v] maps J onto S_q and [q] is bijective on
    every other Sylow subgroup, so the image-size ratios are those over
    J.  Every composed class, ladder steps of [N/q^v]P included, is
    looked up in the enumeration.
    """
    elements = all_divisors(curve)
    N = len(elements)
    index = _Index((d, i) for i, d in enumerate(elements))
    if len(index) != N:
        raise RuntimeError("divisor enumeration produced duplicates")

    def add(a: int, b: int) -> int:
        return index[compose(elements[a], elements[b], curve)]

    factors: list[int] = []  # largest first
    for q, v in factorize(N)[0]:
        counts = [1] if v == 1 else _image_counts(
            _sylow_subgroup(N, q, q ** v, add), elements, index, q, curve)
        for c in counts:
            factors += [1] * (c - len(factors))
            factors[:c] = [n * q for n in factors[:c]]
    factors.reverse()
    prod = math.prod(factors)
    if prod != N:
        raise RuntimeError(f"invariant factors multiply to {prod}, not {N}")
    return N, factors


def padded_invariant_factors(factors: list[int]) -> tuple[int, int, int, int]:
    """Left-pad with 1s to exactly four entries; reject non-chains."""
    if len(factors) > 4:
        raise ValueError(f"{len(factors)} invariant factors exceed the rank bound 4")
    for small, big in zip(factors, factors[1:]):
        if big % small:
            raise ValueError(f"{factors} is not a divisor chain")
    padded = [1] * (4 - len(factors)) + list(factors)
    return tuple(padded)  # type: ignore[return-value]


def point_count_order(curve: GenusTwoCurve) -> int:
    """Independent order computation from point counts over F_p and F_p^2.

    With M1 and M2 the point counts of the smooth model over F_p and
    F_p^2 (one point at infinity in this odd-degree model), the power
    sums s1 = p + 1 - M1 and s2 = p^2 + 1 - M2 of the Frobenius roots
    give the order as P(1) = 1 - s1 + (s1^2 - s2)/2 - p*s1 + p^2.
    """
    p, f = curve.p, curve.f
    squares = _sqrt_table(p)
    m1 = 1
    for x in range(p):
        fx = p_eval(f, x, p)
        m1 += 1 if fx == 0 else 2 * (fx in squares)
    # F_p^2 as F_p[t] / (t^2 - nr), nr a quadratic nonresidue; z = z0 + z1*t
    # is a square in F_p^2 exactly when its norm z0^2 - nr*z1^2 is one in F_p
    nr = next(z for z in range(2, p) if z not in squares)
    m2 = 1
    for a0 in range(p):
        for a1 in range(p):
            z0 = z1 = 0
            for c in reversed(f):
                z0, z1 = (z0 * a0 + z1 * a1 * nr + c) % p, (z0 * a1 + z1 * a0) % p
            norm = (z0 * z0 - nr * z1 * z1) % p
            m2 += 1 if norm == 0 else 2 * (norm in squares)
    s1 = p + 1 - m1
    s2 = p * p + 1 - m2
    return 1 - s1 + (s1 * s1 - s2) // 2 - p * s1 + p * p


def random_curve(rng: random.Random, pmax: int = 31, pmin: int = 5) -> GenusTwoCurve:
    """A uniformly random squarefree quintic curve with p in [pmin, pmax];
    a draw of p outside 5..61, which ``GenusTwoCurve`` rejects, is drawn again."""
    primes = [q for q in range(pmin, pmax + 1) if is_probable_prime(q)]
    if not any(5 <= q <= 61 for q in primes):
        raise ValueError(f"no prime in [{pmin}, {pmax}] lies in 5..61")
    while True:
        p = rng.choice(primes)
        f = tuple(rng.randrange(p) for _ in range(5)) + (1,)
        try:
            return GenusTwoCurve(p, f)
        except ValueError:
            continue
