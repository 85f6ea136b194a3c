"""Parameter generation for genus-2 hyperelliptic Jacobians over quartic CM fields.

The pipeline: validate a field (D, a, b), search for an element omega of
the quartic order whose complex norm p is prime, derive the Frobenius
characteristic polynomial and the Jacobian group order N = P(1), then
filter and enumerate the group structures (n1, n2, n3, n4) compatible
with the divisibility and congruence constraints, certifying a guaranteed
cyclic subgroup order.  A brute-force Jacobian oracle over tiny prime
fields validates the structural assumptions empirically.
"""
