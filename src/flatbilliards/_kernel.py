"""Polynomial kernel: products and reductions of integer coefficient lists.

Coefficients are arbitrary-precision Python ints throughout, lowest
degree first.  A reduction takes the remainder modulo the n-th
cyclotomic polynomial Phi_n, given by its degree phi and its nonzero
lower terms (j, a), a the coefficient of x**j (Phi_n is monic): a list
longer than n is first folded mod x**n - 1, which Phi_n divides, then
long-divided by Phi_n.  No table beyond those terms is kept.
"""

KERNEL = "python"


def convolve(a, b):
    """Product of two integer coefficient lists (lowest degree first)."""
    la = len(a)
    lb = len(b)
    out = [0] * (la + lb - 1)
    for i in range(la):
        ai = a[i]
        if ai:
            for j in range(lb):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def remainder(c, n, phi, terms):
    """The remainder of c modulo Phi_n, as a list of length phi."""
    if len(c) > n:
        out = [0] * n
        for i, ci in enumerate(c):
            out[i % n] += ci
    else:
        out = list(c)
    for d in range(len(out) - 1, phi - 1, -1):
        q = out[d]
        if q:
            base = d - phi
            for j, a in terms:
                out[base + j] -= q * a
    del out[phi:]
    out.extend([0] * (phi - len(out)))
    return out


def mul_reduced(a, b, n, phi, terms):
    """Multiply two reduced coefficient lists and reduce the result."""
    return remainder(convolve(a, b), n, phi, terms)
