"""Polynomial kernel: products and reductions of integer coefficient lists.

Coefficients are arbitrary-precision Python ints throughout, lowest
degree first.
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


def reduce_tail(c, rows, phi):
    """Fold coefficients of degree >= phi back using reduction rows.

    `rows[k]` holds the coefficients of x**(phi+k) reduced modulo the
    defining polynomial.  Returns a list of length phi.
    """
    out = list(c[:phi])
    if len(out) < phi:
        out.extend([0] * (phi - len(out)))
    for k in range(len(c) - phi):
        ck = c[phi + k]
        if ck:
            row = rows[k]
            for j in range(phi):
                rj = row[j]
                if rj:
                    out[j] += ck * rj
    return out


def mul_reduced(a, b, rows, phi):
    """Multiply two reduced coefficient lists and reduce the result."""
    return reduce_tail(convolve(a, b), rows, phi)
