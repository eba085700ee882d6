"""Truncated bivariate power series in q and t with exact integer coefficients.

Series are truncated at a fixed maximal q-degree; t-degrees are unbounded and
kept sparse.  All coefficients are exact nonnegative Python ints.
"""

from __future__ import annotations

from . import partitions


class QTSeries:
    """Sum of c * q^n * t^k terms with n <= trunc_q, stored sparsely."""

    __slots__ = ("trunc_q", "coeffs")

    def __init__(self, trunc_q: int, coeffs=None):
        if trunc_q < 0:
            raise ValueError("truncation order must be nonnegative")
        clean = {}
        for (n, k), c in (coeffs or {}).items():
            if not (isinstance(n, int) and isinstance(k, int) and isinstance(c, int)):
                raise ValueError(f"non-integer term ({n},{k}): {c!r}")
            if n < 0 or k < 0:
                raise ValueError(f"negative degree in ({n},{k})")
            if c < 0:
                raise ValueError(f"negative coefficient {c} at ({n},{k})")
            if n <= trunc_q and c != 0:
                clean[(n, k)] = c
        self.trunc_q = trunc_q
        self.coeffs = clean

    def add_term(self, n: int, k: int, c: int = 1) -> None:
        """In-place accumulation; used while summing over enumerations."""
        if n > self.trunc_q:
            return
        new = self.coeffs.get((n, k), 0) + c
        if new:
            self.coeffs[(n, k)] = new
        else:
            self.coeffs.pop((n, k), None)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QTSeries)
                and self.trunc_q == other.trunc_q
                and self.coeffs == other.coeffs)

    def t_zero_slice(self) -> "QTSeries":
        """Keep only t-degree-0 terms (the t -> 0 limit of the series)."""
        return QTSeries(self.trunc_q,
                        {nk: c for nk, c in self.coeffs.items() if nk[1] == 0})

    def q_coefficients(self) -> list[int]:
        """Coefficients of q^0..q^trunc summed over all t-degrees."""
        out = [0] * (self.trunc_q + 1)
        for (n, _k), c in self.coeffs.items():
            out[n] += c
        return out

    def terms(self) -> list[tuple[int, int, int]]:
        return sorted((n, k, c) for (n, k), c in self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"

        def fmt(n, k, c):
            pieces = [] if c == 1 and (n or k) else [str(c)]
            if n:
                pieces.append("q" if n == 1 else f"q^{n}")
            if k:
                pieces.append("t" if k == 1 else f"t^{k}")
            return "*".join(pieces) or "1"

        return " + ".join(fmt(*t) for t in self.terms())


def hook_product(lam, trunc_q: int, colors: int) -> QTSeries:
    """Product over cells of 1/((1 - q^hook) (1 - t q^hook) ... (1 -
    t^(colors-1) q^hook)), truncated: one color's single fillings, or two
    colors' pairs with their statistic g."""
    return _divide_by_hooks(lam, trunc_q, range(colors))


def hook_count(lam, trunc_q: int, colors: int) -> int:
    """Number of fillings (colors=1) or pairs (colors=2) with total volume
    <= trunc_q >= 0: the coefficient sum of the hook product at t = 1,
    prod 1/(1-q^hook)^colors, in plain integers."""
    hooks = partitions.hook_lengths(lam) * colors
    coeffs = [1] + [0] * (trunc_q if hooks else 0)
    for h in hooks:
        for n in range(h, trunc_q + 1):
            coeffs[n] += coeffs[n - h]
    return sum(coeffs)


def _divide_by_hooks(lam, trunc_q: int, t_exponents) -> QTSeries:
    """1 divided in place by (1 - q^h t^b) for every hook h and every b in
    t_exponents: c[n][k] += c[n-h][k-b] for n upwards, the recurrence of
    `hook_count` with t kept.  Row n holds t-degrees 0..n max(t_exponents),
    since every hook is at least 1: one entry per row when t never shows."""
    top = max(t_exponents)
    hooks = partitions.hook_lengths(lam)
    rows = trunc_q if hooks else 0  # no hook reaches a row past 0
    coeffs = [[1]] + [[0] * (n * top + 1) for n in range(1, rows + 1)]
    for h in hooks:
        for b in t_exponents:
            for n in range(h, trunc_q + 1):
                row = coeffs[n]
                for k, c in enumerate(coeffs[n - h], b):
                    row[k] += c
    return QTSeries(trunc_q, {(n, k): c for n, row in enumerate(coeffs)
                              for k, c in enumerate(row) if c})
