"""LaTeX rendering for generators and polynomials.

f_{i,j} is rendered in the p-factored shape that the recursion itself
dictates: f_{i,j} = f_{i-1,j-1} + (x_j - x_i - t) f_{i-1,j}, with p_j at
the base and braces only around factors that are genuine sums.  For
polynomials with no such structure (the ordinary-mode generators, or
anything user-supplied) the expanded canonical form is used instead.

Documents produced by latex_document() compile standalone with only the
amsmath package.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import check_int
from .polyring import Polynomial, monomial_latex


def _sub(i: int) -> str:
    return str(i) if i < 10 else f"{{{i}}}"


def _factored(i: int, j: int) -> tuple[str, bool]:
    """(latex, is_sum) for f_{i,j}, i >= j >= 1, following the recursion."""
    if i == j:
        return f"p_{_sub(j)}", False
    factor = f"(x_{_sub(j)}-x_{_sub(i)}-t)"
    inner, inner_is_sum = _factored(i - 1, j)
    second = factor + (r"\{" + inner + r"\}" if inner_is_sum else inner)
    if j == 1:
        return second, False  # f_{i-1,0} = 0 drops out
    first, _ = _factored(i - 1, j - 1)
    return first + "+" + second, True


def factored_latex(i: int, j: int) -> str:
    """p-factored LaTeX for f_{i,j} (structure only; no ambient n needed)."""
    check_int(j, "j", 1)
    check_int(i, "i", j)
    return _factored(i, j)[0]


def coefficient_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return rf"{sign}\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def poly_latex(p: Polynomial) -> str:
    """Expanded canonical form of any polynomial."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for exps, coef in p.sorted_terms():
        mono = monomial_latex(exps, p.n)
        if coef < 0:
            sign = "-"
            coef = -coef
        else:
            sign = "+" if parts else ""
        if mono == "1":
            body = coefficient_latex(coef)
        elif coef == 1:
            body = mono
        else:
            body = coefficient_latex(coef) + mono
        parts.append(sign + body)
    return "".join(parts)


def _label(i: int, j: int, mode: str) -> str:
    head = "f" if mode == "equivariant" else r"\check{f}"
    return f"{head}_{{{i},{j}}}"


def latex_lines(entries, mode: str) -> list[str]:
    """One align*-ready line per (i, j, g) entry, in the given order."""
    return [
        f"{_label(i, j, mode)} &= "
        + (factored_latex(i, j) if mode == "equivariant" else poly_latex(g))
        for i, j, g in entries
    ]


def latex_document(title: str, align_lines: list[str]) -> str:
    """Standalone article wrapping the given align* lines."""
    body = " \\\\\n".join(align_lines)
    return "\n".join(
        [
            r"\documentclass{article}",
            r"\usepackage{amsmath}",
            r"\begin{document}",
            r"\section*{" + title + "}",
            r"\begin{align*}",
            body,
            r"\end{align*}",
            r"\end{document}",
            "",
        ]
    )
