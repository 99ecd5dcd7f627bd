"""Shared test utilities: independent combinatorial oracles, bit-level
comparison, generators built on the shared draws in localperiods.draws, and
a probe of which src functions a call reaches."""

from __future__ import annotations

import ast
import math
import random
import struct
import sys
import types
from fractions import Fraction
from pathlib import Path
from typing import Callable

import localperiods
from localperiods.draws import random_anti_hermitian, random_integral_emat, random_kprime_element
from localperiods.hermitian import EMat, herm_form_j, in_group_u
from localperiods.numerics import QuadExt
from localperiods.reps import SatakeSet
from localperiods.symfunc import schur


# ---------------------------------------------------------------------------
# independent oracles


def ssyt_schur(lam, xs):
    """Schur value by brute-force enumeration of semistandard tableaux:
    rows weakly increase, columns strictly increase, entries in 1..len(xs)."""
    shape = [p for p in lam if p > 0]
    if any(p < 0 for p in lam):
        raise ValueError("oracle needs a nonnegative shape")
    if not shape:
        return 1.0
    m = len(xs)
    total = 0.0

    def fill_row(row_idx, prev_row, weight):
        nonlocal total
        if row_idx == len(shape):
            total += weight
            return
        length = shape[row_idx]

        def fill(j, row, w):
            if j == length:
                fill_row(row_idx + 1, row, w)
                return
            lo = row[j - 1] if j else 1
            if prev_row is not None:
                lo = max(lo, prev_row[j] + 1)
            for v in range(lo, m + 1):
                fill(j + 1, row + [v], w * xs[v - 1])

        fill(0, [], weight)

    fill_row(0, None, 1.0)
    return total


def recursive_weakly_decreasing(length, lo, hi):
    """Weakly decreasing tuples with entries in [lo, hi] by the recursive
    generator symfunc.weakly_decreasing_tuples replaced, kept here as the
    reference for its order: sums over the tuples add in that order, so it
    sets their float bits."""
    if length == 0:
        yield ()
        return

    def rec(prefix, bound, left):
        if left == 0:
            yield prefix
            return
        for part in range(bound, lo - 1, -1):
            yield from rec(prefix + (part,), part, left - 1)

    yield from rec((), hi, length)


def per_call_macdonald_sum(xs, depth):
    """symfunc.macdonald_sum as a sum of per-call schur values over the
    recursive enumeration, the reference its per-sum table must match bit
    for bit."""
    total = 0.0
    for lam in recursive_weakly_decreasing(len(xs), 0, depth):
        total += schur(lam, xs)
    return total


def bits(value):
    """A float or complex value down to its type and IEEE bit pattern, so
    that signed zeros and NaNs compare exactly."""
    z = complex(value)
    return type(value), struct.pack("<dd", z.real, z.imag)


def outcome(fn, *args):
    """bits() of fn(*args), or the type of the exception it raises."""
    try:
        return bits(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def fraction_matmul(x: EMat, y: EMat) -> EMat:
    """x @ y by the QuadExt loop EMat.__matmul__ ran before it moved to
    integers over a common denominator; the reference its results must equal."""
    if x.ncols != y.nrows:
        raise ValueError("shape mismatch")
    zero = QuadExt.of(0, x.u)
    out = []
    for i in range(x.nrows):
        row = []
        for j in range(y.ncols):
            acc = zero
            for k in range(x.ncols):
                acc = acc + x.rows[i][k] * y.rows[k][j]
            row.append(acc)
        out.append(row)
    return EMat(out, x.u)


def fraction_det(x: EMat) -> QuadExt:
    """det(x) by the QuadExt Gaussian elimination EMat.det ran before it moved
    to Bareiss elimination on integers; the reference its results must equal."""
    n = x.nrows
    a = [list(row) for row in x.rows]
    det = QuadExt.of(1, x.u)
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            return QuadExt.of(0, x.u)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv = QuadExt.of(1, x.u) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col].is_zero():
                continue
            f = a[r][col] * inv
            for c in range(col, n):
                a[r][c] = a[r][c] - f * a[col][c]
    return det


def fraction_inv(x: EMat) -> EMat:
    """x^(-1) by the QuadExt Gauss-Jordan loop EMat.inv ran before it moved to
    fraction-free elimination on integers; the reference its results must equal."""
    n = x.nrows
    a = [list(row) + [QuadExt.of(1 if i == j else 0, x.u) for j in range(n)]
         for i, row in enumerate(x.rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = QuadExt.of(1, x.u) / a[col][col]
        a[col] = [y * inv for y in a[col]]
        for r in range(n):
            if r == col or a[r][col].is_zero():
                continue
            f = a[r][col]
            a[r] = [y - f * z for y, z in zip(a[r], a[col])]
    return EMat([row[n:] for row in a], x.u)


def geometric_sq_sum(t: float, terms: int = 2000) -> float:
    """sum (f+1)^2 t^f, the diagonal norm series at equal parameters."""
    return sum((f + 1) ** 2 * t**f for f in range(terms))


def h_pair_series(xs, ys, t: complex, terms: int = 400) -> complex:
    """sum_f h_f(xs) h_f(ys) t^f via the two-variable generating identity's
    series side, summed directly from the h recurrences."""
    from localperiods.symfunc import complete_homogeneous

    hx = complete_homogeneous(terms, xs)
    hy = complete_homogeneous(terms, ys)
    return sum(hx[f] * hy[f] * t**f for f in range(terms + 1))


def beta_spherical_literature(sigma: SatakeSet, sign: int) -> complex:
    """The spherical period's closed form written out: the literature form
    vol(GL_{n-1}(O_F)) L(1, As^sign), an integral over the whole unipotent
    quotient of GL_n, times 1 - det(sigma) q_F^-n, which drops the length-n
    partitions that the GL_{n-1} torus does not reach; q_F^2 is sigma's
    base."""
    from localperiods.lfactors import asai_lfactor
    from localperiods.volumes import vol_gl

    n, q_f = len(sigma), math.isqrt(sigma.base)
    length_term = 1 - math.prod(sigma.params) * float(q_f) ** -n
    return float(vol_gl(n - 1, q_f)) * asai_lfactor(sigma, sign).value(1) * length_term


# ---------------------------------------------------------------------------
# parameter sets and exact matrix generators (the draws are localperiods.draws)


def satake(params, q_e: int) -> SatakeSet:
    return SatakeSet(tuple(params), q_e)


def rand_invertible(rng: random.Random, size: int, u: int, span: int = 3) -> EMat:
    while True:
        m = random_integral_emat(rng, size, u, span)
        if not m.det().is_zero():
            return m


def rand_s_element(rng: random.Random, size: int, u: int, span: int = 4) -> EMat:
    """Random element of the entrywise trace-zero model: all entries are
    rational multiples of sqrt(u)."""
    root = QuadExt.sqrt_u(u)
    return EMat(
        [[root * Fraction(rng.randint(-span, span)) for _ in range(size)] for _ in range(size)], u
    )


def rand_unitary(rng: random.Random, n: int, c: int, p: int, u: int) -> EMat:
    """Random element of the unitary group via a Cayley image."""
    from localperiods.hermitian import cayley

    j = herm_form_j(n, c, p, u)
    while True:
        x = random_anti_hermitian(rng, n, c, p, u, span=2)
        if (EMat.identity(n + 1, u) - x).det().is_zero():
            continue
        g = cayley(x)
        assert in_group_u(g, j)
        return g


def rand_kprime_element(rng: random.Random, n: int, c: int, p: int, u: int) -> EMat:
    """Random element of the depth-c mirahoric subgroup of GL_{n+1}."""
    while True:
        g = random_kprime_element(rng, n, c, p, u)
        if g is not None:
            return g


# ---------------------------------------------------------------------------
# reach


#: a statement line of a src function: the function's module:qualname and
#: the line's stripped source text
LineKey = tuple[str, str]


def src_definitions() -> dict[tuple[str, int, str], tuple[str, ast.FunctionDef]]:
    """Every function definition of the localperiods package, methods and
    nested closures included, keyed as its code object is: by the resolved
    file, the first line (a decorator's, if it has any) and the name.  Each
    maps to its name and its ast node.  The name is module:qualname, with
    the enclosing functions and classes joined by dots, such as
    periods:lambda_truncated.newform_pairing."""
    defs = {}

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                defs[(path, line, child.name)] = name, child
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(Path(localperiods.__file__).resolve().parent.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), path.stem + ":")
    return defs


def statement_lines(fn: ast.FunctionDef) -> set[int]:
    """The first line of each statement in fn's body, nested blocks
    included; left out are the docstring, the bodies of nested definitions
    (their own code objects) and the lines on which a raise statement
    starts."""
    lines, raises = set(), set()

    def visit(stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            (raises if isinstance(stmt, ast.Raise) else lines).add(stmt.lineno)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    visit([child])
                elif isinstance(child, (ast.excepthandler, ast.match_case)):
                    visit(child.body)

    visit(fn.body[1:] if ast.get_docstring(fn, clean=False) is not None else fn.body)
    return lines - raises


def unreached_lines(run: Callable[[], object]) -> tuple[set[LineKey], set[LineKey]]:
    """The LineKeys of every statement_lines line of the src functions, and
    of those that run() never executes, recorded by a sys.settrace probe.

    The probe traces the lines of a code object only until each of its
    statement lines has run once, so a loop costs one line event per line
    at most until its function is covered.  A key names a line by its text,
    so two lines of one function with the same text share it: the key is
    unreached if either is.  The package's functools caches are cleared
    first, so what ran earlier in the process reaches nothing for run()."""
    targets = {key: (name, statement_lines(node))
               for key, (name, node) in src_definitions().items()}
    resolved: dict[str, str] = {}
    pending: dict[types.CodeType, set[int]] = {}  # the lines not yet run; empty: untraced

    def on_call(frame, event, arg):
        code = frame.f_code
        lines = pending.get(code)
        if lines is None:
            path = resolved.setdefault(code.co_filename, str(Path(code.co_filename).resolve()))
            target = targets.get((path, code.co_firstlineno, code.co_name))
            lines = pending[code] = set(target[1]) if target else set()
        if not lines:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.discard(frame.f_lineno)
                if not lines:
                    frame.f_trace = None
                    return None
            return on_line

        return on_line

    for name, module in list(sys.modules.items()):
        if name.startswith(f"{localperiods.__name__}."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    left = {(resolved[code.co_filename], code.co_firstlineno, code.co_name): lines
            for code, lines in pending.items()}
    defined, unreached = set(), set()
    for key, (name, lines) in targets.items():
        source = Path(key[0]).read_text().splitlines()
        missed = left.get(key, lines)
        for line in lines:
            line_key = (name, source[line - 1].strip())
            defined.add(line_key)
            if line in missed:
                unreached.add(line_key)
    return defined, unreached
