"""Reference values for the tests, computed from the definitions.

Words are letter tuples; values are ``Fraction``s, except the l^p norm for
2 <= p < inf, which is the float p-th root of an exact sum.  Only the
factor groups' public operations (``check``, ``mul``, ``inv``,
``is_identity``, ``elements``) and the maps' public values are read: a factor
quasimorphism's terms, a table map's value at an element and its
``support``, an action's generator matrices or exponent, a target's ``mul``
and ``dist``.  No normal-form kernel, junction rule, scan or numerator path
of the library is called.

One defect serves every map kind: the supremum over pairs of the size of
f(x) + x.f(y) - f(xy), which is |.| for a quasimorphism, the action's norm
for a quasicocycle, and d(mu(xy), mu(x)mu(y)) for a quasi-representation.
"""

import functools
import math
from fractions import Fraction

from splitqm.quasicocycles import RegularRep
from splitqm.quasimorphisms import FactorQM, SplitQM


def normal_form(s, letters):
    """The stack rule: check each letter, merge it into the top letter when
    they share a side, and drop what is the identity."""
    out = []
    for side, x in letters:
        factor = s.factor(side)
        factor.check(x)
        if out and out[-1][0] == side:
            x = factor.mul(out.pop()[1], x)
        if not factor.is_identity(x):
            out.append((side, x))
    return tuple(out)


def is_normal(s, letters):
    """Whether every letter is a (side, element) tuple and the letters are
    their own normal form."""
    letters = tuple(letters)
    if not all(type(letter) is tuple and len(letter) == 2 for letter in letters):
        return False
    try:
        return normal_form(s, letters) == letters
    except ValueError:
        return False


def inverse(s, g):
    return tuple((side, s.factor(side).inv(x)) for side, x in reversed(g))


def power(s, g, n):
    g = normal_form(s, g)
    return normal_form(s, (g if n >= 0 else inverse(s, g)) * abs(n))


def conjugate(s, h, g):
    return normal_form(s, tuple(h) + tuple(g) + inverse(s, normal_form(s, h)))


def cyclic_split(s, g):
    """(core, conjugator): while the first and last letters of the normal
    form share a side, move the first letter to the end."""
    core, conjugator = normal_form(s, g), ()
    while len(core) >= 2 and core[0][0] == core[-1][0]:
        conjugator += core[:1]
        core = normal_form(s, core[1:] + core[:1])
    return core, conjugator


def factor_value(q, x):
    """slope*x + finite part + residue + sign term, or the finite part alone
    on a finite factor."""
    value = Fraction(q.finite_part.get(q.group.check(x), 0))
    if not q.group.is_finite:
        value += q.slope * x + q.sign_coeff * ((x > 0) - (x < 0))
        if q.period is not None:
            value += q.residues[x % q.period]
    return value


def combine(m, *terms):
    """The linear combination of (coefficient, vector) terms."""
    if not isinstance(m, RegularRep):
        return tuple(sum((c * v[i] for c, v in terms), Fraction(0)) for i in range(m.dim))
    total = {}
    for c, v in terms:
        for key, value in v.items():
            total[key] = total.get(key, 0) + c * value
    return {key: value for key, value in total.items() if value}


@functools.lru_cache(maxsize=None)
def _matrix_power(m, k):
    n = len(m)
    result = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if k < 0:  # Gauss-Jordan on [m | 1] leaves m^-1 on the right
        rows = [list(map(Fraction, row)) + result[i] for i, row in enumerate(m)]
        for col in range(n):
            pivot = next(r for r in range(col, n) if rows[r][col])
            rows[col], rows[pivot] = rows[pivot], rows[col]
            rows[col] = [a / rows[col][col] for a in rows[col]]
            for r in range(n):
                if r != col:
                    rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
        m, k = [row[n:] for row in rows], -k
    for _ in range(k):
        result = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in result]
    return tuple(map(tuple, result))


def act(m, g, v):
    """g.v: each key w moved to the normal form of g w on the regular action;
    the generator-matrix powers of g's letters applied to v on a dense one."""
    if isinstance(m, RegularRep):
        return {normal_form(m.splitting, tuple(g) + tuple(w)): c for w, c in v.items()}
    for side, x in reversed(g):
        m.splitting.factor(side).check(x)
        v = tuple(sum(a * b for a, b in zip(row, v) if a) for row in _matrix_power(m.mat[side], x))
    return v


def norm(m, v):
    """The sup norm of a dense vector; the l^p norm of a regular one."""
    sizes = [abs(c) for c in (v.values() if isinstance(m, RegularRep) else v)]
    p = getattr(m, "p", math.inf)
    if p == math.inf:
        return max(sizes, default=Fraction(0))
    total = sum((c**p for c in sizes), Fraction(0))
    return total if p == 1 else float(total) ** (1 / p)


def value(f, g):
    """f(g) of a split map: the sum of the letters' factor values for a
    quasimorphism, the prefix-translated sum of (g_1 ... g_(i-1)).f(g_i) for
    a quasicocycle, the ordered product of the letter images otherwise."""
    if isinstance(f, SplitQM):
        return sum((factor_value(f.factor_map(side), x) for side, x in g), Fraction(0))
    if hasattr(f, "action"):
        m = f.action
        return combine(m, *((1, act(m, g[:i], f.factor_map(side)(x))) for i, (side, x) in enumerate(g)))
    product = f.target.identity
    for side, x in g:
        product = f.target.mul(product, f.factor_map(side)(x))
    return product


def coboundary(q, x, y):
    """f(x) + x.f(y) - f(xy) of a factor quasimorphism or cocycle map."""
    xy = q.group.mul(x, y)
    if isinstance(q, FactorQM):
        return factor_value(q, x) + factor_value(q, y) - factor_value(q, xy)
    m = q.action
    return combine(m, (1, q(x)), (1, act(m, ((q.side, x),), q(y))), (-1, q(xy)))


def coboundary_size(q, x, y):
    if hasattr(q, "target"):
        return q.target.dist(q(q.group.mul(x, y)), q.target.mul(q(x), q(y)))
    c = coboundary(q, x, y)
    return abs(c) if isinstance(q, FactorQM) else norm(q.action, c)


def whole_word_size(f, g, h):
    """The size of f(g) + g.f(h) - f(gh) for normal forms g and h."""
    gh = normal_form(f.splitting, tuple(g) + tuple(h))
    if isinstance(f, SplitQM):
        return abs(value(f, g) + value(f, h) - value(f, gh))
    if hasattr(f, "action"):
        m = f.action
        return norm(m, combine(m, (1, value(f, g)), (1, act(m, g, value(f, h))), (-1, value(f, gh))))
    return f.target.dist(f.target.mul(value(f, g), value(f, h)), value(f, gh))


def first_max(q, radius=None):
    """(size, x, y): the first pair of strictly largest ``coboundary_size``,
    x outer and y inner, over a finite factor or over [-radius, radius] on
    Z, ``q.defect_window()`` by default; (0, e, e) when every size is 0.  A
    table map is 0 off its support, so pairs with no entry there have size 0."""
    group = q.group
    radius = q.defect_window() if radius is None else radius
    elements = list(group.elements()) if group.is_finite else range(-radius, radius + 1)
    if isinstance(q, FactorQM):
        domain = elements if group.is_finite else range(-2 * radius, 2 * radius + 1)
        values = {x: factor_value(q, x) for x in domain}  # each value once

        def size(x, y):
            return abs(values[x] + values[y] - values[group.mul(x, y)])
    else:
        support = set(q.support)

        def size(x, y):
            return coboundary_size(q, x, y) if {x, y, group.mul(x, y)} & support else 0
    best = (Fraction(0), group.identity, group.identity)
    for x in elements:
        for y in elements:
            s = size(x, y)
            if s > best[0]:
                best = (s, x, y)
    return best


def defect(q):
    """The largest ``coboundary_size`` on a window twice the certified one."""
    return first_max(q, 2 * q.defect_window())[0]
