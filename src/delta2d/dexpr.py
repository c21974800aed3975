"""Symbolic distribution expressions on R^2: AST, parser, rewrite rules.

Node kinds: delta at the origin, the radial regular parts log|x|,
log(|x|/L), K0(a|x|) and psi_b = (b/sqrt(pi))*K0(b|x|), products of one
regular part with delta, the distributional Laplacian, argument scaling
T(s*x), sums and scalar multiples.

The rewrite rules implemented here are exact identities of the calculus:

    delta(s*x)            -> s^-2 * delta(x)
    (lap T)(s*x)          -> s^-2 * lap[T(s*x)]
    lap log|x|            -> 2*pi*delta
    lap K0(a|x|)          -> a^2*K0(a|x|) - 2*pi*delta
    lap psi_b             -> b^2*psi_b - 2*sqrt(pi)*b*delta
    log|x| * delta        -> 0
    log(|x|/L') * delta   -> 0
    K0(a|x|) * delta      -> -log((1/2)*e^gamma*a*|L|) * delta

The last rule splits the log argument against the reference length L
exactly once per product node; the rewritten result contains no further
splittable logarithms, so the split cannot be reapplied.
"""

import math
import re
from dataclasses import dataclass

from .specfun import EULER_GAMMA
from . import spectrum as _spectrum

__all__ = [
    "DistExpr", "Delta", "LogRadial", "LogRadialScaled", "K0Radial", "Psi",
    "Product", "Laplacian", "ScaleArg", "Sum", "ScalarMul", "ZERO",
    "ExprSyntaxError", "ExprConstraintError", "RewriteError",
    "RewriteStep", "RewriteTrace",
    "parse_expr", "print_expr", "normalize", "canonical_coeffs",
    "scale_expr", "laplacian_expr", "rewrite_singular_products",
    "rewrite_full", "apply_hamiltonian", "hamiltonian_coefficients",
    "weak_pair_expr",
]

SQRT_PI = math.sqrt(math.pi)
TWO_PI = 2.0 * math.pi


class ExprSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class ExprConstraintError(ValueError):
    pass


class RewriteError(ValueError):
    pass


# --------------------------------------------------------------------------
# AST nodes (immutable values)


class DistExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Delta(DistExpr):
    pass


@dataclass(frozen=True)
class LogRadial(DistExpr):
    pass


@dataclass(frozen=True)
class LogRadialScaled(DistExpr):
    scale: float  # log(|x| / |scale|)

    def __post_init__(self):
        if self.scale == 0.0 or not math.isfinite(self.scale):
            raise ExprConstraintError("log_r_over requires a nonzero finite scale")


@dataclass(frozen=True)
class K0Radial(DistExpr):
    a: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ExprConstraintError("K0 requires a positive rate a")


@dataclass(frozen=True)
class Psi(DistExpr):
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ExprConstraintError("psi requires a positive rate b")


_REGULAR_KINDS = (LogRadial, LogRadialScaled, K0Radial, Psi)


@dataclass(frozen=True)
class Product(DistExpr):
    regular: DistExpr
    delta: Delta

    def __post_init__(self):
        if not isinstance(self.regular, _REGULAR_KINDS):
            raise ExprConstraintError(
                "a product must pair one regular radial factor with delta "
                "(delta*delta is undefined)")
        if not isinstance(self.delta, Delta):
            raise ExprConstraintError("the singular factor of a product must be delta")


@dataclass(frozen=True)
class Laplacian(DistExpr):
    child: DistExpr


@dataclass(frozen=True)
class ScaleArg(DistExpr):
    s: float
    child: DistExpr

    def __post_init__(self):
        if self.s == 0.0 or not math.isfinite(self.s):
            raise ExprConstraintError("scale requires a nonzero finite factor")


@dataclass(frozen=True)
class Sum(DistExpr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class ScalarMul(DistExpr):
    coeff: float
    child: DistExpr

    def __post_init__(self):
        if not math.isfinite(self.coeff):
            raise ExprConstraintError("scalar coefficients must be finite")


ZERO = Sum(())


# --------------------------------------------------------------------------
# Printer


def _fmt(x):
    return repr(float(x))


def print_expr(e):
    """Render an expression in the text grammar ('0' for the empty sum)."""
    if isinstance(e, Sum):
        if not e.terms:
            return "0"
        parts = [print_expr(e.terms[0])]
        for t in e.terms[1:]:
            if isinstance(t, ScalarMul) and t.coeff < 0.0:
                flipped = ScalarMul(-t.coeff, t.child)
                if flipped.coeff == 1.0 and not isinstance(t.child, (Sum, ScalarMul)):
                    parts.append(" - " + print_expr(t.child))
                else:
                    parts.append(" - " + print_expr(flipped))
            else:
                parts.append(" + " + print_expr(t))
        return "".join(parts)
    if isinstance(e, ScalarMul):
        child = e.child
        if isinstance(child, ScalarMul):
            # fold stacked coefficients so the rendering stays in the grammar
            return print_expr(ScalarMul(e.coeff * child.coeff, child.child))
        if isinstance(child, Sum):
            # Sums cannot appear under a coefficient in the grammar;
            # distribute for display purposes.
            return print_expr(Sum(tuple(ScalarMul(e.coeff, t) for t in child.terms)))
        return "%s*%s" % (_fmt(e.coeff), print_expr(child))
    if isinstance(e, Delta):
        return "delta"
    if isinstance(e, LogRadial):
        return "log_r"
    if isinstance(e, LogRadialScaled):
        return "log_r_over(%s)" % _fmt(e.scale)
    if isinstance(e, K0Radial):
        return "K0(%s*r)" % _fmt(e.a)
    if isinstance(e, Psi):
        return "psi(%s)" % _fmt(e.b)
    if isinstance(e, Product):
        return "%s*delta" % print_expr(e.regular)
    if isinstance(e, Laplacian):
        return "lap(%s)" % print_expr(e.child)
    if isinstance(e, ScaleArg):
        return "scale(%s, %s)" % (_fmt(e.s), print_expr(e.child))
    raise TypeError("unknown expression node %r" % (e,))


# --------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                       r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                       r"|(?P<sym>[-+*(),]))")


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError("unexpected character %r" % stripped[0],
                                  len(source) - len(stripped))
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source):
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym):
        kind, val, pos = self.next()
        if kind != "sym" or val != sym:
            raise ExprSyntaxError("expected %r" % sym, pos)

    def number(self):
        sign = 1.0
        kind, val, pos = self.peek()
        if kind == "sym" and val == "-":
            self.next()
            sign = -1.0
        kind, val, pos = self.next()
        if kind != "num":
            raise ExprSyntaxError("expected a number", pos)
        return sign * float(val)

    def expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "sym" and val == "-":
            self.next()
            negate = True
        first = self.term()
        terms = [_negate(first) if negate else first]
        while True:
            kind, val, pos = self.peek()
            if kind == "sym" and val in "+-":
                self.next()
                t = self.term()
                terms.append(_negate(t) if val == "-" else t)
            else:
                break
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    def term(self):
        kind, val, pos = self.peek()
        signed_num = (kind == "sym" and val == "-"
                      and self.tokens[self.i + 1][0] == "num")
        if kind == "num" or signed_num:
            coeff = self.number()
            kind2, val2, pos2 = self.peek()
            if kind2 == "sym" and val2 == "*":
                self.next()
                return ScalarMul(coeff, self.term())
            if coeff == 0.0:
                return ZERO
            raise ExprSyntaxError("expected '*' after a coefficient", pos2)
        atom = self.atom()
        kind, val, pos = self.peek()
        if kind == "sym" and val == "*":
            self.next()
            kind2, val2, pos2 = self.next()
            if kind2 != "name" or val2 != "delta":
                raise ExprSyntaxError("only delta may follow '*' here", pos2)
            try:
                return Product(atom, Delta())
            except ExprConstraintError as exc:
                raise ExprSyntaxError(str(exc), pos) from exc
        return atom

    def atom(self):
        kind, val, pos = self.next()
        if kind != "name":
            raise ExprSyntaxError("expected a term", pos)
        if val == "delta":
            return Delta()
        if val == "log_r":
            return LogRadial()
        if val == "log_r_over":
            self.expect_sym("(")
            scale = self.number()
            self.expect_sym(")")
            return LogRadialScaled(scale)
        if val == "K0":
            self.expect_sym("(")
            a = self.number()
            self.expect_sym("*")
            kind2, val2, pos2 = self.next()
            if kind2 != "name" or val2 != "r":
                raise ExprSyntaxError("expected 'r' in K0(a*r)", pos2)
            self.expect_sym(")")
            return K0Radial(a)
        if val == "psi":
            self.expect_sym("(")
            b = self.number()
            self.expect_sym(")")
            return Psi(b)
        if val == "lap":
            self.expect_sym("(")
            inner = self.expr()
            self.expect_sym(")")
            return Laplacian(inner)
        if val == "scale":
            self.expect_sym("(")
            s = self.number()
            self.expect_sym(",")
            inner = self.expr()
            self.expect_sym(")")
            return ScaleArg(s, inner)
        raise ExprSyntaxError("unknown term %r" % val, pos)


def _negate(e):
    if isinstance(e, ScalarMul):
        return ScalarMul(-e.coeff, e.child)
    return ScalarMul(-1.0, e)


def parse_expr(source):
    """Parse grammar text into an AST; parse . print is the identity."""
    p = _Parser(source)
    e = p.expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ExprSyntaxError("unexpected trailing input %r" % val, pos)
    return e


# --------------------------------------------------------------------------
# Rewrite machinery


@dataclass(frozen=True)
class RewriteStep:
    rule: str
    identity: str
    before: str
    after: str


class RewriteTrace(list):
    """Ordered record of the rules applied during a rewrite."""

    def record(self, rule, identity, before, after):
        self.append(RewriteStep(rule, identity, print_expr(before), print_expr(after)))


# Each unary node rebuilt around a new child.
_REBUILD = {ScalarMul: lambda e, child: ScalarMul(e.coeff, child),
            Laplacian: lambda e, child: Laplacian(child),
            ScaleArg: lambda e, child: ScaleArg(e.s, child)}


def _replace_first(e, matcher, skip=None):
    """Apply matcher to the first matching node (pre-order).

    matcher returns (new_node, step_info) or None.  Returns the rewritten
    tree plus the step, or None when nothing matched.  Nodes for which
    skip(node) is true are not descended into (their own match is still
    attempted).
    """
    hit = matcher(e)
    if hit is not None:
        return hit
    if skip is not None and skip(e):
        return None
    if isinstance(e, Sum):
        for idx, t in enumerate(e.terms):
            sub = _replace_first(t, matcher, skip)
            if sub is not None:
                new, info = sub
                terms = e.terms[:idx] + (new,) + e.terms[idx + 1:]
                return Sum(terms), info
        return None
    rebuild = _REBUILD.get(type(e))
    if rebuild is not None:
        sub = _replace_first(e.child, matcher, skip)
        if sub is not None:
            new, info = sub
            return rebuild(e, new), info
    return None


def _scale_regular(reg, s):
    """Substitute x -> s*x in a regular radial factor.

    Returns (coefficient, new regular node)."""
    mag = abs(s)
    if isinstance(reg, K0Radial):
        return 1.0, K0Radial(reg.a * mag)
    if isinstance(reg, Psi):
        return 1.0 / mag, Psi(reg.b * mag)
    if isinstance(reg, LogRadial):
        return 1.0, LogRadialScaled(1.0 / mag)
    if isinstance(reg, LogRadialScaled):
        return 1.0, LogRadialScaled(reg.scale / mag)
    raise RewriteError("no scaling rule for %s" % print_expr(reg))


def _scale_matcher(node):
    if not isinstance(node, ScaleArg):
        return None
    s, child = node.s, node.child
    inv2 = s ** -2
    if isinstance(child, Delta):
        return ScalarMul(inv2, Delta()), ("scale-delta", "delta(s*x) -> s^-2 * delta(x)")
    if isinstance(child, Laplacian):
        return (ScalarMul(inv2, Laplacian(ScaleArg(s, child.child))),
                ("scale-laplacian", "(lap T)(s*x) -> s^-2 * lap[T(s*x)]"))
    if isinstance(child, Sum):
        return (Sum(tuple(ScaleArg(s, t) for t in child.terms)),
                ("scale-sum", "argument scaling distributes over sums"))
    if isinstance(child, ScalarMul):
        return (ScalarMul(child.coeff, ScaleArg(s, child.child)),
                ("scale-scalar", "argument scaling commutes with scalar multiples"))
    if isinstance(child, ScaleArg):
        return (ScaleArg(s * child.s, child.child),
                ("scale-compose", "T((s1*s2)*x) = T(s1*(s2*x))"))
    if isinstance(child, Product):
        c, reg = _scale_regular(child.regular, s)
        return (ScalarMul(inv2 * c, Product(reg, Delta())),
                ("scale-product", "(f*delta)(s*x) -> s^-2 * f(s*x)*delta(x)"))
    if isinstance(child, _REGULAR_KINDS):
        c, reg = _scale_regular(child, s)
        new = reg if c == 1.0 else ScalarMul(c, reg)
        return new, ("scale-regular", "radial factors absorb |s| into their rate")
    raise RewriteError("no scaling rule for %s" % print_expr(child))


def _laplacian_matcher(node):
    if not isinstance(node, Laplacian):
        return None
    child = node.child
    if isinstance(child, Sum):
        return (Sum(tuple(Laplacian(t) for t in child.terms)),
                ("lap-sum", "the Laplacian is linear"))
    if isinstance(child, ScalarMul):
        return (ScalarMul(child.coeff, Laplacian(child.child)),
                ("lap-scalar", "the Laplacian is linear"))
    if isinstance(child, (LogRadial, LogRadialScaled)):
        return (ScalarMul(TWO_PI, Delta()),
                ("lap-log", "lap log|x| = 2*pi*delta (fundamental solution)"))
    if isinstance(child, K0Radial):
        a = child.a
        return (Sum((ScalarMul(a * a, K0Radial(a)), ScalarMul(-TWO_PI, Delta()))),
                ("lap-k0", "lap K0(a|x|) = a^2*K0(a|x|) - 2*pi*delta"))
    if isinstance(child, Psi):
        b = child.b
        return (Sum((ScalarMul(b * b, Psi(b)), ScalarMul(-2.0 * SQRT_PI * b, Delta()))),
                ("lap-psi",
                 "lap psi_b = b^2*psi_b - 2*sqrt(pi)*b*delta "
                 "(delta coefficient fixed by the weak-pairing oracle)"))
    if isinstance(child, ScaleArg):
        return None  # eliminate the scaling first
    raise RewriteError("no Laplacian rule for %s" % print_expr(child))


def _product_rule(L):
    """The product rules split against L, as a (matcher, skip) pair."""
    mag = abs(float(L))
    if mag == 0.0 or not math.isfinite(mag):
        raise ValueError("the reference length L must be nonzero and finite")

    def matcher(node):
        if not isinstance(node, Product):
            return None
        reg = node.regular
        if isinstance(reg, (LogRadial, LogRadialScaled)):
            return ZERO, ("product-log-delta", "log|x|*delta = 0 (the zero distribution)")
        if isinstance(reg, K0Radial):
            coeff = -(math.log(0.5 * reg.a * mag) + EULER_GAMMA)
            return (ScalarMul(coeff, Delta()),
                    ("product-k0-delta",
                     "K0(a|x|)*delta = -log((1/2)*e^gamma*a*|L|)*delta "
                     "(single log split against the reference length)"))
        if isinstance(reg, Psi):
            return (ScalarMul(reg.b / SQRT_PI, Product(K0Radial(reg.b), Delta())),
                    ("product-psi-delta", "psi_b = (b/sqrt(pi))*K0(b|x|)"))
        return None

    # The product rules split a logarithm against the fixed reference length;
    # under a pending argument scaling that split would drop the |s| factor,
    # so product matching never descends into ScaleArg nodes (the scaling
    # rules eliminate them first).
    return matcher, lambda node: isinstance(node, ScaleArg)


def _run_fixpoint(e, matchers, rng=None):
    """Apply the first matcher that fires until none fires.

    Returns (expression, trace of every step).  With rng, every step tries
    the matchers in a freshly shuffled order."""
    trace = RewriteTrace()
    while True:
        order = matchers
        if rng is not None:
            order = list(matchers)
            rng.shuffle(order)
        for matcher, skip in order:
            hit = _replace_first(e, matcher, skip)
            if hit is not None:
                new, (rule, identity) = hit
                trace.record(rule, identity, e, new)
                e = new
                break
        else:
            return e, trace


def scale_expr(e, s):
    """Apply the substitution x -> s*x and eliminate all ScaleArg nodes."""
    sf = float(s)
    if sf == 0.0 or not math.isfinite(sf):
        raise ValueError("scale factor must be nonzero and finite")
    return _run_fixpoint(e if sf == 1.0 else ScaleArg(sf, e), [(_scale_matcher, None)])


def laplacian_expr(e):
    """Rewrite all Laplacian applications via the closed-form identities."""
    return _run_fixpoint(e, [(_laplacian_matcher, None)])


def rewrite_singular_products(e, L):
    """Resolve products f*delta against the reference length scale L."""
    return _run_fixpoint(e, [_product_rule(L)])


def rewrite_full(e, L=1.0, rng=None):
    """Run every rule to a fixpoint and normalize.

    When rng is given, the rule application order is randomized at each
    step; the result is order-independent (the rule set is confluent).
    """
    matchers = [(_scale_matcher, None), (_laplacian_matcher, None), _product_rule(L)]
    out, trace = _run_fixpoint(e, matchers, rng)
    return normalize(out), trace


# --------------------------------------------------------------------------
# Canonical form


def _term_sort_key(node):
    if isinstance(node, Psi):
        return (0, node.b, "")
    if isinstance(node, K0Radial):
        return (1, node.a, "")
    if isinstance(node, LogRadial):
        return (2, 0.0, "")
    if isinstance(node, LogRadialScaled):
        return (3, node.scale, "")
    if isinstance(node, Delta):
        return (4, 0.0, "")
    return (5, 0.0, print_expr(node))


def canonical_coeffs(e):
    """Collect the expression into {leaf node: coefficient}."""
    acc = {}

    def walk(node, factor):
        if isinstance(node, Sum):
            for t in node.terms:
                walk(t, factor)
        elif isinstance(node, ScalarMul):
            walk(node.child, factor * node.coeff)
        else:
            acc[node] = acc.get(node, 0.0) + factor

    walk(e, 1.0)
    return {k: v for k, v in acc.items() if v != 0.0}


def normalize(e):
    """Canonical form: an ordered sum of ScalarMul-weighted leaves."""
    coeffs = canonical_coeffs(e)
    leaves = sorted(coeffs, key=_term_sort_key)
    return Sum(tuple(ScalarMul(coeffs[n], n) for n in leaves))


# --------------------------------------------------------------------------
# Hamiltonian assembly and weak pairing


def hamiltonian_coefficients(b, params):
    """Closed-form canonical coefficients of H applied to psi_b.

    Returns (energy coefficient of psi_b, delta coefficient):
        E      = -hbar^2 b^2 / (2 m)
        c_delta = (b/sqrt(pi)) * [hbar^2*pi/m + alpha*log((1/2)*e^gamma*b*|L|)]
    that is, spectrum.energy_from_b (which rejects b <= 0) and b/sqrt(pi)
    times spectrum.eeq_residual.
    """
    return (_spectrum.energy_from_b(b, params),
            (b / SQRT_PI) * _spectrum.eeq_residual(b, params))


def apply_hamiltonian(b, params):
    """Build H psi_b symbolically and rewrite to canonical form.

    The result is E*psi_b + c_delta(b)*delta with the coefficients of
    hamiltonian_coefficients; the trace records every rule applied.
    """
    if not (math.isfinite(b) and b > 0.0):
        raise ValueError("b must be positive and finite")
    kinetic = ScalarMul(-params.hbar**2 / (2.0 * params.mass), Laplacian(Psi(b)))
    potential = ScalarMul(-params.alpha, Product(Psi(b), Delta()))
    expr, trace = _run_fixpoint(Sum((kinetic, potential)),
                                [(_laplacian_matcher, None), _product_rule(params.L)])
    return normalize(expr), trace


def weak_pair_expr(e, phi, L=1.0):
    """Weak pairing <e, phi>: rewrite to canonical form, then dispatch.

    delta terms are evaluated by point evaluation, regular radial terms by
    quadrature: two or more of them share one tanh-sinh call against an
    origin-centred or near bump, and each is one pair_regular call against
    a far one (see quad._pair_terms).  The value is sum c_i v_i and the
    estimate sum |c_i| est_i.  L is only consulted when e still contains
    singular products.
    """
    from . import quad as _quad
    canon, _ = rewrite_full(e, L=L)
    regular = [t for t in canon.terms if isinstance(t.child, _REGULAR_KINDS)]
    value = err = 0.0
    if regular:
        values, estimates = _quad._pair_terms([_radial_callable(t.child) for t in regular], phi)
        for term, v, est in zip(regular, values, estimates):
            value += term.coeff * v
            err += abs(term.coeff) * est
    for term in canon.terms:
        if isinstance(term.child, Delta):
            value += term.coeff * phi.at_origin()
        elif not isinstance(term.child, _REGULAR_KINDS):
            raise RewriteError("cannot pair non-canonical term %s" % print_expr(term.child))
    return _quad.PairingReport(value, err, ())


def random_rewritable_expr(rng, depth=3):
    """Random expression from the grammar whose rewrite always succeeds.

    Laplacians are only generated over regular radial leaves (and linear
    combinations thereof); scalings and sums are unrestricted.  Used for
    round-trip and confluence fuzzing.
    """
    regular_leaves = [
        lambda: LogRadial(),
        lambda: LogRadialScaled(round(rng.uniform(0.25, 4.0), 3)),
        lambda: K0Radial(round(rng.uniform(0.25, 4.0), 3)),
        lambda: Psi(round(rng.uniform(0.25, 4.0), 3)),
    ]

    def regular(d):
        if d <= 0 or rng.random() < 0.4:
            return rng.choice(regular_leaves)()
        if rng.randrange(2) == 0:
            return ScalarMul(round(rng.uniform(-3.0, 3.0), 3) or 1.0, regular(d - 1))
        return Sum(tuple(regular(d - 1) for _ in range(rng.randrange(1, 3))))

    def any_expr(d):
        roll = rng.random()
        if d <= 0 or roll < 0.25:
            if rng.random() < 0.4:
                return Delta()
            return rng.choice(regular_leaves)()
        if roll < 0.40:
            return Product(rng.choice(regular_leaves)(), Delta())
        if roll < 0.55:
            return Laplacian(regular(d - 1))
        if roll < 0.70:
            return ScaleArg(round(rng.choice([-1, 1]) * rng.uniform(0.25, 4.0), 3), any_expr(d - 1))
        if roll < 0.85:
            return ScalarMul(round(rng.uniform(-3.0, 3.0), 3) or 1.0, any_expr(d - 1))
        return Sum(tuple(any_expr(d - 1) for _ in range(rng.randrange(2, 4))))

    return any_expr(depth)


def _radial_callable(leaf):
    import numpy as np
    from .specfun import k0 as _k0

    if isinstance(leaf, LogRadial):
        return np.log
    if isinstance(leaf, LogRadialScaled):
        log_mag = math.log(abs(leaf.scale))
        return lambda r: np.log(r) - log_mag
    if isinstance(leaf, K0Radial):
        a = leaf.a
        return lambda r: _k0(a * np.asarray(r, dtype=float))
    if isinstance(leaf, Psi):
        b = leaf.b
        return lambda r: (b / SQRT_PI) * _k0(b * np.asarray(r, dtype=float))
    raise RewriteError("no radial evaluator for %s" % print_expr(leaf))
