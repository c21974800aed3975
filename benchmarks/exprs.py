"""Seeded expressions in the delta2d text grammar, each generated together
with its meaning, so that the benchmark knows the right answer without
asking delta2d.

A meaning (`Sem`) is a delta coefficient, a list of regular terms
(coeff, kind, p) standing for coeff*log(p r) or coeff*K0(p r), and a list
of unresolved products coeff*f(r)*delta.  Products stay unresolved until
the reference length L is known, because K0(a|x|)*delta splits its
logarithm against L:  K0(a|x|)*delta = -log((1/2) e^gamma a |L|) delta.
"""

from reference import SQRT_PI, TWO_PI, k0_delta_coefficient


class Sem:
    __slots__ = ("delta", "regular", "products")

    def __init__(self, delta=0.0, regular=(), products=()):
        self.delta = delta
        self.regular = list(regular)
        self.products = list(products)

    def plus(self, other):
        return Sem(self.delta + other.delta, self.regular + other.regular,
                   self.products + other.products)

    def times(self, c):
        return Sem(c * self.delta, [(c * a, k, p) for a, k, p in self.regular],
                   [(c * a, k, p) for a, k, p in self.products])

    def scaled(self, s):
        """T(s x): delta(s x) = s^-2 delta(x), f(|s x|) = f(|s| |x|)."""
        m, inv2 = abs(s), s ** -2
        return Sem(inv2 * self.delta, [(a, k, p * m) for a, k, p in self.regular],
                   [(inv2 * a, k, p * m) for a, k, p in self.products])

    def laplacian(self):
        """lap log(p|x|) = 2 pi delta;  lap K0(p|x|) = p^2 K0(p|x|) - 2 pi delta."""
        if self.products or self.delta:
            raise ValueError("the Laplacian is only generated over regular terms")
        out = Sem()
        for a, k, p in self.regular:
            if k == "log":
                out.delta += TWO_PI * a
            else:
                out.delta -= TWO_PI * a
                out.regular.append((a * p * p, k, p))
        return out

    def resolved(self, L):
        """(delta coefficient, regular terms) once products meet L."""
        delta = self.delta + sum(a * k0_delta_coefficient(p, L)
                                 for a, k, p in self.products if k == "k0")
        return delta, list(self.regular)


def _num(rng, lo, hi):
    return round(rng.uniform(lo, hi), 3) or lo


def _signed(rng, lo, hi):
    return _num(rng, lo, hi) * rng.choice((-1.0, 1.0))


LEAVES = ("log_r", "log_r_over", "K0", "psi")


def regular_leaf(rng, leaves=LEAVES):
    """One radial factor: (text, Sem, probe) where probe is the factor
    itself as a single (coeff, kind, p) term."""
    leaf = rng.choice(leaves)
    if leaf == "log_r":
        term = (1.0, "log", 1.0)
        text = "log_r"
    elif leaf == "log_r_over":
        s = _signed(rng, 0.25, 4.0)
        term = (1.0, "log", 1.0 / abs(s))
        text = "log_r_over(%r)" % s
    elif leaf == "K0":
        a = _num(rng, 0.25, 4.0)
        term = (1.0, "k0", a)
        text = "K0(%r*r)" % a
    else:
        b = _num(rng, 0.25, 4.0)
        term = (b / SQRT_PI, "k0", b)
        text = "psi(%r)" % b
    return text, Sem(regular=[term]), term


class Expr:
    """Generated expression: text, meaning, the regular factor (text, term)
    of each product f*delta in the order the text writes them, and whether the
    text is a bare sum (which the grammar cannot put under a coefficient)."""
    __slots__ = ("text", "sem", "probes", "is_sum")

    def __init__(self, text, sem, probes=(), is_sum=False):
        self.text = text
        self.sem = sem
        self.probes = list(probes)
        self.is_sum = is_sum


def _leaf(rng):
    text, sem, _ = regular_leaf(rng)
    return Expr(text, sem)


def _product(rng, leaves=LEAVES):
    text, sem, term = regular_leaf(rng, leaves)
    return Expr(text + "*delta", Sem(products=sem.regular), [(text, term)])


def _sum(parts):
    sem = Sem()
    for p in parts:
        sem = sem.plus(p.sem)
    return Expr(" + ".join(p.text for p in parts), sem,
                [t for p in parts for t in p.probes], len(parts) > 1 or parts[0].is_sum)


def _coeff(rng, e):
    """c*e, or e itself when e is a bare sum."""
    if e.is_sum:
        return e
    c = _signed(rng, 0.25, 3.0)
    return Expr("%r*%s" % (c, e.text), e.sem.times(c), e.probes)


def _scale(rng, e):
    s = _signed(rng, 0.25, 4.0)
    return Expr("scale(%r, %s)" % (s, e.text), e.sem.scaled(s), e.probes)


def regular_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return _leaf(rng)
    if rng.randrange(2) == 0:
        return _coeff(rng, _leaf(rng))
    return _sum([regular_expr(rng, depth - 1) for _ in range(rng.randrange(1, 3))])


def any_expr(rng, depth=3, products=True):
    """Random expression whose rewrite always succeeds (Laplacians only
    over regular terms)."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return Expr("delta", Sem(delta=1.0)) if rng.random() < 0.4 else _leaf(rng)
    if roll < 0.40:
        return _product(rng) if products else _leaf(rng)
    if roll < 0.55:
        inner = regular_expr(rng, depth - 1)
        return Expr("lap(%s)" % inner.text, inner.sem.laplacian())
    if roll < 0.70:
        return _scale(rng, any_expr(rng, depth - 1, products))
    if roll < 0.85:
        return _coeff(rng, any_expr(rng, depth - 1, products))
    return _sum([any_expr(rng, depth - 1, products) for _ in range(rng.randrange(2, 4))])


def singular_expr(rng, depth=2):
    """Random expression whose canonical form is a multiple of delta alone,
    so that pairing it needs point evaluation and no quadrature."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return _product(rng) if rng.random() < 0.6 else Expr("delta", Sem(delta=1.0))
    if roll < 0.45:
        text, sem, _ = regular_leaf(rng, LEAVES[:2])
        return Expr("lap(%s)" % text, sem.laplacian())
    if roll < 0.65:
        return _scale(rng, singular_expr(rng, depth - 1))
    if roll < 0.8:
        return _coeff(rng, singular_expr(rng, depth - 1))
    return _sum([singular_expr(rng, depth - 1) for _ in range(rng.randrange(2, 4))])


def product_expr(rng):
    """One product K0(a*r)*delta or psi(b)*delta (which sends `delta2d pair`
    through the mollified probe and the log fit) plus a product-free
    remainder."""
    head = _product(rng, LEAVES[2:])
    head = _coeff(rng, head) if rng.random() < 0.5 else head
    return _sum([head, any_expr(rng, 2, products=False)])

