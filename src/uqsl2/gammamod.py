"""Infinite-dimensional modules with basis grid (i, j), i in Z, j >= 0.

Two flavors, each generated by the corner vector at (0, 0):

  gammaY (basis u_ij, with u_ij = x^i z^j u_00, and y u_00 = 0):
    x    u_ij = u_(i+1,j)
    x^-1 u_ij = u_(i-1,j)
    y    u_ij = q^(2i-j)(q^j - q^-j) u_(i,j-1) - q^i(q^i - q^-i) u_(i-1,j)
    z    u_ij = q^(-2i) u_(i,j+1) + q^(-i)(q^i - q^-i) u_(i-1,j)

  gammaZ (basis v_ij, with v_ij = x^i y^j v_00, and z v_00 = 0):
    x    v_ij = v_(i+1,j)
    x^-1 v_ij = v_(i-1,j)
    y    v_ij = q^(2i) v_(i,j+1) - q^i(q^i - q^-i) v_(i-1,j)
    z    v_ij = q^(-i)(q^i - q^-i) v_(i-1,j) - q^(j-2i)(q^j - q^-j) v_(i,j-1)

Vectors are finitely supported, so all identities can be checked exactly on
any finite window of basis vectors; y (resp. z) kills the corner vector, so
neither flavor extends to the generator's inverse.
"""

from dataclasses import dataclass

from .ncore import EQUITABLE, RELATIONS, sides
from .qfield import RF_ONE, RF_ZERO, RatFunc, q_power
from .report import VerificationReport, check, compare

FLAVORS = ("gammaY", "gammaZ")


@dataclass(frozen=True)
class GammaModule:
    """One of the two corner-generated modules."""

    flavor: str

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError("flavor must be one of %s" % (FLAVORS,))

    @property
    def symbol(self):
        return "u" if self.flavor == "gammaY" else "v"

    @property
    def builder(self):
        # the generator whose powers sweep out the j-axis from the corner
        return "z" if self.flavor == "gammaY" else "y"

    @property
    def annihilator(self):
        # the generator that kills the corner vector
        return "y" if self.flavor == "gammaY" else "z"

    def json_obj(self):
        return {"gamma": self.flavor}


GAMMA_Y = GammaModule("gammaY")
GAMMA_Z = GammaModule("gammaZ")


class WindowVector:
    """A finitely supported vector on the (i, j) grid."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if j < 0:
                    continue  # the j = 0 action coefficients vanish exactly
                if not isinstance(c, RatFunc):
                    c = RatFunc(c)
                if not c.num.is_zero():
                    clean[(i, j)] = c
        self.coeffs = clean

    @classmethod
    def basis(cls, i, j):
        return cls({(i, j): RF_ONE})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, WindowVector) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        total = dict(self.coeffs)
        for key, c in other.coeffs.items():
            total[key] = total.get(key, RF_ZERO) + c
        return WindowVector(total)

    def __sub__(self, other):
        return self + other.scalar_mul(-RF_ONE)

    def scalar_mul(self, c):
        return WindowVector({key: v * c for key, v in self.coeffs.items()})

    def json_obj(self):
        return [{"i": i, "j": j, "coeff": str(c)}
                for (i, j), c in sorted(self.coeffs.items())]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), c in sorted(self.coeffs.items()):
            parts.append("(%s)*e[%d,%d]" % (c, i, j))
        return " + ".join(parts)

    __repr__ = __str__


def _basis_action(flavor, gen, i, j):
    # images of the (i, j) basis vector as [(target, coefficient)]
    if gen == "x":
        return (((i + 1, j), RF_ONE),)
    if gen == "x^-1":
        return (((i - 1, j), RF_ONE),)
    drop = q_power(-i) * (q_power(i) - q_power(-i))
    if flavor == "gammaY":
        if gen == "y":
            return (((i, j - 1), q_power(2 * i - j) * (q_power(j) - q_power(-j))),
                    ((i - 1, j), -q_power(2 * i) * drop))
        if gen == "z":
            return (((i, j + 1), q_power(-2 * i)), ((i - 1, j), drop))
    else:
        if gen == "y":
            return (((i, j + 1), q_power(2 * i)), ((i - 1, j), -q_power(2 * i) * drop))
        if gen == "z":
            return (((i - 1, j), drop),
                    ((i, j - 1), -q_power(j - 2 * i) * (q_power(j) - q_power(-j))))
    raise ValueError("unknown generator %r" % gen)


def act(module, gen, vec):
    """Apply a generator (x, x^-1, y, or z) to a WindowVector."""
    total = {}
    for (i, j), c in vec.coeffs.items():
        for target, tc in _basis_action(module.flavor, gen, i, j):
            total[target] = total.get(target, RF_ZERO) + c * tc
    return WindowVector(total)


def act_word(module, gens, vec):
    """Apply a product of generators, rightmost factor first."""
    for gen in reversed(gens):
        vec = act(module, gen, vec)
    return vec


class _Map:
    """A linear map on window vectors, by its action on one; * composes."""

    __slots__ = ("act",)

    def __init__(self, act):
        self.act = act

    def __mul__(self, other):
        return _Map(lambda v: self.act(other.act(v)))

    def __add__(self, other):
        return _Map(lambda v: self.act(v) + other.act(v))

    def __neg__(self):
        return _Map(lambda v: self.act(v).scalar_mul(-RF_ONE))


def monomial_vector(module, i, j):
    """x^i * builder^j applied to the corner vector; equals the (i, j) basis vector."""
    vec = WindowVector.basis(0, 0)
    for _ in range(j):
        vec = act(module, module.builder, vec)
    xgen = "x" if i >= 0 else "x^-1"
    for _ in range(abs(i)):
        vec = act(module, xgen, vec)
    return vec


def non_invertibility_witness(module):
    """The corner vector is killed by y (gammaY) / z (gammaZ)."""
    corner = WindowVector.basis(0, 0)
    image = act(module, module.annihilator, corner)
    return {
        "identity": "gamma:%s*%s[0,0]=0" % (module.annihilator, module.symbol),
        "kernel_vector": corner.json_obj(),
        "image": image.json_obj(),
        "holds": image.is_zero(),
    }


def _difference(lhs, rhs):
    # the witness of a row whose sides, window vectors, differ
    return "difference %s" % (lhs - rhs)


def verify_gamma(module, imax=4, jmax=4):
    """Defining relations, monomial identities, and the corner kernel on a window."""
    mod = module.json_obj()
    sym = module.symbol
    window = [(i, j) for i in range(-imax, imax + 1) for j in range(jmax + 1)]
    report = VerificationReport()

    # each defining relation, its sides folded into maps (a scalar c is c
    # times the identity), checked on each vector of the window
    gens = {g: _Map(lambda v, g=g: act(module, g, v)) for g in ("x", "x^-1", "y", "z")}
    relations = [(text, sides(text, EQUITABLE, lambda c: _Map(lambda v: v.scalar_mul(c)),
                              gens.__getitem__)) for text in RELATIONS[EQUITABLE]]
    for i, j in window:
        w = WindowVector.basis(i, j)
        report.extend(compare("gamma:%s[%d,%d]:" % (sym, i, j) + text, mod,
                              lambda: [m.act(w) for m in maps], _difference)
                      for text, maps in relations)
    report.extend(compare(
        "gamma:%s[%d,%d]=x^%d*%s^%d*%s[0,0]" % (sym, i, j, i, module.builder, j, sym), mod,
        lambda: (monomial_vector(module, i, j), WindowVector.basis(i, j)), _difference)
        for i, j in window)

    witness = non_invertibility_witness(module)
    report.add(check(witness["identity"], mod, witness["holds"], str(witness["image"])))
    return report
