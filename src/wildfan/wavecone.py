"""Wave cone membership, wave directions for constitutive differences, and
the iterated-split certificate for weighted families.

A phase point belongs to the (restricted) wave cone when the 4x3 system

    [ 0    m^T      ]
    [ m    U + q I  ] . eta = 0,        eta = (eta_t, eta_x),
    [ q    F^T      ]

admits a solution with nonzero spatial part eta_x.  The kernel is computed
by exact 2x2 minors (the fraction-free elimination specialized to three
columns), so membership is decided without any rounding.
"""

from __future__ import annotations

from .exactnum import XReal, as_xreal, sign
from .model import PHPoint, Record

__all__ = [
    "WaveDirection",
    "WeightedFamily",
    "VerificationFailed",
    "NForTooLarge",
    "in_Lambda",
    "eta_for_K_difference",
    "verify_HN",
    "barycenter",
]


class VerificationFailed(ValueError):
    """Constructed direction failed the exact kernel verification."""


class NForTooLarge(ValueError):
    """Family too large for the exhaustive split search."""


class WaveDirection(Record):
    eta_t: XReal
    eta_x: tuple[XReal, XReal]

    def as_tuple(self) -> tuple[XReal, XReal, XReal]:
        return (self.eta_t, self.eta_x[0], self.eta_x[1])


class WeightedFamily(Record):
    """Finite family of weighted phase points; weights sum to one."""

    pairs: tuple[tuple[XReal, PHPoint], ...]

    def __init__(self, pairs):
        object.__setattr__(
            self, "pairs",
            tuple((as_xreal(t), z) for t, z in pairs))

    def weight_sum(self) -> XReal:
        total = as_xreal(0)
        for t, _ in self.pairs:
            total = total + t
        return total


def _system_rows(z: PHPoint) -> list[tuple[XReal, XReal, XReal]]:
    zero = as_xreal(0)
    return [
        (zero, z.m[0], z.m[1]),
        (z.m[0], z.u11 + z.q, z.u12),
        (z.m[1], z.u12, (-1) * z.u11 + z.q),
        (z.q, z.F[0], z.F[1]),
    ]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _is_zero_vec(v) -> bool:
    return all(sign(c) == 0 for c in v)


def residual_norm_signs(z: PHPoint, eta: WaveDirection) -> bool:
    """True when A(z) . eta = 0 holds exactly (all four rows)."""
    ev = eta.as_tuple()
    return all(sign(_dot(row, ev)) == 0 for row in _system_rows(z))


def in_Lambda(z: PHPoint) -> WaveDirection | None:
    """A spatially nontrivial kernel direction of the 4x3 system, or None."""
    rows = _system_rows(z)
    nonzero = [r for r in rows if not _is_zero_vec(r)]
    if not nonzero:
        return WaveDirection(as_xreal(0), (as_xreal(1), as_xreal(0)))
    u = nonzero[0]
    # search for a second independent row
    kern = None
    for v in nonzero[1:]:
        k = _cross(u, v)
        if not _is_zero_vec(k):
            kern = k
            break
    if kern is None:
        # rank one: kernel is the plane u . eta = 0
        if sign(u[1]) == 0 and sign(u[2]) == 0:
            eta = (as_xreal(0), as_xreal(1), as_xreal(0))
        else:
            eta = (as_xreal(0), u[2], (-1) * u[1])
    else:
        # rank >= 2: kernel is spanned by the cross product if rank is 2
        for r in nonzero:
            if sign(_dot(r, kern)) != 0:
                return None  # rank 3, trivial kernel
        eta = kern
    if sign(eta[1]) == 0 and sign(eta[2]) == 0:
        return None
    direction = WaveDirection(eta[0], (eta[1], eta[2]))
    if not residual_norm_signs(z, direction):
        raise VerificationFailed("kernel candidate failed exact verification")
    return direction


def eta_for_K_difference(rho: XReal, z1: PHPoint, z2: PHPoint) -> WaveDirection:
    """Wave direction for the difference of two constitutive points at equal
    density: eta_x perpendicular to m1 - m2 and eta_t = -(m2/rho) . eta_x.
    The exact kernel equation is re-verified before returning."""
    rho = as_xreal(rho)
    d = (z1.m[0] - z2.m[0], z1.m[1] - z2.m[1])
    if sign(d[0]) == 0 and sign(d[1]) == 0:
        eta_x = (as_xreal(1), as_xreal(0))
    else:
        eta_x = ((-1) * d[1], d[0])
    eta_t = (-1) * (z2.m[0] * eta_x[0] + z2.m[1] * eta_x[1]) / rho
    direction = WaveDirection(eta_t, eta_x)
    if not residual_norm_signs(z1 - z2, direction):
        raise VerificationFailed(
            "inputs are not constitutive points at the same density")
    return direction


def barycenter(fam: WeightedFamily) -> PHPoint:
    """Weighted sum of the family (weights must sum to one)."""
    if sign(fam.weight_sum() - 1) != 0:
        raise ValueError("weights must sum to one")
    t0, z0 = fam.pairs[0]
    acc = t0 * z0
    for t, z in fam.pairs[1:]:
        acc = acc + t * z
    return acc


_MAX_FAMILY = 8


def verify_HN(fam: WeightedFamily) -> bool:
    """Does the family arise from iterated binary splits along the cone?

    Exhaustive search over merge orders; states are partitions of the
    original index set, so memoization caps the work at the Bell number of
    the family size (guarded at 8 elements).
    """
    n = len(fam.pairs)
    if n == 0:
        raise ValueError("empty family")
    if n > _MAX_FAMILY:
        raise NForTooLarge(f"family of size {n} exceeds {_MAX_FAMILY}")
    if sign(fam.weight_sum() - 1) != 0:
        raise ValueError("weights must sum to one")
    weights = [t for t, _ in fam.pairs]
    points = [z for _, z in fam.pairs]

    def group_state(group: frozenset[int]) -> tuple[XReal, PHPoint]:
        w = as_xreal(0)
        for i in group:
            w = w + weights[i]
        acc = None
        for i in group:
            term = weights[i] * points[i]
            acc = term if acc is None else acc + term
        return w, (1 / w) * acc

    memo: dict[frozenset[frozenset[int]], bool] = {}

    def search(partition: frozenset[frozenset[int]]) -> bool:
        if len(partition) == 1:
            return True
        cached = memo.get(partition)
        if cached is not None:
            return cached
        groups = sorted(partition, key=lambda g: sorted(g))
        result = False
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                _, pa = group_state(groups[a])
                _, pb = group_state(groups[b])
                if in_Lambda(pb - pa) is None:
                    continue
                merged = (partition - {groups[a], groups[b]}) | {groups[a] | groups[b]}
                if search(frozenset(merged)):
                    result = True
                    break
            if result:
                break
        memo[partition] = result
        return result

    start = frozenset(frozenset([i]) for i in range(n))
    return search(start)
