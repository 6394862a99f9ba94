"""Zone helpers that only the tests use.

The explorer builds every zone from `Zone.origin` with `up`,
`constrained` and `remapped`; these helpers build
zones from constraint lists, re-close them with a full Floyd-Warshall
pass (an independent check of `constrained`'s incremental `close1`) and
read single bounds off them.
"""

from tacv.zones import INF, ZERO, Zone, ZoneError, atom_entries, unpack


def closure(m, n):
    """Floyd-Warshall closure in place.  Returns False iff the zone is empty.

    On a nonempty zone the result is the canonical (all-pairs tightest)
    form with a weak-zero diagonal.
    """
    for k in range(n):
        kn = k * n
        for i in range(n):
            ik = m[i * n + k]
            if ik >= INF:
                continue
            row = i * n
            for j in range(n):
                kj = m[kn + j]
                if kj >= INF:
                    continue
                s = ik + kj - ((ik & 1) | (kj & 1))
                if s < m[row + j]:
                    m[row + j] = s
    for i in range(n):
        if m[i * n + i] < ZERO:
            return False
        m[i * n + i] = ZERO
    return True


def from_constraints(dim, atoms):
    """Canonical zone of all valuations >= 0 meeting the given atoms.

    Atoms are (i, j, op, k) tuples constraining clock_i - clock_j.
    Clock nonnegativity (x_i >= reference) is implicit.
    """
    work = [INF] * (dim * dim)
    for i in range(dim):
        work[i * dim + i] = ZERO
        work[0 * dim + i] = ZERO  # 0 - x_i <= 0
    for (i, j, op, k) in atoms:
        for (a, b, bound) in atom_entries(i, j, op, k):
            idx = a * dim + b
            if bound < work[idx]:
                work[idx] = bound
    return Zone._from_work(dim, work, closure(work, dim))


def canonicalize(zone):
    """Re-run full closure; canonical zones are a fixpoint of this."""
    if zone.is_empty():
        return zone
    work = list(zone.m)
    return Zone._from_work(zone.dim, work, closure(work, zone.dim))


def entry(zone, i, j):
    """The packed bound on clock_i - clock_j."""
    return zone.m[i * zone.dim + j]


def min_value(zone, clk):
    """Smallest integer value clock `clk` takes in the zone."""
    if zone.is_empty():
        raise ZoneError("min_value of an empty zone")
    b = entry(zone, 0, clk)  # bounds 0 - clk
    if b >= INF:
        return 0
    v, weak = unpack(b)
    return -v + (0 if weak else 1)


def max_value(zone, clk):
    """Largest integer value of clock `clk`, or None if unbounded."""
    if zone.is_empty():
        raise ZoneError("max_value of an empty zone")
    b = entry(zone, clk, 0)
    if b >= INF:
        return None
    v, weak = unpack(b)
    return v - (0 if weak else 1)
