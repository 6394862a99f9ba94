"""Clock zones as difference-bound matrices.

A Zone is an immutable canonical DBM over clocks indexed 0..dim-1,
where clock 0 is the implicit reference clock (constant zero).  Entry
(i, j) bounds clock_i - clock_j.  All constants in the shipped models
are integers, so bounds are integer-valued throughout.

Clock sets are dynamic: the explorer adds a clock when a transaction
starts waiting for confirmation and drops it once the transaction is
resolved, which keeps matrices small: one `remapped` call projects
out the dropped clocks and adds the fresh ones at zero.  It preserves
canonical form, as do `up` and `constrained`.

A zone is never mutated and caches its hash, so equal zones can be
shared: the explorer keeps one object per distinct zone and remembers
each operation's result per operand (see `kernel`).

Matrices are flat row-major sequences of packed bounds.  A bound on the
difference x_i - x_j is packed into one integer so that comparison and
addition stay single-int operations in the closure loop:

    packed = 2*value + 1   for x_i - x_j <= value   (weak)
    packed = 2*value       for x_i - x_j <  value   (strict)

Smaller packed value = tighter bound.  INF is a strict sentinel larger
than any finite packed bound; additions saturate at INF.
"""

from __future__ import annotations

INF = 1 << 60
ZERO = 1  # packed (0, weak)


def pack(value, weak):
    return 2 * value + (1 if weak else 0)


def unpack(b):
    """Return (value, weak) for a finite packed bound."""
    return (b >> 1), bool(b & 1)


def close1(m, n, a, b):
    """Re-close after entry (a, b) was tightened.  Returns False iff empty.

    O(n^2): every path can now be improved only through the new edge.
    """
    ab = m[a * n + b]
    if ab >= INF:
        return m[a * n + a] >= ZERO
    for i in range(n):
        ia = m[i * n + a]
        if ia >= INF:
            continue
        iab = ia + ab - ((ia & 1) | (ab & 1))
        row = i * n
        for j in range(n):
            bj = m[b * n + j]
            if bj >= INF:
                continue
            s = iab + bj - ((iab & 1) | (bj & 1))
            if s < m[row + j]:
                m[row + j] = s
    for i in range(n):
        if m[i * n + i] < ZERO:
            return False
        m[i * n + i] = ZERO
    return True


def subsumes(a, b, nn):
    """True iff every entry of `a` is at least the matching entry of `b`."""
    for i in range(nn):
        if a[i] < b[i]:
            return False
    return True


class ZoneError(Exception):
    pass


def atom_entries(i, j, op, k):
    """Packed DBM entries for the atomic constraint clock_i - clock_j op k.

    Yields (row, col, bound) pairs; row/col refer to clock indices.
    """
    if op == "<":
        yield i, j, pack(k, False)
    elif op == "<=":
        yield i, j, pack(k, True)
    elif op == ">":
        yield j, i, pack(-k, False)
    elif op == ">=":
        yield j, i, pack(-k, True)
    elif op == "==":
        yield i, j, pack(k, True)
        yield j, i, pack(-k, True)
    else:
        raise ZoneError("unknown comparison operator %r" % (op,))


class Zone:
    """Canonical integer DBM; empty zones are represented, not errors."""

    __slots__ = ("dim", "m", "_hash")

    def __init__(self, dim, m, _canonical=False):
        if not _canonical:
            raise ZoneError("construct zones via the factory methods")
        self.dim = dim
        self.m = m
        self._hash = hash((dim, m))

    def __eq__(self, other):
        return (
            isinstance(other, Zone)
            and self.dim == other.dim
            and self.m == other.m
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_empty():
            return "Zone(dim=%d, empty)" % self.dim
        return "Zone(dim=%d, %s)" % (self.dim, self.constraint_strings())

    # -- construction -------------------------------------------------

    @classmethod
    def _empty(cls, dim):
        # Canonical empty form: every difference strictly negative.
        return cls(dim, tuple([pack(0, False)] * (dim * dim)), _canonical=True)

    @classmethod
    def _from_work(cls, dim, work, nonempty):
        if not nonempty:
            return cls._empty(dim)
        return cls(dim, tuple(work), _canonical=True)

    @classmethod
    def origin(cls, dim):
        """The single point with every clock equal to zero."""
        return cls(dim, tuple([ZERO] * (dim * dim)), _canonical=True)

    # -- basic queries ------------------------------------------------

    def is_empty(self):
        return self.m[0] < ZERO

    def subsumes(self, other):
        """True iff this zone contains `other` (both canonical, same dim)."""
        if self.dim != other.dim:
            raise ZoneError("zone dimension mismatch")
        return subsumes(self.m, other.m, len(self.m))

    def contains(self, vals):
        """Membership of a concrete valuation (vals[0] must be 0)."""
        n = self.dim
        if len(vals) != n or vals[0] != 0:
            raise ZoneError("valuation must assign all clocks, reference = 0")
        for i in range(n):
            for j in range(n):
                b = self.m[i * n + j]
                if b >= INF:
                    continue
                v, weak = unpack(b)
                d = vals[i] - vals[j]
                if not (d <= v if weak else d < v):
                    return False
        return True

    # -- symbolic operations (all return canonical zones) --------------

    def up(self):
        """Delay closure: drop every clock's upper bound against the reference.

        Clock differences are preserved: the zone grows along the
        uniform-delay diagonal.
        """
        n = self.dim
        if self.is_empty():
            return self
        work = list(self.m)
        for i in range(1, n):
            work[i * n + 0] = INF
        return Zone(n, tuple(work), _canonical=True)

    def constrained(self, atoms):
        """Intersection with atomic constraints (i, j, op, k); may be empty.

        close1 assumes a closed matrix plus one tightened entry, so
        tightening and re-closing are interleaved per entry.
        """
        n = self.dim
        if self.is_empty() or not atoms:
            return self
        work = list(self.m)
        ok = True
        changed = False
        for (i, j, op, k) in atoms:
            for (a, b, bound) in atom_entries(i, j, op, k):
                idx = a * n + b
                if bound < work[idx]:
                    work[idx] = bound
                    changed = True
                    ok = close1(work, n, a, b)
                    if not ok:
                        break
            if not ok:
                break
        if ok and not changed:
            return self
        return Zone._from_work(n, work, ok)

    def remapped(self, src):
        """The zone whose clock a is this zone's clock src[a] (src[0] = 0),
        a fresh clock at zero where src[a] = 0; clocks not in `src` are
        projected out.  A fresh clock copies the reference clock's row and
        column, and projection keeps a DBM closed (Bengtsson and Yi,
        "Timed Automata: Semantics, Algorithms and Tools", 2004)."""
        n, m = self.dim, self.m
        return Zone(len(src), tuple(m[i * n + j] for i in src for j in src),
                    _canonical=True)

    def add_clock_zero(self):
        """Extend with a fresh clock (new last index) whose value is zero."""
        if self.is_empty():
            raise ZoneError("add_clock_zero on an empty zone")
        return self.remapped(tuple(range(self.dim)) + (0,))

    def remove_clocks(self, idxs):
        """Project out the given clocks (an empty zone stays empty)."""
        if not idxs:
            return self
        if 0 in idxs:
            raise ZoneError("the reference clock cannot be removed")
        return self.remapped(tuple(i for i in range(self.dim) if i not in idxs))

    # -- concretization ------------------------------------------------

    def scaled(self, factor):
        """Zone with every finite bound multiplied by `factor` (> 0).

        Its integer points are exactly this zone's points on the
        1/factor grid; strictness is preserved.
        """
        work = [
            b if b >= INF else pack((b >> 1) * factor, bool(b & 1))
            for b in self.m
        ]
        return Zone(self.dim, tuple(work), _canonical=True)

    def witness(self):
        """Earliest valuation in the zone (lexicographic in clock order).

        Closed zones always yield integers (the greedy lower-bound point
        is feasible by the canonical extension property).  Strict bounds
        force fractional points; the grid is refined in powers of two
        until the greedy candidate verifies, which terminates because
        the zone is a nonempty union of open boxes over the rationals.
        """
        if self.is_empty():
            raise ZoneError("witness of an empty zone")
        scale = 1
        for _ in range(self.dim + 3):
            z = self if scale == 1 else self.scaled(scale)
            cand = z._integer_witness()
            if z.contains(cand):
                return tuple(
                    v // scale if v % scale == 0 else v / scale for v in cand
                )
            scale *= 2
        raise ZoneError("witness grid refinement failed")

    def _integer_witness(self):
        # greedy per-coordinate minimum from lower bounds against the
        # already-fixed prefix; verified by the caller on strict zones
        n = self.dim
        vals = [0] * n
        for i in range(1, n):
            lo = 0
            for j in range(i):
                b = self.m[j * n + i]  # bounds x_j - x_i
                if b >= INF:
                    continue
                v, weak = unpack(b)
                bound = vals[j] - v + (0 if weak else 1)
                if bound > lo:
                    lo = bound
            vals[i] = lo
        return tuple(vals)

    def constraint_strings(self, names=None):
        """Human-readable constraint list (for debugging and reports)."""
        n = self.dim
        names = names or ["c%d" % i for i in range(n)]
        out = []
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                b = self.m[i * n + j]
                if b >= INF:
                    continue
                v, weak = unpack(b)
                if i == 0:
                    out.append("%s %s %d" % (names[j], ">=" if weak else ">", -v))
                elif j == 0:
                    out.append("%s %s %d" % (names[i], "<=" if weak else "<", v))
                else:
                    out.append(
                        "%s - %s %s %d"
                        % (names[i], names[j], "<=" if weak else "<", v)
                    )
        return out
