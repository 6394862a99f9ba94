"""DBM zone tests against a brute-force integer-grid oracle.

The oracle enumerates integer valuations directly from the constraint
list; the zone under test must agree on membership, emptiness and on
the image of up/reset/constrain.  All shipped models use integer
constants and non-strict comparisons, so grid enumeration is an exact
oracle for them.
"""

import itertools
import random

import pytest

from tacv import zones
from tacv.zones import Zone, ZoneError


def grid(dim, lo, hi):
    """All integer valuations with reference clock fixed at 0."""
    for vals in itertools.product(range(lo, hi + 1), repeat=dim - 1):
        yield (0,) + vals


def satisfies(vals, atoms):
    for (i, j, op, k) in atoms:
        d = vals[i] - vals[j]
        ok = {
            "<": d < k,
            "<=": d <= k,
            "==": d == k,
            ">=": d >= k,
            ">": d > k,
        }[op]
        if not ok:
            return False
    return True


def oracle_points(dim, atoms, hi):
    return {v for v in grid(dim, 0, hi) if satisfies(v, atoms)}


def zone_points(z, hi):
    return {v for v in grid(z.dim, 0, hi) if z.contains(v)}


def random_atoms(rng, dim, count, maxc=20):
    atoms = []
    for _ in range(count):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        while j == i:
            j = rng.randrange(dim)
        op = rng.choice(["<=", ">=", "==", "<", ">"])
        atoms.append((i, j, op, rng.randint(-maxc, maxc)))
    return atoms


class TestCanonicalForm:
    def test_idempotent(self):
        z = Zone.from_constraints(3, [(1, 0, "<=", 5), (2, 1, "<=", 0), (2, 0, ">=", 3)])
        assert z.canonicalize() == z
        assert z.canonicalize().canonicalize() == z.canonicalize()

    def test_idempotent_on_empty(self):
        z = Zone.from_constraints(2, [(1, 0, "<=", 1), (1, 0, ">=", 2)])
        assert z.is_empty()
        assert z.canonicalize() == z

    def test_tightening_example(self):
        # time <= 5, c - time <= 0, c >= 3: the lower bound on c survives
        # canonicalization and c inherits the upper bound 5.
        z = Zone.from_constraints(3, [(1, 0, "<=", 5), (2, 1, "<=", 0), (2, 0, ">=", 3)])
        assert z.max_value(2) == 5
        assert z.min_value(2) == 3
        ref = oracle_points(3, [(1, 0, "<=", 5), (2, 1, "<=", 0), (2, 0, ">=", 3)], 6)
        assert zone_points(z, 6) == ref

    def test_contradiction_is_empty(self):
        z = Zone.from_constraints(2, [(1, 0, "<=", 1), (1, 0, ">=", 2)])
        assert z.is_empty()

    def test_diagonal_weak_zero(self):
        z = Zone.origin(4)
        for i in range(4):
            assert z.entry(i, i) == zones.ZERO


class TestDelayAndReset:
    def test_up_from_origin_is_diagonal_ray(self):
        z = Zone.origin(3).up()
        assert z.contains((0, 4, 4))
        assert not z.contains((0, 4, 3))
        assert not z.contains((0, 3, 4))

    def test_up_idempotent(self):
        z = Zone.from_constraints(3, [(1, 0, "<=", 7), (2, 0, "<=", 2)])
        assert z.up().up() == z.up()

    def test_up_membership(self):
        # from the point (time=3, c=1), delaying reaches (10, 8) but not (10, 9)
        z = Zone.from_constraints(3, [(1, 0, "==", 3), (2, 0, "==", 1)]).up()
        assert z.contains((0, 10, 8))
        assert not z.contains((0, 10, 9))

    def test_reset_point_zone(self):
        z = Zone.from_constraints(3, [(1, 0, "==", 7), (2, 0, "==", 7)])
        r = z.reset(2)
        assert r.contains((0, 7, 0))
        assert zone_points(r, 8) == {(0, 7, 0)}

    def test_reset_then_zero_constraint_nonempty(self):
        rng = random.Random(7)
        for _ in range(50):
            atoms = random_atoms(rng, 3, 3, maxc=5)
            z = Zone.from_constraints(3, atoms)
            if z.is_empty():
                continue
            r = z.reset(2).constrained([(2, 0, "==", 0)])
            assert not r.is_empty()

    def test_reset_reference_rejected(self):
        with pytest.raises(ZoneError):
            Zone.origin(2).reset(0)


class TestConstrain:
    def test_vacuous(self):
        z = Zone.from_constraints(2, [(1, 0, "<=", 9)])
        assert z.constrained([(1, 0, ">=", 0)]) == z

    def test_point_after_delay(self):
        # up(origin) cut at time == 10 gives the single point where all
        # clocks read 10 (MAX_LATENCY in the paper-scale models).
        z = Zone.origin(3).up().constrained([(1, 0, "==", 10)])
        assert zone_points(z, 11) == {(0, 10, 10)}

    def test_empty_after_contradiction(self):
        z = Zone.from_constraints(2, [(1, 0, "<=", 3)])
        assert z.constrained([(1, 0, ">=", 5)]).is_empty()


class TestWitness:
    def test_origin(self):
        assert Zone.origin(3).witness() == (0, 0, 0)

    def test_earliest_on_diagonal(self):
        z = Zone.origin(3).up().constrained([(1, 0, ">=", 10)])
        assert z.witness() == (0, 10, 10)

    def test_witness_in_zone_randomized(self):
        rng = random.Random(13)
        for _ in range(200):
            dim = rng.randint(2, 5)
            atoms = random_atoms(rng, dim, rng.randint(1, 4), maxc=8)
            z = Zone.from_constraints(dim, atoms)
            if z.is_empty():
                continue
            w = z.witness()
            assert z.contains(w)
            # lexicographic minimality against the grid
            pts = sorted(zone_points(z, 12))
            if pts and max(w) <= 12:
                assert w == pts[0]

    def test_witness_empty_rejected(self):
        z = Zone.from_constraints(2, [(1, 0, "<", 0)])
        with pytest.raises(ZoneError):
            z.witness()


class TestClockLifecycle:
    def test_add_clock_starts_at_zero(self):
        z = Zone.origin(2).up().constrained([(1, 0, ">=", 4)]).add_clock_zero()
        assert z.dim == 3
        assert z.min_value(2) == 0
        assert z.max_value(2) == 0
        # difference to time is pinned at the add instant
        z2 = z.up()
        assert z2.contains((0, 9, 5))
        assert not z2.contains((0, 9, 6))

    def test_remove_clock_is_projection(self):
        atoms = [(1, 0, "<=", 6), (2, 0, ">=", 2), (2, 1, "<=", 0)]
        z = Zone.from_constraints(3, atoms)
        p = z.remove_clocks([2])
        expected = {(0, v[1]) for v in oracle_points(3, atoms, 8)}
        assert zone_points(p, 8) == expected

    def test_remove_reference_rejected(self):
        with pytest.raises(ZoneError):
            Zone.origin(2).remove_clocks([0])


class TestGridOracleRandomized:
    """Membership equivalence: canonical DBM vs direct constraint evaluation."""

    CASES = 10_000

    def test_membership_matches_oracle(self):
        rng = random.Random(20260808)
        checked = 0
        for _ in range(self.CASES):
            dim = rng.randint(2, 6)
            atoms = random_atoms(rng, dim, rng.randint(1, 2 * dim), maxc=20)
            z = Zone.from_constraints(dim, atoms)
            # spot-check random valuations rather than the full grid
            for _ in range(8):
                vals = (0,) + tuple(rng.randint(0, 22) for _ in range(dim - 1))
                assert z.contains(vals) == satisfies(vals, atoms), (atoms, vals)
                checked += 1
        assert checked >= self.CASES

    def test_emptiness_matches_oracle_small(self):
        rng = random.Random(99)
        for _ in range(400):
            dim = rng.randint(2, 4)
            atoms = random_atoms(rng, dim, rng.randint(1, 5), maxc=6)
            z = Zone.from_constraints(dim, atoms)
            has_point = bool(oracle_points(dim, atoms, 14))
            # Non-strict random systems can be empty on the grid yet
            # nonempty over the reals only via strict atoms; restrict
            # the assertion accordingly.
            if not any(op in ("<", ">") for (_, _, op, _) in atoms):
                assert (not has_point) == z.is_empty(), atoms

    def test_ops_match_grid_images(self):
        # Image comparison on the integer grid is exact only for
        # non-strict systems (the only kind the shipped models use).
        rng = random.Random(4242)
        for _ in range(300):
            dim = rng.randint(2, 4)
            atoms = [
                (i, j, rng.choice(["<=", ">=", "=="]), k)
                for (i, j, _, k) in random_atoms(rng, dim, rng.randint(1, 4), maxc=5)
            ]
            z = Zone.from_constraints(dim, atoms)
            base = oracle_points(dim, atoms, 16)
            assert zone_points(z, 16) == base
            if z.is_empty():
                continue
            # up: close the base under uniform nonnegative integer delay
            # (the reference clock never moves)
            delayed = set()
            for v in base:
                for d in range(0, 17 - max(v[1:])):
                    delayed.add((0,) + tuple(x + d for x in v[1:]))
            assert zone_points(z.up(), 16) == {
                v for v in delayed if max(v) <= 16
            }
            # reset of the last clock: image computed on a wider grid so
            # completions of the dropped clock are not cut off
            r = z.reset(dim - 1)
            wide = oracle_points(dim, atoms, 40)
            reset_img = {
                v[:-1] + (0,) for v in wide if max(v[:-1]) <= 16
            }
            assert zone_points(r, 16) == reset_img
            # constrain with one extra atom
            extra = random_atoms(rng, dim, 1, maxc=5)
            c = z.constrained(extra)
            assert zone_points(c, 16) == {v for v in base if satisfies(v, extra)}


class TestSubsumption:
    def test_inclusion(self):
        big = Zone.from_constraints(2, [(1, 0, "<=", 10)])
        small = Zone.from_constraints(2, [(1, 0, "<=", 5)])
        assert big.subsumes(small)
        assert not small.subsumes(big)

    def test_inclusion_matches_grid(self):
        rng = random.Random(5)
        for _ in range(200):
            a1 = random_atoms(rng, 3, 2, maxc=5)
            a2 = random_atoms(rng, 3, 2, maxc=5)
            z1 = Zone.from_constraints(3, a1)
            z2 = Zone.from_constraints(3, a2)
            p1 = zone_points(z1, 12)
            p2 = zone_points(z2, 12)
            if z1.subsumes(z2):
                assert p2 <= p1
