"""Fixtures and helpers shared by the test modules."""

import gc

import pytest


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """Run the test with the cyclic collector on, then off; restore it after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def automaton_index(net, name):
    """The index of the automaton called `name` in `net`."""
    (index,) = [i for i, a in enumerate(net.automata) if a.name == name]
    return index
