"""The benchmark's traced run patches tacv functions by name.

`perfbench/layers.py` wraps every `(module, attribute)` of its `SPANS`
table with `getattr`, so a renamed or removed function makes
`perfbench/run.py --trace 1` raise.  This test loads that file as it is
and resolves every row.
"""

import importlib.util
import os

import pytest

from tacv import adversary, contracts, kernel, modelio, oracle, queries, world, zones

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")

OWNERS = {
    "kernel": kernel, "world": world, "adversary": adversary, "zones": zones,
    "Zone": zones.Zone, "queries": queries, "oracle": oracle,
    "contracts": contracts, "modelio": modelio,
}


def spans():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    # the `dbm` rows name kernels of a module that no longer exists, and
    # `install` skips them
    return [row for row in layers.SPANS if row[0] != "dbm"]


@pytest.mark.parametrize("owner, attr, name", spans(),
                         ids=lambda x: x if isinstance(x, str) else None)
def test_span_target_exists(owner, attr, name):
    assert callable(getattr(OWNERS[owner], attr, None)), (
        "%s.%s (span %s) is gone" % (owner, attr, name))
