"""Per-layer spans for the traced benchmark run.

Every span wraps one public function of a tacv module.  The wrapper is
installed in the namespace where the caller looks the name up at call
time, so nothing inside `src/tacv` is edited.  A span records its call
count and its self time: its own duration minus the time covered by
the spans that ran beneath it.

A *whole* span (the oracle, the replays) keeps every call beneath it to
itself: the spans it reaches are not recorded, so its self time is its
whole duration and the kernel, world and zone figures cover the zone
engine's exploration only.
"""

import functools
import time
from collections import defaultdict


class Tracer:
    """Call counts and self times per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self._stack = [0]  # time covered by child spans, one slot per open span
        self._muted = [0]  # open whole spans

    def wrap(self, name, fn, whole=False):
        calls = self.calls
        self_ns = self.self_ns
        stack = self._stack
        muted = self._muted
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if muted[0]:
                return fn(*args, **kwargs)
            stack.append(0)
            muted[0] += whole
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                muted[0] -= whole
                covered = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                self_ns[name] += dt - covered

        return span

    def patch(self, owner, attr, name, whole=False):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), whole))

    def reset(self):
        self.calls.clear()
        self.self_ns.clear()

    def self_s(self, name):
        return self.self_ns.get(name, 0) / 1e9


# (module, attribute, span name).  Names that another module imported
# with `from ... import` are patched in that importer as well.  Spans
# named in WHOLE are whole spans.
SPANS = (
    ("kernel", "explore", "kernel.explore"),
    ("kernel", "enabled_transitions", "kernel.enabled_transitions"),
    ("kernel", "clock_layout", "kernel.clock_layout"),
    ("kernel", "run_state_checks", "kernel.run_state_checks"),
    ("kernel", "replay_trace", "kernel.replay_trace"),
    # Network binds these two when the scenario is instantiated
    ("world", "check_status_machine", "world.check_status_machine"),
    ("world", "pending_clock_owners", "world.pending_clock_owners"),
    ("world", "can_send", "world.can_send"),
    ("adversary", "can_send", "world.can_send"),
    ("world", "try_to_send", "world.try_to_send"),
    ("adversary", "try_to_send", "world.try_to_send"),
    ("world", "try_to_confirm", "world.try_to_confirm"),
    # the per-state world invariants run as these three calls
    ("world", "check_value_conservation", "world.state_checks"),
    ("world", "check_nonce_consistency", "world.state_checks"),
    ("world", "check_eavesdropping", "world.state_checks"),
    ("Zone", "constrained", "zones.constrained"),
    ("Zone", "up", "zones.up"),
    ("Zone", "subsumes", "zones.subsumes"),
    ("Zone", "remove_clocks", "zones.remove_clocks"),
    ("Zone", "add_clock_zero", "zones.add_clock_zero"),
    ("dbm", "close1", "dbm.close1"),
    ("dbm", "closure", "dbm.closure"),
    ("dbm", "subsumes", "dbm.subsumes"),
    ("queries", "parse_query", "queries.parse"),
    ("oracle", "explore_discrete", "oracle.explore_discrete"),
    ("contracts", "build_cs_model", "contracts.build_model"),
    ("contracts", "build_newscs_model", "contracts.build_model"),
    ("contracts", "instantiate", "contracts.instantiate"),
    ("modelio", "load_model", "modelio.load_model"),
    ("modelio", "trace_to_document", "modelio.trace_to_document"),
    ("modelio", "replay_document", "modelio.replay_document"),
)

WHOLE = ("kernel.replay_trace", "oracle.explore_discrete",
         "modelio.trace_to_document", "modelio.replay_document")


def install(tracer, tacv):
    """Patch every span in SPANS; returns False when the DBM kernels are absent.

    `tacv` maps the short module names used in SPANS to the imported
    modules.  Call before any scenario is instantiated.
    """
    owners = dict(tacv)
    owners["Zone"] = tacv["zones"].Zone
    owners["dbm"] = getattr(tacv["zones"], "_core", None)
    for module, attr, name in SPANS:
        owner = owners[module]
        if owner is None:
            continue
        tracer.patch(owner, attr, name, name in WHOLE)
    return owners["dbm"] is not None
