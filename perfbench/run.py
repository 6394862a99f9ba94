#!/usr/bin/env python3
"""tacv benchmark: time to verdict on three scenario workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One single-threaded process drives the public Python API the way
`tacv verify` and the acceptance suite do.  Every verdict is checked
against a known answer.  The last line of standard output is one JSON
object: with `--trace 0` it carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a run whose calls into each tacv
module are wrapped in spans (see layers.py).  The line before it,
starting with `detail `, holds the full record, counters included.
See README.md for the workloads and the layer-to-metric map.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

import layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CS_MODEL_PATH = os.path.join(SRC, "tacv", "models", "cs.model")

# set-ups timed before and again after the passes; setup_s is the
# median of these and of each pass's own set-up
SETUP_REPS = 10

SAT, VIOL = "SATISFIED", "VIOLATED"

# newscs(1,5) with adversary Alice, in sorted query order.  Criteria 4
# and 5 pin bob_no_loss and bob_compensated; the oracle re-derives all
# five on every pass.
NEWSCS_15_ALICE = {
    "alice_compensated": SAT,
    "alice_no_loss": VIOL,
    "bob_compensated": SAT,
    "bob_no_loss": SAT,
    "both_recover": VIOL,
}

# newscs(2,10) with adversary Bob: distinct (locations, data) keys the
# discrete oracle reaches (explore_discrete, 19,878 keys, SATISFIED).
NEWSCS_210_BOB_ORACLE_KEYS = 19878

# cs verdicts, identical at (10,100) and (2,5).  Criteria 1-3 and 9 pin
# part of this table; the discrete oracle, run once at (2,5), gives the
# whole table for both variants.  Queries naming BobTA do not parse when
# Bob is the adversary, so that scenario checks three queries.
CS_QUERIES = ("alice_holds_deposit", "alice_security", "bob_accepts",
              "bob_knows_secret", "bob_security")
CS_ALICE_VIOLATES = ("alice_holds_deposit", "alice_security", "bob_accepts",
                     "bob_knows_secret")


def cs_known(weakened, adversary, query):
    if adversary == "BOB":
        return None if query in ("bob_accepts", "bob_security") else SAT
    if adversary == "ALICE":
        return VIOL if query in CS_ALICE_VIOLATES else SAT
    return VIOL if weakened and query == "bob_accepts" else SAT


CS_SCALES = ((10, 100), (2, 5))
ADVERSARIES = (None, "ALICE", "BOB")


class Api:
    """The tacv modules, plus the span tracer when the run is traced."""

    def __init__(self, traced):
        if not os.path.isfile(os.path.join(SRC, "tacv", "__init__.py")):
            raise SystemExit("error: %s/tacv not found; run from a tacv checkout"
                             % SRC)
        sys.path.insert(0, SRC)
        from tacv import (adversary, contracts, kernel, modelio, oracle,
                          queries, world, zones)
        self.contracts = contracts
        self.kernel = kernel
        self.modelio = modelio
        self.oracle = oracle
        self.Q = queries
        self.world = world
        self.tracer = None
        self.has_dbm = None
        if traced:
            self.tracer = layers.Tracer()
            self.has_dbm = layers.install(self.tracer, {
                "adversary": adversary, "contracts": contracts,
                "kernel": kernel, "modelio": modelio, "oracle": oracle,
                "queries": queries, "world": world, "zones": zones,
            })

    def checker(self, ast):
        chk = self.Q.make_checker(ast)
        if self.tracer is not None:
            chk = self.tracer.wrap("queries.check", chk)
        return chk


class Watch:
    """Check callback for `explore`: counts keys and zone states.

    With `stop` the first violated query ends the exploration with its
    witness; otherwise every query is checked until it is violated and
    the exploration runs to the end.
    """

    def __init__(self, checkers, stop):
        self.checkers = checkers
        self.stop = stop
        self.violated = set()
        self.keys = set()
        self.zone_states = 0
        self.max_dim = 0

    def __call__(self, state):
        self.zone_states += 1
        self.keys.add((state.locs, state.data))
        if state.zone.dim > self.max_dim:
            self.max_dim = state.zone.dim
        for name, chk in self.checkers:
            if name in self.violated:
                continue
            witness = chk(state)
            if witness is not None:
                self.violated.add(name)
                if self.stop:
                    return witness
        return None


class Ledger:
    """Operations, failures and timings of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0          # wrong verdicts or reachable sets, and crashes
        self.doc_failures = 0   # replay_document divergences
        self.phase = {"verify_s": 0.0, "oracle_s": 0.0, "replay_s": 0.0}
        self.counts = {"keys": 0, "zone_states": 0, "transitions": 0,
                       "max_dim": 0, "oracle_keys": 0}

    def op(self, ok, what, wrong_if_failed=True):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if wrong_if_failed:
                self.wrong += 1
            print("FAILED: %s" % what, file=sys.stderr)

    def crashed(self, what):
        traceback.print_exc(file=sys.stderr)
        self.op(False, "%s raised" % what)

    def explore(self, api, net, watch, **kw):
        t0 = time.perf_counter()
        try:
            res = api.kernel.explore(net, check=watch, run_checks=True, **kw)
        finally:
            self.phase["verify_s"] += time.perf_counter() - t0
        self.counts["keys"] += len(watch.keys)
        self.counts["zone_states"] += watch.zone_states
        self.counts["transitions"] += res.transitions
        self.counts["max_dim"] = max(self.counts["max_dim"], watch.max_dim)
        return res


def verdict_of(res, watch, name):
    """VIOLATED when the query's checker fired, else the exploration's verdict."""
    return VIOL if name in watch.violated else res.verdict


# -- workloads -----------------------------------------------------------


def setup_newscs(api, scale, adversary, names):
    model = api.contracts.build_newscs_model(api.world.WorldConstants(*scale))
    net, ctx = api.contracts.instantiate(model, adversary=adversary,
                                         run_world_checks=True)
    asts = {n: api.Q.parse_query(model.queries[n], ctx) for n in names}
    return net, asts


def setup_newscs_15_alice(api):
    return setup_newscs(api, (1, 5), "ALICE", NEWSCS_15_ALICE)


def pass_newscs_15_alice(api, scenario, rng, ledger):
    """One zone pass over all five queries, then the oracle on the same net."""
    net, asts = scenario
    order = sorted(asts)
    rng.shuffle(order)
    watch = Watch([(n, api.checker(asts[n])) for n in order], stop=False)
    try:
        zres = ledger.explore(api, net, watch, collect_reachable=True)
    except Exception:
        ledger.crashed("zone exploration")
        return
    for name in sorted(asts):
        got = verdict_of(zres, watch, name)
        ledger.op(got == NEWSCS_15_ALICE[name],
                  "zone %s: %s, expected %s" % (name, got, NEWSCS_15_ALICE[name]))

    t0 = time.perf_counter()
    try:
        ores, overdicts = api.oracle.explore_discrete(
            net, queries=[asts[n] for n in order])
    except Exception:
        ledger.crashed("oracle")
        return
    finally:
        ledger.phase["oracle_s"] += time.perf_counter() - t0
    ledger.counts["oracle_keys"] += len(ores.reachable)
    for name, got in zip(order, overdicts):
        ledger.op(got == NEWSCS_15_ALICE[name],
                  "oracle %s: %s, expected %s" % (name, got, NEWSCS_15_ALICE[name]))
    ledger.op(ores.reachable == zres.reachable,
              "reachable sets differ: zone %d keys, oracle %d keys"
              % (len(zres.reachable), len(ores.reachable)))


def setup_newscs_210_bob(api):
    return setup_newscs(api, (2, 10), "BOB", ("alice_compensated",))


def pass_newscs_210_bob(api, scenario, rng, ledger):
    net, asts = scenario
    watch = Watch([("alice_compensated", api.checker(asts["alice_compensated"]))],
                  stop=True)
    try:
        res = ledger.explore(api, net, watch)
    except Exception:
        ledger.crashed("zone exploration")
        return
    got = verdict_of(res, watch, "alice_compensated")
    ledger.op(got == SAT, "alice_compensated: %s, expected %s" % (got, SAT))
    ledger.op(len(watch.keys) == NEWSCS_210_BOB_ORACLE_KEYS,
              "reachable keys %d, oracle reached %d"
              % (len(watch.keys), NEWSCS_210_BOB_ORACLE_KEYS))


def setup_cs_suite(api):
    """Every verification of one pass, built from scratch."""
    jobs = []
    for scale in CS_SCALES:
        constants = api.world.WorldConstants(*scale)
        overrides = {"MAX_LATENCY": scale[0], "PROT_TIMELOCK": scale[1]}
        variants = (
            ("shipped", api.contracts.build_cs_model(constants)),
            ("weakened_alice",
             api.contracts.build_cs_model(constants, weakened_alice=True)),
            ("cs.model", api.modelio.load_model(CS_MODEL_PATH, overrides=overrides)),
        )
        for variant, model in variants:
            for adversary in ADVERSARIES:
                net, ctx = api.contracts.instantiate(
                    model, adversary=adversary, run_world_checks=True)
                for query in CS_QUERIES:
                    expected = cs_known(variant == "weakened_alice", adversary, query)
                    if expected is None:
                        continue
                    ast = api.Q.parse_query(model.queries[query], ctx)
                    label = "cs%s %s adversary=%s %s" % (scale, variant, adversary, query)
                    jobs.append((label, variant, model, net, adversary, query, ast,
                                 expected))
    return jobs


def pass_cs_suite(api, jobs, rng, ledger):
    order = list(jobs)
    rng.shuffle(order)
    for label, variant, model, net, adversary, query, ast, expected in order:
        watch = Watch([(query, api.checker(ast))], stop=True)
        try:
            res = ledger.explore(api, net, watch)
            got = verdict_of(res, watch, query)
            ledger.op(got == expected, "%s: %s, expected %s" % (label, got, expected))
            # the .model twin is checked for its verdicts only
            if got == VIOL and variant != "cs.model":
                t0 = time.perf_counter()
                replay_both(api, ledger, label, model, net, adversary, query, ast,
                            res.trace)
                ledger.phase["replay_s"] += time.perf_counter() - t0
        except Exception:
            ledger.crashed(label)


def replay_both(api, ledger, label, model, net, adversary, query, ast, trace):
    """Replay a counterexample in the kernel and as a `tacv trace` document.

    Each replay must end in a state that violates the query again.
    """
    try:
        final = api.kernel.replay_trace(net, trace)
        problem = None if api.Q.evaluate(final, ast) is not None else "no violation"
    except api.kernel.ReplayError as exc:
        problem = str(exc)
    ledger.op(problem is None, "%s: replay_trace: %s" % (label, problem),
              wrong_if_failed=False)

    doc = api.modelio.trace_to_document(trace, net, model, adversary,
                                        model.queries[query])
    try:
        final = api.modelio.replay_document(json.loads(json.dumps(doc)))
        problem = None if api.Q.evaluate(final, ast) is not None else "no violation"
    except api.modelio.TraceReplayError as exc:
        problem = str(exc)
    if problem is not None:
        ledger.doc_failures += 1
    ledger.op(problem is None, "%s: replay_document: %s" % (label, problem),
              wrong_if_failed=False)


WORKLOADS = {
    "newscs-1-5-alice": (setup_newscs_15_alice, pass_newscs_15_alice),
    "newscs-2-10-bob": (setup_newscs_210_bob, pass_newscs_210_bob),
    "cs-suite": (setup_cs_suite, pass_cs_suite),
}


# -- metrics -------------------------------------------------------------


def metric_spec():
    """The end_to_end and per_layer lists of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def per_layer_values(api, ledger, passes, record, per_layer):
    """Per-pass values of every per-layer metric of a traced run.

    A name ending in `.calls` or `.self_s` is read from the span named
    by the rest of it; the others are derived from the run's counters.
    """
    tracer = api.tracer
    counts = ledger.counts
    derived = {
        "kernel.keys": counts["keys"] / passes,
        "kernel.zone_states": counts["zone_states"] / passes,
        "kernel.transitions": counts["transitions"] / passes,
        "kernel.zones_per_key": counts["zone_states"] / max(counts["keys"], 1),
        "kernel.accept_ratio": counts["zone_states"] / max(counts["transitions"], 1),
        "zones.max_dim": counts["max_dim"],
        "oracle.keys": counts["oracle_keys"] / passes,
        "modelio.replay_document.failures": ledger.doc_failures / passes,
        "oracle_s": record["oracle_s"],
        "replay_s": record["replay_s"],
        "failed_frac": record["failed_frac"],
    }
    out = {}
    for metric in per_layer:
        name, unit = metric["name"], metric["unit"]
        span, _, field = name.rpartition(".")
        if field == "calls":
            v = tracer.calls.get(span, 0) / passes
        elif field == "self_s":
            v = tracer.self_s(span) / passes
        else:
            v = derived[name]
        if unit == "count" and v == int(v):
            v = int(v)
        out[name] = {"value": v, "unit": unit}
    return out


def run(workload, seed, seconds, traced, per_layer):
    api = Api(traced)
    setup, one_pass = WORKLOADS[workload]
    rng = random.Random(seed)
    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        scenario = setup(api)
        setup_times.append(time.perf_counter() - t0)
        return scenario

    # set-ups before and after the passes, so that setup_s spans the run
    gc.collect()
    for _ in range(SETUP_REPS):
        timed_setup()
    if api.tracer is not None:
        api.tracer.reset()

    ledger = Ledger()
    per_pass = {"verify_s": [], "oracle_s": [], "replay_s": [], "total_s": []}
    passes = 0
    started = time.perf_counter()
    while passes == 0 or time.perf_counter() - started < seconds:
        gc.collect()
        scenario = timed_setup()
        before = dict(ledger.phase)
        t0 = time.perf_counter()
        one_pass(api, scenario, rng, ledger)
        per_pass["total_s"].append(time.perf_counter() - t0)
        for phase, total in ledger.phase.items():
            per_pass[phase].append(total - before[phase])
        passes += 1
        del scenario

    record = {
        "workload": workload, "seed": seed, "trace": int(traced), "passes": passes,
        "verify_s": statistics.median(per_pass["verify_s"]),
        "total_s": statistics.median(per_pass["total_s"]),
        "oracle_s": statistics.median(per_pass["oracle_s"]),
        "replay_s": statistics.median(per_pass["replay_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": ledger.attempted, "failed": ledger.failed, "wrong": ledger.wrong,
        "failed_frac": ledger.failed / max(ledger.attempted, 1),
        "replay_document_failures": ledger.doc_failures,
        "per_pass": {k: ledger.counts[k] / passes
                     for k in ("keys", "zone_states", "transitions", "oracle_keys")},
    }
    if traced:
        record["per_layer"] = per_layer_values(api, ledger, passes, record,
                                              per_layer)
        record["dbm_kernels"] = "present" if api.has_dbm else "absent"

    gc.collect()
    for _ in range(SETUP_REPS):
        timed_setup()
    record["setup_s"] = statistics.median(setup_times)
    return record


def report(record, end_to_end):
    print("workload %s  seed %d  trace %d  passes %d"
          % (record["workload"], record["seed"], record["trace"], record["passes"]))
    summary = [(m["name"], m["unit"]) for m in end_to_end]
    for name, unit in summary + [("oracle_s", "s"), ("replay_s", "s")]:
        print("  %-12s %12.4f %s" % (name, record[name], unit))
    print("  %-12s %12.4f (%d of %d operations failed)"
          % ("failed_frac", record["failed_frac"], record["failed"], record["attempted"]))
    if record["trace"] and record["dbm_kernels"] == "absent":
        print("  dbm.* spans absent: tacv.zones has no _core kernel module")
    print("detail " + json.dumps(record, sort_keys=True))
    if record["trace"]:
        metrics = record["per_layer"]
    else:
        metrics = {name: {"value": record[name], "unit": unit}
                   for name, unit in summary}
    print(json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes until this many seconds have passed "
                             "(at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    end_to_end, per_layer = metric_spec()
    report(run(args.workload, args.seed, args.seconds, bool(args.trace), per_layer),
           end_to_end)


if __name__ == "__main__":
    main()
