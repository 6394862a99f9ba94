"""Command-line front end.

Commands:
  verify    check safety properties of a contract scenario
  simulate  print one random maximal run (reproducible per seed)
  trace     replay a saved counterexample document
  list      show built-in contracts and their named queries

Exit codes: 0 all queries satisfied, 1 a query violated (first violation
reported with its trace), 2 exploration limits exhausted, 3 usage or
model errors.  Reports go to stdout, diagnostics to stderr.  ANSI color
is controlled by TACV_COLOR (1 forces on, 0 forces off, otherwise only
when stdout is a terminal).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import modelio
from . import oracle as oracle_mod
from . import queries as Q
from .contracts import BUILTIN_MODELS, build_cs_model, build_newscs_model, instantiate
from .kernel import ModelError, explore, random_run
from .world import WorldConstants

EXIT_SATISFIED = 0
EXIT_VIOLATED = 1
EXIT_LIMIT = 2
EXIT_ERROR = 3


def _color_enabled():
    flag = os.environ.get("TACV_COLOR")
    if flag == "1":
        return True
    if flag == "0":
        return False
    return sys.stdout.isatty()


def _fail(message):
    print("error: %s" % message, file=sys.stderr)
    return EXIT_ERROR


def _build_model(args):
    overrides = {}
    if args.max_latency is not None:
        overrides["MAX_LATENCY"] = args.max_latency
    if args.prot_timelock is not None:
        overrides["PROT_TIMELOCK"] = args.prot_timelock

    if args.contract in BUILTIN_MODELS:
        constants = None
        if overrides:
            base = BUILTIN_MODELS[args.contract]().constants
            constants = WorldConstants(
                overrides.get("MAX_LATENCY", base.max_latency),
                overrides.get("PROT_TIMELOCK", base.prot_timelock),
            )
        if args.contract == "cs":
            return build_cs_model(
                constants=constants,
                weakened_alice=args.weakened_alice,
            )
        return build_newscs_model(
            constants=constants,
            buggy_bob=args.buggy_bob,
            abort_margin=args.abort_margin,
        )
    if args.weakened_alice or args.buggy_bob:
        raise ModelError("protocol variants exist for built-in contracts only")
    return modelio.load_model(args.contract, overrides=overrides or None)


def _scenario(args, model):
    advs = args.adversary or []
    if len(advs) > 1:
        raise ModelError("at most one party can be the adversary")
    adversary = advs[0].upper() if advs else None
    net, ctx = instantiate(
        model, adversary=adversary, prune_idle_sweeps=not args.no_prune,
    )
    return net, ctx, adversary


def _gather_queries(args, model, ctx):
    """(name, text, ast) triples; unresolvable defaults are skipped."""
    triples = []
    explicit = []
    for text in args.query or []:
        explicit.append((None, text))
    if args.query_file:
        with open(args.query_file) as fh:
            content = fh.read()
        for line in content.splitlines():
            stripped = line.split("//", 1)[0].strip()
            if stripped:
                explicit.append((None, stripped))
    if explicit:
        for i, (_n, text) in enumerate(explicit):
            triples.append(("q%d" % i, text, Q.parse_query(text, ctx)))
        return triples
    for name, text in sorted(model.queries.items()):
        try:
            triples.append((name, text, Q.parse_query(text, ctx)))
        except Q.QueryError as exc:
            print(
                "note: skipping query %s (%s)" % (name, exc), file=sys.stderr
            )
    return triples


def cmd_verify(args):
    try:
        model = _build_model(args)
        net, ctx, adversary = _scenario(args, model)
        triples = _gather_queries(args, model, ctx)
    except (ModelError, modelio.ModelIOError, Q.QueryError, OSError) as exc:
        return _fail(str(exc))
    if not triples:
        return _fail("no checkable queries for this scenario")

    color = _color_enabled()
    if args.engine == "discrete":
        return _verify_discrete(args, model, net, adversary, triples, color)

    checkers = [(t, Q.make_checker(t[2])) for t in triples]
    hit = []

    def check(state):
        for (name, text, _ast), chk in checkers:
            witness = chk(state)
            if witness is not None:
                hit.append((name, text))
                return witness
        return None

    result = explore(
        net,
        check=check,
        max_states=args.max_states,
        max_seconds=args.max_seconds,
    )
    if result.verdict == "VIOLATED":
        name, text = hit[0]
        report = modelio.result_to_report(
            result, model, adversary, name, text, net)
        _emit(report, args, color)
        return EXIT_VIOLATED
    # one exploration covers every query
    for (name, text, _ast) in triples:
        report = modelio.result_to_report(
            result, model, adversary, name, text, net)
        _emit(report, args, color)
    return EXIT_SATISFIED if result.verdict == "SATISFIED" else EXIT_LIMIT


def _verify_discrete(args, model, net, adversary, triples, color):
    worst = EXIT_SATISFIED
    for (name, text, ast) in triples:
        try:
            res = oracle_mod.explore_discrete(
                net, query=ast, max_states=args.max_states)
        except ModelError as exc:
            return _fail(str(exc))
        report = {
            "schema_version": modelio.SCHEMA_VERSION,
            "contract": model.name,
            "adversary": adversary,
            "engine": "discrete",
            "query": {"name": name, "text": text},
            "verdict": res.verdict,
            "states": res.states,
            "transitions": 0,
            "wall_time_s": 0.0,
        }
        if res.limit_reason:
            report["limit_reason"] = res.limit_reason
        _emit(report, args, color)
        if res.verdict == "VIOLATED":
            return EXIT_VIOLATED
        if res.verdict == "LIMIT":
            worst = EXIT_LIMIT
    return worst


def _emit(report, args, color):
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(modelio.render_report_text(report, color=color))
    if getattr(args, "trace_out", None) and report.get("trace"):
        with open(args.trace_out, "w") as fh:
            json.dump(report["trace"], fh, sort_keys=True, indent=2)
        print("trace document written to %s" % args.trace_out, file=sys.stderr)


def cmd_simulate(args):
    try:
        model = _build_model(args)
        net, _ctx, adversary = _scenario(args, model)
    except (ModelError, modelio.ModelIOError, OSError) as exc:
        return _fail(str(exc))
    seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(4), "big")
    print("seed: %d" % seed, file=sys.stderr)
    trace = random_run(net, seed=seed, steps=args.steps)
    doc = modelio.trace_to_document(trace, net, model, adversary, query_text=None)
    doc["seed"] = seed
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        print("simulation of %s (adversary=%s), %d steps:"
              % (model.name, adversary or "none", len(doc["steps"])))
        snap = None
        for step in doc["steps"]:
            print("  t=%-6s %s" % (step["time"], step["label"]))
            snap = step
        if snap:
            print("final holdings: %s" % json.dumps(snap["holdings"], sort_keys=True))
            live = {k: v for k, v in snap["statuses"].items() if v != "UNSENT"}
            print("final statuses: %s" % json.dumps(live, sort_keys=True))
        else:
            print("initial state only (no steps)")
    return EXIT_SATISFIED


def cmd_trace(args):
    try:
        with open(args.file) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    if "trace" in doc:
        doc = doc["trace"]
    try:
        final = modelio.replay_document(doc, buggy_bob=args.buggy_bob)
    except modelio.TraceReplayError as exc:
        return _fail("replay diverged: %s" % exc)
    print("replayed %d steps successfully" % len(doc["steps"]))
    for step in doc["steps"]:
        print("  t=%-6s %-10s %s" % (step["time"], step["kind"], step["label"]))
    holdings = doc["steps"][-1]["holdings"] if doc["steps"] else {}
    print("final holdings: %s" % json.dumps(holdings, sort_keys=True))
    return EXIT_SATISFIED


def cmd_list(args):
    for name, builder in sorted(BUILTIN_MODELS.items()):
        model = builder()
        print("%s  (%d transactions, parties: %s)" % (
            name, len(model.protocol_txs), ", ".join(model.party_names[:-1])))
        for qname, text in sorted(model.queries.items()):
            print("  %-22s %s" % (qname, text))
    return EXIT_SATISFIED


def _add_scenario_args(p):
    p.add_argument("contract", help="built-in contract name or path to a .model file")
    p.add_argument("--adversary", action="append", metavar="PARTY",
                   help="corrupted party (alice or bob); at most one")
    p.add_argument("--buggy-bob", action="store_true",
                   help="newscs: single-shot recovery (the historical bug)")
    p.add_argument("--weakened-alice", action="store_true",
                   help="cs: Alice signs the fuse before broadcasting the commit")
    p.add_argument("--abort-margin", type=int, default=3,
                   help="newscs: abort deadline PROT_TIMELOCK - N*MAX_LATENCY")
    p.add_argument("--max-latency", type=int, help="override MAX_LATENCY")
    p.add_argument("--prot-timelock", type=int, help="override PROT_TIMELOCK")
    p.add_argument("--no-prune", action="store_true",
                   help="keep observationally idle sweeps in the adversary loop")
    p.add_argument("--format", choices=("text", "json"), default="text")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tacv",
        description="Timed-automata verification of Bitcoin contracts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="check safety properties")
    _add_scenario_args(pv)
    pv.add_argument("--query", action="append", metavar="PROP",
                    help="inline A[] property (repeatable)")
    pv.add_argument("--query-file", metavar="FILE", help=".q file, one property per line")
    pv.add_argument("--engine", choices=("zone", "discrete"), default="zone")
    pv.add_argument("--max-states", type=int)
    pv.add_argument("--max-seconds", type=float)
    pv.add_argument("--trace-out", metavar="FILE",
                    help="write the counterexample trace document here")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("simulate", help="one random maximal run")
    _add_scenario_args(ps)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--steps", type=int, default=50)
    ps.set_defaults(func=cmd_simulate)

    pt = sub.add_parser("trace", help="replay a saved trace document")
    pt.add_argument("file")
    pt.add_argument("--buggy-bob", action="store_true")
    pt.set_defaults(func=cmd_trace)

    pl = sub.add_parser("list", help="list built-in contracts and queries")
    pl.set_defaults(func=cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
