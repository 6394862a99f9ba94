"""Command-line front end.

Commands:
  verify    check safety properties of a contract scenario
  simulate  print one random maximal run (reproducible per seed)
  trace     replay a saved trace document and re-check its query
  list      show built-in contracts and their named queries

`verify` explores once and reports every query with its own verdict,
a violated one with its counterexample trace; `--trace-out` writes the
trace of the first violated query in report order.  Exit codes: 0 all
queries satisfied, 1 some query violated, else 2 exploration limits
exhausted, 3 usage or model errors.  Reports go to stdout, diagnostics
to stderr.  ANSI color is controlled by TACV_COLOR (1 forces on, 0
forces off, otherwise only when stdout is a terminal).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import modelio
from . import oracle as oracle_mod
from . import queries as Q
from .contracts import instantiate
from .kernel import ModelError, explore, random_run

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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_ERROR, where
    argparse's own exit code 2 would read as EXIT_LIMIT."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, "%s: error: %s\n" % (self.prog, message))


def _non_negative(kind):
    """An option type: a number of `kind` (int or float) that is >= 0."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid number: %r" % text) from None
        if not value >= 0:  # NaN compares false too
            raise argparse.ArgumentTypeError("must be a number >= 0: %r" % text)
        return value
    return parse


def _given(**options):
    return {name: value for name, value in options.items() if value is not None}


def _scenario(args):
    """(model, net, query context, adversary) named by the options."""
    advs = args.adversary or []
    if len(advs) > 1:
        raise ModelError("at most one party can be the adversary")
    model = modelio.contract_model(
        args.contract,
        _given(MAX_LATENCY=args.max_latency, PROT_TIMELOCK=args.prot_timelock),
        _given(weakened_alice=args.weakened_alice, buggy_bob=args.buggy_bob,
               abort_margin=args.abort_margin),
    )
    adversary = advs[0].upper() if advs else None
    net, ctx = instantiate(model, adversary=adversary)
    return model, net, ctx, adversary


def _gather_queries(args, model, ctx):
    """(name, text, ast) triples.  A named query of the model that names
    an automaton the scenario replaced by the adversary is skipped; any
    other error in it raises QueryError naming the query."""
    explicit = [Q.parse_query(text, ctx) for text in args.query or []]
    if args.query_file:
        with open(args.query_file) as fh:
            explicit.extend(Q.parse_query_file(fh.read(), ctx))
    if explicit:
        return [("q%d" % i, ast.source, ast) for i, ast in enumerate(explicit)]
    automata = {("automaton", a.name)
                for autos in model.honest_automata.values() for a in autos}
    triples = []
    for name, text in sorted(model.queries.items()):
        try:
            triples.append((name, text, Q.parse_query(text, ctx)))
        except Q.QueryError as exc:
            if exc.unknown not in automata:
                raise Q.QueryError("query %s: %s" % (name, exc)) from None
            print("note: skipping query %s (%s)" % (name, exc), file=sys.stderr)
    return triples


def cmd_verify(args):
    try:
        model, net, ctx, adversary = _scenario(args)
        triples = _gather_queries(args, model, ctx)
    except (ModelError, Q.QueryError, OSError) as exc:
        return _fail(str(exc))
    if not triples:
        return _fail("no checkable queries for this scenario")

    asts = [ast for _name, _text, ast in triples]
    if args.engine == "discrete":
        try:
            result, _verdicts = oracle_mod.explore_discrete(
                net, queries=asts, max_states=args.max_states,
                max_seconds=args.max_seconds)
        except ModelError as exc:
            return _fail(str(exc))
    else:
        result = explore(net, check=Q.make_checkers(asts),
                         max_states=args.max_states,
                         max_seconds=args.max_seconds)
    verdicts, traces = result.verdicts, result.traces

    color = _color_enabled()
    first_trace = None
    for (name, text, _ast), verdict, trace in zip(triples, verdicts, traces):
        report = modelio.result_to_report(
            result._replace(verdict=verdict, trace=trace), model, adversary,
            name, text, net, engine=args.engine)
        if args.format == "json":
            print(json.dumps(report, sort_keys=True))
        else:
            print(modelio.render_report_text(report, color=color))
        if first_trace is None:
            first_trace = report.get("trace")
    if args.trace_out and first_trace:
        try:
            with open(args.trace_out, "w") as fh:
                json.dump(first_trace, fh, sort_keys=True, indent=2)
        except OSError as exc:
            return _fail("cannot write the trace document: %s" % exc)
        print("trace document written to %s" % args.trace_out, file=sys.stderr)
    return {"VIOLATED": EXIT_VIOLATED, "LIMIT": EXIT_LIMIT}.get(
        result.verdict, EXIT_SATISFIED)


def cmd_simulate(args):
    try:
        model, net, _ctx, adversary = _scenario(args)
    except (ModelError, OSError) as exc:
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
        for step in doc["steps"]:
            print("  t=%-6s %s" % (step["clocks"]["time"], step["label"]))
        if doc["steps"]:
            snap = doc["steps"][-1]
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
        if isinstance(doc, dict) and "trace" in doc:
            doc = doc["trace"]
        modelio.replay_document(doc)
    except modelio.TraceReplayError as exc:
        return _fail("replay diverged: %s" % exc)
    except (ModelError, Q.QueryError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    print("replayed %d steps successfully" % len(doc["steps"]))
    for step in doc["steps"]:
        print("  t=%-6s %-10s %s" % (step["clocks"]["time"], step["kind"], step["label"]))
    holdings = doc["steps"][-1]["holdings"] if doc["steps"] else {}
    print("final holdings: %s" % json.dumps(holdings, sort_keys=True))
    if doc.get("query") is not None:
        print("final state violates: %s" % doc["query"])
    return EXIT_SATISFIED


def cmd_list(args):
    for name in modelio.BUILTIN_CONTRACTS:
        model = modelio.contract_model(name)
        print("%s  (%d transactions, parties: %s)" % (
            name, len(model.protocol_txs), ", ".join(model.party_names[:-1])))
        for qname, text in sorted(model.queries.items()):
            print("  %-22s %s" % (qname, text))
    return EXIT_SATISFIED


def _add_scenario_args(p):
    p.add_argument("contract", help="built-in contract name or path to a .model file")
    p.add_argument("--adversary", action="append", metavar="PARTY",
                   help="corrupted party (alice or bob); at most one.  It may"
                   " broadcast any transaction it can script, less the sweeps"
                   " no guard, holding or query can observe")
    p.add_argument("--buggy-bob", action="store_true", default=None,
                   help="set BUGGY_BOB = 1 (newscs: single-shot recovery,"
                   " the historical bug)")
    p.add_argument("--weakened-alice", action="store_true", default=None,
                   help="set WEAKENED_ALICE = 1 (cs: Alice signs the fuse before"
                   " broadcasting the commit)")
    p.add_argument("--abort-margin", type=int,
                   help="set ABORT_MARGIN (newscs: abort deadline"
                   " PROT_TIMELOCK - N*MAX_LATENCY, default 3)")
    p.add_argument("--max-latency", type=int, help="override MAX_LATENCY")
    p.add_argument("--prot-timelock", type=int, help="override PROT_TIMELOCK")
    p.add_argument("--format", choices=("text", "json"), default="text")


def main(argv=None):
    parser = _Parser(
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
    pv.add_argument("--max-states", type=_non_negative(int),
                    help="stop with LIMIT once more than MAX_STATES states are"
                    " stored: zone states, dead (evicted) ones included, on"
                    " --engine zone, concrete states on --engine discrete; a"
                    " report's `states` counts (locations, data) keys")
    pv.add_argument("--max-seconds", type=_non_negative(float),
                    help="stop with LIMIT once the exploration has run longer"
                    " than MAX_SECONDS seconds of wall-clock time")
    pv.add_argument("--trace-out", metavar="FILE",
                    help="write the trace document of the first violated"
                    " query, in report order, here")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("simulate", help="one random maximal run")
    _add_scenario_args(ps)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--steps", type=_non_negative(int), default=50)
    ps.set_defaults(func=cmd_simulate)

    pt = sub.add_parser("trace", help="replay a saved trace document")
    pt.add_argument("file")
    pt.set_defaults(func=cmd_trace)

    pl = sub.add_parser("list", help="list built-in contracts and queries")
    pl.set_defaults(func=cmd_list)

    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader went away (`tacv verify ... | head`): send what is
        # still buffered to the null device, so the interpreter's last
        # flush does not report the closed pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except KeyboardInterrupt:
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
