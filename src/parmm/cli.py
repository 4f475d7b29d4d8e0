"""Command-line interface: scenario replay, trace reports, equivalence suite.

`run` replays a JSON scenario deterministically and writes a JSONL trace with
one line per event (result plus full state snapshot), numbers rounded to 12
significant digits so reruns are byte-identical.  Each line is written as its
event completes, so a replay holds no trace in memory.  The writer encodes
each distinct generator descriptor once per trace, not once per event, writes
a snapshot's LPs by their known shape, checks exact types before the
general isinstance chain, encodes a list in one pass, and writes the same
bytes as `json.dumps` of the records with every float x, numpy's too, read
as `float(_float_text(x))`.  A failing event ends the
trace, after the lines of the events before it, with an error record
`{"event", "op", "error", "message"}`, and is reported on stderr as
`event k (<op>): ...`.  `report` derives CSV/JSON summaries from a trace,
skipping its error record.  `equivalence` runs the randomized cross-check
suite.

Exit codes: 0 success, 1 market/validation failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import pickle
import sys

import numpy as np

from . import __version__
from .convex_core import directional_liquidity, liquidity_matrix
from .engine import MarketState, NormFee, PositivePartFee, audit_budget_balance, initialize
from .equivalence import equivalence_suite
from .errors import ParmmError, UnknownKind, _check_integer, _check_number, _floats
from .generators import (
    BucketCurve,
    LmsrCurve,
    UniswapV2Curve,
    brier_curve,
    generator_from_descriptor,
)
from .two_asset import liability2

_INF = float("inf")
_json_str = json.encoder.encode_basestring_ascii  # json.dumps's string encoder


def _float_text(x) -> str:
    """x rounded to 12 significant digits, as JSON text: byte for byte
    `json.dumps(float(f"{x:.12g}"))`, including NaN, Infinity and -0.0."""
    s = "%.12g" % x
    if "e" not in s:
        # 12 significant digits name one double, whose repr prints these
        # same digits: with the point, or for a whole number (0 and -0
        # among them) followed by ".0"
        if "." in s:
            return s
        if "n" not in s:
            return s + ".0"
    r = float(s)
    if r != r:
        return "NaN"
    if r == _INF:
        return "Infinity"
    if r == -_INF:
        return "-Infinity"
    return repr(r)


def _key(k) -> str:
    """A dict key as json.dumps writes it; keys are not rounded."""
    if isinstance(k, str):
        return _json_str(k)
    if k is None or isinstance(k, (int, float)):
        return _json_str(json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _json(obj) -> str:
    """`json.dumps(obj, separators=(",", ":"))` with each float x written as
    `_float_text(x)`, arrays as lists and tuples as lists, without building a
    rounded copy: the same TypeError on what JSON lacks."""
    t = type(obj)
    if t is float:
        return _float_text(obj)
    if t is list:
        return _list_json(obj)
    if t is np.ndarray:
        return _list_json(obj.tolist())
    # dicts, subclasses, and the other types JSON has
    if isinstance(obj, dict):
        return "{" + ",".join([(_json_str(k) if type(k) is str else _key(k)) + ":" + _json(v)
                               for k, v in obj.items()]) + "}"
    if isinstance(obj, (float, np.floating)):
        return _float_text(obj)
    if isinstance(obj, (list, tuple)):
        return _list_json(obj)
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, int):
        return "true" if obj is True else "false" if obj is False else int.__repr__(obj)
    if obj is None:
        return "null"
    if isinstance(obj, np.ndarray):
        return _list_json(obj.tolist())
    return json.dumps(obj)  # json's TypeError


def _list_json(items) -> str:
    """A list as JSON text, in one pass that sends each float straight to
    `_float_text`."""
    return "[" + ",".join([_float_text(v) if type(v) is float else _json(v) for v in items]) + "]"


def _descriptor_json(desc, texts: dict) -> str:
    """JSON text of a generator descriptor, encoded once per distinct
    descriptor in `texts`: a trace restates every LP's generator at every
    event, and a generator changes only when `modify_liquidity` replaces it.
    The key is the descriptor's pickle, which records every type, float bit
    and key order that the text depends on, so equal keys mean equal text."""
    try:
        key = pickle.dumps(desc)
    except (pickle.PicklingError, TypeError, AttributeError):
        return _json(desc)
    text = texts.get(key)
    if text is None:
        text = texts[key] = _json(desc)
    return text


_LP_KEYS = ["id", "generator", "liability", "cash_fees", "bundle_fees"]


def _lp_json(lp, texts: dict) -> str:
    """One LP of a snapshot, its keys in the order `MarketState.snapshot`
    writes them; an int id, float lists and a float cash fee are encoded
    directly, other values by `_json`."""
    if type(lp) is not dict or list(lp) != _LP_KEYS:
        return _json(lp)
    lp_id, liability, cash, fees = lp["id"], lp["liability"], lp["cash_fees"], lp["bundle_fees"]
    return (f'{{"id":{int.__repr__(lp_id) if type(lp_id) is int else _json(lp_id)},'
            f'"generator":{_descriptor_json(lp["generator"], texts)},'
            f'"liability":{_list_json(liability) if type(liability) is list else _json(liability)},'
            f'"cash_fees":{_float_text(cash) if type(cash) is float else _json(cash)},'
            f'"bundle_fees":{_list_json(fees) if type(fees) is list else _json(fees)}}}')


def _trace_line(rec, texts: dict) -> str:
    """A trace record as one JSON line, byte for byte `_json(rec)`; a record
    shaped as `replay` builds them is written by that shape."""
    if type(rec) is dict and list(rec) == ["event", "op", "result", "state"]:
        state = rec["state"]
        if type(state) is dict and list(state) == ["price", "lps"] and type(state["lps"]) is list:
            lps = ",".join([_lp_json(lp, texts) for lp in state["lps"]])
            return (f'{{"event":{_json(rec["event"])},"op":{_json(rec["op"])},"result":{_json(rec["result"])},'
                    f'"state":{{"price":{_json(state["price"])},"lps":[{lps}]}}}}\n')
    return _json(rec) + "\n"


_MODES = ("strict", "lenient")
# fee scheme name -> its constructor, given the rate
_FEES = {
    "norm-l1": functools.partial(NormFee, norm="l1"),
    "norm-l2": functools.partial(NormFee, norm="l2"),
    "positive-part": PositivePartFee,
}


def _fee_scheme(name: str | None, beta: float):
    if name is None or beta == 0:
        return None
    if not isinstance(name, str) or name not in _FEES:  # a list is not hashable
        raise UnknownKind(f"unknown fee scheme {name!r}")
    return _FEES[name](beta)


def _numbers(ev, key):
    """An event's price, bundle or liability `ev[key]` as floats: finite numbers only."""
    x = _floats(key, ev[key])
    if not np.isfinite(x).all():
        raise UnknownKind(f"{key} is not numeric: {ev[key]!r}")
    return x


def replay(scenario: dict, mode=None, fee_name=None, beta=None):
    """Check a scenario's configuration, then return a generator of its trace
    records: the meta record, then each event's record as the event succeeds.
    A configuration error raises `UnknownKind` here, before any record: a
    scenario or fee that is not an object, an n that is not an integer >= 2,
    an unknown mode or fee scheme, a fee rate that is not a number, or
    events that are not a list.  A failing event yields an error record
    `{"event", "op", "error", "message"}` and then re-raises its exception,
    whose message names the event and op for a `ParmmError`."""
    if not isinstance(scenario, dict):
        raise UnknownKind(f"a scenario must be an object, got {type(scenario).__name__}")
    n = scenario.get("n", 2)
    _check_integer("n", n, 2)
    n = int(n)
    mode = mode or scenario.get("mode", "strict")
    if mode not in _MODES:
        raise UnknownKind(f"unknown mode {mode!r}")
    fee_cfg = scenario.get("fee", {})
    if not isinstance(fee_cfg, dict):
        raise UnknownKind(f"fee must be an object, got {fee_cfg!r}")
    fee_name = fee_name or fee_cfg.get("scheme")
    beta = beta if beta is not None else fee_cfg.get("beta", 0.0)
    _check_number("fee rate", beta)
    fee = _fee_scheme(fee_name, beta)
    events = scenario["events"]
    if not isinstance(events, list):
        raise UnknownKind(f"events must be a list, got {type(events).__name__}")
    meta = {"meta": {"version": __version__, "n": n, "mode": mode,
                     "fee": {"scheme": fee_name, "beta": beta} if fee else None}}
    return _replay_events(meta, events, n, mode == "strict", fee)


def _replay_events(meta, events, n, strict, fee):
    yield meta
    state: MarketState | None = None
    last_receipt = None
    for idx, ev in enumerate(events):
        op = None
        try:
            op = ev["op"]
            if state is None and op != "initialize":
                raise UnknownKind("the market is not initialized yet")
            result: dict = {}
            if op == "initialize":
                gen = generator_from_descriptor(ev["generator"], n)
                kwargs = {"fee": fee, "strict": strict}
                if "price" in ev:
                    state = initialize(gen, price=_numbers(ev, "price"), **kwargs)
                else:
                    state = initialize(gen, liability=_numbers(ev, "liability"), **kwargs)
                result = {"price": state.price}
            elif op == "register_lp":
                result = {"lp": state.register_lp()}
            elif op == "modify_liquidity":
                gen = generator_from_descriptor(ev["generator"], n)
                deposit = state.modify_liquidity(ev["lp"], gen)
                result = {"lp": ev["lp"], "deposit": deposit}
            elif op == "execute_trade":
                if "target_price" in ev:
                    receipt = state.execute_trade(target_price=_numbers(ev, "target_price"))
                else:
                    receipt = state.execute_trade(bundle=_numbers(ev, "bundle"))
                last_receipt = receipt
                result = {
                    "bundle": receipt.bundle,
                    "parts": {str(k): v for k, v in receipt.parts.items()},
                    "price_after": receipt.price_after,
                    "trader_fee": receipt.trader_fee,
                    "lp_fees": {str(k): v for k, v in receipt.lp_fees.items()},
                }
            elif op == "quote_completion":
                full, cash = state.quote_completion(_numbers(ev, "bundle"))
                result = {"bundle": full, "cash": cash}
            elif op == "query":
                what = ev.get("what")
                if what == "price":
                    result = {"price": state.price}
                elif what == "liabilities":
                    result = {"liabilities": {str(r.lp_id): r.liability for r in state.records}}
                elif what == "fees":
                    result = {
                        "fees": {
                            str(r.lp_id): {"cash": r.cash_fees, "bundle": r.bundle_fees}
                            for r in state.records
                        }
                    }
                elif what == "liquidity":
                    result = {
                        "liquidity": {
                            str(r.lp_id): liquidity_matrix(r.generator, state.price)
                            for r in state.records
                        }
                    }
                elif what == "no_liability":
                    result = {
                        "worst_liability": {
                            str(r.lp_id): state.audit_no_liability(r.lp_id)
                            for r in state.records
                        }
                    }
                elif what == "budget_imbalance":
                    if last_receipt is None:
                        raise UnknownKind("budget_imbalance queried before any trade")
                    result = {"imbalance": audit_budget_balance(state.fee, last_receipt)}
                else:
                    raise UnknownKind(f"unknown query {what!r}")
            else:
                raise UnknownKind(f"unknown op {op!r}")
            record = {"event": idx, "op": op, "result": result, "state": state.snapshot()}
        except Exception as exc:
            # every failed event ends the trace with an error record; for the
            # errors `main` reports it carries the text printed after "error: "
            if isinstance(exc, ParmmError):
                exc.args = (f"event {idx} ({op}): {exc}",)
            yield {"event": idx, "op": op, "error": type(exc).__name__, "message": str(exc)}
            raise
        yield record


def run_scenario(scenario: dict, mode=None, fee_name=None, beta=None):
    """Replay a scenario; returns the list of trace records, or raises the
    failing event's exception."""
    return list(replay(scenario, mode, fee_name, beta))


def _write_trace(trace, out):
    """Write trace records as JSONL, each line as its record arrives."""
    texts: dict = {}
    out.writelines(_trace_line(rec, texts) for rec in trace)


def _load_trace(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _states(trace):
    """The records of a trace that carry a market state: all but the meta
    record and a failed event's error record."""
    states = [rec for rec in trace if "state" in rec]
    if not states:
        raise UnknownKind("the trace has no market state")
    return states


def report_price_path(trace, out):
    states = _states(trace)
    n = len(states[0]["state"]["price"])
    w = csv.writer(out)
    w.writerow(["event"] + [f"p{i + 1}" for i in range(n)])
    for rec in states:
        w.writerow([rec["event"]] + rec["state"]["price"])


def report_liquidity_profile(trace, out, grid=99):
    _check_integer("grid", grid, 1)
    last = _states(trace)[-1]["state"]
    n = len(last["price"])
    if n != 2:
        raise UnknownKind("liquidity profiles are only defined for two outcomes")
    gens = {lp["id"]: generator_from_descriptor(lp["generator"], 2) for lp in last["lps"]}
    v = np.array([1.0, -1.0])
    w = csv.writer(out)
    w.writerow(["p"] + [f"lp{k}" for k in gens] + ["aggregate"])
    for p1 in (np.arange(grid) + 0.5) / grid:
        p = np.array([p1, 1.0 - p1])
        vals = [directional_liquidity(G, p, v) for G in gens.values()]
        w.writerow([_float_text(x) for x in [p1, *vals, sum(vals)]])


def _table1_oracle(base: str, a: float, b: float, p: float, weight: float):
    """Independent closed forms for bucketed liabilities (score differences of
    the base maker, clamped to the bucket)."""
    pc = min(max(p, a), b)
    if base == "v2":
        q1 = -np.sqrt((1 - pc) / pc) + np.sqrt((1 - b) / b)
        q2 = -np.sqrt(pc / (1 - pc)) + np.sqrt(a / (1 - a))
    elif base == "lmsr":
        q1 = np.log(pc / b)
        q2 = np.log((1 - pc) / (1 - a))
    elif base == "brier":
        q1 = -((1 - pc) ** 2) + (1 - b) ** 2
        q2 = -(pc ** 2) + a ** 2
    else:  # pragma: no cover
        raise UnknownKind(base)
    return weight * np.array([q1, q2])


def report_table1_check(out, samples=200, seed=7):
    """Bucketed curves against the closed-form liability columns."""
    rng = np.random.default_rng(seed)
    bases = {
        "v2": UniswapV2Curve(1.0),
        "lmsr": LmsrCurve(1.0),
        "brier": brier_curve(1.0),
    }
    w = csv.writer(out)
    w.writerow(["base", "max_deviation"])
    worst_all = 0.0
    for name, base in bases.items():
        worst = 0.0
        for _ in range(samples):
            a = float(rng.uniform(0.05, 0.6))
            b = float(rng.uniform(a + 0.1, 0.95))
            weight = float(rng.uniform(0.5, 2.0))
            crv = BucketCurve(base, a, b, weight)
            for p in (rng.uniform(0.01, a), rng.uniform(a, b), rng.uniform(b, 0.99)):
                got = liability2(crv, float(p))
                want = _table1_oracle(name, a, b, float(p), weight)
                worst = max(worst, float(np.max(np.abs(got - want))))
        w.writerow([name, f"{worst:.3e}"])
        worst_all = max(worst_all, worst)
    return worst_all


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    # built on the first call and kept: parse_args leaves a parser unchanged
    ap = argparse.ArgumentParser(prog="parmm", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="replay a scenario file")
    run_p.add_argument("scenario")
    run_p.add_argument("--out", default=None, help="trace path (default stdout)")
    run_p.add_argument("--mode", choices=_MODES, default=None)
    run_p.add_argument("--beta", type=float, default=None)
    run_p.add_argument("--fee", choices=list(_FEES), default=None)

    rep_p = sub.add_parser("report", help="summarize a trace")
    rep_p.add_argument("trace")
    rep_p.add_argument("--kind", required=True,
                       choices=["price-path", "liquidity-profile", "table1-check"])
    rep_p.add_argument("--grid", type=int, default=99)

    eq_p = sub.add_parser("equivalence", help="run the randomized cross-check suite")
    eq_p.add_argument("--n", type=int, default=2)
    eq_p.add_argument("--trials", type=int, default=100)
    eq_p.add_argument("--seed", type=int, default=0)
    eq_p.add_argument("--out", default=None)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            with open(args.scenario) as fh:
                scenario = json.load(fh)
            records = replay(scenario, args.mode, args.fee, args.beta)
            if args.out:
                with open(args.out, "w") as fh:
                    _write_trace(records, fh)
            else:
                _write_trace(records, sys.stdout)
            return 0
        if args.command == "report":
            if args.kind == "table1-check":
                worst = report_table1_check(sys.stdout)
                return 0 if worst <= 1e-9 else 1
            trace = _load_trace(args.trace)
            if args.kind == "price-path":
                report_price_path(trace, sys.stdout)
            else:
                report_liquidity_profile(trace, sys.stdout, args.grid)
            return 0
        if args.command == "equivalence":
            report = equivalence_suite(args.n, args.trials, args.seed)
            rounded = {k: float(_float_text(v)) if isinstance(v, float) else v for k, v in report.items()}
            payload = json.dumps(rounded, indent=2) + "\n"
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(payload)
            else:
                sys.stdout.write(payload)
            return 0 if report["pass"] else 1
    except (UnknownKind, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
