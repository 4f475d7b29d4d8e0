"""CLI: scenario replay determinism, reports, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parmm
from parmm import LmsrCurve, MarketState, PiecewisePolyCurve, UniswapV2Curve, initialize
from parmm.cli import _build_parser, _write_trace, main, replay, run_scenario
from parmm.equivalence import equivalence_suite
from parmm.errors import UnknownKind, UnsupportedFamily

SCEN = os.path.join(os.path.dirname(__file__), "..", "scenarios")
WALK = os.path.join(SCEN, "two_lp_walkthrough.json")
THREE = os.path.join(SCEN, "three_asset_fee_imbalance.json")


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cli_optimized(argv):
    """`python -O -m parmm.cli *argv` in a fresh process; -O strips `assert`."""
    src = str(Path(parmm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # a numpy warning fails here as it fails a test run in-process
    return subprocess.run([sys.executable, "-O", "-W", "error::RuntimeWarning", "-m", "parmm.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_run_walkthrough_scenario(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    code = main(["run", WALK, "--out", str(trace)])
    assert code == 0
    lines = [json.loads(ln) for ln in trace.read_text().splitlines()]
    assert lines[0]["meta"]["n"] == 2
    events = [ln for ln in lines[1:] if ln.get("op") == "execute_trade"]
    assert len(events) == 2
    # final state of the replay: price 0.7, known books
    final = lines[-1]["state"]
    assert final["price"] == pytest.approx([0.7, 0.3], abs=1e-9)
    books = {lp["id"]: lp["liability"] for lp in final["lps"]}
    assert books[0] == pytest.approx([0.0, -0.9], abs=1e-9)
    assert books[1] == pytest.approx([-0.45, -1.65], abs=1e-9)


def test_run_is_deterministic(tmp_path):
    t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["run", WALK, "--out", str(t1)]) == 0
    assert main(["run", WALK, "--out", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_run_three_asset_scenario(capsys):
    code, out, _ = run_cli(["run", THREE], capsys)
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    queries = [ln for ln in lines if ln.get("op") == "query"]
    imb = next(ln for ln in queries if "imbalance" in ln["result"])
    got = imb["result"]["imbalance"]
    assert got[1] == pytest.approx(1 - 0.5 ** 0.5, abs=1e-9)
    assert got[0] == pytest.approx(0.0, abs=1e-9)
    assert got[2] == pytest.approx(0.0, abs=1e-9)


def test_fee_flags_override_scenario(capsys):
    code, out, _ = run_cli(["run", WALK, "--fee", "norm-l2", "--beta", "0.2"], capsys)
    assert code == 0
    meta = json.loads(out.splitlines()[0])["meta"]
    assert meta["fee"]["scheme"] == "norm-l2"
    assert meta["fee"]["beta"] == 0.2


def test_report_price_path(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    main(["run", WALK, "--out", str(trace)])
    code, out, _ = run_cli(["report", str(trace), "--kind", "price-path"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "event,p1,p2"
    first = rows[1].split(",")
    assert float(first[1]) == pytest.approx(0.2, abs=1e-9)
    last = rows[-1].split(",")
    assert float(last[1]) == pytest.approx(0.7, abs=1e-9)


def test_report_liquidity_profile(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    main(["run", WALK, "--out", str(trace)])
    code, out, _ = run_cli(
        ["report", str(trace), "--kind", "liquidity-profile", "--grid", "9"], capsys
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "p,lp0,lp1,aggregate"
    assert len(rows) == 10
    # per-LP columns add up to the aggregate column
    for row in rows[1:]:
        _, a, b, agg = map(float, row.split(","))
        assert a + b == pytest.approx(agg, abs=1e-9)


def test_report_table1_check(capsys):
    code, out, _ = run_cli(["report", "-", "--kind", "table1-check"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "base,max_deviation"
    assert len(rows) == 4  # header + one line per base maker
    worst = max(float(r.split(",")[-1]) for r in rows[1:])
    assert worst <= 1e-9


def test_report_table1_check_takes_no_trace(capsys):
    # it never read one: the path given was accepted and ignored
    code, out, _ = run_cli(["report", "--kind", "table1-check"], capsys)
    assert code == 0 and out == run_cli(["report", "/nonexistent", "--kind", "table1-check"], capsys)[1]


@pytest.mark.parametrize("kind", ["price-path", "liquidity-profile"])
def test_a_report_of_a_trace_needs_its_path(kind, capsys):
    assert run_cli(["report", "--kind", kind], capsys) == (
        2, "", f"error: report --kind {kind} reads a trace: give its path\n")


def test_equivalence_command(capsys):
    code, out, _ = run_cli(["equivalence", "--n", "2", "--trials", "20", "--seed", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and report["failures"] == 0


def test_equivalence_out_writes_the_bytes_it_prints(tmp_path, capsys):
    argv = ["equivalence", "--n", "2", "--trials", "5", "--seed", "3"]
    code, printed, _ = run_cli(argv, capsys)
    out = tmp_path / "eq.json"
    assert code == 0 and run_cli(argv + ["--out", str(out)], capsys) == (0, "", "")
    assert out.read_text() == printed


@pytest.mark.parametrize("n, trials, line", [
    (2, 0, "trials must be a positive integer, got 0"),
    (2, -1, "trials must be a positive integer, got -1"),
    (1, 5, "n must be an integer >= 2, got 1"),
], ids=["trials-0", "trials-negative", "n-1"])
def test_equivalence_that_would_check_nothing_exits_2(n, trials, line, tmp_path, capsys):
    # no trials passed with "pass": true, and n = 1 failed as a market error
    out = tmp_path / "eq.json"
    argv = ["equivalence", "--n", str(n), "--trials", str(trials), "--out", str(out)]
    assert run_cli(argv, capsys) == (2, "", f"error: {line}\n")
    assert not out.exists()
    with pytest.raises(UnknownKind, match=line):
        equivalence_suite(n, trials, 0)


@pytest.mark.parametrize("n, trials", [(True, 5), (2.0, 5), (2, 1.0), (2, True)])
def test_equivalence_counts_must_be_integers(n, trials):
    with pytest.raises(UnknownKind, match="must be"):
        equivalence_suite(n, trials, 0)


def test_report_kinds_are_checked(tmp_path, capsys):
    # the suite's JSON report is read as written; it is no trace report kind
    trace = tmp_path / "t.jsonl"
    assert main(["run", THREE, "--out", str(trace)]) == 0
    with pytest.raises(SystemExit) as exited:
        main(["report", str(trace), "--kind", "equivalence"])
    assert exited.value.code == 2
    capsys.readouterr()
    assert run_cli(["report", str(trace), "--kind", "liquidity-profile"], capsys) == (
        2, "", "error: liquidity profiles are only defined for two outcomes\n")


def test_exit_code_2_on_missing_file(capsys):
    code, _, err = run_cli(["run", "/nonexistent/scenario.json"], capsys)
    assert code == 2 and err


def test_exit_code_2_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["run", str(bad)], capsys)
    assert code == 2 and err


def test_exit_code_2_on_unknown_family(tmp_path, capsys):
    scen = {
        "n": 2,
        "events": [
            {"op": "initialize", "generator": {"family": "nope"}, "price": [0.5, 0.5]}
        ],
    }
    f = tmp_path / "s.json"
    f.write_text(json.dumps(scen))
    code, _, err = run_cli(["run", str(f)], capsys)
    assert code == 2 and err


def test_exit_code_1_on_failing_market_operation(tmp_path, capsys):
    scen = {
        "n": 2,
        "events": [
            {
                "op": "initialize",
                "generator": {"family": "lmsr", "b": 1.0},
                "price": [0.5, 0.5],
            },
            {"op": "execute_trade", "bundle": [1.0, 1.0]},  # cash gift, rejected
        ],
    }
    f = tmp_path / "s.json"
    f.write_text(json.dumps(scen))
    code, _, err = run_cli(["run", str(f)], capsys)
    assert code == 1 and err


def test_event_before_initialize_names_event_and_op(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"n": 2, "events": [{"op": "register_lp"}]}))
    code, _, err = run_cli(["run", str(f)], capsys)
    assert code == 2
    assert err.startswith("error: event 0 (register_lp)")


def test_scalar_price_needs_two_outcomes():
    scen = {
        "n": 3,
        "events": [{"op": "initialize", "generator": {"family": "lmsr", "b": 1.0}, "price": 0.5}],
    }
    with pytest.raises(UnknownKind, match=r"price must be a vector of 3 components, got shape \(\)$"):
        run_scenario(scen)


def test_budget_imbalance_needs_a_trade():
    scen = {
        "n": 2,
        "events": [
            {"op": "initialize", "generator": {"family": "lmsr", "b": 1.0}, "price": [0.5, 0.5]},
            {"op": "query", "what": "budget_imbalance"},
        ],
    }
    with pytest.raises(UnknownKind):
        run_scenario(scen)


def test_modify_liquidity_of_an_unknown_lp_exits_2(tmp_path, capsys):
    # lp -1 used to index the last record and replace the founder's book
    lmsr = {"family": "lmsr", "b": 1.0}
    scen = {
        "n": 2,
        "events": [
            {"op": "initialize", "generator": lmsr, "price": [0.5, 0.5]},
            {"op": "modify_liquidity", "lp": -1, "generator": {"family": "uniswap_v2", "alpha": 1.0}},
        ],
    }
    f = tmp_path / "s.json"
    f.write_text(json.dumps(scen))
    code, _, err = run_cli(["run", str(f)], capsys)
    assert code == 2
    assert "no LP with id -1" in err


def _error_line(event, op, error, err) -> str:
    """The error record a failed run ends with, as `json.dumps` writes it;
    its message is what stderr prints after "error: "."""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    record = {"event": event, "op": op, "error": error, "message": err[len("error: "):-1]}
    return json.dumps(record, separators=(",", ":")) + "\n"


def _replayed(scen, tmp_path, name="head") -> str:
    """The trace `parmm run` writes for scen, which must succeed."""
    path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
    path.write_text(json.dumps(scen))
    assert main(["run", str(path), "--out", str(out)]) == 0
    return out.read_text()


_LMSR = {"family": "lmsr", "b": 1.0}
_OPENING = [
    {"op": "initialize", "generator": _LMSR, "price": [0.5, 0.5]},
    {"op": "register_lp"},
    {"op": "execute_trade", "target_price": [0.6, 0.4]},
]
_TAIL = [{"op": "execute_trade", "target_price": [0.4, 0.6]}]
# (failing event, its type, exit code, stderr's start)
_FAILURES = {
    "bad-modify": ({"op": "modify_liquidity", "lp": 1, "generator": {"family": "lmsr", "b": 1.0, "n": 3}},
                   "UnsupportedFamily", 1,
                   "error: event 3 (modify_liquidity): 3-outcome generator on a 2-outcome market"),
    "unknown-op": ({"op": "settle"}, "UnknownKind", 2, "error: event 3 (settle): unknown op 'settle'"),
    # every field is read by one reader: a JSON object holding it, or
    # exactly one of two alternatives
    "no-op": ({"lp": 1}, "UnknownKind", 2, "error: event 3 (None): op is missing\n"),
    "event-list": ([{"op": "register_lp"}], "UnknownKind", 2,
                   "error: event 3 (None): expected a JSON object with op, got list\n"),
    "event-str": ("register_lp", "UnknownKind", 2, "error: event 3 (None): expected a JSON object with op, got str\n"),
    "event-null": (None, "UnknownKind", 2, "error: event 3 (None): expected a JSON object with op, got NoneType\n"),
    "op-list": ({"op": ["query"], "what": "price"}, "UnknownKind", 2, "error: event 3 (['query']): unknown op ['query']\n"),
    "generator-missing": ({"op": "modify_liquidity", "lp": 1}, "UnknownKind", 2,
                          "error: event 3 (modify_liquidity): generator is missing\n"),
    "lp-missing": ({"op": "modify_liquidity", "generator": _LMSR}, "UnknownKind", 2,
                   "error: event 3 (modify_liquidity): lp is missing\n"),
    "what-missing": ({"op": "query"}, "UnknownKind", 2, "error: event 3 (query): what is missing\n"),
    "what-list": ({"op": "query", "what": ["price"]}, "UnknownKind", 2, "error: event 3 (query): unknown query ['price']\n"),
    "quote-bundle-missing": ({"op": "quote_completion"}, "UnknownKind", 2,
                             "error: event 3 (quote_completion): bundle is missing\n"),
    "price-and-liability": ({"op": "initialize", "generator": _LMSR, "price": [0.5, 0.5], "liability": [0.0, 0.0]},
                            "UnknownKind", 2, "error: event 3 (initialize): price and liability are both given; give one\n"),
    "price-or-liability-missing": ({"op": "initialize", "generator": _LMSR}, "UnknownKind", 2,
                                   "error: event 3 (initialize): price or liability is missing\n"),
    "target-and-bundle": ({"op": "execute_trade", "target_price": [0.5, 0.5], "bundle": [0.1, -0.1]}, "UnknownKind", 2,
                          "error: event 3 (execute_trade): target_price and bundle are both given; give one\n"),
    "target-or-bundle-missing": ({"op": "execute_trade"}, "UnknownKind", 2,
                                 "error: event 3 (execute_trade): target_price or bundle is missing\n"),
    # malformed event values: a typed error, not a traceback
    "lp-str": ({"op": "modify_liquidity", "lp": "x", "generator": _LMSR}, "UnknownKind", 2,
               "error: event 3 (modify_liquidity): lp must be an integer, got 'x'\n"),
    "lp-float": ({"op": "modify_liquidity", "lp": 1.5, "generator": _LMSR}, "UnknownKind", 2,
                 "error: event 3 (modify_liquidity): lp must be an integer, got 1.5\n"),
    "lp-bool": ({"op": "modify_liquidity", "lp": True, "generator": _LMSR}, "UnknownKind", 2,
                "error: event 3 (modify_liquidity): lp must be an integer, got True\n"),
    "price-str": ({"op": "execute_trade", "target_price": "abc"}, "UnknownKind", 2,
                  "error: event 3 (execute_trade): target_price is not numeric: 'abc'\n"),
    "bundle-str": ({"op": "execute_trade", "bundle": [0.1, "x"]}, "UnknownKind", 2,
                   "error: event 3 (execute_trade): bundle is not numeric: [0.1, 'x']\n"),
    "quote-dict": ({"op": "quote_completion", "bundle": {"a": 1}}, "UnknownKind", 2,
                   "error: event 3 (quote_completion): bundle is not numeric: {'a': 1}\n"),
    "liability-ragged": ({"op": "initialize", "generator": _LMSR, "liability": [[1, 2], [3]]}, "UnknownKind", 2,
                         "error: event 3 (initialize): liability is not numeric: [[1, 2], [3]]\n"),
    # only finite JSON numbers are numbers: not null, a numeric string, NaN
    # or an integer beyond the float range
    "quote-null": ({"op": "quote_completion", "bundle": [None, 0.1]}, "UnknownKind", 2,
                   "error: event 3 (quote_completion): bundle is not numeric: [None, 0.1]\n"),
    "price-numeric-str": ({"op": "execute_trade", "target_price": "0.3"}, "UnknownKind", 2,
                          "error: event 3 (execute_trade): target_price is not numeric: '0.3'\n"),
    "bundle-nan": ({"op": "execute_trade", "bundle": [float("nan"), 0.1]}, "UnknownKind", 2,
                   "error: event 3 (execute_trade): bundle is not numeric: [nan, 0.1]\n"),
    "liability-huge-int": ({"op": "initialize", "generator": _LMSR, "liability": [2 ** 1024, 0]}, "UnknownKind", 2,
                           f"error: event 3 (initialize): liability is not numeric: {[2 ** 1024, 0]!r}\n"),
    # a descriptor field of the wrong kind, missing or unknown: one message
    # shape, "malformed {family} descriptor: {field} ...", whichever check catches it
    "descriptor-str": ({"op": "modify_liquidity", "lp": 1, "generator": {"family": "lmsr", "b": "one"}},
                       "UnknownKind", 2,
                       "error: event 3 (modify_liquidity): malformed lmsr descriptor: b must be a number, got 'one'\n"),
    "buckets-str": ({"op": "modify_liquidity", "lp": 1,
                     "generator": {"family": "bucket_array", "base": _LMSR, "buckets": "x", "weights": [1.0]}},
                    "UnknownKind", 2,
                    "error: event 3 (modify_liquidity): malformed bucket_array descriptor: buckets is not numeric: 'x'\n"),
    "field-missing": ({"op": "modify_liquidity", "lp": 1, "generator": {"family": "uniswap_v2"}}, "UnknownKind", 2,
                      "error: event 3 (modify_liquidity): malformed uniswap_v2 descriptor: alpha is missing\n"),
    "field-unknown": ({"op": "modify_liquidity", "lp": 1,
                       "generator": {"family": "v3_bucket", "a": 0.2, "b": 0.5, "weight": 3.0}}, "UnknownKind", 2,
                      "error: event 3 (modify_liquidity): malformed v3_bucket descriptor: "
                      "weight is not one of its fields (a, b, alpha)\n"),
    # a nested descriptor reports its own family, once: a base is a curve, whose lmsr takes b alone
    "base-field-unknown": ({"op": "modify_liquidity", "lp": 1, "generator": {
                               "family": "bucket", "base": {"family": "lmsr", "b": 1.0, "n": 3}, "a": 0.2, "b": 0.5}},
                           "UnknownKind", 2,
                           "error: event 3 (modify_liquidity): malformed lmsr descriptor: n is not one of its fields (b)\n"),
    # ... and one of no known family is a malformed field of the outer descriptor
    "base-no-family": ({"op": "modify_liquidity", "lp": 1, "generator": {"family": "bucket", "base": {}, "a": 0.2, "b": 0.5}},
                       "UnknownKind", 2,
                       "error: event 3 (modify_liquidity): malformed bucket descriptor: base of unknown family None\n"),
    "terms-no-family": ({"op": "modify_liquidity", "lp": 1, "generator": {"family": "sum", "terms": [_LMSR, {}]}},
                        "UnknownKind", 2,
                        "error: event 3 (modify_liquidity): malformed sum descriptor: terms[1] of unknown family None\n"),
    "generator-str": ({"op": "modify_liquidity", "lp": 1, "generator": "lmsr"}, "UnknownKind", 2,
                      "error: event 3 (modify_liquidity): a descriptor must be an object, got 'lmsr'\n"),
    # counts are integers, and descriptor numbers are neither bools nor integers beyond the float range
    "n-float": ({"op": "modify_liquidity", "lp": 1, "generator": {"family": "constant_product", "n": 2.0}},
                "UnknownKind", 2,
                "error: event 3 (modify_liquidity): malformed constant_product descriptor: n must be an integer, got 2.0\n"),
    "b-true": ({"op": "modify_liquidity", "lp": 1, "generator": {"family": "lmsr", "b": True}}, "UnknownKind", 2,
               "error: event 3 (modify_liquidity): malformed lmsr descriptor: b must be a number, got True\n"),
    "b-huge-int": ({"op": "modify_liquidity", "lp": 1, "generator": {"family": "lmsr", "b": 2 ** 1024}}, "UnknownKind",
                   2, f"error: event 3 (modify_liquidity): malformed lmsr descriptor: b must be a number, got {2 ** 1024}\n"),
    "query-unknown": ({"op": "query", "what": "volume"}, "UnknownKind", 2,
                      "error: event 3 (query): unknown query 'volume'\n"),
    # bad prices, at both events that take one, with the library's error
    # types; a NaN is not a JSON number, so exits 2 before the price rule
    **{f"{op}-{label}": ({"op": op, **extra, key: x}, error, code, f"error: event 3 ({op}): {message}\n")
       for op, key, extra in (("initialize", "price", {"generator": _LMSR}), ("execute_trade", "target_price", {}))
       for label, x, error, code, message in (
           ("entry-null", [None, 0.5], "UnknownKind", 2, f"{key} is not numeric: [None, 0.5]"),
           ("entry-true", [True, 0.5], "UnknownKind", 2, f"{key} is not numeric: [True, 0.5]"),
           ("short", [1.0], "UnknownKind", 2, "price must be a vector of 2 components, got shape (1,)"),
           ("sum", [0.5, 0.6], "OutOfRange", 1, "price components sum to 1.1, not 1"),
           ("nan", [float("nan"), 0.5], "UnknownKind", 2, f"{key} is not numeric: [nan, 0.5]"),
           ("clamp", 1e-10, "BoundaryPrice", 1, "price touches the boundary clamp"),
       )},
}


def test_failing_modify_mid_scenario_names_event_and_op(tmp_path, capsys):
    # the events before the failure are written as a replay of just them
    # would write them, then the failing event's error record
    failing, _, _, _ = _FAILURES["bad-modify"]
    scen = {"n": 2, "events": _OPENING + [failing] + _TAIL}
    f = tmp_path / "s.json"
    f.write_text(json.dumps(scen))
    code, out, err = run_cli(["run", str(f)], capsys)
    assert code == 1
    assert err.startswith("error: event 3 (modify_liquidity): 3-outcome generator on a 2-outcome market")
    head = _replayed({"n": 2, "events": _OPENING}, tmp_path)
    assert out == head + _error_line(3, "modify_liquidity", "UnsupportedFamily", err)
    with pytest.raises(UnsupportedFamily, match=r"^event 3 \(modify_liquidity\): "):
        run_scenario(scen)


@pytest.mark.parametrize(("failure", "sink"), [
    (failure, sink) for failure in sorted(_FAILURES) for sink in ("stdout", "out", "python-O")
    if (failure, sink) != ("bad-modify", "stdout")  # the test above
])
def test_failed_run_writes_the_events_before_it_and_an_error_record(failure, sink, tmp_path, capsys):
    failing, error, exit_code, err_start = _FAILURES[failure]
    scen = {"n": 2, "events": _OPENING + [failing] + _TAIL}
    f, trace = tmp_path / "s.json", tmp_path / "t.jsonl"
    f.write_text(json.dumps(scen))
    if sink == "python-O":
        # nothing on the failure path may rest on `assert`, which -O strips
        proc = run_cli_optimized(["run", str(f), "--out", str(trace)])
        code, out, err = proc.returncode, trace.read_text(), proc.stderr
    elif sink == "out":
        code, stdout, err = run_cli(["run", str(f), "--out", str(trace)], capsys)
        assert stdout == ""
        out = trace.read_text()
    else:
        code, out, err = run_cli(["run", str(f)], capsys)
    assert code == exit_code and err.startswith(err_start)
    head = _replayed({"n": 2, "events": _OPENING}, tmp_path)
    assert out == head + _error_line(3, failing.get("op") if isinstance(failing, dict) else None, error, err)


@pytest.mark.parametrize("event, message", [
    ({"op": "settle"}, "event 0 (settle): unknown op 'settle'"),
    ({"what": "price"}, "event 0 (None): op is missing"),
    (["initialize"], "event 0 (None): expected a JSON object with op, got list"),
], ids=["unknown-op", "no-op", "event-list"])
def test_the_op_is_read_before_the_market_must_be_initialized(event, message, tmp_path, capsys):
    # an unknown op used to read as "the market is not initialized yet"
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"n": 2, "events": [event] + _OPENING}))
    code, out, err = run_cli(["run", str(f)], capsys)
    assert (code, err) == (2, f"error: {message}\n")
    op = event.get("op") if isinstance(event, dict) else None
    assert out.splitlines(keepends=True)[1:] == [_error_line(0, op, "UnknownKind", err)]


# a valid scenario, whose events the property test below changes one at a time
_VALID = _OPENING + [
    {"op": "modify_liquidity", "lp": 1, "generator": {"family": "uniswap_v2", "alpha": 1.0}},
    {"op": "quote_completion", "bundle": [0.05, 0.0]},
    {"op": "query", "what": "liabilities"},
    {"op": "query", "what": "budget_imbalance"},
    {"op": "initialize", "generator": _LMSR, "liability": [0.0, 0.0]},
    {"op": "execute_trade", "bundle": [0.0, 0.0]},
]
# a field -> its alternative, and a value for it
_ALTERNATIVES = {"price": ("liability", [0.0, 0.0]), "liability": ("price", [0.5, 0.5]),
                 "target_price": ("bundle", [0.0, 0.0]), "bundle": ("target_price", [0.5, 0.5])}
_JUNK = st.one_of(st.none(), st.text(max_size=4),
                  st.lists(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=2)),
                           max_size=3))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_changed_event_exits_with_a_code_not_a_traceback(data):
    # one event of a valid scenario with a field dropped, a list, string or
    # null in place of a value, or the alternative field added
    events = [dict(ev) for ev in _VALID]
    ev = events[data.draw(st.integers(0, len(events) - 1), label="event")]
    key = data.draw(st.sampled_from(sorted(ev)), label="field")
    change = data.draw(st.sampled_from(["drop", "junk"] + ["alternative"] * (key in _ALTERNATIVES)), label="change")
    if change == "drop":
        del ev[key]
    elif change == "junk":
        ev[key] = data.draw(_JUNK, label="value")
    else:
        alt, value = _ALTERNATIVES[key]
        ev[alt] = value
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "s.json"
        f.write_text(json.dumps({"n": 2, "events": events}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(f), "--out", str(Path(tmp) / "t.jsonl")])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") == (code != 0)


def test_an_unexpected_failure_also_ends_the_trace_with_an_error_record(tmp_path, monkeypatch):
    # main does not report an error that is not a ParmmError, such as a bug;
    # it escapes, but the trace still shows that the run failed
    def fail(*args, **kwargs):
        raise RuntimeError("not a ParmmError")

    monkeypatch.setattr(MarketState, "modify_liquidity", fail)
    failing = {"op": "modify_liquidity", "lp": 1, "generator": _LMSR}
    message = "not a ParmmError"
    f, trace = tmp_path / "s.json", tmp_path / "t.jsonl"
    f.write_text(json.dumps({"n": 2, "events": _OPENING + [failing] + _TAIL}))
    with pytest.raises(RuntimeError) as raised:
        main(["run", str(f), "--out", str(trace)])
    assert str(raised.value) == message
    monkeypatch.undo()
    record = {"event": 3, "op": failing["op"], "error": "RuntimeError", "message": message}
    head = _replayed({"n": 2, "events": _OPENING}, tmp_path)
    assert trace.read_text() == head + json.dumps(record, separators=(",", ":")) + "\n"


# a scenario whose configuration is malformed, and the error it raises;
# n-str and the fee rates used to exit 1 with a traceback, n-fraction to run
# as n = 2, and events-object to write only the meta line
_MALFORMED_CONFIGS = {
    "mode-unknown": ({"n": 2, "mode": "bogus", "events": _OPENING}, "unknown mode 'bogus'"),
    "scheme-unknown": ({"n": 2, "fee": {"scheme": "bogus", "beta": 0.1}, "events": _OPENING},
                       "unknown fee scheme 'bogus'"),
    "scheme-list": ({"n": 2, "fee": {"scheme": ["x"], "beta": 0.1}, "events": _OPENING},
                    "unknown fee scheme ['x']"),
    # the name is checked before a missing or zero rate turns the fee off
    "scheme-unknown-no-rate": ({"n": 2, "fee": {"scheme": "bogus"}, "events": _OPENING}, "unknown fee scheme 'bogus'"),
    "scheme-unknown-zero-rate": ({"n": 2, "fee": {"scheme": "bogus", "beta": 0}, "events": _OPENING},
                                 "unknown fee scheme 'bogus'"),
    "not-an-object": ([{"n": 2, "events": _OPENING}], "a scenario must be an object, got list"),
    "n-str": ({"n": "x", "events": _OPENING}, "n must be an integer >= 2, got 'x'"),
    "n-fraction": ({"n": 2.5, "events": _OPENING}, "n must be an integer >= 2, got 2.5"),
    "n-one": ({"n": 1, "events": _OPENING}, "n must be an integer >= 2, got 1"),
    "n-bool": ({"n": True, "events": _OPENING}, "n must be an integer >= 2, got True"),
    "events-object": ({"n": 2, "events": {}}, "events must be a list, got dict"),
    "events-missing": ({"n": 2}, "events must be a list, got NoneType"),
    "beta-str": ({"n": 2, "fee": {"scheme": "norm-l1", "beta": "x"}, "events": _OPENING},
                 "fee rate must be a number, got 'x'"),
    "beta-str-no-scheme": ({"n": 2, "fee": {"beta": "x"}, "events": _OPENING}, "fee rate must be a number, got 'x'"),
    "fee-list": ({"n": 2, "fee": [], "events": _OPENING}, "fee must be an object, got []"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_CONFIGS))
def test_configuration_error_leaves_no_trace_file(name, tmp_path, capsys):
    scenario, message = _MALFORMED_CONFIGS[name]
    f, trace = tmp_path / "s.json", tmp_path / "t.jsonl"
    f.write_text(json.dumps(scenario))
    assert run_cli(["run", str(f), "--out", str(trace)], capsys) == (2, "", f"error: {message}\n")
    assert not trace.exists()
    with pytest.raises(UnknownKind):
        replay(scenario)


def test_a_known_scheme_at_a_zero_rate_writes_no_fee(tmp_path):
    f, trace = tmp_path / "s.json", tmp_path / "t.jsonl"
    f.write_text(json.dumps({"n": 2, "fee": {"scheme": "norm-l1", "beta": 0}, "events": _OPENING}))
    assert main(["run", str(f), "--out", str(trace)]) == 0
    assert json.loads(trace.read_text().splitlines()[0])["meta"]["fee"] is None


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_report_grid_must_be_positive(grid, tmp_path, capsys):
    # --grid 0 wrote only the header and exited 0
    trace = tmp_path / "t.jsonl"
    main(["run", WALK, "--out", str(trace)])
    assert run_cli(["report", str(trace), "--kind", "liquidity-profile", "--grid", grid], capsys) == (
        2, "", f"error: grid must be a positive integer, got {grid}\n")


def test_reports_read_a_trace_that_ends_in_an_error_record(tmp_path, capsys):
    # the reports skip the error record: they read as on the events before it
    failing, _, _, _ = _FAILURES["bad-modify"]
    events = [{"op": "initialize", "generator": _LMSR, "price": [0.5, 0.5]}, {"op": "register_lp"},
              {"op": "modify_liquidity", "lp": 1, "generator": {"family": "uniswap_v2", "alpha": 1.0}},
              {"op": "execute_trade", "target_price": [0.6, 0.4]}]
    f, failed = tmp_path / "s.json", tmp_path / "failed.jsonl"
    f.write_text(json.dumps({"n": 2, "events": events + [failing] + _TAIL}))
    assert main(["run", str(f), "--out", str(failed)]) == 1
    capsys.readouterr()
    assert '"error":"UnsupportedFamily"' in failed.read_text().splitlines()[-1]
    _replayed({"n": 2, "events": events}, tmp_path)
    for kind in (["price-path"], ["liquidity-profile", "--grid", "7"]):
        want = run_cli(["report", str(tmp_path / "head.jsonl"), "--kind", *kind], capsys)
        assert want[0] == 0 and want[1].count("\n") > 3
        assert run_cli(["report", str(failed), "--kind", *kind], capsys) == want
    # a trace whose first event failed holds no state to report on
    f.write_text(json.dumps({"n": 2, "events": [failing]}))
    assert main(["run", str(f), "--out", str(failed)]) == 2
    capsys.readouterr()
    assert len(failed.read_text().splitlines()) == 2
    for kind in ("price-path", "liquidity-profile"):
        assert run_cli(["report", str(failed), "--kind", kind], capsys) == (
            2, "", "error: the trace has no market state\n")


# a trace edited into a malformed one, and the error a report of it gives
_MALFORMED_TRACES = {
    "line-list": (lambda lines: lines[:2] + ["[1, 2]"] + lines[2:],
                  "expected a JSON object with state or error, got list"),
    "line-number": (lambda lines: lines + ["7"], "expected a JSON object with state or error, got int"),
    "state-without-price": (lambda lines: lines[:-1] + [lines[-1].replace('"price":', '"prices":')], "price is missing"),
    "state-list": (lambda lines: lines[:-1] + [json.dumps({**json.loads(lines[-1]), "state": []})],
                   "expected a JSON object with price, got list"),
    "no-meta": (lambda lines: lines[1:], "meta is missing"),
    "no-state": (lambda lines: lines[:-1] + [lines[-1].replace('"state":', '"states":')], "state or error is missing"),
}


@pytest.mark.parametrize(("name", "kind", "sink"), [
    (name, kind, sink) for name in sorted(_MALFORMED_TRACES)
    for kind in ("price-path", "liquidity-profile") for sink in ("in-process", "python-O")])
def test_a_malformed_trace_exits_2_naming_the_field(name, kind, sink, tmp_path, capsys):
    # a line that is not an object gave a TypeError traceback, and a state
    # without a price "error: 'price'"
    trace = tmp_path / "t.jsonl"
    assert main(["run", WALK, "--out", str(trace)]) == 0
    edit, message = _MALFORMED_TRACES[name]
    trace.write_text("\n".join(edit(trace.read_text().splitlines())) + "\n")
    argv = ["report", str(trace), "--kind", kind]
    if sink == "python-O":
        proc = run_cli_optimized(argv)
        code, err = proc.returncode, proc.stderr
    else:
        code, _, err = run_cli(argv, capsys)
    assert (code, err) == (2, f"error: {message}\n")


def test_one_parser_serves_every_command(tmp_path, capsys):
    # main keeps one parser; a run of commands, a bad flag among them, gives
    # what a fresh parser per call gives
    trace = tmp_path / "t.jsonl"
    calls = [
        ["run", WALK, "--out", str(trace)],
        ["report", str(trace), "--kind", "price-path"],
        ["equivalence", "--n", "2", "--trials", "3", "--seed", "1"],
        ["run", WALK, "--bogus"],
        ["report", str(trace), "--kind", "liquidity-profile", "--grid", "5"],
        ["report", str(trace), "--kind", "nope"],
        ["run", WALK, "--fee", "norm-l2", "--beta", "0.1"],
        ["run", WALK, "--out", str(trace), "--mode", "lenient"],
        ["report", str(trace), "--kind", "price-path"],
    ]

    def outcomes(fresh):
        got = []
        for argv in calls:
            if fresh:
                _build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's exit on a bad flag
                code = ("SystemExit", exc.code)
            out = capsys.readouterr()
            got.append((code, out.out, out.err, trace.read_bytes()))
        return got

    parser = _build_parser()
    kept = outcomes(fresh=False)
    assert _build_parser() is parser
    assert [g[0] for g in kept] == [0, 0, 0, ("SystemExit", 2), 0, ("SystemExit", 2), 0, 0, 0]
    assert outcomes(fresh=True) == kept


def churn_scenario(seed: int, lps: int, events: int) -> dict:
    """Two outcomes, `lps` LPs over four families, then target trades with
    every fifth event replacing a random LP's generator."""
    rng = random.Random(seed)
    u = rng.uniform

    def generator(kind):
        return [{"family": "uniswap_v2", "alpha": u(0.5, 2.0)},
                {"family": "lmsr", "b": u(0.5, 2.0)},
                {"family": "v3_bucket", "a": u(0.05, 0.45), "b": u(0.55, 0.95), "alpha": u(0.5, 2.0)},
                {"family": "brier", "scale": u(0.5, 2.0)}][kind % 4]

    evs = [{"op": "initialize", "generator": _LMSR, "price": 0.5}]
    for lp in range(1, lps + 1):
        evs += [{"op": "register_lp"}, {"op": "modify_liquidity", "lp": lp, "generator": generator(lp)}]
    while len(evs) < events:
        if len(evs) % 5 == 0:
            evs.append({"op": "modify_liquidity", "lp": rng.randrange(1, lps + 1),
                        "generator": generator(rng.randrange(4))})
        else:
            evs.append({"op": "execute_trade", "target_price": u(0.1, 0.9)})
    return {"n": 2, "mode": "lenient", "fee": {"scheme": "norm-l1", "beta": 0.01}, "events": evs}


def test_run_holds_no_trace_in_memory(tmp_path):
    # each line is written as its event completes, so a run's peak stays
    # far below the trace it writes (a run that kept every record until the
    # end peaked at about 4.5 times the trace here)
    scen = churn_scenario(1, lps=8, events=400)
    f, trace = tmp_path / "s.json", tmp_path / "t.jsonl"
    f.write_text(json.dumps(scen))
    assert main(["run", str(f), "--out", str(trace)]) == 0
    tracemalloc.start()
    try:
        assert main(["run", str(f), "--out", str(trace)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = trace.stat().st_size
    assert len(trace.read_text().splitlines()) == 401
    assert peak < size / 2, (peak, size)


# ---------------------------------------------------------------------------
# the trace writer against the old rounding pass
# ---------------------------------------------------------------------------


def _old_round(obj):
    """The rounding pass the trace writer replaced, kept as its oracle."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.ndarray):
        return [_old_round(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _old_round(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_old_round(v) for v in obj]
    return obj


def _oracle(trace) -> str:
    return "".join(json.dumps(_old_round(rec), separators=(",", ":")) + "\n" for rec in trace)


def _written(trace) -> str:
    out = io.StringIO()
    _write_trace(trace, out)
    return out.getvalue()


def every_family_scenario(seed: int) -> dict:
    """Two outcomes, one LP of every descriptor family with seeded
    parameters, target trades, a mid-scenario replacement and every query."""
    rng = random.Random(seed)
    u = rng.uniform
    a, b, m = u(0.1, 0.3), u(0.6, 0.9), u(0.35, 0.65)
    s = u(0.5, 2.0)
    lps = [
        {"family": "uniswap_v2", "alpha": u(0.5, 2.0)},
        {"family": "brier", "scale": u(0.5, 2.0)},
        {"family": "piecewise_poly", "breakpoints": [0.0, m, 1.0], "coefficients": [[0.0, -s, s], [0.0, -s, s]]},
        {"family": "piecewise_liquidity", "breakpoints": [0.0, m, 1.0], "coefficients": [[u(1, 5)], [u(1, 5)]]},
        {"family": "v3_bucket", "a": a, "b": b, "alpha": u(0.5, 2.0)},
        {"family": "lmsr_bucket", "a": a, "b": b, "alpha": u(0.5, 2.0)},
        {"family": "brier_bucket", "a": a, "b": b, "alpha": u(0.5, 2.0)},
        {"family": "bucket", "base": {"family": "lmsr", "b": u(1.5, 3.0)}, "a": a, "b": b, "weight": u(0.5, 2.0)},
        {"family": "bucket_array", "base": {"family": "uniswap_v2", "alpha": 1.0},
         "buckets": [[a, m - 0.05], [m, b]], "weights": [u(0.5, 2.0), 0.0]},
        {"family": "soft_bucket", "knots": [0.0, m, 1.0], "weights": [0.0, u(0.5, 2.0), 0.0]},
        {"family": "piecewise_linear", "grid": [a, b], "weights": [u(0.5, 2.0), u(0.5, 2.0)]},
        {"family": "tabulated_liquidity", "grid": [i / 20 for i in range(21)],
         "values": [1.0 + u(0.0, 1.0) for _ in range(21)]},
        {"family": "constant_product", "n": 2, "alpha": u(0.5, 2.0)},
        {"family": "pair_constant_product", "n": 2, "i": 0, "j": 1, "alpha": u(0.5, 2.0)},
        {"family": "sum", "terms": [{"family": "lmsr", "b": u(0.5, 2.0)}, {"family": "uniswap_v2", "alpha": 1.0}]},
        {"family": "shifted", "inner": {"family": "lmsr", "b": u(0.5, 2.0)}, "shift": [u(-1, 1), u(-1, 1)]},
    ]
    events = [{"op": "initialize", "generator": {"family": "lmsr", "b": u(0.5, 2.0)}, "price": u(0.3, 0.7)}]
    for lp, desc in enumerate(lps, start=1):
        events += [{"op": "register_lp"}, {"op": "modify_liquidity", "lp": lp, "generator": desc}]
    events.append({"op": "register_lp"})  # stays trivial
    for k in range(12):
        events.append({"op": "execute_trade", "target_price": u(0.15, 0.85)})
        if k == 5:
            events.append({"op": "modify_liquidity", "lp": 3, "generator": {"family": "uniswap_v2", "alpha": 1.5}})
    events.append({"op": "quote_completion", "bundle": [u(-0.1, 0.1), 0.0]})
    for what in ("price", "liabilities", "fees", "liquidity", "no_liability", "budget_imbalance"):
        events.append({"op": "query", "what": what})
    return {"n": 2, "mode": "lenient", "fee": {"scheme": "norm-l2", "beta": 0.01}, "events": events}


def three_outcome_scenario(seed: int, fee: str) -> dict:
    """Three outcomes, one LP of every n-outcome family with seeded
    parameters, an LP without liquidity, target trades, a mid-scenario
    replacement and every query."""
    rng = random.Random(seed)
    u = rng.uniform

    def price():
        z = [u(0.5, 2.0) for _ in range(3)]
        return [v / sum(z) for v in z]

    lps = [
        {"family": "lmsr", "b": u(0.5, 2.0)},
        {"family": "constant_product", "alpha": u(0.5, 2.0)},
        {"family": "pair_constant_product", "i": 0, "j": 2, "alpha": u(0.5, 2.0)},
        {"family": "sum", "terms": [{"family": "lmsr", "b": u(0.5, 2.0)}, {"family": "constant_product", "alpha": 1.0}]},
        {"family": "shifted", "inner": {"family": "lmsr", "b": u(0.5, 2.0)}, "shift": [u(-1, 1) for _ in range(3)]},
    ]
    events = [{"op": "initialize", "generator": {"family": "lmsr", "b": u(0.5, 2.0)}, "price": price()}]
    for lp, desc in enumerate(lps, start=1):
        events += [{"op": "register_lp"}, {"op": "modify_liquidity", "lp": lp, "generator": desc}]
    events.append({"op": "register_lp"})  # stays trivial
    for k in range(8):
        events.append({"op": "execute_trade", "target_price": price()})
        if k == 3:
            events.append({"op": "modify_liquidity", "lp": 2, "generator": {"family": "lmsr", "b": 1.5}})
    events.append({"op": "quote_completion", "bundle": [u(-0.1, 0.1), 0.0, u(-0.1, 0.1)]})
    for what in ("price", "liabilities", "fees", "liquidity", "no_liability", "budget_imbalance"):
        events.append({"op": "query", "what": what})
    return {"n": 3, "mode": "lenient", "fee": {"scheme": fee, "beta": 0.01}, "events": events}


@pytest.mark.parametrize("fee", ["norm-l1", "norm-l2", "positive-part"])
def test_three_outcome_run_writes_the_rounding_pass(fee, tmp_path):
    # no path of the split, the fees or the writer may assume two outcomes
    scen = three_outcome_scenario(11, fee)
    path, out = tmp_path / "s.json", tmp_path / "t.jsonl"
    path.write_text(json.dumps(scen))
    assert main(["run", str(path), "--out", str(out)]) == 0
    trace = run_scenario(scen)
    assert out.read_text() == _oracle(trace)
    for rec in trace[1:]:
        if rec["op"] == "execute_trade":
            res = rec["result"]
            assert list(res["parts"]) == [str(i) for i in range(7)]
            assert np.allclose(np.sum(list(res["parts"].values()), axis=0), res["bundle"], atol=1e-12)
            assert np.allclose(res["price_after"], scen["events"][rec["event"]]["target_price"], atol=1e-12)
            assert not np.any(res["parts"]["6"])


def _families(obj) -> set:
    """Every descriptor family named anywhere in obj."""
    if isinstance(obj, dict):
        found = {obj["family"]} if "family" in obj else set()
        return found.union(*map(_families, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_families, obj))
    return set()


def _named_scenario(name: str) -> dict:
    """A scenario file by its stem, `every-family-<seed>` or `three-outcome-<fee>`."""
    if name.startswith("every-family"):
        return every_family_scenario(int(name.rsplit("-", 1)[1]))
    if name.startswith("three-outcome"):
        return three_outcome_scenario(11, name[len("three-outcome-"):])
    with open(os.path.join(SCEN, f"{name}.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["two_lp_walkthrough", "three_asset_fee_imbalance", "every-family-3", "every-family-8",
                                  "three-outcome-norm-l1", "three-outcome-norm-l2", "three-outcome-positive-part"])
def test_trace_writer_matches_the_rounding_pass(name, tmp_path, capsys):
    scen = _named_scenario(name)
    trace = run_scenario(scen)
    want = _oracle(trace)
    assert _written(trace) == want
    # parmm run streams the same bytes, to a file and to stdout
    path, out = tmp_path / "s.json", tmp_path / "t.jsonl"
    path.write_text(json.dumps(scen))
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert out.read_text() == want
    assert run_cli(["run", str(path)], capsys) == (0, want, "")
    if name.startswith("every-family"):
        # brier, piecewise_liquidity, piecewise_linear and tabulated_liquidity
        # load as, and are written as, piecewise_poly
        want = {"bucket", "bucket_array", "sum", "shifted", "piecewise_poly", "lmsr", "uniswap_v2",
                "v3_bucket", "lmsr_bucket", "brier_bucket", "soft_bucket", "constant_product",
                "pair_constant_product", "trivial"}
        assert want <= _families([rec["state"] for rec in trace[1:]])


def test_trace_writer_matches_the_rounding_pass_on_edge_values():
    nan, inf = float("nan"), float("inf")
    edge = [1.0, -1.0, 0.0, -0.0, nan, inf, -inf, 1e16, 1e15, 123456789012345.0, 1e12, 1e-5, 1e-4,
            100.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, np.float64(1 / 3), np.float32(0.1),
            np.float64(-0.0), 3, -7, 2 ** 70, True, False, None, "caf\u00e9 \"q\"\n",
            # whole numbers and zeros, which skip the float round trip
            -5e-324, np.float32(-0.0), -2.0, 1e11, 99999999999.0, 123456789012.4, 999999999999.6]
    lp = {"id": 0, "generator": {"family": "lmsr", "b": -0.0, "n": 2, "w": edge},
          "liability": [nan, -inf], "cash_fees": np.float64(1e-5), "bundle_fees": None}
    # LPs shaped as snapshots write them, holding what snapshots never do
    odd = [
        {**lp, "liability": [1, True, np.float64(2.5), np.float32(0.1), None], "bundle_fees": [[0.5, -0.0], 3]},
        {**lp, "id": True, "liability": [0.0, -0.0, np.float64(-0.0)], "cash_fees": 0,
         "bundle_fees": [5e-324, -5e-324, 1e11, None, False]},
        {**lp, "id": -1, "liability": (1.0, 2, -0.0), "cash_fees": np.float32(-0.0),
         "bundle_fees": np.array([1.0, -0.0, 2.5])},
        {**lp, "id": 2 ** 70, "liability": np.array([[0.1, 0.2], [0.3, -0.0]]), "cash_fees": None, "bundle_fees": []},
        {**lp, "id": 1.5, "liability": [[1.0, [2.0]], 0.0, 1, -0.0, 1e-320], "cash_fees": -0.0,
         "bundle_fees": [np.float64(0.0), 0.0, -0.0]},
    ]
    trace = [
        {"meta": {"version": "x", "n": 2, "fee": None}},
        {"event": 0, "op": "query",
         "result": {"values": edge, "tuple": (1.5, 2), "array": np.array([1.0, nan, -0.0]),
                    "liquidity": {"0": np.array([[1.0, -1.0], [-1.0, 1.0]]) / 3, "1": np.eye(2, dtype=int)}},
         "state": {"price": [np.float64(0.25), 0.75], "lps": [lp, {**lp, "generator": {**lp["generator"], "b": 0.0}}]}},
        # shapes the writer does not expect go through its general path
        {"event": 1, "op": "query", "result": {}, "state": {"price": [0.5], "lps": [{**lp, "extra": 1}, [1.5]]}},
        {"event": 2, "op": "query", "result": {}, "state": {"lps": [], "price": []}},
        {"event": 3, "op": "query", "result": {}, "state": {"price": [0.5], "lps": "none"}},
        {"event": 5, "op": "query", "result": {"zeros": [0.0, -0.0, np.float64(-0.0), 5e-324, -5e-324]},
         "state": {"price": [0.0, -0.0, 1.0], "lps": odd}},
        {"state": {"price": [0.5], "lps": [lp]}, "event": 4, "op": "query", "result": {}},
        {1: 0.5, 2.5: "x", None: True, False: [edge[:3]], nan: -inf},
        [edge, (edge,)],
        edge,
    ]
    assert _written(trace) == _oracle(trace)
    unpicklable = {"event": 0, "op": "query", "result": {},
                   "state": {"price": [], "lps": [{**lp, "generator": {"family": lambda: 0}}]}}
    for bad in ({"x": np.int64(1)}, {(1, 2): 0.0}, {"x": {1.0}}, unpicklable):
        with pytest.raises(TypeError):
            json.dumps(_old_round(bad))
        with pytest.raises(TypeError):
            _written([bad])


def test_trace_descriptors_are_copies(tmp_path):
    # snapshots and trace lines carry each generator's descriptor; a record
    # edited after the replay changes its own line and nothing else
    poly = {"family": "piecewise_poly", "breakpoints": [0.0, 0.5, 1.0],
            "coefficients": [[0.0, -1.0, 1.0], [0.0, -1.0, 1.0]]}
    scen = {
        "n": 2,
        "events": [
            {"op": "initialize", "generator": {"family": "lmsr", "b": 1.0}, "price": [0.5, 0.5]},
            {"op": "register_lp"},
            {"op": "modify_liquidity", "lp": 1, "generator": poly},
            {"op": "execute_trade", "target_price": [0.6, 0.4]},
            {"op": "execute_trade", "target_price": [0.55, 0.45]},
            {"op": "modify_liquidity", "lp": 1, "generator": {"family": "uniswap_v2", "alpha": 2.0}},
            {"op": "execute_trade", "target_price": [0.5, 0.5]},
        ],
    }
    trace = run_scenario(scen)
    descs = [rec["state"]["lps"][1]["generator"] for rec in trace[2:]]
    assert [d["family"] for d in descs] == ["trivial"] + ["piecewise_poly"] * 3 + ["uniswap_v2"] * 2
    assert descs[2] == descs[3] and descs[2] is not descs[3]
    clean = _written(trace).splitlines()
    # 0.0 -> -0.0 compares equal, so only an exact key keeps the edited line apart
    descs[2]["coefficients"][0][0] = -0.0
    descs[2]["breakpoints"].append(2.0)
    edited = _written(trace).splitlines()
    assert edited == _oracle(trace).splitlines()
    changed = [k for k, (a, b) in enumerate(zip(clean, edited)) if a != b]
    assert changed == [4] and '"coefficients":[[-0.0,' in edited[4]
    assert descs[3] == json.loads(clean[5])["state"]["lps"][1]["generator"]

    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5])
    lp = st.register_lp()
    st.modify_liquidity(lp, PiecewisePolyCurve([0.0, 0.5, 1.0], [[0.0, -1.0, 1.0], [0.0, -1.0, 1.0]]))
    G = st.records[lp].generator
    before = G.descriptor()
    snap = st.snapshot()
    snap["lps"][lp]["generator"]["coefficients"][1][2] = 7.0
    snap["lps"][lp]["generator"]["family"] = "edited"
    assert G.descriptor() == before
    assert st.snapshot()["lps"][lp]["generator"] == before
    st.modify_liquidity(lp, UniswapV2Curve(2.0))
    assert st.snapshot()["lps"][lp]["generator"] == {"family": "uniswap_v2", "alpha": 2.0}


def test_trace_parts_run_in_lp_id_order():
    # an LP never filled and one emptied mid-run sit before the LPs holding
    # liquidity; every trade lists each LP's fill and fee in id order
    scen = {
        "n": 2,
        "fee": {"scheme": "norm-l1", "beta": 0.01},
        "events": [
            {"op": "initialize", "generator": {"family": "lmsr", "b": 1.0}, "price": [0.5, 0.5]},
            {"op": "register_lp"},
            {"op": "register_lp"},
            {"op": "modify_liquidity", "lp": 2, "generator": {"family": "lmsr", "b": 2.0}},
            {"op": "register_lp"},
            {"op": "modify_liquidity", "lp": 3, "generator": {"family": "uniswap_v2", "alpha": 1.5}},
            {"op": "execute_trade", "target_price": [0.6, 0.4]},
            {"op": "modify_liquidity", "lp": 0, "generator": {"family": "trivial"}},
            {"op": "execute_trade", "target_price": [0.45, 0.55]},
            {"op": "execute_trade", "target_price": [0.7, 0.3]},
        ],
    }
    lines = [json.loads(line) for line in _written(run_scenario(scen)).splitlines()]
    trades = [rec for rec in lines if rec.get("op") == "execute_trade"]
    assert len(trades) == 3
    for rec in trades:
        assert list(rec["result"]["parts"]) == list(rec["result"]["lp_fees"]) == ["0", "1", "2", "3"]
    for rec in trades[1:]:
        assert rec["result"]["parts"]["0"] == rec["result"]["parts"]["1"] == [0.0, 0.0]
        assert rec["result"]["parts"]["2"] != [0.0, 0.0]


# sha256 of the trace `parmm run` writes for each scenario
_TRACE_DIGESTS = {
    "two_lp_walkthrough": "36a586ca01682b4f9c765ef5c0145e7da010cc21dd01488d67a7e58dadd0e9f6",
    "three_asset_fee_imbalance": "2819df4b8e2416fefb9772bfc28a1d70f1ef2c2ad2e52062ea18fade690d5ce6",
    "every-family-3": "e926537038f342aef04f7fa7ef84f3737ecf381a39934f8336d9792f98d05a32",
    "every-family-5": "ffa24c1403f5dabfaccbe5531c0ceb07bbcca79d97eec927a2c27d30c3fda070",
    "every-family-8": "c23b7cfc26eeeb923572c28af5dd74593ce759706bd5b8892ff0336968940cda",
    "three-outcome-norm-l1": "9d4675bac04a23be3197156ce06dbb08ed8a4ea564530eb2ead63267826b162f",
    "three-outcome-norm-l2": "6816efdc23e8efa17d01d5da78a4515f55d3db153d008aec4ef55c99393566ec",
    "three-outcome-positive-part": "25f50d7c0ffe049a293c451a4eb9817ba7ba02332b6ae943c711edd4846622ff",
}


@pytest.mark.parametrize("name", sorted(_TRACE_DIGESTS))
def test_successful_traces_keep_their_bytes(name, tmp_path):
    scen = _named_scenario(name)
    digest = hashlib.sha256(_replayed(scen, tmp_path).encode()).hexdigest()
    assert digest == _TRACE_DIGESTS[name], (
        f"the trace of {name} changed; re-record its digest only when the change is meant to move "
        "outputs, and list that change in CHANGES.md")


def test_run_under_python_O_writes_the_same_bytes(tmp_path):
    # nothing in the writer may rest on `assert`, which -O strips
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(every_family_scenario(5)))
    here, there = tmp_path / "in.jsonl", tmp_path / "O.jsonl"
    assert main(["run", str(scen), "--out", str(here)]) == 0
    out = run_cli_optimized(["run", str(scen), "--out", str(there)])
    assert out.returncode == 0, out.stderr
    assert there.read_bytes() == here.read_bytes()
