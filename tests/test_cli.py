"""CLI: scenario replay determinism, reports, exit codes."""

import json
import os

import pytest

from parmm.cli import main, run_scenario
from parmm.errors import UnknownKind

SCEN = os.path.join(os.path.dirname(__file__), "..", "scenarios")
WALK = os.path.join(SCEN, "two_lp_walkthrough.json")
THREE = os.path.join(SCEN, "three_asset_fee_imbalance.json")


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_equivalence_command(capsys):
    code, out, _ = run_cli(["equivalence", "--n", "2", "--trials", "20", "--seed", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and report["failures"] == 0


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
    with pytest.raises(UnknownKind):
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
