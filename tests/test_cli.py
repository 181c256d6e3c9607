"""End-to-end command line tests against temp files."""

import csv
import datetime
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from tangled_string import (
    EvalParams,
    LayoutParams,
    RegimeSpec,
    SyntheticSpec,
    TangleParams,
    emit_json,
    from_plain,
    generate_synthetic,
    key_pill_events,
    schema_text,
    tangle,
)
from tangled_string.cli import MAX_RANGE_WIDTHS, build_parser, cli_main

from dot_checker import parse_dot
from eval_scenario import pure_step_prices, week

DEMO = ["1", "2", "3", "2", "3", "4", "3", "4", "5", "6", "2", "5", "6", "7"]
GOLDEN = Path(__file__).parent / "golden"


def demo_csv(tmp_path, name="demo.csv"):
    start = datetime.date(2020, 1, 3)
    lines = [
        f"{(start + datetime.timedelta(weeks=k)).isoformat()},{token}"
        for k, token in enumerate(DEMO)
    ]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def scenario_csv(tmp_path):
    rows = []
    for k in range(16):
        pair = "A,B" if k < 8 else "C,D"
        rows.append(f"{week(k).isoformat()},{pair}")
    baskets = tmp_path / "scenario.csv"
    baskets.write_text("\n".join(rows) + "\n", encoding="utf-8")

    price_rows = []
    for symbol, observations in sorted(pure_step_prices().items()):
        for day, value in observations:
            price_rows.append(f"{day.isoformat()},{symbol},{value}")
    prices = tmp_path / "prices.csv"
    prices.write_text("\n".join(price_rows) + "\n", encoding="utf-8")
    return str(baskets), str(prices)


# ------------------------------------------------------------------ tangle


def test_tangle_json_stdout(tmp_path, capsys):
    code = cli_main(
        ["tangle", "--input", demo_csv(tmp_path), "--window", "6", "--variant", "plain"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"] == {"window": 6, "variant": "plain"}
    spans = [(p["first"], p["last"]) for p in doc["pills"]]
    assert spans == [(2, 8), (9, 13)]
    assert doc["events"][0]["date"] == "2020-01-03"


def test_tangle_writes_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = cli_main(
        [
            "tangle",
            "--input",
            demo_csv(tmp_path),
            "--window",
            "6",
            "--variant",
            "plain",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text)["length"] == 14


def test_tangle_dot_output(tmp_path, capsys):
    code = cli_main(
        [
            "tangle",
            "--input",
            demo_csv(tmp_path),
            "--window",
            "6",
            "--variant",
            "plain",
            "--format",
            "dot",
        ]
    )
    assert code == 0
    graph = parse_dot(capsys.readouterr().out)
    assert [s.name for s in graph.subgraphs] == ["cluster_pill_1", "cluster_pill_2"]


def test_layout_includes_coordinates(tmp_path, capsys):
    code = cli_main(
        [
            "layout",
            "--input",
            demo_csv(tmp_path),
            "--window",
            "6",
            "--variant",
            "plain",
            "--stretch-iterations",
            "5",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["layout"]["positions"]) == 14
    assert len(doc["layout"]["groups"]) == 8


def distinct_tokens_csv(tmp_path, count=3000):
    start = datetime.date(2000, 1, 1)
    path = tmp_path / "distinct.csv"
    path.write_text(
        "".join(f"{start + datetime.timedelta(days=k)},t{k}\n" for k in range(count)),
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize(
    "input_csv, option, value",
    [(demo_csv, "--stretch-step", "1e200"),
     (distinct_tokens_csv, "--extension-a", "2")],
)
def test_layout_that_leaves_the_plane_is_usage_error(tmp_path, capsys, input_csv, option, value):
    out = tmp_path / "layout.json"
    code = cli_main(
        ["layout", "--input", input_csv(tmp_path), "--window", "6", "--variant", "plain",
         "--stretch-iterations", "5", option, value, "--out", str(out)]
    )
    assert code == 1
    assert f"usage error: {option}" in capsys.readouterr().err
    assert not out.exists()


def test_basket_variant_is_default(tmp_path, capsys):
    # One multi-item basket per row, the format the tool is built around.
    path = tmp_path / "baskets.csv"
    path.write_text(
        "2020-01-03,A,B\n2020-01-10,C,A\n2020-01-17,D,E\n2020-01-24,B,D\n",
        encoding="utf-8",
    )
    code = cli_main(["tangle", "--input", str(path), "--window", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["variant"] == "basket"
    assert [(p["first"], p["last"]) for p in doc["pills"]] == [(1, 4), (5, 8)]


# ------------------------------------------------------------- exit codes


def test_missing_window_is_usage_error(tmp_path, capsys):
    code = cli_main(["tangle", "--input", demo_csv(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "--window" in err


def test_zero_window_is_usage_error(tmp_path, capsys):
    code = cli_main(["tangle", "--input", demo_csv(tmp_path), "--window", "0"])
    assert code == 1
    assert ">= 1" in capsys.readouterr().err


def test_backwards_window_range_is_usage_error(tmp_path, capsys):
    code = cli_main(
        ["sweep", "--input", demo_csv(tmp_path), "--windows", "6..4", "--out-dir", str(tmp_path)]
    )
    assert code == 1
    assert "N..M" in capsys.readouterr().err


def test_bad_date_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("not-a-date,X\n", encoding="utf-8")
    code = cli_main(["tangle", "--input", str(path), "--window", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert "line 1" in err


def test_itemless_basket_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("2020-01-03,X\n2020-01-10\n", encoding="utf-8")
    code = cli_main(["tangle", "--input", str(path), "--window", "2"])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_backwards_basket_date_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("2020-01-10,X\n2020-01-03,Y\n", encoding="utf-8")
    code = cli_main(["tangle", "--input", str(path), "--window", "2"])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("day", ["20070706", "2007-W27-5", "２００７.7.6"])
def test_date_outside_the_grammar_is_input_error(tmp_path, capsys, day):
    path = tmp_path / "bad.csv"
    path.write_text(f"2007-06-29,X\n{day},Y\n", encoding="utf-8")
    code = cli_main(["tangle", "--input", str(path), "--window", "2"])
    assert code == 2
    assert "line 2: unparseable date" in capsys.readouterr().err


def test_missing_input_file(tmp_path, capsys):
    code = cli_main(
        ["tangle", "--input", str(tmp_path / "nope.csv"), "--window", "2"]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


# -------------------------------------------------------------------- sweep


def test_sweep_writes_documents_and_summary(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = cli_main(
        [
            "sweep",
            "--input",
            demo_csv(tmp_path),
            "--variant",
            "plain",
            "--windows",
            "1,6,7",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    for w in (1, 6, 7):
        assert (out_dir / f"tangle_w{w}.json").exists()
    summary = (out_dir / "sweep_summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary[0] == "window,pill_count,mean_span,time_resolution"
    assert summary[1] == "1,0,,"
    assert summary[2] == "6,2,5.000,7.000"
    assert summary[3] == "7,1,11.000,14.000"


@pytest.mark.parametrize(
    "option, value, message",
    [("--key-events", "0", "k must be >= 1, got 0"),
     ("--windows", "0..3", "windows must all be >= 1"),
     ("--windows", ",", "windows must be non-empty"),
     # refused before a width is allocated: no MemoryError, no OverflowError
     ("--windows", "1..1000000000000", f"at most {MAX_RANGE_WIDTHS} widths"),
     ("--windows", "1.." + "9" * 30, f"at most {MAX_RANGE_WIDTHS} widths")],
)
def test_sweep_options_are_checked_when_parsed(tmp_path, capsys, option, value, message):
    out_dir = tmp_path / "sweep"
    code = cli_main(["sweep", "--input", demo_csv(tmp_path), "--windows", "6",
                     "--out-dir", str(out_dir), option, value])
    assert code == 1
    err = capsys.readouterr().err
    assert f"usage error: tangled sweep: argument {option}: " in err
    assert message in err
    assert not out_dir.exists()


def test_window_range_limit_is_inclusive(tmp_path, capsys):
    argv = ["sweep", "--input", str(tmp_path / "missing.csv"), "--windows"]
    widest = build_parser().parse_args([*argv, f"1..{MAX_RANGE_WIDTHS}"]).windows
    assert widest == tuple(range(1, MAX_RANGE_WIDTHS + 1))
    assert cli_main([*argv, f"1..{MAX_RANGE_WIDTHS + 1}"]) == 1
    assert f"at most {MAX_RANGE_WIDTHS} widths" in capsys.readouterr().err


def test_sweep_range_syntax(tmp_path):
    out_dir = tmp_path / "sweep"
    code = cli_main(
        [
            "sweep",
            "--input",
            demo_csv(tmp_path),
            "--variant",
            "plain",
            "--windows",
            "5..7",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.glob("tangle_w*.json"))
    assert names == ["tangle_w5.json", "tangle_w6.json", "tangle_w7.json"]


# --------------------------------------------------------------------- eval


def test_eval_csv_table(tmp_path, capsys):
    baskets, prices = scenario_csv(tmp_path)
    code = cli_main(
        [
            "eval",
            "--input",
            baskets,
            "--prices",
            prices,
            "--windows",
            "3,4",
            "--deltas",
            "3",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "role,delta_months,metric,count,fraction"
    assert "entrance,3.0,increase,2,1.0000" in lines
    assert "entrance,3.0,increase_gt_sigma,2,1.0000" in lines
    assert "exit,3.0,decrease,1,1.0000" in lines


def test_eval_json_table(tmp_path, capsys):
    baskets, prices = scenario_csv(tmp_path)
    code = cli_main(
        [
            "eval",
            "--input",
            baskets,
            "--prices",
            prices,
            "--windows",
            "3,4",
            "--deltas",
            "3,6",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pairs"] == {"entrance": 2, "exit": 2}
    assert len(doc["cells"]) == 4


@pytest.mark.parametrize("deltas", ["nan", "inf", "3,-inf", "0"])
def test_non_finite_or_non_positive_delta_is_usage_error(tmp_path, capsys, deltas):
    baskets, prices = scenario_csv(tmp_path)
    code = cli_main(["eval", "--input", baskets, "--prices", prices, "--deltas", deltas])
    assert code == 1
    assert "deltas must all be positive and finite" in capsys.readouterr().err


def test_horizon_past_the_calendar_runs_to_its_edge(tmp_path):
    def cell_counts(delta):
        out = tmp_path / f"eval_{delta}.json"
        args = ["--input", str(GOLDEN / "synth.csv"), "--prices", str(GOLDEN / "eval_prices.csv")]
        code = cli_main(["eval", *args, "--deltas", delta, "--format", "json", "--out", str(out)])
        assert code == 0
        cells = json.loads(out.read_text(encoding="utf-8"))["cells"]
        return [{k: v for k, v in cell.items() if k != "delta_months"} for cell in cells]

    # 100 years already covers every price; the longer ones leave the calendar
    counts = cell_counts("1200")
    assert sum(cell["evaluated"] for cell in counts) > 0
    assert cell_counts("30000") == counts
    assert cell_counts("1e9") == counts


GOLDEN_EVAL = ["--input", str(GOLDEN / "synth.csv"), "--prices", str(GOLDEN / "eval_prices.csv")]


def golden_eval(tmp_path, *options):
    """The text ``eval`` writes for the golden baskets and prices."""
    out = tmp_path / "eval.out"
    assert cli_main(["eval", *GOLDEN_EVAL, *options, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def test_eval_repeated_horizon_is_one_cell(tmp_path):
    once = golden_eval(tmp_path, "--deltas", "3", "--format", "csv")
    assert golden_eval(tmp_path, "--deltas", "3,3", "--format", "csv") == once


@pytest.mark.parametrize("sigma", [[], ["--no-sigma"]])
def test_eval_csv_is_the_json_cells_flattened(tmp_path, sigma):
    options = ["--deltas", "12,3,3", *sigma]
    rows = list(csv.reader(io.StringIO(golden_eval(tmp_path, *options, "--format", "csv"))))
    cells = json.loads(golden_eval(tmp_path, *options, "--format", "json"))["cells"]
    metrics = ["decrease", "increase"] + ([] if sigma else ["increase_gt_sigma"])
    assert rows[0] == ["role", "delta_months", "metric", "count", "fraction"]
    assert rows[1:] == [
        [c["role"], str(c["delta_months"]), m, str(c[m]), f"{c[m + '_fraction']:.4f}"]
        for c in cells
        for m in metrics
    ]
    assert [c["delta_months"] for c in cells] == [3.0, 12.0] * 2


def test_horizon_that_rounds_to_no_days_is_usage_error(tmp_path, capsys):
    out = tmp_path / "eval.csv"
    code = cli_main(["eval", *GOLDEN_EVAL, "--deltas", "0.1", "--out", str(out)])
    assert code == 1
    assert "deltas must all be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value",
    [("--windows", "0,2"), ("--deltas", "x"), ("--windows", ","),
     ("--windows", "1..1000000000000")],
)
def test_eval_options_are_checked_when_parsed(tmp_path, capsys, option, value):
    code = cli_main(["eval", *GOLDEN_EVAL, option, value])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_eval_no_sigma_drops_rows(tmp_path, capsys):
    baskets, prices = scenario_csv(tmp_path)
    code = cli_main(
        [
            "eval",
            "--input",
            baskets,
            "--prices",
            prices,
            "--windows",
            "3",
            "--deltas",
            "3",
            "--no-sigma",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "increase_gt_sigma" not in out


def test_eval_bad_price_row(tmp_path, capsys):
    baskets, _ = scenario_csv(tmp_path)
    prices = tmp_path / "prices.csv"
    prices.write_text("2010-01-01,A,-5\n", encoding="utf-8")
    code = cli_main(
        ["eval", "--input", baskets, "--prices", str(prices), "--windows", "3", "--deltas", "3"]
    )
    assert code == 2
    assert "line 1" in capsys.readouterr().err


# -------------------------------------------------------------------- synth


def synth_spec(tmp_path, **overrides):
    spec = {
        "regimes": [
            {"vocabulary": ["a1", "a2", "a3"], "length_baskets": 10, "repeat_rate": 0.6},
            {"vocabulary": ["b1", "b2", "b3"], "length_baskets": 10, "repeat_rate": 0.6},
        ],
        "seed": 7,
        "basket_size": 3,
    }
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def test_synth_deterministic_output(tmp_path):
    spec = synth_spec(tmp_path)
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    bounds = tmp_path / "bounds.json"
    assert cli_main(["synth", "--spec", spec, "--out", str(out1), "--boundaries-out", str(bounds)]) == 0
    assert cli_main(["synth", "--spec", spec, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text(encoding="utf-8").splitlines()) == 20
    assert json.loads(bounds.read_text(encoding="utf-8")) == {"boundaries": [10]}


def test_synth_spec_leaves_defaults_to_the_dataclasses(tmp_path):
    regimes = [{"vocabulary": ["a", "b", "c"], "length_baskets": 4},
               {"vocabulary": ["x", "y"], "length_baskets": 3}]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"regimes": regimes}), encoding="utf-8")
    out = tmp_path / "synth.csv"
    assert cli_main(["synth", "--spec", str(path), "--out", str(out)]) == 0

    spec = SyntheticSpec(regimes=tuple(
        RegimeSpec(vocabulary=tuple(r["vocabulary"]), length_baskets=r["length_baskets"])
        for r in regimes
    ))
    seq, _ = generate_synthetic(spec)
    buffer = io.StringIO()
    csv.writer(buffer).writerows(
        [label, *basket] for label, basket in zip(seq.time_labels, seq.baskets())
    )
    assert out.read_bytes() == buffer.getvalue().encode("utf-8")


def test_synth_seed_override(tmp_path):
    spec = synth_spec(tmp_path)
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert cli_main(["synth", "--spec", spec, "--out", str(out1)]) == 0
    assert cli_main(["synth", "--spec", spec, "--seed", "99", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_synth_output_feeds_back_into_tangle(tmp_path, capsys):
    spec = synth_spec(tmp_path)
    out = tmp_path / "synth.csv"
    assert cli_main(["synth", "--spec", spec, "--out", str(out)]) == 0
    code = cli_main(["tangle", "--input", str(out), "--window", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["baskets"] == 20


# tokens that a CSV cell carries unchanged: no whitespace at the ends, no NUL
csv_tokens = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")), min_size=1, max_size=3
)
regimes = st.builds(
    RegimeSpec,
    vocabulary=st.lists(csv_tokens, min_size=1, max_size=4).map(tuple),
    length_baskets=st.integers(1, 8),
    repeat_rate=st.floats(0, 1),
)
specs = st.builds(
    SyntheticSpec,
    regimes=st.lists(regimes, min_size=1, max_size=3).map(tuple),
    noise_rate=st.floats(0, 1),
    seed=st.integers(0, 2**32),
    basket_size=st.integers(1, 4),
    start_date=st.dates(datetime.date(1990, 1, 1), datetime.date(2030, 1, 1)).map(str),
)


@settings(deadline=None, max_examples=40)
@given(spec=specs, window=st.integers(1, 4), variant=st.sampled_from(["plain", "basket"]))
def test_synth_then_tangle_matches_a_library_run(spec, window, variant):
    raw = {
        "regimes": [
            {"vocabulary": list(r.vocabulary), "length_baskets": r.length_baskets,
             "repeat_rate": r.repeat_rate}
            for r in spec.regimes
        ],
        "noise_rate": spec.noise_rate,
        "seed": spec.seed,
        "basket_size": spec.basket_size,
        "start_date": spec.start_date,
    }
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, baskets, document = (Path(tmp) / n for n in ("s.json", "b.csv", "d.json"))
        spec_path.write_text(json.dumps(raw), encoding="utf-8")
        assert cli_main(["synth", "--spec", str(spec_path), "--out", str(baskets)]) == 0
        code = cli_main(["tangle", "--input", str(baskets), "--window", str(window),
                         "--variant", variant, "--format", "json", "--out", str(document)])
        assert code == 0
        text = document.read_text(encoding="utf-8")
    jsonschema.Draft7Validator(json.loads(schema_text())).validate(json.loads(text))
    seq, _ = generate_synthetic(spec)
    assert text == emit_json(tangle(seq, TangleParams(window, variant)))


def test_synth_invalid_json_spec(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text("{not json", encoding="utf-8")
    code = cli_main(["synth", "--spec", str(path)])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_synth_incomplete_spec(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"seed": 1}), encoding="utf-8")
    code = cli_main(["synth", "--spec", str(path)])
    assert code == 2
    assert "bad synthetic spec" in capsys.readouterr().err


# ------------------------------------------------------------ format flags


def test_tab_delimited_input(tmp_path, capsys):
    path = tmp_path / "demo.tsv"
    path.write_text("2020-01-03\tA\tB\n2020-01-10\tC\tA\n", encoding="utf-8")
    code = cli_main(["tangle", "--input", str(path), "--window", "2", "--delimiter", "\t"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["length"] == 4


def test_header_row_skipped(tmp_path, capsys):
    path = tmp_path / "demo.csv"
    path.write_text("date,items\n2020-01-03,A,B\n2020-01-10,C,A\n", encoding="utf-8")
    code = cli_main(["tangle", "--input", str(path), "--window", "2", "--header"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["baskets"] == 2


def test_dotted_dates_accepted(tmp_path, capsys):
    path = tmp_path / "demo.csv"
    path.write_text("2007.7.6,A,B\n2007.7.13,C,A\n", encoding="utf-8")
    code = cli_main(["tangle", "--input", str(path), "--window", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["events"][0]["date"] == "2007-07-06"


# ------------------------------------------------------------- entry point


def test_module_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "tangled_string.cli",
            "tangle",
            "--input",
            demo_csv(tmp_path),
            "--window",
            "6",
            "--variant",
            "plain",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["length"] == 14


def test_no_arguments_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "tangled_string.cli"], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert "usage error" in proc.stderr


# --------------------------------------------------- strict input handling


def test_undecodable_baskets_are_input_error(tmp_path, capsys):
    # 0xff and 0xfe would both decode to U+FFFD under replacement and match
    path = tmp_path / "bad.csv"
    path.write_bytes(b"2020-01-03,A\r\n2020-01-10,\xff\r\n2020-01-17,\xfe\r\n")
    code = cli_main(["tangle", "--input", str(path), "--window", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert "line 2" in err
    assert "UTF-8" in err


def test_undecodable_prices_are_input_error(tmp_path, capsys):
    baskets, _ = scenario_csv(tmp_path)
    prices = tmp_path / "prices.csv"
    prices.write_bytes(b"2010-01-01,A,5\n2010-01-08,A,6\n2010-01-15,\xc3,7\n")
    code = cli_main(
        ["eval", "--input", baskets, "--prices", str(prices), "--windows", "3", "--deltas", "3"]
    )
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_undecodable_synth_spec_is_input_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(b'{"seed": 1,\n "regimes": "\xff"}\n')
    code = cli_main(["synth", "--spec", str(path)])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [{"start_date": "garbage"}, {"start_date": 5},
     {"regimes": [{"vocabulary": ["a", ""], "length_baskets": 3}]},
     {"regimes": [{"vocabulary": ["a", "b"], "length_baskets": 3}], "start_date": "9999-12-24"},
     {"start_date": None},
     {"regimes": [{"vocabulary": ["a", "b"], "length_baskets": 0}]},
     {"regimes": [{"vocabulary": ["a", "b"], "length_baskets": 3, "repeat_rate": 1.5}]},
     {"noise_rate": -0.1}, {"basket_size": 0}],
)
def test_synth_bad_spec_values_are_input_errors(tmp_path, capsys, overrides):
    code = cli_main(["synth", "--spec", synth_spec(tmp_path, **overrides)])
    assert code == 2
    assert "bad synthetic spec" in capsys.readouterr().err


def test_internal_value_error_is_not_a_usage_error(tmp_path, monkeypatch):
    def broken(*_args):
        raise ValueError("bug")

    monkeypatch.setattr("tangled_string.cli.tangle", broken)
    with pytest.raises(ValueError, match="bug"):
        cli_main(["tangle", "--input", demo_csv(tmp_path), "--window", "6"])


@pytest.mark.parametrize(
    "option, value", [("--stretch-iterations", "-1"), ("--stretch-step", "0"),
                      ("--stretch-step", "nan"), ("--extension-a", "nan"),
                      ("--extension-a", "-inf"), ("--window", "abc"),
                      ("--stretch-step", "abc")]
)
def test_stretch_options_are_checked_when_parsed(tmp_path, capsys, option, value):
    code = cli_main(["layout", "--input", demo_csv(tmp_path), "--window", "6", option, value])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_negative_value_apart_from_its_option_writes_the_same_bytes(tmp_path):
    outputs = []
    for given_value in (["--extension-a", "-1e-3"], ["--extension-a=-1e-3"]):
        out = tmp_path / f"layout{len(outputs)}.json"
        code = cli_main(["layout", "--input", str(GOLDEN / "demo.csv"), "--window", "6",
                         *given_value, "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _key_events_rule(k):
    key_pill_events(tangle(from_plain(DEMO), TangleParams(6, "plain")), k)


def _windows_rule(width):
    EvalParams(windows=(width,))


# each numeric option, the cast its text takes, and the library rule that takes the value
NUMERIC_OPTIONS = [
    pytest.param("tangle", "--window", int, TangleParams, id="tangle--window"),
    pytest.param("tangle", "--key-events", int, _key_events_rule, id="tangle--key-events"),
    pytest.param("sweep", "--key-events", int, _key_events_rule, id="sweep--key-events"),
    pytest.param("layout", "--extension-a", float, lambda a: LayoutParams(a=a),
                 id="layout--extension-a"),
    pytest.param("layout", "--stretch-iterations", int,
                 lambda n: LayoutParams(stretch_iterations=n), id="layout--stretch-iterations"),
    pytest.param("layout", "--stretch-step", float, lambda step: LayoutParams(stretch_step=step),
                 id="layout--stretch-step"),
    pytest.param("sweep", "--windows", int, _windows_rule, id="sweep--windows"),
    pytest.param("eval", "--windows", int, _windows_rule, id="eval--windows"),
    pytest.param("eval", "--deltas", float, lambda d: EvalParams(deltas_months=(d,)),
                 id="eval--deltas"),
]


def _refusal(cast, rule, text):
    """None if ``rule`` takes ``text`` cast, else the message the CLI should quote.

    That is the rule's own message, or "" for text that is no number of the
    option's kind (the CLI words that one itself).
    """
    try:
        value = cast(text)
    except ValueError:
        return ""
    try:
        rule(value)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("joined", [True, False], ids=["joined", "apart"])
@pytest.mark.parametrize(
    "value", ["0", "1", "-1", "1e-300", "-1e-3", "nan", "inf", "-inf", "abc"]
)
@pytest.mark.parametrize("command, option, cast, rule", NUMERIC_OPTIONS)
def test_option_is_refused_exactly_when_the_library_refuses_it(
    tmp_path, capsys, command, option, cast, rule, value, joined
):
    refusal = _refusal(cast, rule, value)
    # a refused value is reported before the (here missing) input files are opened
    folder = GOLDEN if refusal is None else tmp_path
    needed = {
        "tangle": ["--window", "3"],
        "layout": ["--window", "3"],
        "sweep": ["--windows", "3", "--out-dir", str(tmp_path / "sweep")],
        "eval": ["--prices", str(folder / "eval_prices.csv")],
    }[command]
    out = [] if command == "sweep" else ["--out", str(tmp_path / "out")]
    # a negative number is a value even apart from its option: "--option -1e-3"
    given_value = [f"{option}={value}"] if joined else [option, value]
    code = cli_main([command, "--input", str(folder / "synth.csv"), *needed, *out, *given_value])
    err = capsys.readouterr().err
    if refusal is None:
        assert code == 0, err
    else:
        assert code == 1
        assert f"usage error: tangled {command}: argument {option}: {refusal}" in err


@pytest.mark.parametrize(
    "argv",
    [["tangle", "--stretch-iterations", "3"], ["tangle", "--extension-a", "2"],
     ["layout", "--format", "dot"], ["tangle", "--date-style", "iso"]],
)
def test_options_each_command_ignores_are_rejected(tmp_path, capsys, argv):
    code = cli_main([*argv, "--input", demo_csv(tmp_path), "--window", "6"])
    assert code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_dot_needs_no_layout(tmp_path, capsys, monkeypatch):
    def unused(*_args):
        raise AssertionError("DOT computed a layout")

    monkeypatch.setattr("tangled_string.cli.assign_positions", unused)
    monkeypatch.setattr("tangled_string.cli.stretch", unused)
    code = cli_main(["tangle", "--input", demo_csv(tmp_path), "--window", "6", "--format", "dot"])
    assert code == 0
    assert capsys.readouterr().out.startswith("digraph tangle {")
