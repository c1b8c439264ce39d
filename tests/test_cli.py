import contextlib
import csv
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electaudit.cli import main


def _contest(tmp_path):
    p = tmp_path / "contest.csv"
    p.write_text("party,reported_votes\nA,5200\nB,4500\n__invalid__,300\n")
    return p


def test_margins_prints_table(tmp_path, capsys):
    rc = main(["margins", "--contest", str(_contest(tmp_path))])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["assertion", "margin", "margin_pct"]
    assert rows[1][0] == "plurality:A>B"
    assert int(rows[1][1]) == 350


def test_margins_knesset_weaken(tmp_path, capsys):
    contest = tmp_path / "contest.csv"
    contest.write_text("party,reported_votes\nP1,500\nP2,380\n__invalid__,20\n")
    kcfg = tmp_path / "k.json"
    kcfg.write_text(json.dumps({"parties": ["P1", "P2"], "seats": 9}))
    rc = main(
        ["margins", "--contest", str(contest), "--knesset", str(kcfg), "--weaken", "P1:P2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "no-seat-move:P2->P1 (one-seat)" in out


def _knesset_inputs(tmp_path):
    contest = tmp_path / "contest.csv"
    contest.write_text("party,reported_votes\nP1,500\nP2,380\n__invalid__,20\n")
    kcfg = tmp_path / "k.json"
    kcfg.write_text(json.dumps({"parties": ["P1", "P2"], "seats": 9}))
    return contest, kcfg


def test_margins_unknown_weaken_pair_exits_2(tmp_path, capsys):
    contest, kcfg = _knesset_inputs(tmp_path)
    argv = ["margins", "--contest", str(contest), "--knesset", str(kcfg), "--weaken", "Nope:P2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "audit: error: weaken pair names no move-seat assertion: Nope:P2" in captured.err


def test_run_unknown_weaken_pair_exits_2(tmp_path, capsys):
    contest, kcfg = _knesset_inputs(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "audit": "batchcomp",
                "contest": str(contest),
                "knesset": str(kcfg),
                "batches": {"generate": {"sizes": [100] * 9}},
                "weaken": [["P1", "P2"], ["P2", "Nope"]],
                "trials": 2,
            }
        )
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "audit: error: weaken pair names no move-seat assertion: P2:Nope" in err


def test_run_subcommand_writes_outputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "audit": "alpha_batch",
                "contest": str(_contest(tmp_path)),
                "batches": {"generate": {"sizes": [500] * 20}},
                "alpha": 0.05,
                "trials": 2,
            }
        )
    )
    rc = main(["run", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out/results.csv").exists()
    assert (tmp_path / "out/run_meta.json").exists()


def test_run_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"audit": "nope"}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2


def test_run_bad_batch_size_range_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "audit": "batchcomp",
                "contest": str(_contest(tmp_path)),
                "batches": {"generate": {"size_range": [-10, 0]}},
                "trials": 2,
            }
        )
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "audit: error: batch size range (-10, 0) must start at 1 or more" in capsys.readouterr().err


def test_census_file_mode(tmp_path, capsys):
    districts = tmp_path / "d.csv"
    districts.write_text("district,population,c_constant\nX,13,0\nY,5,0\n")
    households = tmp_path / "h.csv"
    rows = ["household_id,district,census_count,pes_count,surveyed"]
    counts_x = [3, 2, 2, 1, 3, 2]
    counts_y = [1, 1, 2, 1]
    for i, c in enumerate(counts_x):
        rows.append(f"x{i},X,{c},{c},1")
    for i, c in enumerate(counts_y):
        rows.append(f"y{i},Y,{c},{c},1")
    households.write_text("\n".join(rows) + "\n")
    rc = main(
        [
            "census",
            "--model",
            str(districts),
            "--households",
            str(households),
            "--representatives",
            "3",
            "--g-max",
            "3",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    out_rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert out_rows[0] == ["pair_s1", "pair_s2", "risk_limit"]
    assert out_rows[-1][0] == "OVERALL"
    saved = (tmp_path / "out/census_risks.csv").read_text()
    assert "OVERALL" in saved


def test_census_mode_conflicts(tmp_path):
    districts = tmp_path / "d.csv"
    districts.write_text("district,population,c_constant\nX,13,0\n")
    assert main(["census", "--model", str(districts)]) == 2


def test_census_generate_requires_args(tmp_path):
    districts = tmp_path / "d.csv"
    districts.write_text("district,population,c_constant\nX,13,0\n")
    assert main(["census", "--model", str(districts), "--generate"]) == 2


def _generated_census_inputs(tmp_path):
    districts = tmp_path / "d.csv"
    districts.write_text("district,population,c_constant\nX,4100,0\nY,2300,0\nZ,1700,0\n")
    sizes = tmp_path / "sizes.csv"
    sizes.write_text("size,probability\n1,0.4\n2,0.4\n3,0.2\n")
    return ["census", "--model", str(districts), "--generate", "--household-dist", str(sizes),
            "--representatives", "5", "--trials", "2", "--out", str(tmp_path / "out")]


def test_census_generate_runs_to_completion(tmp_path):
    assert main(_generated_census_inputs(tmp_path) + ["--sample-frac", "0.05,0.1"]) == 0
    with open(tmp_path / "out/risk_curve.csv") as f:
        rows = list(csv.DictReader(f))
    assert sorted((r["sample_fraction"], r["trial"]) for r in rows) == [
        ("0.05", "0"), ("0.05", "1"), ("0.1", "0"), ("0.1", "1")
    ]
    assert all(0.0 <= float(r["risk_limit"]) <= 1.0 for r in rows)


def test_census_generate_rejects_zero_sample_fraction(tmp_path, capsys):
    assert main(_generated_census_inputs(tmp_path) + ["--sample-frac", "0,0.01"]) == 2
    assert "audit: error:" in capsys.readouterr().err


def test_census_file_mode_unknown_district_exits_2(tmp_path, capsys):
    districts = tmp_path / "d.csv"
    districts.write_text("district,population,c_constant\nX,13,0\n")
    households = tmp_path / "h.csv"
    households.write_text(
        "household_id,district,census_count,pes_count,surveyed\nx0,X,2,2,1\nw0,W,1,1,1\n"
    )
    rc = main(["census", "--model", str(districts), "--households", str(households),
               "--representatives", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("audit: error:") and "unknown state 'W'" in err


FUZZ_CONTEST = [["party", "reported_votes"], ["P1", "500"], ["P2", "380"], ["P3", "60"], ["__invalid__", "20"]]
FUZZ_BATCHES = [["batch_id", "party", "reported_votes", "true_votes"]] + [
    [f"b{i}", party, str(votes), str(votes - (party == "P1"))]
    for i in range(3)
    for party, votes in (("P1", 170), ("P2", 120), ("P3", 20), ("__invalid__", 10))
]
FUZZ_KNESSET = {"parties": ["P1", "P2", "P3"], "seats": 9, "threshold": 0.05, "apparentments": [["P1", "P2"]]}
FUZZ_PATHS = (
    ("audit",), ("contest",), ("knesset",), ("batches",), ("batches", "generate"),
    ("batches", "generate", "size_range"), ("batches", "generate", "sizes"), ("alpha",),
    ("delta",), ("trials",), ("seeds",), ("weaken",), ("error_model",), ("error_model", "kind"),
    ("error_model", "p_misread"), ("error_model", "p_invalid"), ("knesset_file", "parties"),
    ("knesset_file", "seats"), ("knesset_file", "threshold"), ("knesset_file", "apparentments"),
)
json_values = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.sampled_from([0.5, -0.1, 1.5, float("nan"), float("inf")])
    | st.text(max_size=4)
    | st.lists(st.integers(-2, 3), max_size=3)
    | st.sampled_from([{}, [[0, 1]], ["P1", "P2"], [["P1", "P2"]], [["P3", "Nope"]], {"kind": "none"}])
)
csv_cells = st.sampled_from(["", "-1", "0", "x", "3.5", " 7 ", "P1", "__invalid__", "1e3"]) | st.text(max_size=4)


@st.composite
def csv_mutation(draw, rows, mutate):
    rows = [list(r) for r in rows]
    r = draw(st.integers(0, len(rows) - 1))
    op = draw(st.sampled_from(["cell", "drop", "dup"])) if mutate else None
    if op == "cell":
        rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(csv_cells)
    elif op == "drop":
        del rows[r]
    elif op == "dup":
        rows.insert(r, rows[r])
    return "".join(",".join(row) + "\n" for row in rows)


def mutate_json(draw, root: dict, paths) -> None:
    """Once or twice, replace the value at one of ``paths`` under ``root``
    by another JSON value, or delete it."""
    for _ in range(draw(st.integers(1, 2)) if paths else 0):
        path = draw(st.sampled_from(paths))
        parent = root
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict):
            if draw(st.booleans()):
                parent[path[-1]] = draw(json_values)
            else:
                parent.pop(path[-1], None)


@st.composite
def fuzz_inputs(draw):
    """The contest, batch, Knesset and experiment files of a small run, each
    possibly mutated: a cell replaced, a row dropped or doubled, a config
    value replaced by another JSON value or deleted.  One or two of the four
    files are mutated.  Every value stays small, so no mutation asks for a
    large run."""
    mutated = draw(st.sets(st.sampled_from(["contest", "batches", "knesset", "config"]), min_size=1, max_size=2))
    config = {
        "audit": draw(st.sampled_from(["alpha", "alpha_batch", "batchcomp"])),
        "contest": "contest.csv",
        "knesset": "knesset.json",
        "batches": draw(st.sampled_from(["batches.csv", {"generate": {"size_range": [50, 120]}}])),
        "alpha": 0.05,
        "delta": 1e-10,
        "trials": 2,
        "error_model": {"kind": "ballot_misread", "p_misread": 0.02, "p_invalid": 0.2},
    }
    files = {"config": config, "knesset_file": json.loads(json.dumps(FUZZ_KNESSET))}
    paths = [p for p in FUZZ_PATHS if ("knesset" if p[0] == "knesset_file" else "config") in mutated]
    mutate_json(draw, files, [p if p[0] == "knesset_file" else ("config",) + p for p in paths])
    return (
        draw(csv_mutation(FUZZ_CONTEST, "contest" in mutated)),
        draw(csv_mutation(FUZZ_BATCHES, "batches" in mutated)),
        files["knesset_file"],
        files["config"],
    )


def _exit_0_or_2(files: dict, runs) -> list[tuple[int, str]]:
    """Write ``files`` (name -> text) to a fresh directory and require every
    ``main(argv)`` of ``runs`` there to exit 0, or 2 with an error line.
    Returns each run's exit code and standard error."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in runs:
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    rc = main(argv)
                assert rc in (0, 2), argv
                assert (rc == 2) == ("audit: error: " in err.getvalue()), (argv, err.getvalue())
                outcomes.append((rc, err.getvalue()))
        finally:
            os.chdir(cwd)
    return outcomes


@given(fuzz_inputs())
@settings(max_examples=150, deadline=None)
def test_mutated_inputs_exit_0_or_2(inputs):
    """Malformed input ends in exit code 2 and an ``audit: error:`` line,
    never in a traceback, for ``audit run`` and ``audit margins``."""
    contest, batches, knesset, config = inputs
    files = {
        "contest.csv": contest,
        "batches.csv": batches,
        "knesset.json": json.dumps(knesset),
        "cfg.json": json.dumps(config),
    }
    _exit_0_or_2(files, (
        ["run", "--config", "cfg.json", "--out", "out"],
        ["margins", "--contest", "contest.csv", "--knesset", "knesset.json"],
    ))


FUZZ_DISTRICTS = [["district", "population", "c_constant"], ["X", "260", "0"], ["Y", "150", "1/2"], ["Z", "90", "0"]]
FUZZ_SIZES = [["size", "probability"], ["1", "0.4"], ["2", "0.4"], ["3", "0.2"]]
FUZZ_HOUSEHOLDS = [["household_id", "district", "census_count", "pes_count", "surveyed"]] + [
    [f"h{i}", "XYZ"[i % 3], str(c), str(c + (i == 5)) if i % 2 else "", str(i % 2)]
    for i, c in enumerate(1 + (i + i // 3) % 3 for i in range(12))
]
FUZZ_CENSUS_PATHS = (
    ("audit",), ("districts",), ("representatives",), ("g_max",), ("divisor",), ("delta",),
    ("disagreement_rate",), ("households",), ("households", "generate"),
    ("households", "generate", "household_dist"), ("households", "generate", "nonresponse"),
    ("sample_fractions",), ("trials",), ("seeds",),
)
CENSUS_RUNS = (
    ["run", "--config", "cfg.json", "--out", "out"],
    ["census", "--model", "districts.csv", "--households", "households.csv", "--representatives", "5"],
)


def _census_config(generate: bool) -> dict:
    """A small census run that generates households or reads the household file."""
    config = {
        "audit": "census",
        "districts": "districts.csv",
        "representatives": 5,
        "g_max": 15,
        "divisor": "dhondt",
        "delta": 1e-10,
        "households": {"generate": {"household_dist": "sizes.csv", "nonresponse": 0.01}} if generate else "households.csv",
        "disagreement_rate": 0.02,
        "trials": 2,
    }
    if generate:
        config["sample_fractions"] = [0.2, 0.5]
    return config


def _census_files(config, districts=FUZZ_DISTRICTS, sizes=FUZZ_SIZES, households=FUZZ_HOUSEHOLDS) -> dict:
    csv_text = lambda rows: rows if isinstance(rows, str) else "".join(",".join(r) + "\n" for r in rows)
    return {
        "districts.csv": csv_text(districts),
        "sizes.csv": csv_text(sizes),
        "households.csv": csv_text(households),
        "cfg.json": json.dumps(config),
    }


@st.composite
def census_fuzz_inputs(draw):
    """The district, household-size, household and census config files of a
    small census run, one or two of them mutated as in :func:`fuzz_inputs`."""
    mutated = draw(st.sets(st.sampled_from(["districts", "sizes", "households", "config"]), min_size=1, max_size=2))
    config = _census_config(draw(st.booleans()))
    if "config" in mutated:
        mutate_json(draw, config, FUZZ_CENSUS_PATHS)
    return _census_files(
        config,
        draw(csv_mutation(FUZZ_DISTRICTS, "districts" in mutated)),
        draw(csv_mutation(FUZZ_SIZES, "sizes" in mutated)),
        draw(csv_mutation(FUZZ_HOUSEHOLDS, "households" in mutated)),
    )


@given(census_fuzz_inputs())
@settings(max_examples=150, deadline=None)
def test_mutated_census_inputs_exit_0_or_2(files):
    """The same for ``audit run`` on a census config and for ``audit census``
    on a household file."""
    _exit_0_or_2(files, CENSUS_RUNS)


@pytest.mark.parametrize("key, value", [
    ("representatives", [56]),
    ("delta", {}),
    ("delta", float("inf")),
    ("disagreement_rate", [1]),
    ("sample_fractions", 0.5),
    ("sample_fractions", "1"),  # read once as [1.0], character by character
    ("seeds", "12"),  # read once as seeds 1 and 2
    ("household_dist", 3),
])
def test_census_config_value_of_the_wrong_kind_exits_2(key, value):
    """A value of the wrong kind is an error that names its key, not a
    traceback; a number is no file path, though ``open`` takes it for a file
    descriptor."""
    config = _census_config(True)
    (config["households"]["generate"] if key == "household_dist" else config)[key] = value
    [(rc, err)] = _exit_0_or_2(_census_files(config), CENSUS_RUNS[:1])
    assert rc == 2 and key in err


def test_census_null_sample_fractions_reads_as_absent():
    """JSON null for ``sample_fractions`` is no fraction list, so a run on the
    household file goes ahead; a generated run still asks for fractions."""
    for generate, code in ((False, 0), (True, 2)):
        config = _census_config(generate)
        config["sample_fractions"] = None
        [(rc, err)] = _exit_0_or_2(_census_files(config), CENSUS_RUNS[:1])
        assert rc == code and (code == 0 or "sample_fractions" in err)


@pytest.mark.parametrize("short", ["districts", "sizes", "households"])
def test_census_csv_row_missing_a_cell_exits_0_or_2(short):
    """A row one cell short reads as a blank last cell, not as a traceback."""
    rows = {"districts": FUZZ_DISTRICTS, "sizes": FUZZ_SIZES, "households": FUZZ_HOUSEHOLDS}
    rows[short] = [row[:-1] if i == 1 else row for i, row in enumerate(rows[short])]
    for generate in (True, False):
        _exit_0_or_2(_census_files(_census_config(generate), **rows), CENSUS_RUNS)


def test_census_household_csv_survey_count_out_of_range_exits_2():
    """A survey count above g_max in a household file names the household by
    its row position, as the array check does, and exits 2."""
    households = [row[:] for row in FUZZ_HOUSEHOLDS]
    households[2][3], households[2][4] = "16", "1"
    [(rc, err)] = _exit_0_or_2(
        _census_files(_census_config(False), households=households), CENSUS_RUNS[1:]
    )
    assert rc == 2 and "household 1 survey count 16 outside [0, 15]" in err
