import contextlib
import csv
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electaudit.batchcomp import load_batches_csv
from electaudit import census as census_mod
from electaudit.census import load_districts_csv, load_households_csv
from electaudit.cli import main
from electaudit.core import Contest, load_contest_csv
from electaudit.harness import load_declared_sizes, load_household_distribution

from .helpers import by_value, check_risk_limit_is_largest_pair_risk


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


def test_margins_knesset_party_missing_from_contest_exits_2(tmp_path, capsys):
    """``audit margins`` rejects a Knesset config whose parties differ from
    the contest CSV, as ``audit run`` does."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    knesset = json.loads((configs / "knesset_synthetic.json").read_text())
    knesset["parties"].append("Zayit")
    kcfg = tmp_path / "k.json"
    kcfg.write_text(json.dumps(knesset))
    argv = ["margins", "--contest", str(configs / "contest_synthetic.csv"), "--knesset", str(kcfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "audit: error: contest and knesset config disagree on parties: ['Zayit']" in captured.err


@pytest.mark.parametrize("unbuffered", [True, False])
def test_margins_into_a_closed_pipe_exits_0(tmp_path, unbuffered):
    """A reader that stops reading stdout ends the run quietly: exit 0, no
    error line, as with ``audit margins ... | head -2``, whether stdout is
    written row by row or flushed once at the end."""
    contest, kcfg = _knesset_inputs(tmp_path)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "electaudit.cli", "margins", "--contest", str(contest),
             "--knesset", str(kcfg)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, "")


@pytest.mark.parametrize("spec", ["A:B", "nonsense"])
def test_margins_weaken_without_knesset_exits_2(tmp_path, capsys, spec):
    """``--weaken`` names move-seat assertions, which a plurality contest has none of."""
    assert main(["margins", "--contest", str(_contest(tmp_path)), "--weaken", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("audit: error: ")


def test_run_weaken_without_knesset_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "audit": "batchcomp",
        "contest": str(_contest(tmp_path)),
        "batches": {"generate": {"sizes": [500] * 20}},
        "weaken": [["A", "B"]],
        "trials": 2,
    }))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "audit: error: weaken applies only to a Knesset contest\n"
    assert not (out / "results.csv").exists()


def test_knesset_config_without_parties_names_file_and_key(tmp_path, capsys):
    contest, kcfg = _knesset_inputs(tmp_path)
    kcfg.write_text(json.dumps({"seats": 9}))
    assert main(["margins", "--contest", str(contest), "--knesset", str(kcfg)]) == 2
    assert capsys.readouterr().err == f"audit: error: {kcfg}: missing 'parties'\n"


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


@pytest.mark.parametrize("where, key, value", [
    ("knesset", "seats", 119.9),  # allocated 119 seats
    ("knesset", "seats", True),  # allocated 1 seat
    ("config", "trials", 2.9),  # ran 2 trials
    ("config", "seeds", [0.5, 1.7]),  # once ran seeds 0 and 1; no longer a key
    ("config", "seed", 1.5),
])
def test_election_integer_value_of_the_wrong_kind_exits_2(tmp_path, capsys, where, key, value):
    """An integer config value is never truncated: a float, even a whole one,
    or a bool exits 2 with an error naming its key."""
    contest, kcfg = _knesset_inputs(tmp_path)
    knesset = {"parties": ["P1", "P2"], "seats": 9}
    config = {
        "audit": "batchcomp",
        "contest": str(contest),
        "knesset": str(kcfg),
        "batches": {"generate": {"sizes": [100] * 9}},
        "trials": 2,
    }
    (knesset if where == "knesset" else config)[key] = value
    kcfg.write_text(json.dumps(knesset))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    runs = [["run", "--config", str(cfg), "--out", str(tmp_path / "out")]]
    if where == "knesset":
        runs.append(["margins", "--contest", str(contest), "--knesset", str(kcfg)])
    for argv in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("audit: error: ") and repr(key) in err, err


def test_run_trace_writes_non_ascii_labels_under_c_locale(tmp_path):
    """The trace file is UTF-8 like every other output, whatever the locale's
    encoding: a Hebrew party name in an assertion label is written, not an
    ``'ascii' codec`` error."""
    contest = tmp_path / "contest.csv"
    contest.write_text("party,reported_votes\nA,5200\nשס,4500\n__invalid__,300\n", "utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "audit": "batchcomp",
        "contest": str(contest),
        "batches": {"generate": {"sizes": [500] * 20}},
        "trials": 2,
    }))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "electaudit.cli", "run", "--config", str(cfg), "--out", str(out),
         "--trace"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    trace = (out / "trace_trial0.csv").read_text("utf-8")
    assert "plurality:A>שס" in trace


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


def _census_run(tmp_path, **config) -> list[str]:
    """The ``audit run`` argv of a one-trial census config that also holds
    ``config``, its tables going to ``out``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"audit": "census", "trials": 1, **config}))
    return ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]


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
    rc = main(_census_run(tmp_path, districts=str(districts), households=str(households),
                           representatives=3, g_max=3))
    assert rc == 0
    assert capsys.readouterr().out == ""  # the tables go to --out only
    [curve] = _read_rows(tmp_path / "out/risk_curve.csv")
    pairs = _read_rows(tmp_path / "out/pair_risks.csv")
    assert (curve["sample_fraction"], curve["trial"], curve["seed"]) == ("file", "0", "0")
    assert [r["pair"] for r in pairs] == ["X->Y", "Y->X"]
    assert {(r["sample_fraction"], r["trial"], r["seed"]) for r in pairs} == {("file", "0", "0")}
    assert max(float(r["risk_limit"]) for r in pairs) == float(curve["risk_limit"])


def _read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _pair_risks(out_dir) -> list[tuple[str, str]]:
    """The (pair, risk) cells of a run's ``pair_risks.csv``."""
    return [(r["pair"], r["risk_limit"]) for r in _read_rows(out_dir / "pair_risks.csv")]


def _framed_households(tmp_path, flag=lambda i, surveyed: "1" if surveyed or i % 3 == 0 else "0"):
    """Districts X and Y and a household CSV ``h.csv`` with an ``in_frame``
    column: every other household surveyed, in agreement, and
    ``flag(i, surveyed)`` as household i's in_frame cell."""
    districts = tmp_path / "d.csv"
    districts.write_text("district,population,c_constant\nX,20,0\nY,8,0\n")
    cen = [3, 2, 2, 1, 3, 2, 1, 2, 3, 1, 1, 1, 2, 1, 2, 1]
    rows = ["household_id,district,census_count,pes_count,surveyed,in_frame"]
    for i, c in enumerate(cen):
        surveyed = i % 2 == 0
        rows.append(f"h{i},{'X' if i < 10 else 'Y'},{c},{c if surveyed else ''},{int(surveyed)},{flag(i, surveyed)}")
    households = tmp_path / "h.csv"
    households.write_text("\n".join(rows) + "\n")
    args = _census_run(tmp_path, districts=str(districts), households=str(households),
                       representatives=3, g_max=3)
    return args, [i < 10 for i in range(16)], cen


def test_census_file_mode_reads_in_frame(tmp_path):
    """The households' in_frame column reaches the audit: the CLI's pair
    risks are the library's with ``CensusData(in_frame=...)`` on the audit
    stream of seed 0, not those of an all-in-frame survey."""
    args, in_x, cen = _framed_households(tmp_path)
    assert main(args) == 0
    model = census_mod.CensusModel(("X", "Y"), 3, {"X": 0, "Y": 0}, 3, "dhondt")
    surveyed = [i % 2 == 0 for i in range(16)]

    def risks(in_frame):
        data = census_mod.CensusData(model, [0 if x else 1 for x in in_x], cen, cen, surveyed, in_frame)
        outcome = census_mod.census_rla(data, (0, 1))
        return [(f"{a}->{b}", repr(r)) for (a, b), r in sorted(outcome.pair_risks.items())]

    framed = risks([s or i % 3 == 0 for i, s in enumerate(surveyed)])
    assert _pair_risks(tmp_path / "out") == framed != risks(None)


def test_census_household_file_is_a_one_trial_run(tmp_path):
    """``audit run`` on a household file with one trial writes one
    ``risk_curve.csv`` row, and its risk limit is the largest of its pair
    risks."""
    args, _, _ = _framed_households(tmp_path)
    assert main(args) == 0
    assert [r["sample_fraction"] for r in _read_rows(tmp_path / "out/risk_curve.csv")] == ["file"]
    check_risk_limit_is_largest_pair_risk(tmp_path / "out")


@pytest.mark.parametrize("cell", ["", "yes", "TRUE"])
def test_census_in_frame_cell_reads_in(tmp_path, cell):
    """Blank and every true spelling mean in frame, as does a file without the column."""
    args, _, _ = _framed_households(tmp_path, lambda i, surveyed: cell)
    assert main(args) == 0
    framed = (tmp_path / "out/pair_risks.csv").read_bytes()
    h = tmp_path / "h.csv"
    h.write_text("\n".join(",".join(r.split(",")[:5]) for r in h.read_text().splitlines()) + "\n")
    assert main(args) == 0
    assert (tmp_path / "out/pair_risks.csv").read_bytes() == framed


def test_census_surveyed_household_out_of_frame_exits_2(tmp_path, capsys):
    args, _, _ = _framed_households(tmp_path, lambda i, surveyed: "no" if i == 4 else "")
    assert main(args) == 2
    assert "surveyed household is marked outside the survey frame" in capsys.readouterr().err


def test_census_bad_in_frame_flag_exits_2(tmp_path, capsys):
    args, _, _ = _framed_households(tmp_path, lambda i, surveyed: "maybe" if i == 3 else "1")
    assert main(args) == 2
    assert "bad in_frame flag 'maybe'" in capsys.readouterr().err


def test_census_mode_conflicts(tmp_path, capsys):
    """A census run generates its households or reads a household file: a
    config with neither exits 2 naming ``households``."""
    districts = tmp_path / "d.csv"
    districts.write_text("district,population,c_constant\nX,13,0\n")
    assert main(_census_run(tmp_path, districts=str(districts), representatives=1)) == 2
    assert "config is missing 'households'" in capsys.readouterr().err


def _generated_census_run(tmp_path, generate=None, **config) -> list[str]:
    """The ``audit run`` argv of two trials on households generated for
    districts X, Y and Z by ``generate``, from ``sizes.csv`` by default."""
    districts = tmp_path / "d.csv"
    districts.write_text("district,population,c_constant\nX,4100,0\nY,2300,0\nZ,1700,0\n")
    sizes = tmp_path / "sizes.csv"
    sizes.write_text("size,probability\n1,0.4\n2,0.4\n3,0.2\n")
    generate = generate or {"household_dist": str(sizes), "nonresponse": 0.01}
    return _census_run(tmp_path, districts=str(districts), representatives=5, trials=2,
                       households={"generate": generate}, **config)


def test_census_generate_requires_args(tmp_path, capsys):
    """A generated census run needs its sample fractions and its household
    size distribution: a config without either exits 2 naming it."""
    assert main(_generated_census_run(tmp_path)) == 2
    assert "sample_fractions" in capsys.readouterr().err
    assert main(_generated_census_run(tmp_path, {"nonresponse": 0.01}, sample_fractions=[0.05])) == 2
    assert "'household_dist'" in capsys.readouterr().err


def test_census_generate_runs_to_completion(tmp_path):
    assert main(_generated_census_run(tmp_path, sample_fractions=[0.05, 0.1])) == 0
    with open(tmp_path / "out/risk_curve.csv") as f:
        rows = list(csv.DictReader(f))
    assert sorted((r["sample_fraction"], r["trial"]) for r in rows) == [
        ("0.05", "0"), ("0.05", "1"), ("0.1", "0"), ("0.1", "1")
    ]
    assert all(0.0 <= float(r["risk_limit"]) <= 1.0 for r in rows)


def test_census_generate_rejects_zero_sample_fraction(tmp_path, capsys):
    assert main(_generated_census_run(tmp_path, sample_fractions=[0, 0.01])) == 2
    assert "audit: error:" in capsys.readouterr().err


def test_census_file_mode_unknown_district_exits_2(tmp_path, capsys):
    districts = tmp_path / "d.csv"
    districts.write_text("district,population,c_constant\nX,13,0\n")
    households = tmp_path / "h.csv"
    households.write_text(
        "household_id,district,census_count,pes_count,surveyed\nx0,X,2,2,1\nw0,W,1,1,1\n"
    )
    rc = main(_census_run(tmp_path, districts=str(districts), households=str(households),
                           representatives=1))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("audit: error:") and "unknown state 'W'" in err


# FUZZ_BATCHES' reported sums: a batch file must add up to its contest
FUZZ_CONTEST = [["party", "reported_votes"], ["P1", "510"], ["P2", "360"], ["P3", "60"], ["__invalid__", "30"]]
FUZZ_BATCHES = [["batch_id", "party", "reported_votes", "true_votes"]] + [
    [f"b{i}", party, str(votes), str(votes - (party == "P1"))]
    for i in range(3)
    for party, votes in (("P1", 170), ("P2", 120), ("P3", 20), ("__invalid__", 10))
]
FUZZ_KNESSET = {"parties": ["P1", "P2", "P3"], "seats": 9, "threshold": 0.05, "apparentments": [["P1", "P2"]]}
FUZZ_PATHS = (
    ("audit",), ("contest",), ("knesset",), ("batches",), ("batches", "file"), ("batches", "generate"),
    ("batches", "generate", "size_range"), ("batches", "generate", "sizes"), ("alpha",),
    ("delta",), ("trials",), ("weaken",), ("error_model",), ("error_model", "kind"),
    ("error_model", "p_misread"), ("error_model", "p_invalid"), ("knesset_file", "parties"),
    ("knesset_file", "seats"), ("knesset_file", "threshold"), ("knesset_file", "apparentments"),
)
json_values = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.sampled_from([0.5, -0.1, 1.5, float("nan"), float("inf")])
    | st.text(max_size=4)
    | st.just("1/0")
    | st.lists(st.integers(-2, 3), max_size=3)
    | st.sampled_from([{}, [[0, 1]], ["P1", "P2"], [["P1", "P2"]], [["P3", "Nope"]], {"kind": "none"}])
)
csv_cells = st.sampled_from(["", "-1", "0", "x", "3.5", " 7 ", "P1", "__invalid__", "1e3", "1/0"]) | st.text(max_size=4)


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
        "batches": draw(st.sampled_from([{"file": "batches.csv"}, {"generate": {"size_range": [50, 120]}}])),
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
    ("sample_fractions",), ("trials",),
)
CENSUS_RUNS = (["run", "--config", "cfg.json", "--out", "out"],)


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
        "trials": 2,
    }
    if generate:
        config.update(disagreement_rate=0.02, sample_fractions=[0.2, 0.5])
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
    """The same for ``audit run`` on a census config, generated or on a
    household file."""
    _exit_0_or_2(files, CENSUS_RUNS)


@pytest.mark.parametrize("key, value", [
    ("representatives", [56]),
    ("delta", {}),
    ("delta", float("inf")),
    ("disagreement_rate", [1]),
    ("sample_fractions", 0.5),
    ("sample_fractions", "1"),  # read once as [1.0], character by character
    ("seeds", "12"),  # once read as seeds 1 and 2; no longer a key
    ("household_dist", 3),
    ("representatives", 5.5),  # read once as 5
    ("representatives", True),  # read once as 1
    ("g_max", 15.0),
    ("trials", 2.9),  # ran 2 trials
    ("seeds", [0.5, 1.7]),  # once ran seeds 0 and 1; no longer a key
    ("seed", 1.5),
])
def test_census_config_value_of_the_wrong_kind_exits_2(key, value):
    """A value of the wrong kind is an error that names its key, not a
    traceback; a number is no file path, though ``open`` takes it for a file
    descriptor."""
    config = _census_config(True)
    (config["households"]["generate"] if key == "household_dist" else config)[key] = value
    [(rc, err)] = _exit_0_or_2(_census_files(config), CENSUS_RUNS)
    assert rc == 2 and key in err


def test_census_household_file_rejects_disagreement_rate():
    """A household file carries its own survey counts, so a nonzero
    ``disagreement_rate`` would be ignored: it is an error naming the key.
    A zero rate injects nothing and the run goes ahead."""
    config = _census_config(False)
    for rate, code in ((0.9, 2), (0.0, 0)):
        config["disagreement_rate"] = rate
        [(rc, err)] = _exit_0_or_2(_census_files(config), CENSUS_RUNS)
        assert rc == code and (code == 0 or "'disagreement_rate'" in err), err


def test_census_null_sample_fractions_reads_as_absent():
    """JSON null for ``sample_fractions`` is no fraction list, so a run on the
    household file goes ahead; a generated run still asks for fractions."""
    for generate, code in ((False, 0), (True, 2)):
        config = _census_config(generate)
        config["sample_fractions"] = None
        [(rc, err)] = _exit_0_or_2(_census_files(config), CENSUS_RUNS)
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
        _census_files(_census_config(False), households=households), CENSUS_RUNS
    )
    assert rc == 2 and "household 1 survey count 16 outside [0, 15]" in err


@pytest.mark.parametrize("audit, path, value", [
    ("batchcomp", ("alpha",), True),  # ran at alpha 1.0
    ("batchcomp", ("alpha",), "0.05"),
    ("batchcomp", ("delta",), True),
    ("batchcomp", ("error_model", "p_misread"), True),  # misread every ballot
    ("census", ("disagreement_rate",), True),
    ("census", ("households", "generate", "nonresponse"), True),
    ("census", ("sample_fractions",), [True]),
], ids=["alpha-bool", "alpha-str", "delta-bool", "p_misread-bool", "disagreement_rate-bool",
        "nonresponse-bool", "sample_fraction-bool"])
def test_float_value_of_the_wrong_kind_exits_2(audit, path, value):
    """A fractional config value is a JSON number: a bool or a string exits 2
    with an error naming its key, never read as 1.0 or parsed."""
    if audit == "census":
        config = _census_config(True)
        files = _census_files(config)
    else:
        config = {
            "audit": audit,
            "contest": "contest.csv",
            "batches": {"generate": {"size_range": [50, 120]}},
            "trials": 2,
            "error_model": {"kind": "ballot_misread", "p_misread": 0.02, "p_invalid": 0.2},
        }
        files = {"contest.csv": "".join(",".join(r) + "\n" for r in FUZZ_CONTEST)}
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    files["cfg.json"] = json.dumps(config)
    [(rc, err)] = _exit_0_or_2(files, CENSUS_RUNS)
    named = "error_model" if path[0] == "error_model" else path[-1]
    assert rc == 2 and f"config {named!r} is malformed" in err, err


@pytest.mark.parametrize("rate", [-0.5, 1.5])
def test_census_disagreement_rate_outside_unit_interval_exits_2(rate):
    """A disagreement rate outside [0, 1] is an error naming its key; a
    negative one used to inject nothing."""
    config = _census_config(True)
    config["disagreement_rate"] = rate
    [(rc, err)] = _exit_0_or_2(_census_files(config), CENSUS_RUNS)
    assert rc == 2 and "'disagreement_rate'" in err, err


def test_census_constant_dividing_by_zero_exits_2():
    """A ``1/0`` district constant is an error naming the file and the value."""
    districts = [row[:] for row in FUZZ_DISTRICTS]
    districts[2][2] = "1/0"
    [(rc, err)] = _exit_0_or_2(_census_files(_census_config(False), districts), CENSUS_RUNS)
    assert rc == 2 and "districts.csv" in err and "'1/0'" in err, err


def test_knesset_threshold_dividing_by_zero_exits_2():
    """A ``1/0`` threshold is an error naming the file and the value."""
    knesset = dict(FUZZ_KNESSET, threshold="1/0")
    files = {
        "contest.csv": "".join(",".join(r) + "\n" for r in FUZZ_CONTEST),
        "knesset.json": json.dumps(knesset),
    }
    [(rc, err)] = _exit_0_or_2(
        files, [["margins", "--contest", "contest.csv", "--knesset", "knesset.json"]]
    )
    assert rc == 2 and "knesset.json" in err and "'1/0'" in err, err


FUZZ_DECLARED = [["batch_id", "declared_size"], ["b0", "320"], ["b2", "330"]]
FUZZ_MODEL = census_mod.CensusModel(("X", "Y", "Z"), 5, {})
LOADERS = {
    "contest": (load_contest_csv, FUZZ_CONTEST),
    "batches": (functools.partial(load_batches_csv, contest=Contest.from_party_names(["P1", "P2", "P3"])),
                FUZZ_BATCHES),
    "districts": (load_districts_csv, FUZZ_DISTRICTS),
    "households": (functools.partial(load_households_csv, model=FUZZ_MODEL), FUZZ_HOUSEHOLDS),
    "sizes": (load_household_distribution, FUZZ_SIZES),
    "declared_sizes": (load_declared_sizes, FUZZ_DECLARED),
}


@pytest.mark.parametrize("name", LOADERS)
def test_padded_header_reads_as_plain(tmp_path, name):
    """Every CSV loader compares the header names stripped and reads the
    columns by those names, so a header padded with spaces reads the same."""
    loader, rows = LOADERS[name]
    body = "".join(",".join(r) + "\n" for r in rows[1:])
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    plain.write_text(",".join(rows[0]) + "\n" + body)
    padded.write_text(" " + ", ".join(rows[0]) + " \n" + body)
    assert by_value(loader(padded)) == by_value(loader(plain))


def test_batch_file_party_outside_the_contest_exits_2():
    """A batch-file row for a party the contest lacks is an error naming the
    file, the batch and the party."""
    config = {"audit": "batchcomp", "contest": "contest.csv", "batches": {"file": "batches.csv"},
              "trials": 2}
    files = {
        "contest.csv": "".join(",".join(r) + "\n" for r in FUZZ_CONTEST),
        "batches.csv": "".join(",".join(r) + "\n" for r in FUZZ_BATCHES + [["b1", "P9", "3", "3"]]),
        "cfg.json": json.dumps(config),
    }
    [(rc, err)] = _exit_0_or_2(files, CENSUS_RUNS)
    assert rc == 2 and "batches.csv" in err and "'b1'" in err and "'P9'" in err, err


def _declared_size_run(declared) -> list[tuple[int, str]]:
    config = {
        "audit": "batchcomp",
        "contest": "contest.csv",
        "batches": {"file": "batches.csv", "declared_sizes": "declared.csv"},
        "trials": 2,
    }
    contest = FUZZ_CONTEST[:-1] + [["__invalid__", "40"]]  # b2 padded up to 330
    files = {
        "contest.csv": "".join(",".join(r) + "\n" for r in contest),
        "batches.csv": "".join(",".join(r) + "\n" for r in FUZZ_BATCHES),
        "declared.csv": "".join(",".join(r) + "\n" for r in declared),
        "cfg.json": json.dumps(config),
    }
    return _exit_0_or_2(files, CENSUS_RUNS)


def test_repeated_key_row_exits_2():
    """A household size or a declared batch size given twice is an error, not
    a silent overwrite of the earlier row."""
    sizes = FUZZ_SIZES + [["2", "0.1"]]
    [(rc, err)] = _exit_0_or_2(_census_files(_census_config(True), sizes=sizes), CENSUS_RUNS)
    assert rc == 2 and "duplicate size 2" in err, err
    assert _declared_size_run(FUZZ_DECLARED)[0][0] == 0
    [(rc, err)] = _declared_size_run(FUZZ_DECLARED + [["b0", "340"]])
    assert rc == 2 and "duplicate batch 'b0'" in err, err


def test_declared_size_for_an_absent_batch_exits_2():
    """A declared size whose batch the batch file lacks, as a misspelt id, is
    an error naming every such id, not padding silently dropped."""
    [(rc, err)] = _declared_size_run(FUZZ_DECLARED + [["b7", "340"], ["B1", "330"]])
    assert rc == 2 and "declared size for batch 'B1', 'b7' absent from the batch file" in err, err


# the column whose cell each loader gets as "x" in its second data row
NUMBER_COLUMNS = {"contest": 1, "batches": 3, "districts": 2, "households": 2, "sizes": 1,
                  "declared_sizes": 1}


@pytest.mark.parametrize("name", LOADERS)
def test_malformed_number_names_file_line_and_column(tmp_path, name):
    """A cell that is not a number is an error naming the file, the line, the
    column and the cell, from every CSV loader."""
    loader, rows = LOADERS[name]
    rows = [list(r) for r in rows]
    column = NUMBER_COLUMNS[name]
    rows[2][column] = "x"
    path = tmp_path / f"{name}.csv"
    path.write_text("".join(",".join(r) + "\n" for r in rows))
    with pytest.raises(ValueError) as raised:
        loader(path)
    assert str(raised.value) == f"{path}, line 3: {rows[0][column]} 'x' is not a number"


@pytest.mark.parametrize("config_name", ["batchcomp_knesset.json", "census_cyprus.json"])
def test_census_disagree_error_model_exits_2(tmp_path, capsys, monkeypatch, config_name):
    """An error model of kind ``census_disagree`` was once read by nothing, and
    its run wrote error-free results; survey disagreement is set by
    ``disagreement_rate``, and the message says so."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    monkeypatch.chdir(configs.parent)
    config = json.loads((configs / config_name).read_text())
    config.update(trials=1, error_model={"kind": "census_disagree", "rate": 0.9})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'disagreement_rate'" in err and "Traceback" not in err, err
    assert not list((tmp_path / "out").glob("*.csv"))


def _election_files(config: dict) -> dict:
    """A small Knesset election run's contest, Knesset and experiment files."""
    return {
        "contest.csv": "".join(",".join(r) + "\n" for r in FUZZ_CONTEST),
        "knesset.json": json.dumps(FUZZ_KNESSET),
        "cfg.json": json.dumps(config),
    }


def _election_config() -> dict:
    return {
        "audit": "batchcomp",
        "contest": "contest.csv",
        "knesset": "knesset.json",
        "batches": {"generate": {"size_range": [50, 120]}},
        "trials": 2,
    }


UNKNOWN_KEYS = [
    ("config", ("alpah",)),  # ran at alpha 0.05
    ("config", ("batches", "declared_sizes")),  # no batch file to pad
    ("config", ("batches", "generate", "size_rnage")),  # dealt batches of 250 to 550
    ("census", ("sample_fraction",)),
    ("census", ("households", "file")),
    ("census", ("households", "generate", "non_response")),
    ("knesset", ("treshold",)),  # allocated at the 3.25% default
]


@pytest.mark.parametrize("where, path", UNKNOWN_KEYS,
                         ids=[f"{where}:{'.'.join(path)}" for where, path in UNKNOWN_KEYS])
def test_unknown_config_key_exits_2(where, path):
    """A key its reader does not read, at any object level of an election or
    census config or of a Knesset JSON, exits 2 naming the key, never runs
    on a default."""
    config = _census_config(True) if where == "census" else _election_config()
    files = _census_files(config) if where == "census" else _election_files(config)
    runs = [CENSUS_RUNS[0]]
    if where == "knesset":
        files["knesset.json"] = json.dumps(dict(FUZZ_KNESSET, **{path[0]: "0.10"}))
        runs.append(["margins", "--contest", "contest.csv", "--knesset", "knesset.json"])
    else:
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = 0.1
        files["cfg.json"] = json.dumps(config)
    for rc, err in _exit_0_or_2(files, runs):
        assert rc == 2 and f"unknown key {path[-1]!r}" in err, err


@pytest.mark.parametrize("flags, message", [
    (["--jobs", "0"], "jobs must be at least 1"),  # ran sequentially
], ids=["jobs-0"])
def test_run_override_that_would_be_ignored_exits_2(flags, message):
    """A job count below 1 exits 2 instead of being silently ignored."""
    files = _election_files(_election_config())
    [(rc, err)] = _exit_0_or_2(files, [CENSUS_RUNS[0] + flags])
    assert rc == 2 and message in err, err


def test_census_trace_exits_2():
    """``--trace`` writes the sequential tests' steps of an election audit; a
    census run given it exits 2 rather than writing no trace."""
    [(rc, err)] = _exit_0_or_2(_census_files(_census_config(True)), [CENSUS_RUNS[0] + ["--trace"]])
    assert rc == 2 and "trace applies only to election audits" in err, err


def test_census_subcommand_is_gone(capsys):
    """A census run is ``audit run`` on a census config; ``audit census`` is
    no command, and argparse exits 2 naming it."""
    with pytest.raises(SystemExit) as exited:
        main(["census", "--model", "districts.csv", "--households", "households.csv", "--out", "out"])
    assert exited.value.code == 2
    assert "invalid choice: 'census'" in capsys.readouterr().err


@pytest.mark.parametrize("where, key, value", [
    ("election", "seeds", [0, 1]),
    ("census", "seeds", [0, 1]),
    ("election", "batches", "batches.csv"),
])
def test_removed_config_form_exits_2(where, key, value):
    """A ``seeds`` list and a bare batch-file path are read no more: trial i
    takes seed ``seed + i``, and a batch file is ``{"file": ...}``.  An old
    config holding either exits 2 naming the key, never runs on other seeds
    or dealt batches."""
    config = dict(_election_config() if where == "election" else _census_config(True), **{key: value})
    files = _election_files(config) if where == "election" else _census_files(config)
    files["batches.csv"] = "".join(",".join(r) + "\n" for r in FUZZ_BATCHES)
    [(rc, err)] = _exit_0_or_2(files, CENSUS_RUNS)
    assert rc == 2 and repr(key) in err, err


@pytest.mark.parametrize("contest, batches, declared, message", [
    ("party,reported_votes\nA,1000\nB,5\n__invalid__,0\n",
     "batch_id,party,reported_votes,true_votes\nb1,A,55,55\nb1,B,40,40\n", None,
     "reported 'A' votes sum to 55, not the contest's 1000"),
    # the file's own sums, but b2 is padded with 10 invalid ballots up to its declared 330
    ("".join(",".join(r) + "\n" for r in FUZZ_CONTEST),
     "".join(",".join(r) + "\n" for r in FUZZ_BATCHES), FUZZ_DECLARED,
     "reported '__invalid__' votes sum to 40, not the contest's 30"),
], ids=["short-file", "padding"])
def test_batch_file_disagreeing_with_the_contest_exits_2(contest, batches, declared, message):
    """A batch file whose reported counts, padding included, do not add up to
    the contest CSV's is an error naming the first differing type and both
    totals, not an audit of the file's ballots under the contest's name."""
    config = {"audit": "batchcomp", "contest": "contest.csv", "batches": {"file": "batches.csv"},
              "trials": 1}
    files = {"contest.csv": contest, "batches.csv": batches}
    if declared:
        config["batches"]["declared_sizes"] = "declared.csv"
        files["declared.csv"] = "".join(",".join(r) + "\n" for r in declared)
    files["cfg.json"] = json.dumps(config)
    [(rc, err)] = _exit_0_or_2(files, CENSUS_RUNS)
    assert rc == 2 and f"batches.csv: {message}" in err, err
