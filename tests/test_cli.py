"""Argument handling, config files, and the two output formats."""

import json

import numpy as np
import pytest

from qcfk import cli
from qcfk.adaptivity import fixed_k_run
from qcfk.cli import (
    TABLE2_K,
    TABLE3_TAU,
    emit_csv,
    main,
    parse_run_spec,
    run,
)

from oracle_exact import EXACT


def parse_csv(text: str) -> tuple[list[str], list[list]]:
    """Inverse of emit_csv (round trip: emit(parse(emit(x))) == emit(x))."""
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = []
        for cell in line.split(","):
            if cell == "":
                row.append(None)
            elif cell == "true":
                row.append(True)
            elif cell == "false":
                row.append(False)
            else:
                try:
                    row.append(int(cell))
                except ValueError:
                    try:
                        row.append(float(cell))
                    except ValueError:
                        row.append(cell)
        rows.append(row)
    return header, rows


# ---------------------------------------------------------------------------
# parsing and defaults


def test_mode_defaults():
    spec = parse_run_spec(["table2"])
    assert spec.m == (1000,)
    assert spec.k == TABLE2_K
    assert spec.format == "csv"
    assert spec.tau_gl == 1e-10 and spec.tau_div == 10.0
    assert not spec.symmetrize and not spec.gamma_split
    assert spec.out is None

    assert parse_run_spec(["table1"]).m == (100, 1000, 10_000, 100_000, 1_000_000)
    assert parse_run_spec(["table3"]).k == tuple(range(0, 51))
    assert parse_run_spec(["table3"]).tau_gl is None  # every TABLE3_TAU decade
    assert parse_run_spec(["sweep-k"]).k == TABLE2_K

    prof = parse_run_spec(["profile"])
    assert prof.m == (500,) and prof.k == (20,)

    assert parse_run_spec(["adapt"]).m == (1000,)


def test_table3_default_tau_decades():
    assert TABLE3_TAU == tuple(10.0**-p for p in range(2, 15))


def test_overrides_reach_chain_params():
    spec = parse_run_spec(
        ["fixed-k", "--m", "64", "--k", "3", "--k1", "3", "--k2", "0.5", "--a0", "2"]
    )
    p = spec.chain_params(64)
    assert p.k1 == 3.0 and p.k2 == 0.5 and p.a0 == 2.0
    assert p.k12 == 5.0
    assert spec.k == (3,)


def test_list_arguments():
    spec = parse_run_spec(["sweep-k", "--m", "200", "--k", "0,2,4"])
    assert spec.m == (200,)
    assert spec.k == (0, 2, 4)


def test_flag_toggles():
    spec = parse_run_spec(["adapt", "--m", "50", "--symmetrize", "--gamma-split"])
    assert spec.symmetrize and spec.gamma_split


@pytest.mark.parametrize(
    "argv",
    [
        ["fixed-k", "--m", "100"],  # needs --k
        ["table2", "--tau-div", "0.5"],
        ["table2", "--tau-gl", "-1e-10"],
        ["adapt", "--m", "2"],
        ["adapt", "--m", "10,20"],
        ["sweep-k", "--m", "10,20"],
        ["profile", "--m", "10,20"],
        ["profile", "--k", "1,2"],
        ["fixed-k", "--m", "10", "--k", "9"],  # k > m - 2
        ["fixed-k", "--m", "10", "--k", "-1"],
        ["table2", "--m", "100,200"],
        ["fixed-k", "--m", "10,20", "--k", "2"],
        ["table2", "--m", "12,x"],
        ["table2", "--format", "xml"],
        ["table2", "--no-such-flag"],
        ["no-such-mode"],
        ["table2", "--k1", "nan"],
        ["table2", "--k2", "inf"],
        ["table2", "--a0", "nan"],
        ["table2", "--tau-gl", "nan"],
        ["table3", "--tau-gl", "nan"],
        ["adapt", "--tau-div", "nan"],
        ["table2", "--k1", "1e-3", "--k2", "1e10"],  # k2/k1 past K2_K1_MAX
    ],
)
def test_rejected_argv(argv):
    with pytest.raises(SystemExit) as exc:
        parse_run_spec(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, ks",
    [
        (["table2", "--m", "20"], [k for k in TABLE2_K if k <= 18]),
        (["sweep-k", "--m", "30"], [k for k in TABLE2_K if k <= 28]),
        (["profile", "--m", "15"], [13]),
        (["table3", "--m", "6"], [0, 1, 2, 3, 4]),
        (["table3", "--m", "52"], list(range(51))),
        (["profile", "--m", "22"], [20]),
    ],
)
def test_default_k_lists_fit_the_chain(argv, ks):
    # a default list keeps K <= M - 2, and every mode then runs
    spec = parse_run_spec(argv)
    assert list(spec.k) == ks
    assert run(spec)


@pytest.mark.parametrize(
    "argv",
    [
        ["table2", "--m", "20", "--k", "0,19"],
        ["sweep-k", "--m", "30", "--k", "29"],
        ["profile", "--m", "15", "--k", "14"],
        ["table3", "--m", "6", "--k", "0,5"],
    ],
)
def test_explicit_k_past_the_chain_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_run_spec(argv)
    assert exc.value.code == 2
    assert "exceeds the largest region" in capsys.readouterr().err


def test_parser_is_built_once(capsys):
    # a rejected argv between two good parses still exits with its message,
    # and leaves the shared parser as it was
    good = ["table2", "--m", "200", "--k", "1,2", "--format", "json"]
    first = parse_run_spec(good)
    with pytest.raises(SystemExit) as exc:
        parse_run_spec(["fixed-k", "--m", "100"])
    assert exc.value.code == 2
    assert "mode fixed-k needs --k" in capsys.readouterr().err
    assert parse_run_spec(good) == first
    assert cli._build_parser() is cli._build_parser()


# ---------------------------------------------------------------------------
# config files


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "tau_gl = 1e-6\n"
        "k = 0,2\n"
        "symmetrize = true\n"
        "format = json   # trailing comment\n"
    )
    spec = parse_run_spec(["sweep-k", "--m", "100", "--config", str(cfg)])
    assert spec.tau_gl == 1e-6
    assert spec.k == (0, 2)
    assert spec.symmetrize
    assert spec.format == "json"
    # command line wins over the file
    spec2 = parse_run_spec(
        ["sweep-k", "--m", "100", "--config", str(cfg), "--tau-gl", "1e-8", "--format", "csv"]
    )
    assert spec2.tau_gl == 1e-8
    assert spec2.format == "csv"
    assert spec2.k == (0, 2)


def test_config_file_accepts_dashed_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau-gl = 1e-4\ngamma-split = yes\n")
    spec = parse_run_spec(["adapt", "--m", "30", "--config", str(cfg)])
    assert spec.tau_gl == 1e-4
    assert spec.gamma_split


@pytest.mark.parametrize(
    "content",
    [
        "wibble = 3\n",
        "tau_gl\n",
        "tau_gl = not-a-number\n",
        "symmetrize = maybe\n",
        "format = xml\n",
        "config = other.cfg\n",
    ],
)
def test_config_file_rejects_bad_lines(tmp_path, content):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        parse_run_spec(["adapt", "--m", "30", "--config", str(cfg)])
    assert exc.value.code == 2


def test_config_file_missing(tmp_path):
    with pytest.raises(SystemExit):
        parse_run_spec(["adapt", "--config", str(tmp_path / "absent.cfg")])


# ---------------------------------------------------------------------------
# output formats


def test_csv_round_trip():
    spec = parse_run_spec(["sweep-k", "--m", "30", "--k", "0,2,4"])
    text = run(spec)
    header, rows = parse_csv(text)
    assert header == ["k", "eta1", "eta2", "first_term", "sigma_bar"]
    assert [r[0] for r in rows] == [0, 2, 4]
    assert emit_csv(header, rows) == text


def test_csv_cell_conventions():
    # None -> empty, bool -> true/false, float -> %.6e, int -> plain
    text = emit_csv(["a", "b", "c", "d"], [[None, True, 0.125, 7]])
    assert text == "a,b,c,d\n,true,1.250000e-01,7\n"
    header, rows = parse_csv(text)
    assert rows == [[None, True, 0.125, 7]]


def test_profile_series_shapes():
    spec = parse_run_spec(["profile", "--m", "30", "--k", "5"])
    header, rows = parse_csv(run(spec))
    assert header == ["series", "i", "value"]
    at = [r for r in rows if r[0] == "at"]
    el = [r for r in rows if r[0] == "el"]
    tot = [r for r in rows if r[0] == "tot"]
    assert len(at) == 2 * 30 - 4
    assert len(el) == 2 * 30 - 1
    assert len(tot) == 2 * 30 - 4
    assert [r[1] for r in at] == list(range(-27, 29))
    assert [r[1] for r in el] == list(range(-29, 30))
    assert [r[1] for r in tot] == list(range(-27, 29))
    assert all(r[2] >= 0.0 for r in rows)


def test_profile_ids_follow_the_window():
    # the window chain is far shorter than the chain; the rows carry its ids
    # and the interface peak sits where the region ends
    spec = parse_run_spec(["profile", "--m", "100000", "--k", "20"])
    _, rows = parse_csv(run(spec))
    tot = [r for r in rows if r[0] == "tot"]
    assert len(tot) < 2 * 100_000 - 4
    assert [r[1] for r in tot] == list(range(tot[0][1], tot[0][1] + len(tot)))
    assert tot[0][1] + tot[-1][1] == 1
    peak = max(tot, key=lambda r: r[2])[1]
    assert min(abs(peak - 20.5), abs(peak + 19.5)) <= 2.5


def test_exact_modes_take_any_chain_length():
    # |Q(e)| and eta2 do not depend on M to 10 digits, so a billion-atom
    # table2 reproduces the longest frozen oracle rows
    argv = ["table2", "--m", "1000000000", "--k", "0,28,32", "--format", "json"]
    payload = json.loads(run(parse_run_spec(argv)))
    cols = payload["columns"]
    for row in payload["rows"]:
        k = row[cols.index("k")]
        qe, _, e2 = EXACT[(100000, k)]
        assert abs(row[cols.index("q_error")] - qe) <= 1e-8 * qe, k
        assert abs(row[cols.index("eta2")] - e2) <= 1e-8 * e2, k


def test_table2_precision_floor_flags():
    spec = parse_run_spec(["table2"])
    header, rows = parse_csv(run(spec))
    assert header[-1] == "precision_floor"
    flagged = {r[0]: r[-1] for r in rows}
    assert flagged[45] is True and flagged[50] is True
    assert all(flagged[k] is False for k in (0, 2, 15, 30, 40))


def test_table3_row_shape():
    spec = parse_run_spec(["table3", "--m", "200", "--k", "0,2,4,6,8,10"])
    header, rows = parse_csv(run(spec))
    assert header == ["tau", "k_opt", "k_eta1", "k_eta2"]
    assert len(rows) == len(TABLE3_TAU)
    # loose tolerances are reached by the first sampled k that qualifies;
    # unreachable ones leave the cell empty
    assert rows[0][0] == 1e-2
    assert rows[0][1] == 4
    assert rows[-1][1] is None


def test_sweeps_equal_a_loop_of_single_runs(monkeypatch):
    # the sweep modes solve their K values as stacks; one fixed_k_run per K
    # must print the same rows, digit for digit
    argvs = [
        ["table3", "--format", "json"],
        ["sweep-k", "--format", "json"],
        ["sweep-k", "--m", "100000", "--k", "0,50,250,300,600", "--gamma-split"],
    ]
    stacked = [run(parse_run_spec(argv)) for argv in argvs]

    def one_by_one(params, ks, want_exact=True, use_gamma=False):
        return [fixed_k_run(params, k, want_exact, use_gamma) for k in ks]

    monkeypatch.setattr(cli, "fixed_k_runs", one_by_one)
    assert [run(parse_run_spec(argv)) for argv in argvs] == stacked
    assert len(json.loads(stacked[0])["rows"]) == len(TABLE3_TAU)


def test_table3_single_tau_override():
    # 1e-10 is also the adapt default; given explicitly it still means one row
    for tau in ("1e-3", "1e-10"):
        spec = parse_run_spec(["table3", "--m", "200", "--k", "0,2,4", "--tau-gl", tau])
        _, rows = parse_csv(run(spec))
        assert len(rows) == 1
        assert rows[0][0] == float(tau)


def test_adapt_json_shape():
    spec = parse_run_spec(["adapt", "--m", "100", "--format", "json"])
    payload = json.loads(run(spec))
    assert set(payload) == {"spec", "columns", "rows", "m", "status", "iterations"}
    assert payload["m"] == 100
    assert payload["status"] == "converged"
    assert payload["columns"] == ["m", "iteration", "k", "tau_at", "eta1"]
    assert len(payload["rows"]) == len(payload["iterations"])
    for row in payload["iterations"]:
        assert set(row) == {
            "iteration", "k", "n_atomistic", "m_window", "tau_at", "eta1", "eta2"
        }
    assert [r["k"] for r in payload["iterations"]] == [0, 28, 32]


def test_adapt_csv_k_fallback_counts_atoms():
    # when a mark set is not a symmetric interval the k column reports the
    # atom count instead; every cell stays an integer
    spec = parse_run_spec(["adapt", "--m", "50", "--tau-gl", "1e-14"])
    header, rows = parse_csv(run(spec))
    assert header == ["m", "iteration", "k", "tau_at", "eta1"]
    assert all(isinstance(r[2], int) for r in rows)
    assert len(rows) >= 2
    assert rows[0][2] == 0
    assert rows[1][2] > 0


def test_fixed_k_json_payload():
    spec = parse_run_spec(["fixed-k", "--m", "100", "--k", "6", "--format", "json"])
    payload = json.loads(run(spec))
    assert set(payload) == {"spec", "columns", "rows", "report", "q_error"}
    assert payload["spec"]["mode"] == "fixed-k"
    assert payload["spec"]["m"] == [100]
    assert payload["spec"]["k"] == [6]
    assert len(payload["rows"]) == 1
    rep = payload["report"]
    assert rep["m"] == 100
    assert rep["eta1"] > 0
    assert abs(payload["q_error"]) <= rep["eta1"]
    # full precision in json: eta1 in the row equals the report value
    col = payload["columns"].index("eta1")
    assert payload["rows"][0][col] == rep["eta1"]


def test_table1_stacks_chain_sizes():
    spec = parse_run_spec(["table1", "--m", "50,100"])
    header, rows = parse_csv(run(spec))
    assert header == ["m", "iteration", "k", "tau_at", "eta1"]
    ms = sorted(set(r[0] for r in rows))
    assert ms == [50, 100]
    # iterations restart at 1 for each m
    firsts = [r for r in rows if r[1] == 1]
    assert len(firsts) == 2


def test_output_is_deterministic():
    argv = ["sweep-k", "--m", "300", "--k", "0,5,10"]
    assert run(parse_run_spec(argv)) == run(parse_run_spec(argv))


def test_main_writes_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["sweep-k", "--m", "40", "--k", "0,2", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    header, rows = parse_csv(out.read_text())
    assert header[0] == "k"
    assert len(rows) == 2


def test_main_writes_stdout(capsys):
    rc = main(["sweep-k", "--m", "40", "--k", "0"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("k,eta1,")
    assert len(text.splitlines()) == 2


def test_json_spec_echo_round_trips_numbers():
    spec = parse_run_spec(
        ["sweep-k", "--m", "40", "--k", "0,2", "--format", "json", "--k2", "0.5"]
    )
    payload = json.loads(run(spec))
    assert payload["spec"]["k2"] == 0.5
    assert payload["columns"][0] == "k"
    # rows carry full float precision (no %.6e rounding)
    eta1_col = payload["columns"].index("eta1")
    vals = [r[eta1_col] for r in payload["rows"]]
    assert all(isinstance(v, float) for v in vals)
    text_csv = run(parse_run_spec(["sweep-k", "--m", "40", "--k", "0,2", "--k2", "0.5"]))
    _, rows = parse_csv(text_csv)
    for v, r in zip(vals, rows):
        assert np.isclose(v, r[1], rtol=1e-6)
        assert f"{v:.6e}" == f"{r[1]:.6e}"
