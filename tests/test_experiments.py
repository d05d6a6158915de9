import dataclasses
import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cutlab import cli, cuts, experiments, graph

from cutlab.core_model import read_expanded_core
from cutlab.errors import ConfigError
from cutlab.experiments import (
    ExperimentConfig,
    TrialRecord,
    _dispatch,
    emit_plot_data,
    fit_power_law,
    records_to_csv,
    run_experiment,
)
from cutlab.graph import read_edge_list
from cutlab.hom import no_hom_certificate


def mini_config(**overrides):
    data = {
        "experiment": "maxcut_scaling",
        "eps_grid": [0.2, 0.4],
        "n_grid": [1500],
        "trials": 2,
        "seed": 17,
    }
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


def test_config_validation():
    with pytest.raises(ConfigError):
        mini_config(experiment="nope")
    with pytest.raises(ConfigError):
        mini_config(eps_grid=[])
    with pytest.raises(ConfigError):
        mini_config(eps_grid=[1.2])
    with pytest.raises(ConfigError):
        mini_config(trials=0)
    with pytest.raises(ConfigError):
        mini_config(n_grid=[0])
    with pytest.raises(ConfigError):
        mini_config(bogus_field=1)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "hom"})


@pytest.mark.parametrize("field, value", [
    ("eps_grid", 0.3), ("eps_grid", [None]), ("eps_grid", ["0.3"]),
    ("eps_grid", [True]), ("n_grid", 5), ("n_grid", [None]),
    ("trials", None), ("options", 3),
    ("n_grid", [2000.7]), ("n_grid", [True]), ("n_grid", ["2000"]),
    ("n_grid", "2000"), ("trials", 1.9), ("trials", True), ("trials", "2"),
    ("seed", "7"), ("seed", 7.0), ("seed", False), ("seed", -1),
    ("seed", 2 ** 64), ("workers", 1.0), ("workers", True),
    ("eps_grid", [0.3, 0.3]), ("eps_grid", [0.2, 0.4, 0.2]),
    ("n_grid", [2000, 2000]),
    ("out", 5), ("out", ["a.csv"]), ("name", ["a"]), ("name", 3),
    ("name", "a,b"), ("name", "a\nb"), ("name", "a\r"),
])
def test_config_rejects_values_of_the_wrong_type(field, value):
    with pytest.raises(ConfigError):
        mini_config(**{field: value})


def test_config_accepts_the_full_seed_range():
    assert mini_config(seed=0).seed == 0
    assert mini_config(seed=2 ** 64 - 1).seed == 2 ** 64 - 1


@pytest.mark.parametrize("options", [
    {"mode": "kscan", "k": True}, {"mode": "kscan", "k": -1},
    {"mode": "far", "dist_limit": "14"}, {"mode": 3}, {"mode": None},
    {"mode": "band", "k": 2}, {"mode": "far", "crosscheck": True},
])
def test_tournament_options_reject_undeclared_keys_and_types(options):
    with pytest.raises(ConfigError):
        mini_config(experiment="tournament", options=options)


def test_options_resolve_to_every_declared_default():
    assert mini_config().options == {}
    assert mini_config(experiment="hom").options == {"crosscheck": False}
    far = mini_config(experiment="tournament",
                      options={"mode": "far", "dist_limit": 0})
    assert far.schema == "tournament_far"
    assert far.options == {"mode": "far", "budget": 10_000_000,
                           "dist_limit": 0}
    band = mini_config(experiment="tournament")
    assert (band.schema, band.options) == ("tournament_band", {"mode": "band"})


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name, digest", [
    ("scaling_smoke",
     "f1dc20aac2de2e6bec13b68fe4e39d0bdfd38d3bfa30fbdae5573518e28ffc21"),
    ("replay_mini",
     "ca0cec9ccfd261297e84e7256f216a0172d9f46ced342f16ae940c9fed0c3f22"),
    ("hom_small_n",
     "431afb9b5efd9cd1b224a8e54f766896406ee21b31599a1ea423f92d7d9afb56"),
    ("tournament_far_trend",
     "22a9eae5234f495daf40f8e412bcdf488eaeae485bf107e300de465f19571bdf"),
])
def test_named_config_csv_is_byte_identical(name, digest):
    data = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    data["out"] = None
    cfg = ExperimentConfig.from_dict(data)
    records, _ = run_experiment(cfg)
    csv_text = records_to_csv(records, cfg.schema)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == digest


def test_kscan_grid_skips_eps_range_check():
    cfg = ExperimentConfig.from_dict({
        "experiment": "tournament",
        "eps_grid": [2.0, 6.0],
        "n_grid": [8],
        "trials": 1,
        "seed": 1,
        "options": {"mode": "kscan", "k": 3},
    })
    records, _ = run_experiment(cfg)
    assert len(records) == 2
    assert all("chi" in r.stats for r in records)


def test_replay_is_byte_identical():
    cfg = mini_config()
    a, _ = run_experiment(cfg)
    b, _ = run_experiment(cfg)
    assert records_to_csv(a, cfg.schema) == records_to_csv(b, cfg.schema)


def test_workers_do_not_change_output():
    serial = mini_config(n_grid=[800])
    parallel = mini_config(n_grid=[800], workers=2)
    a, _ = run_experiment(serial)
    b, _ = run_experiment(parallel)
    assert records_to_csv(a, serial.schema) == records_to_csv(b, parallel.schema)


def test_single_trial_reproducible_from_stream():
    cfg = mini_config()
    records, _ = run_experiment(cfg)
    probe = records[3]
    again = _dispatch(cfg, probe.stream)
    assert again.stats == probe.stats
    assert (again.eps, again.n) == (probe.eps, probe.n)


def test_rows_sorted_by_eps_n_stream():
    cfg = mini_config(eps_grid=[0.4, 0.2])  # unsorted grid on purpose
    records, _ = run_experiment(cfg)
    lines = records_to_csv(records, cfg.schema).splitlines()[1:]
    keys = []
    for ln in lines:
        parts = ln.split(",")
        keys.append((float(parts[1]), int(parts[2]), int(parts[3])))
    assert keys == sorted(keys)


def test_fit_power_law_recovers_exponent():
    xs = [0.1, 0.2, 0.3, 0.4]
    ys = [2.5 * x ** 3 for x in xs]
    fit = fit_power_law(xs, ys)
    assert abs(fit.exponent - 3.0) < 1e-9
    assert abs(fit.amplitude - 2.5) < 1e-9
    assert fit.r2 > 0.999999


def test_fit_power_law_validation():
    with pytest.raises(ValueError):
        fit_power_law([0.1], [1.0])
    with pytest.raises(ValueError):
        fit_power_law([0.1, 0.2], [0.0, 1.0])


def test_hom_experiment_crosscheck():
    cfg = ExperimentConfig.from_dict({
        "experiment": "hom",
        "eps_grid": [0.9],
        "n_grid": [30],
        "trials": 12,
        "seed": 23,
        "options": {"crosscheck": True},
    })
    records, fit = run_experiment(cfg)
    assert fit is None
    assert all(r.stats["crosscheck"] == 1 for r in records)
    fired = [r for r in records if r.stats["least_cert_ell"] > 0]
    assert fired, "expected at least one certificate to fire"
    for r in fired:
        assert r.stats["ell_eps"] >= 1


def test_tournament_band_mode():
    cfg = ExperimentConfig.from_dict({
        "experiment": "tournament",
        "eps_grid": [0.5],
        "n_grid": [18],
        "trials": 10,
        "seed": 29,
        "options": {"mode": "band"},
    })
    records, _ = run_experiment(cfg)
    for r in records:
        assert r.stats["two_colorable"] in (0, 1)
        if r.stats["b_bipartite"]:
            assert r.stats["two_colorable"] == 1


def test_tournament_far_mode():
    cfg = ExperimentConfig.from_dict({
        "experiment": "tournament",
        "eps_grid": [0.5],
        "n_grid": [12],
        "trials": 6,
        "seed": 31,
        "options": {"mode": "far"},
    })
    records, _ = run_experiment(cfg)
    for r in records:
        assert r.stats["dist_tour"] >= 0
        assert r.stats["h_found"] in (0, 1)
        assert 0 <= r.stats["long_backedges"] <= r.stats["backedges"]


def test_tournament_band_interior_at_n2000():
    # at p = 0.5/n the backedge graph is bipartite often but not always
    cfg = ExperimentConfig.from_dict({
        "experiment": "tournament",
        "eps_grid": [0.5],
        "n_grid": [2000],
        "trials": 500,
        "seed": 33,
        "options": {"mode": "band"},
    })
    records, _ = run_experiment(cfg)
    frac = sum(r.stats["b_bipartite"] for r in records) / len(records)
    assert 0.0 < frac < 1.0


def test_small_p_backedge_certificate_fires():
    # p well below 1/n: the bipartite-backedge certificate almost always fires
    import math

    n = 10 ** 4
    cfg = ExperimentConfig.from_dict({
        "experiment": "tournament",
        "eps_grid": [1.0 - 1.0 / math.log(n)],  # p = 1/(n log n)
        "n_grid": [n],
        "trials": 100,
        "seed": 34,
        "options": {"mode": "band"},
    })
    records, _ = run_experiment(cfg)
    assert sum(r.stats["b_bipartite"] for r in records) >= 95


def test_hom_reported_ell_decreases_with_eps():
    from cutlab.hom import ell_epsilon

    cfg = ExperimentConfig.from_dict({
        "experiment": "hom",
        "eps_grid": [0.35, 0.6, 0.9],
        "n_grid": [34],
        "trials": 25,
        "seed": 99,
    })
    records, _ = run_experiment(cfg)
    ells = []
    for eps in cfg.eps_grid:
        cell = [r.stats["delta"] for r in records if r.eps == eps]
        mean_delta = float(np.mean(cell))
        assert mean_delta > 0
        ells.append(ell_epsilon(mean_delta))
    assert ells[0] > ells[-1]
    assert all(a >= b for a, b in zip(ells, ells[1:]))


def test_kscan_two_colorability_threshold_shape():
    cfg = ExperimentConfig.from_dict({
        "experiment": "tournament",
        "eps_grid": [0.5, 2.0, 4.0],
        "n_grid": [12],
        "trials": 60,
        "seed": 1701,
        "options": {"mode": "kscan", "k": 2},
    })
    records, _ = run_experiment(cfg)
    fracs = []
    for c in cfg.eps_grid:
        cell = [r.stats["within_k"] for r in records if r.eps == c]
        fracs.append(float(np.mean(cell)))
    assert fracs[0] > 0.9
    assert fracs[-1] < 0.5
    assert fracs[0] >= fracs[1] >= fracs[2]


MAXCUT_COLUMNS = experiments._SCHEMAS["maxcut_scaling"].columns


def maxcut_record(eps, n, stream, *stats):
    return TrialRecord("x", eps, n, stream, dict(zip(MAXCUT_COLUMNS, stats)))


def test_emit_plot_data_shapes():
    empty = emit_plot_data([], "maxcut_scaling")
    assert len(empty.splitlines()) == 1

    one = [maxcut_record(0.2, 100, 0, 50, 40, 10, 11, 3, 2, 1, 4, 5, 3, 0.05,
                         0.6)]
    out = emit_plot_data(one, "maxcut_scaling")
    lines = out.splitlines()
    assert len(lines) == 2
    row = lines[1].split(" ")
    assert row[0] == "0.2" and row[1] == "100" and row[2] == "1"
    assert "" in row  # absent stderr for a single observation

    two = [maxcut_record(0.4, 100, 1, 60, 50, 20, 21, 5, 4, 1, 6, 7, 4, 0.07,
                         0.57)] + one
    out2 = emit_plot_data(two, "maxcut_scaling")
    assert len(out2.splitlines()) == 3
    assert out2.splitlines()[1].split(" ")[0] == "0.2"
    assert out2.splitlines()[2].split(" ")[0] == "0.4"


# Runs of every schema with sha256 digests of their aggregates, taken from
# the CSV-parsing aggregator this one replaced: a multi-n grid, a kscan c
# given as a JSON int, cells of more than eight trials, hom with the
# crosscheck on, and one-trial cells whose stderr fields stay empty.  The
# second digest is the header-only aggregate of no records.
AGGREGATE_RUNS = {
    "maxcut_scaling": (
        {"experiment": "maxcut_scaling", "eps_grid": [0.2, 0.4],
         "n_grid": [300, 600], "trials": 2, "seed": 17},
        "4c9ca3a0f2f00d7429f55672bb7afe1cfc726a7e277182970cd02c503c8acd15",
        "2bde90a6904bd643101fd5d107f0eb3d1d9c04d99b7ae468b979be2f6f32c39a"),
    "tournament_kscan": (
        {"experiment": "tournament", "eps_grid": [1, 3.5], "n_grid": [8],
         "trials": 10, "seed": 5, "options": {"mode": "kscan", "k": 2}},
        "5755f3cb671b7646bb4f03c09e42a34e63595ff15fbb6063745a8f91c9c616db",
        "5dc8f6002d6c235e228da19e8775097cb171b973f55b4310e215fb604fe58771"),
    "tournament_band": (
        {"experiment": "tournament", "eps_grid": [0.4], "n_grid": [14, 20],
         "trials": 3, "seed": 7},
        "da9f93ca8ddd714f5bac240d82690d53b2db867f583b4d413b1e0f946386ed3f",
        "04014ab8cfc955636ce8c94c9db76099b7520dab9c665ee2093250078ece48f1"),
    "hom": (
        {"experiment": "hom", "eps_grid": [0.5, 0.9], "n_grid": [12, 20],
         "trials": 6, "seed": 3, "options": {"crosscheck": True}},
        "099d4e70facf3a02edf41506be987853095bdd7a2caf75eda0c1485682d164ff",
        "e517752764dbeda2344d3bc3454d16fda8bda898383172d1de5545c1eba9d4f2"),
    "tournament_far": (
        {"experiment": "tournament", "eps_grid": [0.5], "n_grid": [10, 12],
         "trials": 1, "seed": 9, "options": {"mode": "far"}},
        "ae8379556eae85fdb00a0b4542814659592d3779cc1d0da7b0a700e22386eaf5",
        "9b1da16ed84b4af3a15d9cc45ef787db44c0ae7fb92eeb378558f89c82c16635"),
}


@pytest.mark.parametrize("schema", sorted(AGGREGATE_RUNS))
def test_emit_plot_data_is_pinned(schema):
    data, digest, empty_digest = AGGREGATE_RUNS[schema]
    cfg = ExperimentConfig.from_dict(data)
    assert cfg.schema == schema
    records, _ = run_experiment(cfg)

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert sha(emit_plot_data(records, schema)) == digest
    assert sha(emit_plot_data([], schema)) == empty_digest


def test_least_certified_ell_is_the_certificate_loop():
    for m in range(300):
        g = SimpleNamespace(m=m)  # the certificate reads only the edge count
        for bound in range(1, m + 2):
            loop = next((ell for ell in range(1, 11)
                         if no_hom_certificate(g, ell, bound)), -1)
            assert experiments._least_certified_ell(m, bound) == loop


# --- CLI ---------------------------------------------------------------------

def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cutlab.cli", *args],
        capture_output=True, text=True
    )


def test_cli_gen_maxcut_pipeline(tmp_path):
    path = tmp_path / "g.txt"
    r = run_cli("gen", "--model", "gnp", "--n", "12", "--p", "0.3",
                "--seed", "5", "--out", str(path))
    assert r.returncode == 0
    g = read_edge_list(path)
    assert g.n == 12

    r = run_cli("maxcut", "--input", str(path))
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["cut_size"] >= g.m / 2


def test_cli_dlp_sample_roundtrip(tmp_path):
    path = tmp_path / "core.txt"
    r = run_cli("dlp-sample", "--n", "2000", "--eps", "0.3",
                "--seed", "3", "--out", str(path))
    assert r.returncode == 0
    core = read_expanded_core(path)
    assert core.graph.m == int(core.path_lengths.sum())
    summary = json.loads(r.stderr.strip().splitlines()[-1])
    assert summary["kernel_edges"] == core.kernel.m


def test_cli_hom(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("3 3\n0 1\n0 2\n1 2\n")
    r = run_cli("hom", "--input", str(path), "--ell", "2")
    assert r.returncode == 0 and r.stdout.strip() == "NONE"
    r = run_cli("hom", "--input", str(path), "--ell", "1")
    assert r.returncode == 0
    assert len(r.stdout.strip().splitlines()) == 3


def test_cli_exit_codes(tmp_path):
    r = run_cli("experiment")
    assert r.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("experiment", "--config", str(bad))
    assert r.returncode == 2
    r = run_cli("tournament", "--n", "30", "--p", "0.1", "--chi")
    assert r.returncode == 3
    missing = tmp_path / "missing.txt"
    r = run_cli("maxcut", "--input", str(missing))
    assert r.returncode == 2


@pytest.mark.parametrize("limit", ["31", "70", "-1"])
def test_cli_maxcut_limit_outside_the_guard_exits_2(tmp_path, limit):
    # a path on 70 vertices: --limit 70 would enumerate 2^69 labelings
    path = tmp_path / "path.txt"
    path.write_text("70 69\n" + "".join(f"{v} {v + 1}\n" for v in range(69)))
    r = run_cli("maxcut", "--input", str(path), "--method", "exact",
                "--limit", limit)
    assert r.returncode == 2, r.stderr
    assert "--limit must be in 0..30" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command, text", [
    ("maxcut", "3 1\n0 99999999999999999999"),
    ("tournament", "3 1\n1 99999999999999999999"),
    ("tournament", "99999999999999999999 0"),
], ids=["edge", "backedge", "header"])
def test_cli_huge_value_exits_2(tmp_path, command, text):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    r = run_cli(command, "--input", str(path))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr


def test_cli_experiment_replay(tmp_path):
    cfg = {
        "experiment": "tournament",
        "eps_grid": [0.4],
        "n_grid": [14],
        "trials": 4,
        "seed": 7,
        "options": {"mode": "band"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    agg = tmp_path / "agg.txt"
    r1 = run_cli("experiment", "--config", str(cfg_path), "--out", str(out1),
                 "--aggregate", str(agg))
    r2 = run_cli("experiment", "--config", str(cfg_path), "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert agg.read_text().splitlines()[0].startswith("eps n trials")


def test_cli_aggregate_is_pinned(tmp_path):
    # digests taken from the CSV-parsing aggregator this one replaced; with
    # no --out the CSV goes to stdout
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "maxcut_scaling", "eps_grid": [0.3, 0.5],
        "n_grid": [400], "trials": 3, "seed": 21,
    }))
    agg = tmp_path / "agg.txt"
    r = run_cli("experiment", "--config", str(cfg_path), "--aggregate",
                str(agg))
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(agg.read_bytes()).hexdigest() == (
        "b2656b80d7d69690bd5b0008e54ed7771d4997cf2cdd63b8fdbd57c00a214155")
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
        "0ff8884daa9aae9c510f0e2faed17d4402c6a3e848fb2189b9f39581650b211d")


@pytest.mark.parametrize("grid", [0.3, [None]])
def test_cli_bad_eps_grid_exits_2(tmp_path, grid):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({
        "experiment": "maxcut_scaling", "eps_grid": grid, "n_grid": [100],
        "trials": 1, "seed": 1,
    }))
    r = run_cli("experiment", "--config", str(cfg_path))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("experiment, options", [
    ("hom", {"kernel_limit": 24}),
    ("hom", {"ell_min": 1}),
    ("hom", {"ell_max": 10}),
    ("hom", {"node_limit": 60}),
    ("hom", {"edge_limit": 120}),
    ("tournament", {"mode": "band", "two_color_limit": 0}),
    ("tournament", {"mode": "far", "alpha": 0.5}),
    ("tournament", {"mode": "kscan", "chi_limit": 12}),
    ("hom", {"ell_maxx": 3}),
    ("tournament", {"mode": "kscan", "k": None}),
    ("hom", {"crosscheck": "no"}),
    ("tournament", {"mode": "far", "budget": 2.5}),
    ("maxcut_scaling", {"mode": "band"}),
    ("tournament", {"mode": "bogus"}),
], ids=["kernel_limit", "ell_min", "ell_max", "node_limit", "edge_limit",
        "two_color_limit", "alpha", "chi_limit", "typo", "k_null",
        "crosscheck_str", "budget_float", "mode_on_maxcut", "mode_bogus"])
def test_cli_bad_option_exits_2(tmp_path, experiment, options):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({
        "experiment": experiment, "eps_grid": [0.5], "n_grid": [12],
        "trials": 1, "seed": 1, "options": options,
    }))
    r = run_cli("experiment", "--config", str(cfg_path))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""  # rejected at load, before any trial

@pytest.mark.parametrize("fields", [
    {"eps_grid": [0.3], "n_grid": [2000.7], "trials": 1.9, "seed": "7"},
    {"eps_grid": [0.3, 0.3], "n_grid": [2000], "trials": 2, "seed": 1},
], ids=["truncated_ints", "repeated_eps"])
def test_cli_bad_config_exits_2_before_any_trial(tmp_path, fields):
    cfg_path, out = tmp_path / "bad.json", tmp_path / "bad.csv"
    cfg_path.write_text(json.dumps({"experiment": "maxcut_scaling", **fields}))
    r = run_cli("experiment", "--config", str(cfg_path), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == "" and not out.exists()


def test_cli_seed_flag_is_read_in_every_spelling(tmp_path):
    # argparse takes --seed=7 and any unique prefix such as --se
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "tournament", "eps_grid": [0.4], "n_grid": [14],
        "trials": 4, "seed": 1}))
    csv = {}
    for flags in (["--seed", "7"], ["--se", "7"], ["--seed=7"], []):
        out = tmp_path / f"run{len(csv)}.csv"
        code = cli.main(["experiment", "--config", str(cfg_path),
                         "--out", str(out), *flags])
        assert code == 0
        csv[" ".join(flags)] = out.read_bytes()
    assert csv["--se 7"] == csv["--seed=7"] == csv["--seed 7"] != csv[""]


@pytest.mark.parametrize("fields, message", [
    ({"experiment": "maxcut_scaling", "eps_grid": [0.3],
      "n_grid": [30, 200_000_000]}, "at most 2^27"),
    *(({"experiment": "tournament", "eps_grid": [2.0, c], "n_grid": [8],
        "options": {"mode": "kscan"}}, "finite and non-negative")
      for c in (-1.0, float("nan"), float("inf"))),
    ({"experiment": "maxcut_scaling", "eps_grid": [0.3], "n_grid": [50, 1]},
     "at least 2"),
    ({"experiment": "tournament", "eps_grid": [0.5], "n_grid": [8, 15],
      "options": {"mode": "far", "dist_limit": 20}}, "in 0..14"),
], ids=["n_past_sampler_bound", "kscan_negative_c", "kscan_nan_c",
        "kscan_infinite_c", "n_without_a_pair", "far_dist_limit_past_guard"])
def test_cli_value_a_trial_would_reject_exits_2_before_any_trial(
        tmp_path, fields, message):
    # each bad value sits after a cell that would run; json.load reads
    # the NaN and Infinity that json.dumps writes
    cfg_path, out = tmp_path / "bad.json", tmp_path / "bad.csv"
    cfg_path.write_text(json.dumps({"trials": 1, "seed": 1, **fields}))
    r = run_cli("experiment", "--config", str(cfg_path), "--out", str(out),
                "--progress")
    assert r.returncode == 2, r.stderr
    assert message in r.stderr and "done" not in r.stderr
    assert r.stdout == "" and not out.exists()


@pytest.mark.parametrize("fields", [{"out": 5}, {"name": ["a"]}, {"name": "a,b"}],
                         ids=["out_int", "name_list", "name_comma"])
def test_cli_bad_out_or_name_exits_2_before_any_trial(tmp_path, fields):
    cfg_path, out = tmp_path / "bad.json", tmp_path / "bad.csv"
    cfg_path.write_text(json.dumps({
        "experiment": "tournament", "eps_grid": [0.4], "n_grid": [14],
        "trials": 1, "seed": 7, **fields}))
    r = run_cli("experiment", "--config", str(cfg_path), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == "" and not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_cli_workers_zero_exits_2():
    config = str(CONFIG_DIR / "replay_mini.json")
    r = run_cli("experiment", "--config", config, "--workers", "0")
    assert r.returncode == 2 and "workers" in r.stderr


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_cli_two_point_fit_writes_strict_json(tmp_path):
    out = tmp_path / "mini.csv"
    r = run_cli("experiment", "--config", str(CONFIG_DIR / "replay_mini.json"),
                "--out", str(out))
    assert r.returncode == 0
    fit = _strict_json((tmp_path / "mini.csv.fit.json").read_text())
    assert fit["points"] == 2
    assert fit["stderr"] is None and fit["ci"] == [None, None]
    line = _strict_json(r.stderr.strip().splitlines()[-1])
    assert line["fit"] == fit


def test_scaling_smoke_csv_holds_under_python_O(tmp_path):
    # every contract raises explicitly, so -O (which strips asserts) changes
    # nothing: the trial runs the same checks and writes the same bytes
    out = tmp_path / "smoke.csv"
    r = subprocess.run(
        [sys.executable, "-O", "-m", "cutlab.cli", "experiment", "--config",
         str(CONFIG_DIR / "scaling_smoke.json"), "--out", str(out)],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "f1dc20aac2de2e6bec13b68fe4e39d0bdfd38d3bfa30fbdae5573518e28ffc21"


# --- the trial's passes and its odd-chain certificate ------------------------

def test_maxcut_trial_labels_once_and_runs_no_bipartiteness_test(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (graph, cuts, experiments):
        for name in ("component_labels", "is_bipartite"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(graph, name)))
    cfg = mini_config(eps_grid=[0.3], n_grid=[20000], trials=1)
    stats = _dispatch(cfg, 0).stats
    assert stats["odd_paths"] > 0
    assert calls == {"component_labels": 1}


def test_maxcut_trial_certifies_the_chain_table(monkeypatch):
    # the giant cut gets its own decomposition, so only the odd-chain cut
    # reads the broken table: chain 0's last edge moved onto chain 1
    def broken(g):
        dec = graph.decompose_giant(g)
        lengths = dec.paths.lengths.copy()
        lengths[:2] += (-1, 1)
        return dataclasses.replace(
            dec, paths=dataclasses.replace(dec.paths, lengths=lengths))

    monkeypatch.setattr(experiments, "decompose_giant", broken)
    monkeypatch.setattr(experiments, "giant_cut_algorithm",
                        lambda g, dec: cuts.giant_cut_algorithm(g))
    cfg = mini_config(eps_grid=[0.3], n_grid=[20000], trials=1)
    with pytest.raises(AssertionError, match="odd-path deletion"):
        _dispatch(cfg, 0)


# --- the schema table ---------------------------------------------------------

def test_csv_headers_are_pinned():
    headers = {schema: records_to_csv([], schema) for schema in (
        "maxcut_scaling", "hom", "tournament_band", "tournament_far",
        "tournament_kscan")}
    assert headers == {
        "maxcut_scaling": "experiment,eps,n,stream,m_edges,giant_v,core_v,"
        "core_e,kernel_paths,odd_paths,small_deleted,deficit,"
        "model_kernel_edges,model_odd_paths,model_ek_per_n,model_odd_frac\n",
        "hom": "experiment,eps,n,stream,m_edges,dist_lb,delta,least_cert_ell,"
        "ell_eps,crosscheck\n",
        "tournament_band": "experiment,eps,n,stream,backedges,b_bipartite,"
        "two_colorable\n",
        "tournament_far": "experiment,eps,n,stream,backedges,long_backedges,"
        "h_found,h_exhausted,dist_tour\n",
        "tournament_kscan": "experiment,c,n,stream,backedges,chi,within_k\n",
    }


@pytest.mark.parametrize("keys", [
    ("backedges", "b_bipartite"),
    ("backedges", "b_bipartite", "two_colorable", "chi"),
    ("b_bipartite", "backedges", "two_colorable"),
], ids=["missing", "extra", "reordered"])
def test_dispatch_rejects_stats_that_differ_from_the_columns(monkeypatch, keys):
    schema = experiments._SCHEMAS["tournament_band"]
    monkeypatch.setitem(experiments._SCHEMAS, "tournament_band", schema._replace(
        trial=lambda opts, eps, n, gen: dict.fromkeys(keys, 0)))
    cfg = mini_config(experiment="tournament", eps_grid=[0.4], n_grid=[14],
                      trials=1)
    with pytest.raises(AssertionError, match="trial returned columns"):
        _dispatch(cfg, 0)


# --- the worker pool ---------------------------------------------------------

def test_pool_holds_at_most_one_worker_per_trial_and_per_cpu(monkeypatch):
    sizes = []

    class Recorder:  # records the pool size and runs the trials here
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    band = {"experiment": "tournament", "eps_grid": [0.4], "n_grid": [14]}
    want = None
    for trials, workers in [(1, 5000), (3, 5000), (6, 5000), (6, 2), (6, 1)]:
        cfg = mini_config(**band, trials=trials, workers=workers)
        records, _ = run_experiment(cfg)
        assert len(records) == trials
        if trials == 6:  # the output does not depend on the pool
            csv_text = records_to_csv(records, cfg.schema)
            assert want in (None, csv_text)
            want = csv_text
    assert sizes == [3, 4, 2]
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    run_experiment(mini_config(**band, trials=6, workers=5000))
    assert sizes == [3, 4, 2]  # an unknown CPU count runs in this process
