import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cutlab.core_model import read_expanded_core
from cutlab.errors import ConfigError
from cutlab.experiments import (
    ExperimentConfig,
    _dispatch,
    emit_plot_data,
    fit_power_law,
    records_to_csv,
    run_experiment,
)
from cutlab.graph import read_edge_list


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
])
def test_config_rejects_values_of_the_wrong_type(field, value):
    with pytest.raises(ConfigError):
        mini_config(**{field: value})


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name, digest", [
    ("scaling_smoke",
     "f1dc20aac2de2e6bec13b68fe4e39d0bdfd38d3bfa30fbdae5573518e28ffc21"),
    ("replay_mini",
     "ca0cec9ccfd261297e84e7256f216a0172d9f46ced342f16ae940c9fed0c3f22"),
    ("hom_small_n",
     "431afb9b5efd9cd1b224a8e54f766896406ee21b31599a1ea423f92d7d9afb56"),
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
    again = _dispatch(cfg.to_dict(), probe.stream)
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
        "options": {"crosscheck": True, "ell_max": 10},
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
        "options": {"mode": "band", "two_color_limit": 0},
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
        "options": {"mode": "band", "two_color_limit": 0},
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


def test_emit_plot_data_shapes():
    header = ("experiment,eps,n,stream,m_edges,giant_v,core_v,core_e,"
              "kernel_paths,odd_paths,small_deleted,deficit,"
              "model_kernel_edges,model_odd_paths,model_ek_per_n,"
              "model_odd_frac")
    empty = emit_plot_data(header + "\n")
    assert len(empty.splitlines()) == 1

    one = header + "\n" + "x,0.2,100,0,50,40,10,11,3,2,1,4,5,3,0.05,0.6\n"
    out = emit_plot_data(one)
    lines = out.splitlines()
    assert len(lines) == 2
    row = lines[1].split(" ")
    assert row[0] == "0.2" and row[1] == "100" and row[2] == "1"
    assert "" in row  # absent stderr for a single observation

    two = one + "x,0.4,100,1,60,50,20,21,5,4,1,6,7,4,0.07,0.57\n"
    out2 = emit_plot_data(two)
    assert len(out2.splitlines()) == 3
    assert out2.splitlines()[1].split(" ")[0] == "0.2"
    assert out2.splitlines()[2].split(" ")[0] == "0.4"


def test_emit_plot_data_rejects_bad_schema():
    with pytest.raises(ConfigError):
        emit_plot_data("")
    with pytest.raises(ConfigError):
        emit_plot_data("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        emit_plot_data("experiment,eps,n,stream,x\nbad_row\n")


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
