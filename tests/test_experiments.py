import json
import math

import numpy as np
import pytest

from brightside.diagnostics import QuantileSpec, read_qq_csv, write_qq_csv
from brightside.experiments import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    load_samples_csv,
    resolve,
    run_experiment,
    run_sample,
    run_tune,
    validate_summary,
    write_samples_csv,
)
from brightside.targets import generate_separable_data, save_regression_csv

# desk-scale sizes small enough that every preset runs in well under a second
SMALL = dict(iterations=300, burnin=50, thinning=5, replicates=2,
             tuner_steps=3, tuner_batch=50)
REFERENCE_SIZE = {"cauchy": None, "skewt": 500, "logistic": 2, "robit": 2,
                  "custom": 2}
CUSTOM_DIM = 3  # differs from the regression presets' table dimension (5)
DIMENSION = {"cauchy": 10, "skewt": 10, "logistic": 5, "robit": 5,
             "custom": CUSTOM_DIM}


def small_config(preset, out, **overrides):
    """Desk-scale config; the custom preset gets a 3-column data set."""
    kw = dict(SMALL, preset=preset, out=str(out), seed=4,
              reference_size=REFERENCE_SIZE[preset])
    if preset == "custom":
        out.mkdir(parents=True, exist_ok=True)
        path = out / "custom_data.csv"
        data = generate_separable_data(20, CUSTOM_DIM, np.random.default_rng(0))
        save_regression_csv(data, path)
        kw["data_csv"] = str(path)
    kw.update(overrides)
    return ExperimentConfig(**kw)


def without(obj, key):
    """``obj`` with ``key`` dropped from every nested dict."""
    if isinstance(obj, dict):
        return {k: without(v, key) for k, v in obj.items() if k != key}
    return obj


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestResolve:
    def test_fills_every_table_default(self):
        cfg = resolve(ExperimentConfig(preset="robit"))
        assert isinstance(cfg, ExperimentConfig)
        assert (cfg.link, cfg.n_obs, cfg.tuner_steps, cfg.dimension) == (
            "robit", 30, 1000, 5)
        assert resolve(cfg) == cfg
        paper = resolve(ExperimentConfig(preset="robit", paper_scale=True))
        assert (paper.n_obs, paper.tuner_batch, paper.dimension) == (50, 2000,
                                                                    20)

    def test_user_values_win(self):
        cfg = resolve(ExperimentConfig(preset="skewt", dimension=4, nu=3))
        assert cfg.dimension == 4 and cfg.nu == 3.0
        assert cfg.burnin == 100

    def test_real_fields_are_floats(self):
        cfg = ExperimentConfig(ell_o=1, tuner_lr=1, link_nu=3, prior_nu=4,
                               h=1, nu=2)
        for name in ("ell_o", "tuner_lr", "link_nu", "prior_nu", "h", "nu"):
            assert type(getattr(cfg, name)) is float


class TestConfigErrors:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"preset": "cauchy", "colour": 1})

    def test_bad_preset(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown preset"):
            ExperimentConfig.from_dict({"preset": "gauss"})
        with pytest.raises(ConfigError, match="unknown preset"):
            run_experiment(ExperimentConfig(preset="gauss", out=str(tmp_path)))

    def test_custom_without_data_csv(self, tmp_path):
        with pytest.raises(ConfigError, match="data_csv"):
            ExperimentConfig.from_dict({"preset": "custom"})
        with pytest.raises(ConfigError, match="data_csv"):
            run_sample(ExperimentConfig(preset="custom", out=str(tmp_path)))

    def test_non_numeric_real_field(self):
        with pytest.raises(ConfigError, match="ell_o"):
            ExperimentConfig.from_dict({"ell_o": "wide"})

    def test_non_integer_field(self):
        with pytest.raises(ConfigError, match="iterations must be an integer"):
            ExperimentConfig.from_dict({"iterations": "100"})
        for value in (100.0, True):
            with pytest.raises(ConfigError, match="iterations"):
                ExperimentConfig(iterations=value)

    def test_non_boolean_field(self):
        with pytest.raises(ConfigError, match="paper_scale"):
            ExperimentConfig.from_dict({"paper_scale": "no"})
        with pytest.raises(ConfigError, match="tuner_enabled"):
            ExperimentConfig(tuner_enabled=1)
        assert ExperimentConfig(paper_scale=np.bool_(True)).paper_scale is True

    @pytest.mark.parametrize("name, value", [
        ("seed", -1), ("thinning", 0), ("replicates", 0), ("tuner_steps", 0),
        ("tuner_batch", 0), ("leapfrog_steps", 0), ("dimension", 0),
        ("n_obs", 1)])
    def test_out_of_range_field(self, name, value, tmp_path):
        # rejected up front, before the target is built or a chain runs
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig.from_dict({name: value})
        with pytest.raises(ConfigError, match=name):
            run_experiment(ExperimentConfig(preset="skewt", iterations=300, burnin=50,
                                            out=str(tmp_path), **{name: value}))

    def test_iterations_must_exceed_burnin(self):
        with pytest.raises(ConfigError, match="exceed burnin"):
            resolve(ExperimentConfig(iterations=10, burnin=10))


@pytest.mark.parametrize("preset", PRESETS)
class TestRunExperiment:
    def test_artifacts_validate_round_trip_and_repeat(self, preset, tmp_path):
        summaries = []
        for run in ("a", "b"):
            summary = run_experiment(small_config(preset, tmp_path / run))
            written = read_json(tmp_path / run / preset / "summary.json")
            assert written == json.loads(json.dumps(summary))
            validate_summary(written)
            summaries.append(written)
        a_dir, b_dir = tmp_path / "a" / preset, tmp_path / "b" / preset
        assert summaries[0]["methods"], "no method ran"
        assert without(summaries[0], "wall_time_total") == without(
            summaries[1], "wall_time_total")
        d = DIMENSION[preset]
        assert summaries[0]["dimension"] == d
        probs = np.asarray(QuantileSpec().probs)
        for method, entry in summaries[0]["methods"].items():
            qq_a = a_dir / entry["qq_csv"]
            assert qq_a.read_bytes() == (b_dir / entry["qq_csv"]).read_bytes()
            reports = read_qq_csv(qq_a)
            assert sorted(reports) == list(range(min(4, d)))
            for r in reports.values():
                np.testing.assert_array_equal(r.probs, probs)
            rewritten = tmp_path / f"{method}_again.csv"
            write_qq_csv(rewritten, reports)
            assert rewritten.read_bytes() == qq_a.read_bytes()


class TestSummaryWrite:
    def test_integer_ell_o_runs(self, tmp_path):
        summary = run_experiment(small_config("cauchy", tmp_path, ell_o=1))
        assert summary["ell_o"] == 1.0 and isinstance(summary["ell_o"], float)
        validate_summary(read_json(tmp_path / "cauchy" / "summary.json"))

    def test_invalid_summary_leaves_no_file(self, tmp_path, monkeypatch):
        # a summary that fails the schema check is not written
        def reject(summary):
            raise ValueError("summary key 'thinning' has wrong type")

        monkeypatch.setattr("brightside.experiments.validate_summary", reject)
        with pytest.raises(ValueError, match="thinning"):
            run_experiment(small_config("cauchy", tmp_path))
        assert not (tmp_path / "cauchy" / "summary.json").exists()

    def test_numpy_integer_field_runs(self, tmp_path):
        config = small_config("cauchy", tmp_path, thinning=np.int64(5))
        assert type(config.thinning) is int
        summary = run_experiment(config)
        assert summary["thinning"] == 5
        validate_summary(read_json(tmp_path / "cauchy" / "summary.json"))


@pytest.mark.parametrize("kernel", ["scs", "sps", "rwm", "hmc"])
@pytest.mark.parametrize("preset", PRESETS)
class TestRunSample:
    def test_samples_round_trip_and_repeat(self, preset, kernel, tmp_path):
        reports = [run_sample(small_config(preset, tmp_path / run,
                                           kernel=kernel))
                   for run in ("a", "b")]
        assert without(reports[0], "wall_time") == without(reports[1],
                                                           "wall_time")
        path = tmp_path / "a" / "samples.csv"
        assert path.read_bytes() == (tmp_path / "b" / "samples.csv").read_bytes()
        written = read_json(tmp_path / "a" / "report.json")
        assert written == json.loads(json.dumps(reports[0]))
        iters, samples = load_samples_csv(path)
        burnin, thinning = SMALL["burnin"], SMALL["thinning"]
        n_keep = (SMALL["iterations"] - burnin) // thinning
        np.testing.assert_array_equal(
            iters, burnin + thinning * np.arange(1, n_keep + 1))
        assert written["dimension"] == DIMENSION[preset]
        assert samples.shape == (n_keep, DIMENSION[preset])
        assert np.all(np.isfinite(samples))
        again = tmp_path / "again.csv"
        write_samples_csv(again, samples, burnin=burnin, thinning=thinning)
        assert again.read_bytes() == path.read_bytes()


class TestRunTune:
    def test_skewt_preset_writes_finite_alignment(self, tmp_path):
        config = ExperimentConfig(preset="skewt", tuner_steps=3, tuner_batch=50,
                                  out=str(tmp_path))
        data = run_tune(config)
        with open(tmp_path / "tune.json") as fh:
            written = json.load(fh)
        assert written["alignment"]["final_mu_rel"] == data["alignment"]["final_mu_rel"]
        assert math.isfinite(written["alignment"]["final_mu_rel"])

    def test_records_rescales_and_final_margin(self, tmp_path):
        config = ExperimentConfig(preset="skewt", tuner_steps=3, tuner_batch=50,
                                  out=str(tmp_path))
        data = run_tune(config)
        written = read_json(tmp_path / "tune.json")
        assert isinstance(written["h_o_rescaled"], int)
        assert written["h_o_rescaled"] == data["h_o_rescaled"]
        h_o = np.asarray(written["theta_bar"]["h_o"])
        margin = 1.0 - float(h_o @ h_o) - (config.ell_o - 1.0) ** 2
        assert written["final_margin"] == margin

    @pytest.mark.parametrize("preset", ["skewt", "custom"])
    def test_theta_bar_matches_run_experiment(self, preset, tmp_path):
        config = small_config(preset, tmp_path, tuner_steps=5,
                              tuner_batch=100)
        tuned = run_tune(config)
        summary = run_experiment(config)
        assert tuned["theta_bar"] == summary["tuner"]["theta_bar"]
        assert read_json(tmp_path / "tune.json") == tuned
