import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from brightside import experiments
from brightside.diagnostics import DEFAULT_PROBS, read_qq_csv, write_qq_csv
from brightside.errors import BrightsideError, EmptyInput
from brightside.experiments import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    build_target,
    load_samples_csv,
    reference_quantiles,
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
    def test_is_a_package_error(self):
        assert issubclass(ConfigError, BrightsideError)
        assert issubclass(ConfigError, ValueError)

    def test_bad_preset(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown preset"):
            ExperimentConfig(preset="gauss")
        with pytest.raises(ConfigError, match="unknown preset"):
            run_experiment(ExperimentConfig(preset="gauss", out=str(tmp_path)))

    def test_custom_without_data_csv(self, tmp_path):
        with pytest.raises(ConfigError, match="data_csv"):
            ExperimentConfig(preset="custom")
        with pytest.raises(ConfigError, match="data_csv"):
            run_sample(ExperimentConfig(preset="custom", out=str(tmp_path)))

    def test_non_numeric_real_field(self):
        with pytest.raises(ConfigError, match="ell_o"):
            ExperimentConfig(ell_o="wide")

    def test_non_integer_field(self):
        with pytest.raises(ConfigError, match="iterations must be an integer"):
            ExperimentConfig(iterations="100")
        for value in (100.0, True):
            with pytest.raises(ConfigError, match="iterations"):
                ExperimentConfig(iterations=value)

    def test_non_path_field(self, tmp_path):
        # an int would reach open() as a file descriptor; 0 is stdin
        with pytest.raises(ConfigError, match="data_csv"):
            ExperimentConfig(preset="custom", data_csv=0, out=str(tmp_path))
        for value in (7, None, b"out"):
            with pytest.raises(ConfigError, match="out must be"):
                ExperimentConfig(out=value)
        cfg = ExperimentConfig(preset="custom", data_csv=tmp_path / "data.csv",
                               out=tmp_path)
        assert cfg.out == tmp_path and ExperimentConfig().data_csv is None

    def test_non_boolean_field(self):
        with pytest.raises(ConfigError, match="paper_scale"):
            ExperimentConfig(paper_scale="no")
        with pytest.raises(ConfigError, match="tuner_enabled"):
            ExperimentConfig(tuner_enabled=1)
        assert ExperimentConfig(paper_scale=np.bool_(True)).paper_scale is True

    @pytest.mark.parametrize("name, value", [
        ("seed", -1), ("thinning", 0), ("replicates", 0), ("tuner_steps", 0),
        ("tuner_batch", 0), ("leapfrog_steps", 0), ("dimension", 0),
        ("n_obs", 1)])
    def test_out_of_range_field(self, name, value, tmp_path):
        # rejected when built, before the target is built or a chain runs
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(preset="skewt", iterations=300, burnin=50,
                             out=str(tmp_path), **{name: value})

    @pytest.mark.parametrize("name, value", [
        ("h", math.nan), ("h", 0.0), ("tuner_lr", math.nan), ("tuner_lr", -0.01),
        ("nu", 0.0), ("nu", math.inf), ("prior_nu", -2.0), ("prior_nu", math.nan),
        ("link_nu", math.nan), ("link_nu", 0.0), ("target_accept", 0.0),
        ("target_accept", 1.0), ("target_accept", math.nan)])
    def test_out_of_range_real_field(self, name, value, tmp_path):
        # rejected when built, before the target is built or a chain runs
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(preset="robit", iterations=300, burnin=50,
                             out=str(tmp_path), **{name: value})
        assert not any(tmp_path.iterdir())

    def test_iterations_must_exceed_burnin(self):
        with pytest.raises(ConfigError, match="exceed burnin"):
            ExperimentConfig(iterations=10, burnin=10)
        # a preset burnin is checked once resolve fills it in (cauchy: 2 000)
        cfg = ExperimentConfig(iterations=10)
        with pytest.raises(ConfigError, match="exceed burnin"):
            resolve(cfg)

    def test_replace_checks_again(self):
        cfg = resolve(ExperimentConfig(preset="robit"))
        with pytest.raises(ConfigError, match="ell_o must lie"):
            replace(cfg, ell_o=2.5)


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
        probs = np.asarray(DEFAULT_PROBS)
        scs = summaries[0]["methods"]["scs"]
        assert 0.0 <= scs["independence_acceptance_mean"] <= 1.0
        for method, entry in summaries[0]["methods"].items():
            assert ("independence_acceptance_mean" in entry) == (method == "scs")
            qq_a = a_dir / entry["qq_csv"]
            assert qq_a.read_bytes() == (b_dir / entry["qq_csv"]).read_bytes()
            reports = read_qq_csv(qq_a)
            assert sorted(reports) == list(range(min(4, d)))
            for r in reports.values():
                np.testing.assert_array_equal(r.probs, probs)
            rewritten = tmp_path / f"{method}_again.csv"
            write_qq_csv(rewritten, reports)
            assert rewritten.read_bytes() == qq_a.read_bytes()


class TestReferenceQuantiles:
    """Exact-sampler references are drawn in blocks of a fixed byte size."""

    COORDS = (0, 1, 2, 3)

    def test_long_chain_reference_runs_pure_scs(self, tmp_path, monkeypatch):
        # the regression references are SCS chains without the
        # independence move, so they keep their samples
        kernels = []

        def recording(kernel, *args, **kw):
            kernels.append(kernel)
            return run_chain(kernel, *args, **kw)

        run_chain = experiments.run_chain
        monkeypatch.setattr(experiments, "run_chain", recording)
        cfg = resolve(small_config("logistic", tmp_path))
        target, _ = build_target(cfg)
        _, info = reference_quantiles(cfg, target, self.COORDS,
                                      experiments.make_params(cfg.dimension, ell_o=1.1))
        assert info["kind"] == "long_chain"
        assert [(k.kind, k.independence_every) for k in kernels] == [("scs", 0)] * 2

    def skewt_reference(self, size):
        cfg = resolve(ExperimentConfig(preset="skewt", seed=4, reference_size=size))
        target, _ = build_target(cfg)
        refs, info = reference_quantiles(cfg, target, self.COORDS, None)
        assert info == {"kind": "exact_sampler", "size": size}
        return cfg, target, refs

    def one_shot(self, cfg, target, sizes):
        """Quantiles of the draws taken by hand, one block per entry of ``sizes``."""
        rng = np.random.default_rng(experiments.derive_chain_seed(cfg.seed, 555))
        draws = np.concatenate([target.exact_sample(rng, size=n) for n in sizes])
        probs = np.asarray(DEFAULT_PROBS)
        return {j: np.quantile(draws[:, j], probs) for j in self.COORDS}

    def test_desk_reference_is_the_one_shot_draw(self):
        desk = resolve(ExperimentConfig(preset="skewt"))
        # the desk row, 1e6 draws at d = 10, fits in one block ...
        assert desk.reference_size * desk.dimension * 8 <= experiments._REFERENCE_BLOCK_BYTES
        # ... and a reference in one block equals the one-shot draw bit for bit
        cfg, target, refs = self.skewt_reference(5_001)
        expected = self.one_shot(cfg, target, [5_001])
        for j in self.COORDS:
            assert np.array_equal(refs[j].view(np.int64), expected[j].view(np.int64))

    def test_blocks_hold_memory_to_a_few_blocks(self, monkeypatch):
        d, rows, size = 10, 1_000, 5_001
        block_bytes = rows * d * 8
        monkeypatch.setattr(experiments, "_REFERENCE_BLOCK_BYTES", block_bytes)
        # a first call imports modules (np.quantile loads numpy.ma); keep
        # those allocations out of the traced peak
        self.skewt_reference(size)
        tracemalloc.start()
        try:
            cfg, target, refs = self.skewt_reference(size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.dimension == d
        kept_bytes = len(self.COORDS) * size * 8
        # the one-shot draw alone would be size * d * 8 = 400 kB
        assert peak < 3 * block_bytes + kept_bytes
        expected = self.one_shot(cfg, target, [rows] * 5 + [1])
        for j in self.COORDS:
            assert np.array_equal(refs[j], expected[j])


def valid_summary():
    """A minimal summary that passes ``validate_summary``."""
    return {
        "schema_version": 2, "preset": "cauchy", "seed": 4, "dimension": 10,
        "iterations": 300, "burnin": 50, "thinning": 5, "replicates": 2,
        "ell_o": 1.1, "paper_scale": False, "failed_methods": [],
        "reference": {"kind": "analytic", "size": None},
        "methods": {"scs": {"acceptance_mean": 0.5, "max_rel_err": 0.1,
                            "tail_rel_err": 0.2, "ess_median": 100.0,
                            "wall_time_total": 0.1, "qq_csv": "qq_scs.csv",
                            "independence_acceptance_mean": 0.3}},
    }


class TestSummaryWrite:
    @pytest.mark.parametrize("corrupt, message", [
        pytest.param(lambda s: s.pop("seed"), "missing key 'seed'", id="missing-key"),
        pytest.param(lambda s: s.update(thinning=5.0), "'thinning' has wrong type",
                     id="wrong-type"),
        pytest.param(lambda s: s.update(schema_version=1), "schema version",
                     id="schema-version"),
        pytest.param(lambda s: s["reference"].update(kind="bootstrap"),
                     "invalid reference", id="reference-kind"),
        pytest.param(lambda s: s["methods"]["scs"].pop("qq_csv"),
                     "method 'scs' summary missing", id="method-key"),
        pytest.param(lambda s: s["methods"]["scs"].pop("independence_acceptance_mean"),
                     "missing independence_acceptance_mean", id="independence-key"),
        pytest.param(lambda s: s["methods"]["scs"].update(independence_acceptance_mean=1.5),
                     r"lie in \[0, 1\]", id="independence-range"),
    ])
    def test_validate_summary_rejects(self, corrupt, message):
        summary = valid_summary()
        assert validate_summary(summary) is summary
        corrupt(summary)
        with pytest.raises(ValueError, match=message):
            validate_summary(summary)

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
        if kernel == "scs":
            assert 0.0 <= written["independence_acceptance"] <= 1.0
        else:
            assert written["independence_acceptance"] is None
        assert samples.shape == (n_keep, DIMENSION[preset])
        assert np.all(np.isfinite(samples))
        again = tmp_path / "again.csv"
        write_samples_csv(again, samples, burnin=burnin, thinning=thinning)
        assert again.read_bytes() == path.read_bytes()


def test_empty_samples_csv(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("")
    with pytest.raises(EmptyInput, match="empty"):
        load_samples_csv(path)


def test_header_only_samples_csv(tmp_path):
    # a run that kept no sample writes the header alone, and reads back
    # with the header's dimension
    path = tmp_path / "samples.csv"
    write_samples_csv(path, np.empty((0, 3)), burnin=50, thinning=5)
    iters, samples = load_samples_csv(path)
    assert iters.shape == (0,) and samples.shape == (0, 3)
    again = tmp_path / "again.csv"
    write_samples_csv(again, samples)
    assert again.read_text() == path.read_text()
    assert path.read_text().splitlines() == ["iter,y_1,y_2,y_3"]


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

    def test_records_convergence(self, tmp_path):
        config = ExperimentConfig(preset="skewt", tuner_steps=3, tuner_batch=50,
                                  out=str(tmp_path))
        data = run_tune(config)
        written = read_json(tmp_path / "tune.json")
        assert written["converged"] is False  # 3 steps are too few to stop
        assert written["converged"] == data["converged"]
        assert written["steps"] == len(written["objective_trace"]) == 3

    @pytest.mark.parametrize("preset", ["skewt", "custom"])
    def test_theta_bar_matches_run_experiment(self, preset, tmp_path):
        config = small_config(preset, tmp_path, tuner_steps=5,
                              tuner_batch=100)
        tuned = run_tune(config)
        summary = run_experiment(config)
        assert tuned["theta_bar"] == summary["tuner"]["theta_bar"]
        assert tuned["converged"] == summary["tuner"]["converged"]
        assert read_json(tmp_path / "tune.json") == tuned
