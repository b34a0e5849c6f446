import json
import math

from brightside.experiments import ExperimentConfig, run_tune


class TestRunTune:
    def test_skewt_preset_writes_finite_alignment(self, tmp_path):
        config = ExperimentConfig(preset="skewt", tuner_steps=3, tuner_batch=50,
                                  out=str(tmp_path))
        data = run_tune(config)
        with open(tmp_path / "tune.json") as fh:
            written = json.load(fh)
        assert written["alignment"]["final_mu_rel"] == data["alignment"]["final_mu_rel"]
        assert math.isfinite(written["alignment"]["final_mu_rel"])
