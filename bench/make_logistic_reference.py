"""Write ``logistic_reference.json``, the long-run reference of logistic-d5.

The separable logistic posterior has no exact sampler, so its tail
quantiles come from long HMC and SCS runs pooled together.  The file
records the data seed, the quantiles of the first four coordinates at
the checked tail probabilities, the smallest tail ESS among them (the
checks add the reference's own Monte Carlo error) and how far the two
kernels' CDFs at those quantiles are apart.

Run from the repository root:

    python3 bench/make_logistic_reference.py

It takes a few minutes on one core.
"""

import json
import sys

import benchenv

benchenv.use_source_tree()

import numpy as np  # noqa: E402

from brightside.geometry import make_params  # noqa: E402
from brightside.kernels import HMC_TARGET_ACCEPT, KernelConfig, run_chains  # noqa: E402
from brightside.targets import binary_regression_posterior  # noqa: E402

from checks import TAIL_PROBS, indicator_ess  # noqa: E402
from workloads import ELL_O, LOGISTIC_REFERENCE, logistic_data  # noqa: E402

DATA_SEED = 2601
N_OBS = 30
DIM = 5
CHAINS = 4
HMC_ITERATIONS = 150_000
SCS_ITERATIONS = 400_000
BURNIN = 2_000


def main():
    meta = {"data_seed": DATA_SEED, "n_obs": N_OBS, "dim": DIM}
    target = binary_regression_posterior(logistic_data(meta))
    runs = {
        "hmc": run_chains(KernelConfig("hmc", h=0.1, target_accept=HMC_TARGET_ACCEPT),
                          None, target, np.zeros(DIM), HMC_ITERATIONS,
                          burnin=BURNIN, seed=1, n_chains=CHAINS, workers=1),
        "scs": run_chains(KernelConfig("scs", h=0.5), make_params(DIM, ell_o=ELL_O),
                          target, np.zeros(DIM), SCS_ITERATIONS,
                          burnin=BURNIN, seed=2, n_chains=CHAINS, workers=1),
    }
    coords = range(min(4, DIM))
    chains = [c.samples for kind in runs for c in runs[kind]]
    pooled = np.concatenate(chains)
    quantiles, tail_ess, disagreement = {}, [], 0.0
    for j in coords:
        q = np.quantile(pooled[:, j], TAIL_PROBS)
        quantiles[str(j)] = [float(v) for v in q]
        for p, qp in zip(TAIL_PROBS, q):
            tail_ess.append(indicator_ess([c[:, j] for c in chains], qp))
            cdf = [float(np.mean(np.concatenate([c.samples[:, j] for c in runs[k]]) <= qp))
                   for k in runs]
            disagreement = max(disagreement, abs(cdf[0] - cdf[1]))
    ref = dict(meta, link="logit", probs=list(TAIL_PROBS), quantiles=quantiles,
               min_tail_ess=float(min(tail_ess)),
               kernel_cdf_disagreement=disagreement,
               runs={k: {"chains": CHAINS, "iterations": len(runs[k][0].samples) + BURNIN,
                         "burnin": BURNIN,
                         "acceptance": float(np.mean([c.acceptance_rate for c in runs[k]]))}
                     for k in runs})
    with open(LOGISTIC_REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")
    json.dump(ref, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
