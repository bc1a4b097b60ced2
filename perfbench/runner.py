"""One fresh process of the benchmark: set-up only, or an in-process run.

    python3 runner.py setup --config CFG
    python3 runner.py run   --config CFG --report OUT.json [--trace]

``setup`` does everything ``inpaintlab run`` does before the first
sampler step and exits; the caller times the whole process.  ``run``
imports the CLI, calls ``inpaintlab.cli.main(["run", ...])`` and writes
the import time, the in-process wall time and, with ``--trace``, the
spans to the report.  ``inpaintlab`` must be importable (PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def setup(config: str) -> None:
    import numpy as np

    from inpaintlab.cli import GMMDenoiser, exact_posterior, load_config

    # mirrors the start of inpaintlab.cli.run_experiment
    cfg = load_config(config)
    problem = cfg.problem(rng=np.random.default_rng(np.random.SeedSequence((cfg.seed, 0, 1))))
    GMMDenoiser(cfg.prior, cfg.sched)
    posterior = exact_posterior(problem, cfg.prior)
    posterior.sample(
        cfg.oracle_n or cfg.n_chains,
        np.random.default_rng(np.random.SeedSequence((cfg.seed, 0, 0))),
    )


def run(config: str, report: str, trace: bool) -> int:
    start = time.perf_counter()
    import inpaintlab.cli

    import_s = time.perf_counter() - start
    span_rows, unprobed = [], []
    if trace:
        import spans as tracing

        tracer = tracing.Tracer()
        restore, unprobed = tracing.install(tracer)
    start = time.perf_counter()
    try:
        code = inpaintlab.cli.main(["run", "--config", config])
    finally:
        wall_s = time.perf_counter() - start
        if trace:
            restore()
            span_rows = tracing.to_json(tracer.spans)
    with open(report, "w") as fh:
        json.dump({"exit": code, "import_s": import_s, "wall_s": wall_s,
                   "spans": span_rows, "unprobed": unprobed}, fh)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--report")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.config)
        return 0
    if not args.report:
        parser.error("run needs --report")
    return run(args.config, args.report, args.trace)


if __name__ == "__main__":
    sys.exit(main())
