"""One measured step in a fresh interpreter; prints its figures as one JSON line.

    child.py setup [CONFIG SEED]       import stagevote and, given a simulate
                                       config, build the dataset and crowd the
                                       way run_simulation does before its
                                       first election; report the time taken
    child.py cli OUT_PATH SETUP ARGS...
                                       the set-up above (SETUP is a JSON list,
                                       [] or [CONFIG, SEED]), then
                                       stagevote.cli.main(ARGS); write its
                                       stdout to OUT_PATH, report set-up time,
                                       wall time, exit status, digest and
                                       peak RSS

One process serves both timings of a sample, so a run takes twice as many
samples as it would with a process for each. The parent puts the
checkout's ``src`` on PYTHONPATH and fixes the BLAS thread count and the
hash seed.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time


def run_cli(out_path, setup_args, argv):
    setup = run_setup(setup_args)
    from stagevote import cli

    started = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    wall = time.perf_counter() - started
    text = buf.getvalue()
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return {
        **setup,
        "wall_s": wall,
        "exit": status,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_setup(args):
    started = time.perf_counter()
    import stagevote  # noqa: F401  (numpy comes with it)

    if args:
        import numpy as np
        from stagevote import sim

        with open(args[0], encoding="utf-8") as fh:
            cfg = sim.config_from_json_dict(json.load(fh), seed_override=int(args[1]))
        dataset = sim.generate_dataset([cfg.seed, 0], num_candidates=cfg.dataset_size,
                                       num_features=cfg.num_features,
                                       test_fraction=cfg.test_fraction)
        sim.build_crowd(cfg, dataset, np.random.default_rng([cfg.seed, 1]))
    return {"setup_s": time.perf_counter() - started}


def main():
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        result = run_cli(rest[0], json.loads(rest[1]), rest[2:])
    elif mode == "setup":
        result = run_setup(rest)
    else:
        sys.exit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
