"""One fresh-process set-up, timed from before ``import graphmatch``.

Imports graphmatch, writes the train and evaluation splits with
``graphmatch synth`` (in-process ``cli.main``) and reads both back with
``load_dataset(profile="letter")``.  run.py starts this script several
times and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py <workload json> <seed> <out dir>

Prints one JSON line: {"setup_s": ..., "fingerprint": ...}.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main(argv):
    spec, seed, out = json.loads(argv[0]), int(argv[1]), Path(argv[2])
    workloads.import_graphmatch()
    from graphmatch import cli, datasets

    workload = workloads.Workload(
        spec["name"], workloads.Corpus(**spec["corpus"]), spec["eval_split"], ()
    )
    workloads.write_corpus(cli, workload, seed, out)
    splits = workloads.load_corpus(datasets, workload, out)
    elapsed = time.perf_counter() - START
    print(json.dumps({"setup_s": elapsed, "fingerprint": workloads.fingerprint(*splits)}))


if __name__ == "__main__":
    main(sys.argv[1:])
