"""Record the reference outputs that every benchmark run compares against.

    python3 bench/record_reference.py

Each workload has one fixed reference run: seed 0 and a short, fixed length.
For replay-n2 the recorded output is the sha256 of the trace; for the
library workloads it is the final price and per-LP liabilities, compared
within `TOL`.  Re-record only when a change is meant to alter the outputs.
"""

import json
import shutil

import run

TOL = 1e-8
SIZES = {
    "replay-n2": {"seed": 0, "events": 40},
    "bundle-n2": {"seed": 0, "ops": 12, "tol": TOL},
    "bundle-n5": {"seed": 0, "ops": 12, "tol": TOL},
    "v3-pool": {"seed": 0, "ops": 12, "tol": TOL},
}


def main():
    run.import_program()
    workdir = run.WORKDIR / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = {name: {**ref, **run.reference_fingerprint(name, ref, workdir)}
               for name, ref in SIZES.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
