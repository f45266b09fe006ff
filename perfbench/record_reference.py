"""Record every benchmark call's exit code and stdout digest in reference.json.

Run it only at a commit whose outputs are known to be right (the golden
tables pass there); the benchmark then holds every later commit to them:

    python3 perfbench/record_reference.py
"""

import json
import sys

from worker import run_call
from workloads import REFERENCE_PATH, WORKLOADS, digest


def main() -> int:
    reference = {}
    for workload in WORKLOADS.values():
        for argv in workload.commands:
            key = " ".join(argv)
            rc, stdout, seconds, error = run_call(argv)
            if error is not None or rc != 0:
                print(f"error: {key}: {error or f'exit code {rc}'}", file=sys.stderr)
                return 1
            reference[key] = {"rc": rc, "sha256": digest(stdout),
                              "bytes": len(stdout.encode("utf-8"))}
            print(f"{seconds:8.3f} s  {key}", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
