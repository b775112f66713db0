"""Run a command and report its wall time and peak RSS.

    python .github/measure.py LABEL LIMIT_MB -- CMD...

Prints "LABEL: <s> s wall, <MB> MB peak RSS" once CMD ends, then exits
with CMD's exit code, or, when that is 0 and the peak is over LIMIT_MB,
with the message "LABEL: peak RSS over LIMIT_MB MB".  A LIMIT_MB of
"none" reports the peak without a limit.  The peak is the largest RSS of
any one process in CMD's tree, read from RUSAGE_CHILDREN.
"""

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int | str:
    if len(argv) < 4 or argv[2] != "--":
        return __doc__
    label, limit, cmd = argv[0], argv[1], argv[3:]
    start = time.perf_counter()
    code = subprocess.call(cmd)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{label}: {time.perf_counter() - start:.2f} s wall, {peak:.0f} MB peak RSS", flush=True)
    if code or limit == "none" or peak <= float(limit):
        return code
    return f"{label}: peak RSS over {limit} MB"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
