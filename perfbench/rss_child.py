"""Run one benchmark op in a fresh interpreter and print its peak RSS.

Usage: python3 rss_child.py SPEC.json

SPEC names the source directory, the `wxkit` argv lists of the op, and the
files that take the CLI's stdout and stderr. The last line printed is
``{"codes": [...], "peak_rss_kb": N}``, read from the OS after the op.
"""

import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from wxkit import cli

    with open(spec["stdout"], "w", encoding="utf-8") as out, \
            open(spec["stderr"], "w", encoding="utf-8") as err, \
            redirect_stdout(out), redirect_stderr(err):
        codes = [cli.main(argv) for argv in spec["calls"]]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"codes": codes, "peak_rss_kb": peak_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
