"""Run one smectic1d command in this fresh process, as the console script does.

usage: cli_child.py SPAWNED SUMMARY_JSON SPANS_NPZ -- ARG...

SPAWNED is the parent's time.time() at spawn.  With SUMMARY_JSON and
SPANS_NPZ given as "-" the command runs untraced and nothing else happens
in the process; otherwise its layer calls are traced and the aggregates
and spans are written to those files before exit.
"""

import sys
import time

t0 = time.perf_counter()
spawned = float(sys.argv[1])
summary_path, spans_path = sys.argv[2], sys.argv[3]
argv = sys.argv[sys.argv.index("--") + 1 :]

import smectic1d.cli as cli  # noqa: E402

if summary_path == "-":
    sys.exit(cli.run(argv))

import_s = time.perf_counter() - t0
process_s = time.time() - spawned

import json  # noqa: E402

from probe import Probe  # noqa: E402

probe = Probe(trace=True).install()
rc = cli.run(argv)
probe.uninstall()
summary = probe.summary()
summary["startup"] = {"import_s": import_s, "process_s": process_s, "processes": 1}
with open(summary_path, "w") as fh:
    json.dump(summary, fh)
probe.save_spans(spans_path)
sys.exit(rc)
