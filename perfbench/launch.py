"""Run one timed process of the benchmark with the speed probe active.

    python3 perfbench/launch.py SAMPLES_JSON cli WBCRESCUE_ARGS...
    python3 perfbench/launch.py SAMPLES_JSON exec CODE ARGS...

`cli` does what ``python -m wbcrescue.cli`` does; `exec` runs CODE with
ARGS as sys.argv[1:]. The probe samples go to SAMPLES_JSON; the exit code
is the command's.
"""

import json
import sys

from probe import Sampler

samples_path, mode, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
with Sampler() as sampler:
    if mode == "cli":
        from wbcrescue.cli import run

        code = run(rest)
    else:
        sys.argv = ["-c", *rest[1:]]
        exec(compile(rest[0], "<set-up>", "exec"), {"__name__": "__main__"})
        code = 0
with open(samples_path, "w", encoding="utf-8") as handle:
    json.dump(sampler.samples, handle)
sys.exit(code)
