"""Set-up of a fresh interpreter: import filtra, then parse and validate
every config of a workload.

Reads a JSON list of {"path": str | null, "text": str} from stdin.  A job
with a path is loaded from that file, the others are parsed from their text.
The host's speed is sampled from the first line on (see hostspeed.py); the
last line of stdout is {"slices_s", "scale", "after_s"}: the seconds of the
slices that ran during the set-up, the host-speed scale, and the seconds
from the end of the set-up to the end of sampling.

    python3 perfbench/setup_probe.py ROOT < jobs.json
"""
import json
import sys
from time import perf_counter

import hostspeed


def main() -> int:
    speed = hostspeed.HostSpeed()
    with speed:
        start = perf_counter()
        sys.path.insert(0, f"{sys.argv[1]}/src")
        from filtra import config   # loads both schemas

        jobs = json.load(sys.stdin)
        for job in jobs:
            if job["path"] is not None:
                config.load_config(job["path"])
            else:
                config.parse_config(json.loads(job["text"]))
        end = perf_counter()
    slices_s, scale = speed.measure(start, end)
    print(json.dumps({"slices_s": slices_s, "scale": scale,
                      "after_s": perf_counter() - end}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
