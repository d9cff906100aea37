#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --compare <dirA> <dirB>

The Go program in perfbench/ is built from source into .bench_build/ with
its build cache, temporary files and module cache kept there too, so a run
reads and writes only inside the checkout. Arguments pass through to the
program; its output and exit code are the benchmark's.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        # The go command keeps telemetry counters under the user config
        # directory; keep them in the build area too.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(build, "perfbench")
    src = os.path.join(root, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr, timeout=840)
    if built.returncode != 0:
        sys.exit(built.returncode or 1)
    ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=175)
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
