"""Start-up cost of the command line, one fresh interpreter per command.

Writes a fixed seeded corpus (``majorchain gen`` lemma and theorem
instances) to a temporary directory, then runs these children ``ROUNDS``
times each, interleaved round by round so drift hits every one alike:

* ``import``: ``python -S -c "import majorchain.cli"``;
* ``solve``, ``check`` and ``translate``: ``python -m majorchain.cli ...`` on
  the round's corpus record.

It prints, per child kind, the median wall milliseconds and every child's
peak RSS in MB (``ru_maxrss`` of that child, from ``os.wait4``), then the
module counts: all of ``sys.modules`` after ``import majorchain.cli`` under
``-S``, and the modules that import adds to a plain interpreter's.  The last
line of stdout is the same data as one JSON object.  The package is the one
under ``src/`` next to this script.

Linux carries the peak RSS of the process that forks a child across the
child's ``exec``, so no child can read below its parent's.  The script
therefore re-runs itself under ``-S``, imports only ``os``, ``sys`` and
``time`` until the children are done, and forks them itself; it prints its
own peak (``floor_mb``), which sits below every child's.  Linux only.  Run
it from anywhere::

    python tools/startup.py
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ROUNDS = 11
SEED = 16
CLI = [sys.executable, "-m", "majorchain.cli"]
# Modules after ``import majorchain.cli``, and how many of them it added.
COUNT = (
    "import sys; before = len(sys.modules); import majorchain.cli; "
    "print(len(sys.modules), len(sys.modules) - before)"
)


def spawn(argv: list, env: dict, out: str = os.devnull) -> tuple:
    """Wall milliseconds and peak RSS in MB of one child writing stdout to ``out``."""
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), 1)
            os.execve(argv[0], argv, env)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall_ms = (time.perf_counter() - start) * 1e3
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{' '.join(argv)} exited {os.waitstatus_to_exitcode(status)}")
    return wall_ms, usage.ru_maxrss / 1024


def write_corpus(directory: str, env: dict) -> list:
    """One lemma and one theorem instance file per round, from ``majorchain gen``."""
    files = []
    for index in range(ROUNDS):
        record = {}
        for mode in ("lemma", "theorem"):
            record[mode] = os.path.join(directory, f"{mode}-{index}.json")
            flags = ["--seed", str(SEED * 1000 + index), "--mode", mode, "--k", "3", "--s", "4"]
            spawn(CLI + ["gen", *flags, "--max-part", "4"], env, record[mode])
        files.append(record)
    return files


def children(record: dict) -> dict:
    return {
        "import": [sys.executable, "-S", "-c", "import majorchain.cli"],
        "solve": CLI + ["solve", "--mode", "theorem", "--instance", record["theorem"]],
        "check": CLI + ["check", "--mode", "lemma", "--instance", record["lemma"]],
        "translate": CLI + ["translate", "--mode", "lemma", "--instance", record["lemma"]],
    }


def module_counts(directory: str, env: dict) -> dict:
    out = os.path.join(directory, "count.txt")
    counts = []
    for flags in (["-S"], []):
        spawn([sys.executable, *flags, "-c", COUNT], env, out)
        with open(out, encoding="utf-8") as handle:
            counts.append([int(word) for word in handle.read().split()])
    return {"import_S_total": counts[0][0], "site_added": counts[1][1]}


def own_peak_mb() -> float:
    """This process's peak RSS (VmHWM), which the re-run under -S started afresh."""
    with open("/proc/self/status", encoding="ascii") as handle:
        line = next(line for line in handle if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


def main() -> int:
    if not sys.flags.no_site:
        os.execv(sys.executable, [sys.executable, "-S", os.path.abspath(__file__)])
    env = dict(os.environ, PYTHONPATH=SRC)
    directory = os.path.join(os.environ.get("TMPDIR", "/tmp"), f"majorchain-startup-{os.getpid()}")
    os.makedirs(directory)
    walls, rss = {}, {}
    try:
        for record in write_corpus(directory, env):
            for name, argv in children(record).items():
                wall_ms, peak_mb = spawn(argv, env)
                walls.setdefault(name, []).append(wall_ms)
                rss.setdefault(name, []).append(peak_mb)
        floor_mb = own_peak_mb()
        modules = module_counts(directory, env)
    finally:
        for name in os.listdir(directory):
            os.remove(os.path.join(directory, name))
        os.rmdir(directory)

    import json
    import statistics

    result = {
        "rounds": ROUNDS,
        "wall_ms_median": {name: statistics.median(times) for name, times in walls.items()},
        "peak_rss_mb": rss,
        "modules": modules,
        "floor_mb": floor_mb,
    }
    for name, times in walls.items():
        peaks = ", ".join(f"{mb:.2f}" for mb in rss[name])
        print(f"{name:<10} median {statistics.median(times):6.1f} ms  peak RSS MB: {peaks}")
    print(
        f"modules: {modules['import_S_total']} after import majorchain.cli under -S; "
        f"{modules['site_added']} added by it with site"
    )
    print(f"floor: this script's own peak RSS is {floor_mb:.2f} MB")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
