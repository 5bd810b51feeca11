"""Benchmark of the redoku CLI on the paper's results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from `src/`.
A run repeats one CLI command, each time in a fresh process and strictly one
after another (a closed loop with one caller), for about S seconds.  The inputs are
fixed, so every --seed gives the same ones.  Every output is checked by
`check.py`.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones, medians over the run's
commands:
  wall_s        time from "redoku.cli imported" to the command's exit
  setup_s       time from process start until redoku.cli is imported
  peak_rss_mib  peak resident set size of the command's process
With --trace 1, untraced commands alternate with traced in-process ones
(`trace.py`), and the metrics are the per-layer ones plus the tracing
overhead.
"""

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# The checker replays closures and counts group images with the program
# under test.
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402

MODEL = "R2,R5,R8,C2,C5,C8"
CORPUS = os.path.join(ROOT, "tests", "data", "corpus17.txt")
REPORT = os.path.join(OUT, "report.json")
PROBES = os.path.join(OUT, "probes.jsonl")
LOG = os.path.join(OUT, "log.txt")

# Set-up is also sampled by launches that stop once ready, a few after each
# command, so that its median rests on samples spread over the whole run
# even when the commands are long.
SETUP_SAMPLES = 3


# The probe draw: `--sample 64 --seed 1542757380`, chosen once so that it
# holds heavy pairs of both probe modes.  PROBE_PAIRS is that draw, written
# out (flat cell indices, row-major from 0), so that the check does not rest
# on the program's own sampler.
PROBE_SEED = 1542757380
PROBE_PAIRS = [
    (0, 8), (0, 36), (1, 20), (2, 3), (2, 7), (2, 19), (3, 7), (3, 13),
    (3, 22), (3, 75), (4, 6), (4, 23), (5, 22), (7, 17), (8, 24), (8, 53),
    (11, 29), (12, 48), (14, 59), (15, 25), (17, 24), (17, 53), (17, 80),
    (18, 22), (18, 26), (18, 45), (19, 24), (19, 25), (21, 48), (21, 75),
    (22, 23), (23, 25), (23, 68), (24, 51), (26, 44), (30, 40), (31, 32),
    (31, 35), (31, 40), (32, 48), (33, 35), (33, 60), (36, 45), (36, 54),
    (38, 45), (42, 44), (42, 52), (44, 53), (45, 53), (47, 52), (49, 52),
    (54, 58), (55, 64), (56, 72), (59, 60), (60, 71), (63, 74), (66, 76),
    (67, 68), (70, 78), (70, 79), (73, 79), (74, 77), (74, 79),
]
PROBE_ARGV = ["probe", "--missing", MODEL, "--sample", str(len(PROBE_PAIRS)),
              "--seed", str(PROBE_SEED), "--jsonl", PROBES]

# name: (CLI arguments, the output file they write, the exit codes that
# count as a finished command).  classify exits 2 when some class is
# unresolved, which the report records; probe always exits 0.
WORKLOADS = {
    "classify6": (["classify", "-n", "6", "--json", REPORT], REPORT, (0, 2)),
    "probe648": (PROBE_ARGV, PROBES, (0,)),
    # Not in BENCHMARK.json, whose runs leave room for two workloads of
    # 60 s; run by hand.  A classify7 command takes about 85 s.
    "probe648-corpus": (PROBE_ARGV + ["--corpus", CORPUS], PROBES, (0,)),
    "classify7": (["classify", "-n", "7", "--json", REPORT], REPORT, (0, 2)),
}


def probed_pairs():
    """PROBE_PAIRS as the CLI's JSONL records write them."""
    return [[[a // 9 + 1, a % 9 + 1], [b // 9 + 1, b % 9 + 1]]
            for a, b in PROBE_PAIRS]


# --- processes -------------------------------------------------------------

def _env():
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + os.pathsep + path if path else src)


def spawn(script, args):
    """Run a perfbench script in a fresh interpreter, its output appended to
    LOG; return the spawn and exit times, exit code and peak RSS in MiB."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, LOG,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    argv = [sys.executable, os.path.join(HERE, script)] + args
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, _env(), file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    end = time.monotonic()
    return start, end, os.waitstatus_to_exitcode(status), \
        usage.ru_maxrss / 1024


def _remove(paths):
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _read_new(path, command):
    """The file a command just wrote; a missing one stops the run."""
    if not os.path.exists(path):
        raise SystemExit(f"command {command} wrote no {path}; see {LOG}")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def launch(cli_args, output=None, codes=(0,)):
    """One CLI command: (setup_s, wall_s, peak_rss_mib, output text).

    The output file is removed first, so a command that fails to write it
    cannot pass with the file a former command left."""
    ready = os.path.join(OUT, "ready")
    _remove([ready] + ([output] if output else []))
    start, end, code, rss = spawn("launch.py", [ready] + cli_args)
    if code not in codes:
        raise SystemExit(f"command {cli_args} exited with {code}; "
                         f"see {LOG}")
    t_ready = float(_read_new(ready, cli_args))
    text = _read_new(output, cli_args) if output else None
    return t_ready - start, end - t_ready, rss, text


def traced(cli_args, output, codes, path):
    """One traced in-process command: the summary trace.py wrote to path,
    and the command's output text."""
    _remove([path, output])
    _, _, code, _ = spawn("trace.py", [path] + cli_args)
    summary = json.loads(_read_new(path, cli_args)) if code == 0 else None
    if summary is None or summary["status"] not in codes:
        raise SystemExit(f"traced command {cli_args} failed; see {LOG}")
    return summary, _read_new(output, cli_args)


# --- checks ----------------------------------------------------------------

def check_output(workload, text):
    """(attempted, failed, problems) for one command's output text."""
    if workload.startswith("classify"):
        return check.check_classify(json.loads(text))
    records = [json.loads(line) for line in text.splitlines()]
    puzzles = (check.read_puzzles(CORPUS) if workload.endswith("corpus")
               else None)
    attempted, failed, problems = check.check_probes(records, MODEL, puzzles)
    if [r["pair"] for r in records] != probed_pairs():
        problems.append("the CLI probed other pairs than the draw")
    return attempted, failed, problems


# --- runs ------------------------------------------------------------------

def run(workload, seconds, trace):
    argv, output, codes = WORKLOADS[workload]
    # A launch that stops once ready compiles the package's bytecode if the
    # checkout has none yet; it is not timed.
    launch([])
    setups = []
    walls, rss, trace_runs = [], [], []
    attempted = failed = 0
    problems = []
    first = None

    def same_as_first(text, what):
        if not check.same_report(first, text):
            problems.append(f"{what} wrote other output than the run's "
                            "first command")

    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        setup, wall, peak, text = launch(argv, output, codes)
        setups.append(setup)
        setups += [launch([])[0] for _ in range(SETUP_SAMPLES)]
        walls.append(wall)
        rss.append(peak)
        if first is None:
            first = text
            counts = check_output(workload, text)
            problems += counts[2]
        else:
            same_as_first(text, f"command {len(walls)}")
        attempted += counts[0]
        failed += counts[1]
        if trace:
            summary, text = traced(
                argv, output, codes,
                os.path.join(OUT, f"trace-{workload}.json"))
            trace_runs.append(summary)
            same_as_first(text, f"traced command {len(trace_runs)}")
        # Start another command only if one as long as the last still ends
        # within the run.
        now = time.monotonic()
        if now - start + now - round_start > seconds:
            break
    if trace:
        metrics = {name: {"value": statistics.median(
            [t["metrics"][name] for t in trace_runs]), "unit": unit}
            for name, unit in trace_runs[0]["units"].items()}
        traced_wall = statistics.median([t["wall_s"] for t in trace_runs])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_wall - statistics.median(walls), "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(rss), "unit": "MiB"},
        }
    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    print(f"{workload}: {len(walls)} commands, wall_s "
          f"{[round(w, 3) for w in walls]}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    # The inputs are fixed, the same for every seed.
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "redoku")):
        parser.error(f"no redoku sources under {ROOT}")
    os.makedirs(OUT, exist_ok=True)
    if os.path.exists(LOG):
        os.remove(LOG)
    result = run(args.workload, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
