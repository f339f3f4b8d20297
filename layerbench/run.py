"""Layered, self-checking benchmark of the tiling engine.

    python3 layerbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads: tile_build, pip_join,
update_cycle, sql_mix (see README.md).  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.

This process makes the seeded inputs, then runs the workload in a child
process that leads its own process session and hosts the Ray session
(Ray writes to its caller's stdout, so the child's output goes to a log
file).  Whatever way the child ends — normally, by a crash, or killed at
the time limit — every process of that session is ended before the
result is printed.  Operations are never retried: an exception, a failed
check, or a round cut short counts its operations as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PKG = "osmquadtree_depreceated_ray"
TIME_LIMIT = 150.0          # for the workload process; ending it may take 15 s more
WORK = ".layerbench"        # under the checkout root; listed in .gitignore
# Parent of each run's own Ray temp dir, listed in .gitignore.  Ray's
# socket paths (<temp>/session_<date>_<pid>/sockets/plasma_store) may not
# exceed 107 bytes, so the temp dir is <root>/.lb/<launcher pid in hex>:
# that leaves up to 32 bytes for the checkout root's own path.
RAY_TMP = ".lb"
INPUTS_VERSION = 6          # bump when a generator changes

sys.path.insert(0, HERE)
import lb_spec as spec  # noqa: E402


def ray_cpus() -> int:
    """The CPU count ``nproc`` reports (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        return max(1, int(out.stdout.strip()))
    except (OSError, ValueError, subprocess.SubprocessError):
        return max(1, len(os.sched_getaffinity(0)))


def ensure_inputs(root: str, workload: str, seed: int) -> str:
    """Seed-keyed inputs, made once and reused by later runs."""
    import lb_gen

    d = os.path.join(root, WORK, "inputs", f"v{INPUTS_VERSION}-{workload}-{seed}")
    if not os.path.exists(os.path.join(d, "_ok")):
        tmp = f"{d}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        lb_gen.write_inputs(workload, seed, tmp)
        open(os.path.join(tmp, "_ok"), "w").close()
        try:
            os.replace(tmp, d)
        except OSError:  # another run made the same inputs first
            shutil.rmtree(tmp, ignore_errors=True)
    return d


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                parts = f.read().rsplit(") ", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(parts[3]) == sid and parts[0] != "Z":
            out.append(int(name))
    return out


def end_session(sid: int, grace: float = 15.0) -> bool:
    """SIGKILL every process of session ``sid``; wait until none is left."""
    t_end = time.monotonic() + grace
    while True:
        pids = session_pids(sid)
        if not pids:
            return True
        if time.monotonic() > t_end:
            return False
        for p in pids:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def lower_quartile(xs: list[float]) -> float:
    """First quartile of a run's round times.  Interference from other
    tenants of the host only ever adds time, in phases of seconds that
    can slow a round by up to ~50%; the faster rounds show the program's
    own cost, and a change to the program moves all of them."""
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=4, method="inclusive")[0]


def summarize(records: list[dict], workload: str, trace: bool, clean: bool,
              t_spawn: float) -> dict:
    n_ops = len(spec.ROUND_OPS[workload])
    rounds = [r for r in records if r.get("event") == "round"]
    setup = next((r for r in records if r.get("event") == "setup"), None)
    done = next((r for r in records if r.get("event") == "done"), None)
    attempted = failed = 0
    check_failed = False
    for r in records:
        if r.get("event") not in ("round", "probe"):  # probe: traced extras
            continue
        expected = n_ops if r["event"] == "round" else len(r["ops"])
        bad = [op for op in r["ops"] if not op[1]]
        attempted += expected
        failed += len(bad) + max(0, expected - len(r["ops"]))
        check_failed |= any(op[3] == "check" for op in bad)
    if not clean or done is None:
        # the round that was running (or about to) never completed
        attempted += n_ops
        failed += n_ops
    metrics = {}
    untraced = [r for r in rounds if not r["traced"]]
    if not trace and setup is not None and untraced:
        values = {"setup_s": setup["t_timed"] - t_spawn,
                  "wall_s": lower_quartile([r["wall"] for r in untraced]),
                  "cpu_s": lower_quartile([r["cpu"] for r in untraced]),
                  # after the first round, so it does not grow with the
                  # number of rounds that fit in the run
                  "driver_peak_rss_mb": untraced[0]["rss_mb"]}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in spec.END_TO_END.items()}
    elif trace and done is not None and "layers" in done:
        metrics = {k: {"value": float(done["layers"].get(k, 0.0)), "unit": unit}
                   for k, unit in spec.PER_LAYER.items()}
    # correct speaks of the operations that ran: an exception counts as
    # failed, a wrong answer (or a run that never finished) as incorrect
    return {"correct": clean and done is not None and not check_failed,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    t_begin = time.monotonic()
    root = os.getcwd()
    if a.workload not in spec.WORKLOADS:
        print(f"unknown workload {a.workload!r}; choose from {spec.WORKLOADS}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, PKG, "__init__.py")):
        # Nothing can be measured without the program.  The record of the
        # round that could not run (every operation failed) goes to stderr,
        # and the exit code is non-zero, so that no stdout line of this
        # run can be taken for a measured result.
        print(f"no {PKG}/ package under {root}: run from the root of a checkout",
              file=sys.stderr)
        print(json.dumps(summarize([], a.workload, bool(a.trace), False, 0.0)),
              file=sys.stderr)
        return 2

    inputs = ensure_inputs(root, a.workload, a.seed)
    warm = ensure_inputs(root, "warm", spec.WARM_SEED)
    run_dir = os.path.join(root, WORK, f"r{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "tmp"))
    ray_tmp = os.path.join(root, RAY_TMP, f"{os.getpid():x}")
    result = os.path.join(run_dir, "result.jsonl")
    log = os.path.join(root, WORK, f"{a.workload}-{a.seed}-t{a.trace}.log")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [root, HERE] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
               TMPDIR=os.path.join(run_dir, "tmp"),
               RAY_USAGE_STATS_ENABLED="0", RAY_DISABLE_IMPORT_WARNING="1")
    cmd = [sys.executable, os.path.join(HERE, "lb_child.py"),
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--inputs", inputs, "--warm-inputs", warm,
           "--work", run_dir, "--ray-tmp", ray_tmp, "--cpus", str(ray_cpus()),
           "--result", result]

    def on_term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    child = None
    clean = False
    try:
        with open(log, "w") as logf:
            t_spawn = time.time()
            child = subprocess.Popen(cmd, stdout=logf, stderr=subprocess.STDOUT,
                                     stdin=subprocess.DEVNULL, cwd=root, env=env,
                                     start_new_session=True)
            try:
                rc = child.wait(timeout=max(5.0, TIME_LIMIT - (time.monotonic() - t_begin)))
                clean = rc == 0
                if not clean:
                    print(f"workload process exited with {rc}; see {log}", file=sys.stderr)
            except subprocess.TimeoutExpired:
                print(f"workload process passed the time limit; see {log}", file=sys.stderr)
    finally:
        if child is not None:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
            if not end_session(child.pid):
                print("some processes of the run could not be ended", file=sys.stderr)
        shutil.rmtree(ray_tmp, ignore_errors=True)

    records = []
    if os.path.exists(result):
        with open(result) as f:
            for line in f:
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    break  # a line cut short by a kill
    shutil.rmtree(run_dir, ignore_errors=True)
    for r in records:
        if r.get("event") == "round":
            print(f"round {r['round']}{' traced' if r['traced'] else ''}: "
                  f"wall {r['wall']:.3f} s, cpu {r['cpu']:.2f} s", file=sys.stderr)
        for op in r.get("ops", []):
            if not op[1]:
                print(f"FAILED {op[0]}: {op[2]}", file=sys.stderr)
    out = summarize(records, a.workload, bool(a.trace), clean, t_spawn)
    sys.stdout.flush()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
