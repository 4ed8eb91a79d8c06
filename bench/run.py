"""Benchmark of the latent-bandit harness, one workload per invocation.

    python3 bench/run.py --workload stationary_traced --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --write-reference

Run from the root of a checkout; the library is imported from ``src``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, with ``--trace 1`` one with the per-layer
metrics.  ``--write-reference`` regenerates the behaviour lock,
``bench/reference.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# one process, one thread: keep BLAS from starting a pool of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from checks import pass_failures, trace_digests  # noqa: E402
from probes import Probes  # noqa: E402
from workloads import WORKLOADS, make_inputs, run_chunk, run_pass, set_up  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

MIN_PASSES = 3
# the behaviour lock replays every workload at this seed with this many runs
LOCK_SEED = 7
LOCK_RUNS = 4


def _record_arms(arms: list):
    """An instrument that records every policy's arm sequence, in the
    order the harness builds the policies (run by run)."""

    def instrument(lib):
        make_policy = lib.harness.make_policy

        def recording(*args, **kwargs):
            policy = make_policy(*args, **kwargs)
            played = []
            arms.append(played)
            step = policy.step

            def step_and_record(*step_args):
                arm = step(*step_args)
                played.append(arm)
                return arm

            policy.step = step_and_record
            return policy

        lib.harness.make_policy = recording

    return instrument


def behaviour(workload, work_dir: str) -> dict:
    """Arm-sequence digests and final pseudo-regret of every (run, policy)
    pair at the lock seed."""
    inputs = make_inputs(workload, LOCK_SEED, os.path.join(work_dir, "lock_inputs"))
    lock_dir = os.path.join(work_dir, "lock")
    arms: list = []
    setup = set_up(workload, inputs, lock_dir, instrument=_record_arms(arms))
    chunk = run_chunk(workload, setup, 0, lock_dir, runs=LOCK_RUNS) if not setup.error else None
    if setup.error or chunk.error:
        raise RuntimeError(f"lock experiment failed: {setup.error or chunk.error}")
    names = [spec.name for spec in setup.config.policies]
    record = {}
    for k, played in enumerate(arms):
        run, name = divmod(k, len(names))
        record[f"{run}/{names[name]}"] = {
            "arms_sha256": hashlib.sha256(",".join(map(str, played)).encode()).hexdigest(),
            "final_regret": float(chunk.results.runs[run].cum_regret[names[name]][-1]),
        }
    return record


def lock_failures(workload, expected: dict, work_dir: str) -> int:
    """Number of (run, policy) pairs whose behaviour at the lock seed
    differs from the reference."""
    try:
        actual = behaviour(workload, work_dir)
    except Exception:  # noqa: BLE001 - counted as failed pairs
        traceback.print_exc()
        return len(expected)
    failed = 0
    for key, want in expected.items():
        got = actual.get(key)
        if (
            got is None
            or got["arms_sha256"] != want["arms_sha256"]
            or abs(got["final_regret"] - want["final_regret"]) > 1e-9 * max(1.0, abs(want["final_regret"]))
        ):
            print(f"behaviour lock: {workload.name} {key} differs from the reference", file=sys.stderr)
            failed += 1
    return failed


def write_reference(work_dir: str) -> None:
    doc = {
        "lock_seed": LOCK_SEED,
        "lock_runs": LOCK_RUNS,
        "workloads": {name: behaviour(w, os.path.join(work_dir, name)) for name, w in WORKLOADS.items()},
    }
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE}")


def _dir_bytes(path: str | None) -> int:
    total = 0
    for base, _, files in os.walk(path or ""):
        total += sum(os.path.getsize(os.path.join(base, name)) for name in files)
    return total


class Timings:
    """The set-up time of every pass and the time of every chunk, kept
    apart for plain and instrumented passes."""

    def __init__(self, chunks: int):
        self.setup_s: list = []
        self.chunk_s: list = [[] for _ in range(chunks)]

    @property
    def passes(self) -> int:
        return len(self.setup_s)

    def add(self, done) -> None:
        self.setup_s.append(done.setup.setup_s)
        for chunk in done.chunks:
            self.chunk_s[chunk.index].append(chunk.run_s)

    def run_s(self) -> float:
        """Time of all chunks, each at its median over the passes."""
        return sum(statistics.median(times) for times in self.chunk_s) if all(self.chunk_s) else 0.0


def measure(workload, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        expected = json.load(handle)["workloads"][workload.name]
    policies = {key.split("/")[1] for key in expected}
    chunk_pairs = workload.chunk_runs * len(policies)
    steps = workload.runs * len(policies) * workload.horizon

    attempted, failed = len(expected), lock_failures(workload, expected, work_dir)
    inputs = make_inputs(workload, seed, os.path.join(work_dir, "inputs"))
    plain, traced = Timings(workload.chunks), Timings(workload.chunks)
    layers, spans = [], []
    first_digests: dict = {}
    started = time.perf_counter()
    while True:
        # trace runs alternate plain and instrumented passes, so the
        # tracing overhead is measured on the same inputs
        probes = Probes() if trace and plain.passes > traced.passes else None
        pass_start = time.perf_counter()
        done = run_pass(workload, inputs, work_dir, instrument=probes.install if probes else None)
        attempted += workload.chunks * chunk_pairs
        error = done.setup.error or next((c.error for c in done.chunks if c.error), None)
        if done.setup.error:
            failed += workload.chunks * chunk_pairs
        ran = [c for c in done.chunks if not c.error]
        failed += (len(done.chunks) - len(ran)) * chunk_pairs
        bad = pass_failures(workload, ran, done.setup.model_dir, inputs.num_items)
        for chunk in ran:
            if chunk.out_dir:
                # every repeat of a chunk writes the same trace bytes
                digests = trace_digests(chunk.out_dir)
                first = first_digests.setdefault(chunk.index, digests)
                for name in set(digests) | set(first):
                    if digests.get(name) != first.get(name):
                        run = int(name[len("run_"):-len(".jsonl")])
                        bad |= {(chunk.index, run, policy) for policy in policies}
        failed += len(bad)
        if error:
            print(f"pass failed: {error}", file=sys.stderr)
        else:
            (traced if probes else plain).add(done)
            if probes:
                layers.append(probes.metrics(_dir_bytes(os.path.join(work_dir, "out"))))
                spans.extend(probes.spans)
        # keep the timings only, so memory does not grow with the passes
        del done
        elapsed = time.perf_counter() - started
        enough = plain.passes >= MIN_PASSES and (not trace or traced.passes >= MIN_PASSES)
        if elapsed + (time.perf_counter() - pass_start) > seconds and (enough or error):
            break

    def steps_per_s(timings) -> float:
        run_s = timings.run_s()
        return steps / run_s if run_s else 0.0

    correct = failed == 0
    if trace:
        counts = [{k: v for k, v in figures.items() if isinstance(v, int)} for figures in layers]
        if any(c != counts[0] for c in counts):
            print("per-layer counters differ between repeats of the same pass", file=sys.stderr)
            correct = False
        metrics = {
            # counts are equal in every pass; times are medians
            name: {"value": value if isinstance(value, int) else statistics.median(f[name] for f in layers)}
            for name, value in (layers[0].items() if layers else ())
        }
        untraced, instrumented = steps_per_s(plain), steps_per_s(traced)
        overhead = 100.0 * (untraced / instrumented - 1.0) if instrumented else 0.0
        metrics["bench.tracing_overhead"] = {"value": overhead}
        _write_spans(workload.name, seed, spans)
    else:
        setup_s = statistics.median(plain.setup_s) if plain.passes else 0.0
        metrics = {
            "setup_s": {"value": setup_s},
            "steps_per_s": {"value": steps_per_s(plain)},
            "result_s": {"value": setup_s + plain.run_s()},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _write_spans(workload: str, seed: int, spans: list) -> None:
    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(OUT_ROOT, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "latentbandits", "__init__.py")):
        print(f"no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if not args.write_reference and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    os.makedirs(OUT_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_ROOT)
    try:
        if args.write_reference:
            write_reference(work_dir)
            return 0
        units = _units()
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        metric["unit"] = units[name]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
