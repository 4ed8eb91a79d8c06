"""Reference oracle for the run output writer.

Copies of the writer as it formatted one record at a time: the trace
line built from a record dict (with its ``json.dumps`` fallback for
non-finite values) and ``emit_outputs``'s cell loop, one ``repr`` per
CSV cell.  The column-wise writer must reproduce them byte for byte;
this module is imported by tests only and is not a test file.
"""

from __future__ import annotations

import csv
import json
import math
import os
from json.encoder import encode_basestring_ascii

from latentbandits.harness import bayes_regret


def trace_line(record: dict) -> str:
    """``json.dumps(record, sort_keys=True, separators=(",", ":"))`` by hand, for
    the fixed trace keys: ints, the ``policy`` string, floats and a
    ``belief`` list of floats or None."""
    realized, regret, reward, belief = record["realized_regret"], record["regret"], record["reward"], record["belief"]
    if not math.isfinite(realized + regret + reward + (0.0 if belief is None else sum(belief))):
        # a nan or inf, which JSON spells NaN or Infinity (or a sum overflowing)
        return json.dumps(record, sort_keys=True, separators=(",", ":"))
    belief = "null" if belief is None else f"[{','.join(map(float.__repr__, belief))}]"
    return (
        f'{{"arm":{record["arm"]},"belief":{belief},"context":{record["context"]},"info":{record["info"]},'
        f'"policy":{encode_basestring_ascii(record["policy"])},"realized_regret":{float.__repr__(realized)},'
        f'"regret":{float.__repr__(regret)},"reward":{float.__repr__(reward)},"run":{record["run"]},'
        f'"state":{record["state"]},"t":{record["t"]}}}'
    )


def emit_outputs(results, out_dir: str) -> dict:
    """``aggregate.csv`` and ``curves.csv``, one ``writerow`` and one ``repr``
    per cell."""
    if len(results.runs) >= 2:
        bands = bayes_regret(results)
    else:
        bands = {
            name: (results.regret_matrix(name)[0],) * 3 for name in results.policy_names
        }
    aggregate_path = os.path.join(out_dir, "aggregate.csv")
    with open(aggregate_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "policy", "mean_regret", "ci_low", "ci_high"])
        for name in results.policy_names:
            # Python floats, so each cell is a plain float repr
            mean, lo, hi = (band.tolist() for band in bands[name])
            for t in range(results.config.horizon):
                writer.writerow([t + 1, name, repr(mean[t]), repr(lo[t]), repr(hi[t])])

    curves_path = os.path.join(out_dir, "curves.csv")
    with open(curves_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step"] + results.policy_names)
        means = {name: bands[name][0].tolist() for name in results.policy_names}
        for t in range(results.config.horizon):
            writer.writerow([t + 1] + [repr(means[name][t]) for name in results.policy_names])
    return {"aggregate": aggregate_path, "curves": curves_path}
