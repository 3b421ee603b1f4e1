"""Self-test of the benchmark at a tiny problem size.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced on tiny inputs, checks
that each metric BENCHMARK.json names is reported with a valid name and
its unit, that run.LAYER_MAP covers exactly the per-layer metrics, and
that the output checks fire on deliberately corrupted output files.
Exits non-zero on the first failure.
"""

import copy
import json
import math
import os
import re
import shutil
import sys

import run  # sets the thread variables before numpy loads

import checks

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def tiny(name):
    wl = copy.deepcopy(run.WORKLOADS[name])
    if wl["kind"] == "study":
        wl["study"].update(pairs=[[30, 30]], reps=1, anchors=5, cov_grid=7)
        return wl
    wl["data"].update(n=30, m=50)
    wl["inputs"] = 1
    argv = wl["argv"]
    for flag, value in (("--anchors", "5"), ("--grid", "7")):
        if flag in argv:
            argv[argv.index(flag) + 1] = value
    return wl


def check_spec(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "metric names repeat")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(NAME.fullmatch(m["name"]), f"bad metric name {m['name']!r}")
        expect(UNIT.fullmatch(m["unit"]), f"bad unit for {m['name']}")
    expect({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS),
           "BENCHMARK.json names a workload run.WORKLOADS lacks")
    expect(any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in spec["end_to_end"]), "setup_s missing")
    layers = {m["name"] for m in spec["per_layer"]}
    ends = {m["name"] for m in spec["end_to_end"]}
    mapped = set()
    for metrics, moves, on, off in run.LAYER_MAP:
        mapped.update(metrics)
        expect(set(moves) <= ends and set(on + off) <= set(run.WORKLOADS),
               f"LAYER_MAP entry {metrics} names an unknown metric or workload")
    expect(mapped == layers, "LAYER_MAP does not cover the per-layer metrics")


def check_run(name, trace, spec):
    record = run.run(name, 1, 0, trace, wl=tiny(name), tag=f"selftest_{name}",
                     setup_samples=2)
    units = run.units_of(spec)
    line = json.loads(run.final_line(record, units))
    want = spec["per_layer" if trace else "end_to_end"]
    expect(sorted(line) == ["attempted", "correct", "failed", "metrics"],
           "result line keys")
    expect(line["correct"] and line["failed"] == 0,
           f"{name}: operations failed: {record['records']}")
    expect(set(line["metrics"]) == {m["name"] for m in want},
           f"{name}: reported metrics differ from BENCHMARK.json")
    for key, m in line["metrics"].items():
        expect(m["unit"] == units[key] and math.isfinite(m["value"]),
               f"{name}: {key} has no unit or no finite value")


def corrupt(path, edit):
    """A copy of ``path`` with ``edit`` applied to its list of lines."""
    bad = path + ".bad"
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    return bad


def set_cell(row, col, value):
    def edit(lines):
        body = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
        cells = lines[body[row + 1]].split(",")
        cells[col] = value
        lines[body[row + 1]] = ",".join(cells)
        return lines
    return edit


def check_corruption(name):
    job = run.make_job(name, 1, 0, 0, wl=tiny(name), tag=f"selftest_{name}")
    out = os.path.join(job["work_dir"], "out_0.csv")
    chk = job["check"]
    if job["kind"] == "study":
        st = job["study"]
        verify = lambda p: checks.check_report(p, st["pairs"], st["reps"],
                                               st["estimators"])[0]
        edits = [set_cell(0, 6, ""), lambda ls: ls[:-1]]
    elif chk["output"] == "cov":
        verify = lambda p: checks.check_cov(p, chk["grid"], chk["n_curves"],
                                            chk["h_min"], chk["h_max"])[0]
        # an asymmetric Gamma_hat, an h_star above the grid, a lost row
        edits = [set_cell(1, 3, "123.0"), set_cell(6, 4, "0.5"),
                 lambda ls: ls[:-1]]
    else:
        verify = lambda p: checks.check_regularity(p, chk["anchors"],
                                                   chk["n_curves"],
                                                   chk["delta_max"])[0]
        edits = [set_cell(0, 5, "7.5"), set_cell(0, 5, "-0.1"),
                 lambda ls: ls[:-1]]
    expect(verify(out) == [], f"{name}: clean output fails its check")
    for edit in edits:
        expect(verify(corrupt(out, edit)), f"{name}: corruption not detected")


def main():
    spec = run.load_spec()
    check_spec(spec)
    for name in run.WORKLOADS:
        check_run(name, 0, spec)
        check_run(name, 1, spec)
        check_corruption(name)
        print(f"{name}: ok")
    for sub in ("work", "ref", "cache", ""):
        folder = os.path.join(run.OUT, sub)
        for entry in os.listdir(folder):
            if entry.startswith(("selftest_", "trace_selftest_")):
                path = os.path.join(folder, entry)
                if os.path.isdir(path):
                    shutil.rmtree(path)
                else:
                    os.remove(path)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
