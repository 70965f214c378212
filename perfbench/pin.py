#!/usr/bin/env python3
"""Regenerate the pinned references under perfbench/refs/.

    python3 perfbench/pin.py [WORKLOAD ...]

For each workload and size (full and quick), record
the verdict set and a digest of the segment branch strings of every input
(plus the exit code and JSON key check on the CLI path). smt-corpus
references come from the exhaustive oracle, not from the engine under test;
the others come from the enumerate engine at the commit that pins them.
Re-pin only when a change means to alter verdicts or branch strings.
"""

import json
import os
import shutil
import sys

import run


def pin(name: str) -> dict:
    out = {}
    for size in ("full", "quick"):
        if name == "smt-corpus":
            out[size] = {f"case{i}": run.workloads.oracle_reference(comp, f)
                         for i, (comp, f) in enumerate(run.workloads.smt_cases(size))}
            continue
        work_dir = run.fresh_work_dir()
        wl = run.workloads.build(name, size, work_dir,
                                 run.mtlmon_smt.bundled_solver_command(), {})
        wl.write_files()
        refs = {}
        for inp in wl.inputs:
            seconds, outcome, error = run.call(inp)
            if error is not None:
                raise SystemExit(f"{name}/{inp.key}: {error}; nothing pinned")
            refs[inp.key] = run.workloads.ref_string(outcome)
            print(f"{name} {size} {inp.key}: {refs[inp.key]} {seconds:.3f}s", flush=True)
        shutil.rmtree(work_dir)
        out[size] = refs
    return out


def main(argv) -> int:
    run.import_program()
    os.makedirs(run.REFS, exist_ok=True)
    for name in argv or run.workloads.NAMES:
        path = os.path.join(run.REFS, f"{name}.json")
        refs = pin(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=0, sort_keys=True)  # one input per line
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
