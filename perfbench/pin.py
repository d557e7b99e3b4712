"""Write pinned.json: the canonical output of every job whose check compares
against a pinned value, computed by the program in this checkout.  Run it at
the commit whose outputs are the reference:

    python3 perfbench/pin.py
"""

import json
import os
import shutil
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    root = run.WORK / f"pin-{os.getpid()}"
    try:
        program = run.load_program()
        inp = workloads.make_inputs(program, 0, root)
        pinned = {}
        for name in workloads.WORKLOADS:
            for job in workloads.jobs_for(name, program, inp):
                if not isinstance(job.check, workloads.Pinned) \
                        or job.key in pinned:
                    continue
                result = run.execute(program, job)
                if result.status != "ok":
                    raise SystemExit(f"{job.key}: {result.status} "
                                     f"{result.detail}")
                pinned[job.key] = job.check.canon(result.text)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    with open(workloads.PINNED_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pinned)} outputs")


if __name__ == "__main__":
    main()
