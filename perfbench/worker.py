"""One benchmark run in a fresh interpreter: python3 worker.py JOB.json OUT.json

The first thing timed is ``import fdadapt.cli``, the set-up every CLI
call pays; nothing heavier than the standard library is imported before
it. A job with ``"import_only"`` stops there; any other job then runs its
operations (see ops.py) and writes one JSON record to OUT.json.
"""

import json
import os
import sys
import time


def main(job_path, out_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    t0 = time.perf_counter()
    import fdadapt.cli  # noqa: F401
    result = {"setup_s": time.perf_counter() - t0}
    if not job.get("import_only"):
        import ops  # found next to this script
        result.update(ops.run_job(job))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
