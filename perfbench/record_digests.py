"""Record the SHA-256 of every job's stdout for some seeds, so later runs with
those seeds require byte-identical output.

    python3 perfbench/record_digests.py --seed 1 [--seed 2 ...] [--workload NAME ...]

Run it on the commit whose output is the reference.  Only jobs that pass
their checks are recorded; digests of other seeds and workloads are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json

import jobs as jobgen
import run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, action="append", required=True)
    ap.add_argument("--workload", choices=sorted(jobgen.WORKLOADS), action="append")
    ns = ap.parse_args()
    recorded = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    run.OUT_DIR.mkdir(exist_ok=True)
    for name in ns.workload or jobgen.WORKLOADS:
        for seed in ns.seed:
            job_list = jobgen.generate(name, seed)
            runner = run.Runner(name, seed, job_list)
            runner.digests = {}
            digests = {}
            for job in job_list:
                rec = runner.run_job(job)
                if rec.ok:
                    digests[job.key] = hashlib.sha256(rec.launch.stdout).hexdigest()
                else:
                    print(f"not recorded ({rec.failure}): {job.key[:100]}")
            if digests:
                recorded.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} of {len(job_list)} jobs recorded")
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
