"""Reference reports for one workload's request set.

Run as ``python perfbench/reference.py --workload NAME --out PATH`` with
``src`` on ``PYTHONPATH``.  Every request of the workload's set runs once
on the python reference backend, serially, with no result store.  The
output maps each request key to the SHA-256 of its
``ExperimentReport.to_json()`` and to the number of instructions its grid
cells commit, which the benchmark credits to every delivered copy of the
report (``sim_kinstr_per_s``).

Nothing here is timed; ``run.py`` calls it once per checkout and workload
and keeps the result, keyed by a digest of ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import mixes


def reference(workload: str) -> dict[str, dict]:
    """Request key -> ``{"digest": ..., "committed": ...}`` for ``workload``."""
    from repro.api import ExperimentRequest, Session
    from repro.harness import executors

    simulate = executors.simulate
    committed = [0]

    def counting_simulate(*args, **kwargs):
        outcome = simulate(*args, **kwargs)
        committed[0] += outcome.stats.committed
        return outcome

    executors.simulate = counting_simulate
    references = {}
    try:
        with Session(jobs=1, cache=False, backend="python") as session:
            for request in mixes.request_set(workload):
                committed[0] = 0
                report = session.run(ExperimentRequest.from_dict(request))
                references[mixes.request_key(request)] = {
                    "digest": hashlib.sha256(
                        report.to_json().encode()).hexdigest(),
                    "committed": committed[0],
                }
    finally:
        executors.simulate = simulate
    return references


def main(argv=None) -> int:
    """Write the reference table of ``--workload`` to ``--out``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=mixes.WORKLOADS)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(reference(args.workload), handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
