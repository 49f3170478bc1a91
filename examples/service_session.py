"""The `repro.api` facade end to end: jobs, coalescing and HTTP.

Demonstrates two pieces of the public API:

1. a ``Session`` running experiment jobs with per-cell progress and
   content-addressed coalescing of identical submissions, and
2. the same session driven over HTTP through an in-process
   ``repro serve`` server (what ``python -m repro serve`` runs).

Run with:  python examples/service_session.py
"""

import json
import tempfile
import threading
import urllib.request

from repro.api import ExperimentRequest, Session, make_server

WORKLOADS = ["gzip_like", "vortex_like"]


def progress(job, grid_key, cached):
    state = "cache" if cached else "ran"
    print(f"  [{job.status().cells_done}/{job.cells_total}] {grid_key} ({state})")


def main():
    cache_dir = tempfile.mkdtemp(prefix="repro-example-")

    print("== 1. Session jobs with progress and coalescing ==")
    with Session(jobs="auto", cache=cache_dir) as session:
        request = ExperimentRequest("fig8", suite="specint", workloads=WORKLOADS)
        job = session.submit(request, on_progress=progress)
        twin = session.submit(request)          # identical & in flight
        print("coalesced onto one job:", twin is job)
        print(job.result())

        print("\n== 2. The same session over HTTP ==")
        server = make_server(port=0, session=session)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        body = json.dumps(request.to_dict()).encode()
        submitted = json.loads(urllib.request.urlopen(urllib.request.Request(
            f"http://{host}:{port}/experiments", data=body,
            headers={"Content-Type": "application/json"})).read())
        status = json.loads(urllib.request.urlopen(
            f"http://{host}:{port}/jobs/{submitted['job_id']}?wait=60").read())
        print(f"job {status['job_id']}: {status['state']}, "
              f"{status['cells_cached']}/{status['cells_total']} cells from cache")
        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    main()
