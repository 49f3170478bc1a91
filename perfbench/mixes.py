"""The benchmark's workloads: which requests each one sends, in what order.

Every workload has a fixed *request set*.  A run sends the set over and
over in passes; the seed only shuffles the order within each pass.  A run
always ends on a pass boundary, so every run sends whole copies of the same
set and the seed cannot change the mix of request sizes — that is what
keeps the medians and tails of different seeds comparable.

The ``fig8`` and ``fig9`` sets group kernels so that six of their seven
requests cost about the same and one (the heaviest kernel, alone) costs
about half as much again.  The median then lies inside one dense cluster
and the tail inside the heavy request's own block of samples.  With
groups of unequal cost the median jumped between clusters from run to
run (15-19% apart against 5-7% for the tail).  Every request takes well
over 16 ms: the lightest here take about 140 ms.
"""

from __future__ import annotations

import random

#: ``fig8`` requests: all 16 ``specint`` kernels.  Measured one kernel per
#: request, ``bzip2_like`` took about 225 ms and each of the other groups
#: 140-150 ms.
FIG8_GROUPS = (
    ("bzip2_like",),
    ("crafty_like",),
    ("gzip_like",),
    ("vpr_route_like", "eon_cook_like", "twolf_like"),
    ("vpr_place_like", "eon_rushmeier_like", "vortex_like"),
    ("perl_diffmail_like", "gap_like", "gcc_like"),
    ("perl_scrabbl_like", "mcf_like", "eon_kajiya_like", "parser_like"),
)

#: ``fig9`` requests: 13 of the 16 ``specint`` kernels; ``vpr_route_like``
#: takes about 325 ms and each other group 220-250 ms.  ``bzip2_like``
#: (about 1.5 s), ``gzip_like`` and ``crafty_like`` (0.6-0.9 s) are left
#: out: each alone would be a request several times longer than the rest,
#: and a run would hold too few samples for a tail percentile.
FIG9_GROUPS = (
    ("vpr_route_like",),
    ("gap_like",),
    ("vpr_place_like",),
    ("perl_scrabbl_like", "mcf_like"),
    ("perl_diffmail_like", "gcc_like"),
    ("parser_like", "vortex_like", "twolf_like"),
    ("eon_kajiya_like", "eon_cook_like", "eon_rushmeier_like"),
)

#: ``serve-mixed`` requests: the registered grid experiments on the whole
#: ``specint`` suite.  They share grid cells (``fig8``, ``fig10`` and
#: ``it_cost`` overlap on the 4-wide BASE/RENO points), so the first pass
#: mixes store hits with misses and puts and later passes are pure reads.
#: Even a read of the whole suite takes 90-250 ms, and no request through
#: ``repro serve`` took less than about 90 ms here; with fewer kernels
#: most reads sat at that floor and the tail was set by a few stray slow
#: samples.
SERVE_EXPERIMENTS = (
    "fig8", "fig10", "fig11_regs", "fig11_width",
    "fig12", "fusion", "it_cost", "bottleneck",
)

SUITE = "specint"

#: The workload names ``--workload`` accepts.
WORKLOADS = ("fig8-cold", "fig9-cold", "serve-mixed")


def request_set(workload: str) -> list[dict]:
    """The requests of one pass of ``workload``, as wire-form dicts."""
    if workload == "fig8-cold":
        return [_request("fig8", group) for group in FIG8_GROUPS]
    if workload == "fig9-cold":
        return [_request("fig9", group) for group in FIG9_GROUPS]
    if workload == "serve-mixed":
        return [_request(name, None) for name in SERVE_EXPERIMENTS]
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")


def warmup_request(workload: str) -> dict:
    """An untimed first request that shares no grid cell with the set.

    It pays the process's one-off costs (lazy imports, loading the kernel)
    on a ``micro`` kernel, so it leaves the result store as cold as before.
    """
    experiment = "fig9" if workload == "fig9-cold" else "fig8"
    return {"experiment": experiment, "suite": "micro",
            "workloads": ["micro_addi_chain"], "scale": 1, "params": {}}


def request_key(request: dict) -> str:
    """A short readable identity of a request, e.g. ``fig8/gzip_like+mcf_like``."""
    workloads = request["workloads"]
    return f"{request['experiment']}/{'+'.join(workloads) if workloads else 'all'}"


def passes(workload: str, seed: int):
    """Endless seeded passes: each is the request set in a fresh order."""
    rng = random.Random(seed)
    requests = request_set(workload)
    while True:
        order = list(requests)
        rng.shuffle(order)
        yield order


def _request(experiment: str, workloads) -> dict:
    return {"experiment": experiment, "suite": SUITE,
            "workloads": list(workloads) if workloads is not None else None,
            "scale": 1, "params": {}}
