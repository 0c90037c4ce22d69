"""Traced ``repro serve`` entry: ``traced_serve.py SPANS_JSON serve [ARGS...]``.

Patches the service's public callables (see ``trace_points``), then runs
``repro.cli.main(["serve", ...])`` unchanged. Spans stay in memory; on
graceful drain (SIGTERM) the server returns from ``main`` and the spans
are written to SPANS_JSON, together with each job's operator metric tree
as the last drain left it.
"""

from __future__ import annotations

import sys
from typing import Any

from common import require_repo


def main(argv: list[str]) -> int:
    require_repo()
    import trace_points
    from repro import cli
    from repro.runtime.service.jobs import JobManager
    from tracer import Tracer

    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    trace_points.patch_compile(tracer, served=True)
    trace_points.patch_service(tracer)
    extra: dict[str, Any] = {"operator_trees": [], "work_units": 0, "peak_state_bytes": 0}
    drain = JobManager.drain

    def recording_drain(self: JobManager) -> dict[str, Any]:
        result = drain(self)
        jobs = list(self.jobs.values())
        extra["operator_trees"] = [job.operator_tree for job in jobs]
        extra["work_units"] = sum(job.work_units for job in jobs)
        extra["peak_state_bytes"] = max((job.peak_state_bytes for job in jobs), default=0)
        return result

    JobManager.drain = recording_drain  # type: ignore[method-assign]
    code = cli.main(serve_args)
    tracer.dump(spans_path, extra)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
