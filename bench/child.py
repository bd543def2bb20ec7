"""One run process of the benchmark: a fresh interpreter per `pageval` call.

    python3 bench/child.py LAUNCH_NS run PAGEVAL_ARGS...
    python3 bench/child.py LAUNCH_NS trace PAIRS_JSON PAGEVAL_ARGS...
    python3 bench/child.py LAUNCH_NS setup

LAUNCH_NS is the parent's ``time.monotonic_ns()`` just before it started
this process (the clock is system-wide), so set-up time covers interpreter
start-up plus the import of ``pageval.cli``.  The process also reports when
``cli.main`` started and ended on that clock, so the driver can pick out the
pace samples it took meanwhile.  The last stdout line is a JSON object with
the measurements; the report itself goes where PAGEVAL_ARGS say.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
import pageval.cli  # noqa: E402

SETUP_S = (time.monotonic_ns() - int(sys.argv[1])) / 1e9

import json  # noqa: E402
import resource  # noqa: E402


def peak_rss_mb() -> float:
    """Largest ru_maxrss of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def trace_summary(tracer, n_main: int) -> dict:
    """Fold spans into per-name calls and self time, in total and by parent name.

    Spans [0, n_main) belong to the `cli.main` call; later spans are the
    side pass over the paper-layout assignment path.
    """
    own = tracer.self_times()
    main: dict[str, dict] = {}
    side: dict[str, dict] = {}
    page_ns = []
    slowest = (0, None)
    for i, (name, start, end, parent, page, raised) in enumerate(tracer.spans):
        table = main if i < n_main else side
        entry = table.setdefault(name, {"calls": 0, "self_ns": 0, "errors": 0, "by_parent": {}})
        entry["calls"] += 1
        entry["self_ns"] += own[i]
        entry["errors"] += raised
        parent_name = tracer.spans[parent][0] if parent >= 0 else ""
        calls, self_ns = entry["by_parent"].get(parent_name, (0, 0))
        entry["by_parent"][parent_name] = (calls + 1, self_ns + own[i])
        if name == "report.evaluate_page" and i < n_main:
            page_ns.append(end - start)
            slowest = max(slowest, (end - start, page))
    root = tracer.spans[0]
    return {
        "main": main,
        "side": side,
        "main_span_ns": root[2] - root[1],
        "evaluate_page_ns": page_ns,
        "slowest_page": slowest[1],
    }


def main() -> int:
    mode = sys.argv[2]
    out = {"setup_s": SETUP_S}
    tracer = None
    if mode == "setup":  # a set-up sample only
        print(json.dumps(out))
        return 0
    if mode == "trace":
        import tracing

        with open(sys.argv[3], encoding="utf-8") as fh:
            pairs = json.load(fh)
        argv = sys.argv[4:]
        tracer = tracing.Tracer()
        tracer.install()
    else:
        argv = sys.argv[3:]

    out["main_start_ns"] = time.monotonic_ns()
    t0 = time.perf_counter_ns()
    out["exit"] = pageval.cli.main(argv)
    out["main_s"] = (time.perf_counter_ns() - t0) / 1e9
    out["main_end_ns"] = time.monotonic_ns()
    out["peak_rss_mb"] = peak_rss_mb()

    if tracer is not None:
        n_main = len(tracer.spans)
        from pageval import assign, report

        for x, y in pairs:
            assign.solve_assignment(assign.build_cost_matrix(x, y, report.DEFAULT_GAMMA))
        out["trace"] = trace_summary(tracer, n_main)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
