"""One benchmark worker: a fresh process that runs ops of one workload.

Usage: python3 worker.py CONFIG.json   (started by run.py, never by hand)

The config names the workload, seed, size, the directory holding the
generated inputs, the source tree to import tsflow from, a time budget and
a mode. The worker imports tsflow by absolute path, so the working
directory does not matter, and writes its measurements as JSON to the
config's `result` path.

Every mode times the first, cold op from just before `import tsflow`
(setup) and reads the peak resident set right after it, before the
benchmark allocates anything of its own. Mode "setup" stops there; mode
"plain" then runs warm ops until the budget is spent; mode "traced" runs
traced and untraced warm ops alternately, so the tracing overhead is
measured in one process. Each timed interval is followed by reference-kernel
timings and then by the output check, which is outside every timed interval.
"""

import contextlib
import io
import json
import sys
import time

# Reference timings after the setup interval; their median is its R_wall.
SETUP_REFS = 3


def _run_op(main, argv):
    """Run one CLI op in-process; return (wall seconds, error or None)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(argv)
        err = None if rc == 0 else f"exit status {rc}: {sink.getvalue().strip()[-300:]}"
    except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
        err = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, err


def _peak_rss_mb():
    """High-water resident set of this process, in MB (VmHWM).

    Not ru_maxrss: Linux carries that over exec from the address space of
    the parent (a vfork child runs in it), so it would include run.py's own
    footprint.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(config_path):
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    sys.path.insert(0, cfg["src"])
    sys.path.insert(0, cfg["bench"])
    deadline = time.perf_counter() + cfg["budget_s"]

    t0 = time.perf_counter()
    import tsflow.cli

    argv = cfg["argv"]
    _, cold_err = _run_op(tsflow.cli.main, argv)
    setup_s = time.perf_counter() - t0
    # tsflow's peak alone: that of a one-shot `python -m tsflow` process
    peak_rss_mb = _peak_rss_mb()

    import refkernel
    import tracer as tracing
    import workloads

    ref = refkernel.ReferenceKernel()
    ref.run()  # warm-up: first-call costs of the kernel itself
    setup_ref_s = sorted(ref.run() for _ in range(SETUP_REFS))[SETUP_REFS // 2]
    result = {"setup_s": setup_s, "setup_ref_s": setup_ref_s, "peak_rss_mb": peak_rss_mb,
              "ops": []}
    work = workloads.make(cfg["workload"], cfg["seed"], cfg["size"], cfg["workdir"],
                          write=False)

    def finish(err):
        """The op's error: its own, or its outputs failing the check."""
        if err is not None:
            return err
        if cfg["corrupt"]:
            work.corrupt(cfg["corrupt"])
        try:
            return work.check()
        except (OSError, ValueError) as exc:  # unreadable or malformed output
            return f"check: {type(exc).__name__}: {exc}"

    result["cold_error"] = finish(cold_err)
    if cfg["mode"] == "setup":
        _write(cfg["result"], result)
        return
    traced = cfg["mode"] == "traced"
    step = 2 if traced else 1  # a traced worker runs ops in (traced, untraced) pairs
    tr = tracing.Tracer() if traced else None
    wrapped_removed = True
    i = 0
    cycle_start = time.perf_counter()
    while True:
        use_trace = traced and i % 2 == 0
        if use_trace:
            tr.install()
            first = len(tr.spans)
            tr.begin_op(i)
        wall, err = _run_op(tsflow.cli.main, argv)
        if use_trace:
            tr.end_op()
            wrapped_removed &= tr.uninstall()
        ref_s = ref.run()
        err = finish(err)
        op = {"wall_s": wall, "ref_s": ref_s, "error": err, "traced": use_trace}
        if use_trace:
            layers, counts = tracing.op_summary(tr.spans[first:])
            op.update(layers=layers, counts=counts)
            if err is None and work.report:
                op["report_iterations"] = workloads.read_report(work.report).get("iterations")
        result["ops"].append(op)
        i += 1
        # stop at a step boundary when one more step of cycles (op, reference,
        # check) would overrun the budget
        now = time.perf_counter()
        cycle, cycle_start = now - cycle_start, now
        if i % step == 0 and now + step * cycle > deadline:
            break
    if traced:
        result["wrappers_removed"] = wrapped_removed
        result["spans"] = len(tr.spans)
        tracing.write_spans(cfg["spans_path"], tr.spans)
    _write(cfg["result"], result)


def _write(path, result):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
