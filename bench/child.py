"""One critline CLI invocation in a fresh interpreter, timed from inside.

    python bench/child.py '{"argv": ["table"], "trace": false}'

critline must be importable from PYTHONPATH, which run.py points at the
checkout's src directory.  With "argv": null only the import is timed.
The CLI's standard output is captured, not printed; the last line of this
process's output is one JSON object with the import time, the time inside
critline.cli.main, the exit code, the captured output, the peak resident
memory, the library versions in use and, with "trace": true, the spans.
"""

import io
import json
import platform
import resource
import sys
import time
from contextlib import redirect_stdout


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    from critline import cli
    result = {"import_s": time.perf_counter() - start, "origin": cli.__file__}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            import spans
            tracer = spans.Tracer()
            result["missing"] = spans.install(tracer)
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out):
            try:
                code = cli.main(spec["argv"])
            except SystemExit as exc:   # argparse rejects the arguments
                code = exc.code
        result["solve_s"] = time.perf_counter() - start
        result["exit_code"] = code
        result["stdout"] = out.getvalue()
        if tracer is not None:
            result["spans"] = tracer.spans
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = {
        "python": platform.python_version(),
        **{name: getattr(sys.modules.get(name), "__version__", None)
           for name in ("numpy", "scipy")},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
