"""Traced launcher for one `rieszlab` command.

    python -X importtime perfbench/launch.py charx sigma-k --n 4 --k 2 --no-timestamp

Times `import rieszlab.cli` and `cli.main(argv)`, traces the layers under
`main`, and writes one record (prefixed by the trace marker) as the last
line of stderr.  Stdout and the exit code are the command's own.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = perf_counter()
    import rieszlab.cli as cli

    import_s = perf_counter() - t0
    from tracer import TRACE_MARKER, Tracer

    tracer = Tracer()
    tracer.install()
    tracer.phase = "pass"
    tracer.active = True
    t1 = perf_counter()
    code = cli.main(sys.argv[1:])
    main_s = perf_counter() - t1
    tracer.active = False
    tracer.fold()
    sys.stdout.flush()
    record = {"import_s": import_s, "main_s": main_s, "aggregate": tracer.aggregates["pass"]}
    print(TRACE_MARKER + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
