"""Run one itco CLI command in this fresh process and write its measurements.

Usage: python3 child.py REQUEST.json

REQUEST holds ``src`` (the directory that holds the itco package),
``argv`` (the CLI arguments), ``mode`` and ``result`` (where the JSON
result goes). Modes:

- ``full``: run the command; record set-up time (start of this process
  to the first ``EncoderParams.encode_node`` call), wall time and peak
  resident memory. The set-up probe removes itself at the first call, so
  the rest of the run is untouched.
- ``setup``: stop the command at its first encoder call; only the set-up
  time is recorded.
- ``trace``: run the command with every layer wrapped (see tracer.py).

The clock starts before itco is imported, because a user of the command
pays for the import too.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


class SetupReached(BaseException):
    """Raised at the first encoder call in ``setup`` mode; not an Exception,
    so no handler inside the program can swallow it."""


def _install_setup_probe(model, result: dict, stop: bool, start: float):
    cls = model.EncoderParams
    original = cls.encode_node

    def first_call(*args, **kwargs):
        result["setup_s"] = time.perf_counter() - start
        cls.encode_node = original
        if stop:
            raise SetupReached
        return original(*args, **kwargs)

    cls.encode_node = first_call
    return lambda: setattr(cls, "encode_node", original)


def run(request: dict, start: float = START) -> dict:
    """Run the command in this process; returns the measurements.

    ``start`` is when the command counts as entered.
    """
    if request["src"] not in sys.path:
        sys.path.insert(0, request["src"])
    from itco import cli, model

    mode = request["mode"]
    result: dict = {"mode": mode, "itco_file": cli.__file__, "import_s": time.perf_counter() - start}
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        undo = tracer.restore
    else:
        undo = _install_setup_probe(model, result, mode == "setup", start)
    try:
        result["exit_code"] = cli.main(list(request["argv"]))
    except SetupReached:
        result["exit_code"] = 0
    except Exception:  # the command's own crash is a measured failure
        result["exit_code"] = 1
        result["traceback"] = traceback.format_exc()
    finally:
        result["wall_s"] = time.perf_counter() - start
        undo()
    if mode == "setup" and "setup_s" not in result:
        result["exit_code"] = result["exit_code"] or 1
        result["traceback"] = "the command ended before its first encoder call"
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.report(result["wall_s"], result["import_s"])
    return result


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(request)
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
