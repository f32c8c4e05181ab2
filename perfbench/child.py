"""One benchmark child: run a single ``gel`` verb in a fresh interpreter and
record when its set-up ended and when the verb returned.

    python3 child.py ROOT OUT_JSON TRACE MODULE FUNCTION WHEN -- GEL_ARGS...

``gel`` is imported from ``ROOT/src``.  Set-up ends when ``gel.MODULE.FUNCTION``
is called or returns (``WHEN``).  Times are ``time.monotonic()`` readings,
which on Linux share one clock with the parent process.  With ``TRACE = 1``
every public ``gel`` function is wrapped (see ``spans.py``) and the spans are
written next to ``OUT_JSON`` as ``spans.tsv`` when the verb has returned.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _mark_ready(fn, marks: dict, when: str):
    def marked(*args, **kwargs):
        if when == "call":
            marks["ready"] = time.monotonic()
        result = fn(*args, **kwargs)
        if when == "return":
            marks["ready"] = time.monotonic()
        return result

    return marked


def main(argv: list[str]) -> int:
    root, out_path, trace, module, function, when, _sep, *gel_args = argv
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.monotonic()
    import gel.cli

    import_s = time.monotonic() - t0
    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    marks: dict = {}
    owner = sys.modules[f"gel.{module}"]
    setattr(owner, function, _mark_ready(getattr(owner, function), marks, when))
    try:
        rc = gel.cli.main(gel_args)
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    end = time.monotonic()

    info = {
        "start": START,
        "import_s": import_s,
        "ready": marks.get("ready"),
        "end": end,
        "rc": rc,
        "debug": __debug__,
        "gel_file": os.path.abspath(gel.__file__),
    }
    if tracer is not None:
        info.update(
            cache=tracer.cache_counts(),
            step_work=tracer.step_work(),
            checks=tracer.checks,
        )
        with open(os.path.join(os.path.dirname(out_path), "spans.tsv"), "w") as fh:
            fh.write(tracer.spans_tsv())
    with open(out_path, "w") as fh:
        json.dump(info, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
