"""Benchmark client: one fresh process that issues qcext CLI commands.

Started by ``run.py`` with ``src`` on PYTHONPATH.  It imports ``qcext.cli``,
reports that it is ready, and then serves a closed loop over JSON lines on
stdin/stdout: each request is one op, run through ``qcext.cli.main`` (plus the
op's follow-up), and the reply carries its exit code and latency.  The next
request arrives only after the reply.  With ``--probe`` it exits once ready,
which is how the set-up time is sampled.
"""

import sys
import time

_t0 = time.perf_counter()
import qcext.cli  # noqa: E402  (the import is what set-up time measures)
_IMPORT_MS = (time.perf_counter() - _t0) * 1e3

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from qcext import realmap  # noqa: E402

_MODULES = ("qcext.cli", "qcext.analysis", "qcext.decompose",
            "qcext.beurling_ahlfors", "qcext.quadrature", "qcext.realmap",
            "qcext.douady_earle")


def _reload_factors(follow):
    with open(follow["factors"], encoding="utf-8") as fh:
        factors = json.load(fh)["factors"]
    desc = factors[0] if len(factors) == 1 else {"kind": "composition", "maps": factors}
    g = realmap.map_from_dict(desc)
    return factors, g(np.linspace(follow["lo"], follow["hi"], follow["n"]))


def run_op(msg, recorder):
    """Run one op; the timed region is the CLI call and its follow-up."""
    out, err = io.StringIO(), io.StringIO()
    follow = msg.get("follow")
    factors = values = None
    if recorder is not None:
        recorder.install({name: sys.modules.get(name) for name in _MODULES})
    try:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = qcext.cli.main(msg["argv"])
            if rc == 0 and follow:
                factors, values = _reload_factors(follow)
        except Exception:  # noqa: BLE001 - any crash is a failed op, not ours
            rc = -1
            err.write(traceback.format_exc())
        latency = time.perf_counter() - t0
    finally:
        if recorder is not None:
            recorder.uninstall()
    reply = {"rc": rc, "latency": latency, "err": err.getvalue()[-2000:]}
    if os.path.exists(msg["out"]):
        reply["bytes_out"] = os.path.getsize(msg["out"])
    if values is not None:
        np.save(follow["values"], values)
        gaps = []
        for d in factors:
            lo, hi = realmap.map_from_dict(d).deriv_bounds()
            gaps.append(max(hi - 1.0, 1.0 - lo))
        reply["cert_gap"] = max(gaps)
    if recorder is not None:
        import spans
        reply["trace"] = spans.summarize(recorder.take())
        reply["missing"] = list(recorder.missing)
    return reply


def main():
    proto = sys.stdout
    proto.write(json.dumps({"ready": True, "import_ms": _IMPORT_MS,
                            "qcext": qcext.__file__}) + "\n")
    proto.flush()
    if "--probe" in sys.argv:
        return
    recorder = None
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("end"):
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            proto.write(json.dumps({"maxrss_mb": rss_kb / 1024.0}) + "\n")
            proto.flush()
            return
        if msg.get("trace") and recorder is None:
            import spans
            recorder = spans.Recorder()
        reply = run_op(msg, recorder if msg.get("trace") else None)
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


if __name__ == "__main__":
    main()
