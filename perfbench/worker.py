"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD [--trace]

Reads the generated requests as JSON on stdin, imports uqsl2.cli from the
checkout's ``src``, sends every request to the program in a closed loop with
one client, and prints one JSON object with the raw outputs and the
host-normalized timings (see hostspeed.py). Output checks run in the
parent, outside the timed region. With ``--trace`` the layer wrappers are
installed after the import and the per-layer totals and kept spans are
added to the result.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _call_cli(cli, argv):
    """Run the CLI in-process; return (exit code, stdout text)."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            result = cli.main(argv, standalone_mode=False)
            code = result if isinstance(result, int) else 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # any program error is a failed request
            return 1, "%s: %s" % (type(exc).__name__, exc)
    return code, buf.getvalue()


def _handlers(cli):
    """Request handlers for each workload, bound to the uqsl2 modules."""
    from fractions import Fraction

    from uqsl2 import exprio, ncore, qexpops, repmod

    def verify_symbolic(request):
        code, out = _call_cli(cli, request["argv"])
        return {"code": code, "stdout": out}

    def normalize_words(request):
        # the calls of ``uqsl2 normalize`` without its printer, which drops the
        # parentheses of some constant terms (see README.md, "Known defect")
        presentation = request["presentation"]
        try:
            ast = exprio.parse("*".join(request["letters"]), presentation)
            element = (ncore.from_equitable(ast) if presentation == "equitable"
                       else ncore.normalize_chevalley(ast))
        except Exception as exc:  # any program error is a failed request
            return {"error": "%s: %s" % (type(exc).__name__, exc)}
        return {"terms": [[a, b, c, str(coeff)]
                          for (a, b, c), coeff in element.terms.items()]}

    def verify_spot(request):
        # module attributes are looked up per call, so trace wrappers apply
        q0 = Fraction(request["q0"])
        n, eps, kind = request["n"], request["eps"], request["kind"]
        try:
            if kind == "closed_form":
                report = qexpops.verify_closed_form(n, eps, q0)
            else:
                rep = repmod.build_equitable(repmod.ModuleSpec.single(n, eps))
                suite = (repmod.verify_module_suite if kind == "module"
                         else qexpops.verify_conjugation_suite)
                report = suite(rep, q0)
        except Exception as exc:  # any program error is a failed request
            return {"error": "%s: %s" % (type(exc).__name__, exc)}
        return {"rows": [e.json_obj() for e in report.entries]}

    return {"verify_symbolic": verify_symbolic, "verify_spot": verify_spot,
            "normalize_words": normalize_words}


def _closed_loop(requests, handler, tracer):
    """Send each request after the previous one returned; keep (start, end) per request."""
    outputs, spans = [], []
    clock = time.perf_counter
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        t0 = clock()
        outputs.append(handler(request))
        spans.append((t0, clock()))
    return outputs, spans


def main():
    workload = sys.argv[1]
    traced = "--trace" in sys.argv[2:]
    requests = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import uqsl2.cli as cli

    handler = _handlers(cli)[workload]
    tracer = None
    if traced:
        import layertrace
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        if workload == "verify_symbolic":
            cli.main = tracer.wrap("cli.request", cli.main)
        else:
            handler = tracer.wrap("bench.request", handler)
        # no reference samples inside traced spans: time the loop around the pass
        ref = hostspeed.reference_time()
        outputs, spans = _closed_loop(requests, handler, tracer)
        scale = hostspeed.NOMINAL_S * 2 / (ref + hostspeed.reference_time())
        latencies = [(t1 - t0) * scale for t0, t1 in spans]
    else:
        with hostspeed.Sampler() as sampler:
            outputs, spans = _closed_loop(requests, handler, None)
        latencies = [sampler.normalize(t0, t1) for t0, t1 in spans]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"wall_s": sum(latencies), "raw_wall_s": spans[-1][1] - spans[0][0],
              "latencies_s": latencies, "peak_rss_mb": peak_rss_mb, "outputs": outputs}
    if tracer is not None:
        result["layers"] = {name: {"calls": st.calls, "self_s": st.self_s * scale,
                                   "total_s": st.total_s * scale, "work": st.work,
                                   "reduced": st.reduced}
                            for name, st in tracer.stats.items()}
        result["tasks"] = {group: t * scale for group, t in tracer.tasks.items()}
        result["spans"] = tracer.spans
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
