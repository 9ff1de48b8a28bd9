"""The benchmark's tracer still finds every function it hooks.

bench/tracing.py replaces module attributes of fibzeta by name.  A renamed
function, or a call that no longer goes through a module-level name, would
leave a layer of `bench/run.py --trace 1` silently empty; this test makes
that a failure.  It runs in a subprocess because the tracer patches the
modules for the life of the interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import contextlib, importlib.util, io, json, sys

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

import fibzeta.cli as cli

tracer = tracing.Tracer()
hooked = []


def recording(make):
    def wrap(fn, *args, **kwargs):
        hooked.append(fn)
        return make(fn, *args, **kwargs)
    return wrap


for name in ("_frame", "_leaf", "_raise_counter"):
    setattr(tracer, name, recording(getattr(tracer, name)))
tracer.install()

replaced = set()
for mod_name, module in list(sys.modules.items()):
    if module is not None and (mod_name == "fibzeta" or mod_name.startswith("fibzeta.")):
        for value in vars(module).values():
            if hasattr(value, "__wrapped__"):
                replaced.add(id(value.__wrapped__))
missing = sorted(f"{fn.__module__}.{fn.__qualname__}" for fn in hooked if id(fn) not in replaced)


def run(calls):
    codes = []
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))
    return codes, tracer.snapshot()["spans"]


norm_plus_one = run([
    ["eval", "--D", "3", "--s", "0.3+2i", "--method", "binomial"],
    ["eval", "--D", "3", "--s", "0.3+2i", "--method", "poisson"],
])
even_regions = run([
    ["eval", "--D", "5", "--s=-1.5+0.5i", "--parity", "even", "--method", "poisson"],
    ["eval", "--D", "5", "--s", "0.3+2i", "--parity", "even", "--method", "poisson"],
    ["eval", "--D", "5", "--s", "2+1i", "--parity", "even", "--method", "poisson"],
    ["eval", "--D", "5", "--s", "2", "--parity", "odd", "--method", "shifted_convolution",
     "--tol", "1e-8"],
])
print(json.dumps({"hooked": len(hooked), "missing": missing,
                  "norm_plus_one": norm_plus_one, "even_regions": even_regions}))
"""


def _traced_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench" / "tracing.py")],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_hooks_every_layer_and_names_the_routes():
    out = _traced_run()
    assert out["hooked"] and out["missing"] == []

    codes, spans = out["norm_plus_one"]
    assert codes == [0, 0]
    assert spans["cli.evaluate"]["calls"] == 2
    for name in ("continuation.binomial", "poisson.even.strip"):
        assert spans[name]["calls"] == 1 and spans[name]["terms"] > 0, name

    codes, spans = out["even_regions"]
    assert codes == [0, 0, 0, 0]
    for region in ("left", "strip", "direct"):
        assert spans[f"poisson.even.{region}"]["terms"] > 0, region
    assert spans["poisson.even.left"]["calls"] == 1
    assert spans["poisson.even.strip"]["calls"] == 2  # one from the D = 3 call
    assert spans["poisson.even.direct"]["calls"] == 1
    assert spans["continuation.direct"]["calls"] == 1  # the direct region's sum
    assert spans["crosscheck.shifted_convolution"]["calls"] == 1
