"""The production import closure holds no reference code.

Importing the library, the CLI, the ingest service and the sharded
executor — everything a parse or a served request runs — must load no
module of :mod:`repro.reference` (test oracles and paper-figure code),
nor any of the reference-only modules that used to sit in production
packages.  Checked in a fresh interpreter, since this test process has
imported the oracles already.

Run as a script, prints the closure's module and line counts::

    PYTHONPATH=src python tests/test_production_closure.py
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: The imports that define the production closure.
PRODUCTION_IMPORTS = ("repro", "repro.__main__", "repro.serve",
                      "repro.exec.sharded")

#: Reference-only modules the closure loaded through package
#: ``__init__``s or top-level imports before they moved.
FORMER_PRODUCTION_MODULES = ("repro.scan.hillis_steele",
                             "repro.gpusim.mfira",
                             "repro.streaming.pipeline",
                             "repro.core.offsets")

_PROBE = f"""
import json, sys
import {", ".join(PRODUCTION_IMPORTS)}
files = {{name: getattr(module, "__file__", None)
         for name, module in sys.modules.items()
         if name == "repro" or name.startswith("repro.")}}
print(json.dumps(files))
"""


def production_closure() -> dict[str, int]:
    """``{module: source lines}`` of every repro module the production
    imports load, measured in a fresh interpreter."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing
                                    else "")
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    files = json.loads(out.stdout)
    return {name: (len(pathlib.Path(path).read_bytes().splitlines())
                   if path else 0)
            for name, path in sorted(files.items())}


def test_production_closure_loads_no_reference_code():
    loaded = set(production_closure())
    reference = sorted(name for name in loaded
                       if name.split(".")[:2] == ["repro", "reference"])
    assert reference == []
    assert sorted(loaded & set(FORMER_PRODUCTION_MODULES)) == []


if __name__ == "__main__":
    closure = production_closure()
    print(f"production closure: {len(closure)} repro modules, "
          f"{sum(closure.values())} lines")
