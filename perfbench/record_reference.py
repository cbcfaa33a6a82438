"""Record the reference outputs of every op whose inputs do not depend on the seed.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose outputs are the
reference; writes perfbench/reference.json (sha256 of exit code, stdout
and written files per op id).  The benchmark then fails any such op
whose output is not byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]
    os.environ["SPECGRAPH_JOBS"] = "1"
    import checks
    import workloads
    from worker import Runner, _import_specgraph

    sg = _import_specgraph()
    reference = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for workload in workloads.WORKLOADS:
            ops_path = workloads.generate(workload, 0, Path(tmp) / workload)
            runner = Runner(sg, json.loads(ops_path.read_text(encoding="utf-8")))
            records = runner.run_pass(None)["records"]
            for op, rec in zip(runner.ops, records):
                if op["fixed"]:
                    reference[op["id"]] = hashlib.sha256(checks.output_bytes(op, rec)).hexdigest()
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(f"recorded {len(reference)} reference outputs in {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
