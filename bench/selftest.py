"""Self-test of the benchmark's checks; takes a few seconds.

    python3 bench/selftest.py

Runs one `verify thm2` and one short `eq` operation through the same round
and check code that bench/run.py uses, first as the program answers them,
then with the answers altered on the way back: the `eq` verdict flipped
(exit code to match) and the thm2 instance count raised by one (passes to
match).  The honest round must count no failure and the altered one two.
Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def tampered(cli, argv) -> tuple[object, str]:
    code, out = run.invoke(cli, argv)
    payload = json.loads(out)
    if argv[1] == "eq":
        payload["equal"] = not payload["equal"]
        code = 1 - code
    else:
        report = payload["reports"][0]
        report["instances"] += 1
        report["passes"] += 1
    return code, json.dumps(payload)


def main() -> int:
    if not (run.SRC / "bandgroup" / "cli.py").is_file():
        print(f"no program to test against: {run.SRC / 'bandgroup'} is missing", file=sys.stderr)
        return 2
    setup = run.Setup("partition_sweep", 0)
    cli = setup.cli
    thm2 = next(op for op in setup.ops if op.argv[2] == "thm2")
    eq = min(workloads.long_words(0, setup.workdir), key=lambda op: len(op.argv[2]))
    ops = [thm2, eq]

    honest = run.check_rounds([run.Round(cli, ops)], ops)
    altered = run.check_rounds([run.Round(cli, ops, tampered)], ops)
    print(f"honest round: {honest} failed of {len(ops)}; altered round: {altered} failed of {len(ops)}")
    if honest != 0 or altered != 2:
        print("selftest FAILED: expected 0 and 2", file=sys.stderr)
        return 1
    print("selftest passed: a wrong verdict and a wrong instance count both count as failed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
