"""Cold-start solve: the first request of a fresh process.

Usage: python3 perfbench/cold_solve.py FILE

Imports tnpack (not timed), then times one ``solve FILE --method dp``
request through tnpack.cli.main, with every transition cache still empty,
and prints {"seconds", "exit", "report"} with the witness left out.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tnpack.cli  # noqa: E402,F401

from run import argv_for, call_cli  # noqa: E402


def main() -> None:
    seconds, code, report = call_cli(argv_for("dp", Path(sys.argv[1])))
    if isinstance(report, dict):
        report.pop("witness", None)
    print(json.dumps({"seconds": seconds, "exit": code, "report": report}))


if __name__ == "__main__":
    main()
