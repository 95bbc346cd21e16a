"""Record the exit code and output digest of every cli-session invocation
that takes no seeded input file and whose verdict is decided (not exit 2)
into cli_digests.json; the benchmark then requires those bytes from every
later commit.  Run from the checkout root at the reference commit:

    python3 perfbench/record_cli_digests.py
"""

import hashlib
import json
import os
import shutil

from run import HERE, OUT, import_library


def main() -> None:
    import_library()
    import workloads

    workdir = OUT / f"record-{os.getpid()}"
    try:
        items, _ = workloads.cli_session(0, workdir, {})
        digests = {}
        for item in items:
            if str(workdir) in item.name:
                continue
            code, out = item.run()
            if code == 2:
                continue
            digests[item.name] = [code, hashlib.sha256(out.encode()).hexdigest()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "cli_digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} invocations")


if __name__ == "__main__":
    main()
