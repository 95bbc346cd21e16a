"""Show that each checker accepts the library's answer and rejects a planted
wrong one: a corrupted certificate, a flipped stacked answer, a perturbed
hull normal and a changed CLI byte.  Run from the checkout root:

    python3 perfbench/selfcheck.py

Exits 0 when every planted answer is rejected and every true one accepted.
"""

import json
import os
import shutil
import sys
from fractions import Fraction

from run import HERE, OUT, import_library


def corrupt_trace(plain):
    status, reason, trace = plain
    (a, b), rest = trace[-1], trace[:-1]
    return status, reason, rest + ((a, b[:-1] + (b[-1] + 1,)),)


def flip_stacked(plain):
    stacked, order, attachments = plain
    return (not stacked, order, attachments) if not stacked else (False, None, None)


def perturb_normal(plain):
    facets, complex_facets = plain
    vertices, normal, offset = facets[0]
    bumped = (vertices, (normal[0] + Fraction(1),) + normal[1:], offset)
    return (bumped,) + facets[1:], complex_facets


def change_byte(plain):
    code, out = plain
    i = next(k for k, ch in enumerate(out) if ch.isdigit())
    return code, out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1:]


def main() -> int:
    import_library()
    import workloads

    workdir = OUT / f"selfcheck-{os.getpid()}"
    digests = json.loads((HERE / "cli_digests.json").read_text())
    try:
        pools = {
            "sphere-certify": workloads.sphere_certify(0)[0],
            "small-complex-sweep": workloads.small_complex_sweep(0)[0],
            "exact-hull": workloads.exact_hull(0)[0],
            "cli-session": workloads.cli_session(0, workdir, digests)[0],
        }
        by_name = {item.name: item for pool in pools.values() for item in pool}
        stacked = next(i for i in pools["small-complex-sweep"]
                       if i.name.startswith("stacked-family") and i.name.endswith("-4"))
        cases = [
            ("corrupted sphere certificate", by_name["cross_polytope(5)"], corrupt_trace),
            ("corrupted ball certificate", by_name["stacked-B3-n20"], corrupt_trace),
            ("flipped stacked answer (stacked)", stacked, flip_stacked),
            ("flipped stacked answer (not stacked)", by_name["large-family-0"], flip_stacked),
            ("perturbed hull normal", by_name["cyclic_polytope_points(12,4)"], perturb_normal),
            ("perturbed cloud hull normal", by_name["cloud-3d-60"], perturb_normal),
            ("changed CLI byte (recorded digest)", by_name["verify sphere --catalog gs_s48"], change_byte),
            ("changed CLI byte (parse-back only)",
             next(i for i in pools["cli-session"] if i.name.startswith("info --in")), change_byte),
        ]
        bad = 0
        for label, item, plant in cases:
            plain = item.extract(item.run())
            true_problem = item.verify(plain)
            try:
                planted_problem = item.verify(plant(plain))
            except Exception as exc:  # unreadable output counts as rejected
                planted_problem = repr(exc)
            ok = true_problem is None and planted_problem is not None
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {label}: true answer "
                  f"{'accepted' if true_problem is None else 'rejected: ' + true_problem}; "
                  f"planted answer {'rejected: ' + planted_problem if planted_problem else 'accepted'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
