"""The four benchmark workloads.

Each workload function takes the seed and returns a list of ``Item``s plus the
names of the items that the traced run reports as named rows.  An item's
``run`` is the timed call: it builds its ``Complex`` from a plain facet list
and calls the public API, so no per-object memo survives from one
repetition to the next.  ``extract`` turns the result into plain data and
``verify`` checks that data with the code in ``checks`` (never the library).
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Hashable

import combisphere as cs
from combisphere import cli

import checks
import corpus

# Unknown at this budget today: the greedy search cycles, then all 12 vertex
# links are certified recursively before giving up.
CROSS6_BUDGET = 100
# the stacked spheres among the baseline rows, and the seed they are built from
SPHERE_ROWS = ("stacked-S3-n60", "stacked-S4-n40")
BASELINE_SEED = 2020


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    extract: Callable[[object], Hashable]
    verify: Callable[[Hashable], str | None]
    # None when the item cannot return Unknown; otherwise plain -> decided?
    decided: Callable[[Hashable], bool] | None = None


def _catalog_facets(name: str, rng: random.Random | None = None) -> corpus.Facets:
    facets = [tuple(f) for f in cs.get(name).complex.facets]
    return corpus.relabel(facets, rng) if rng else facets


# ---------------------------------------------------------------------------
# sphere-certify
# ---------------------------------------------------------------------------


def _verdict_plain(v) -> Hashable:
    return v.status, v.reason, tuple((tuple(a), tuple(b)) for a, b in v.trace)


def _verdict_decided(plain) -> bool:
    return plain[0] in ("certified", "refuted")


def _sphere_item(name, facets, *, sphere=True, budget=None) -> Item:
    kwargs = {} if budget is None else {"budget": budget}

    def verify(plain):
        status, _, trace = plain
        if status == "certified":
            if not sphere:
                return "certified a non-sphere"
            return checks.replay_problem(checks.fsets(facets), trace)
        if status == "refuted" and sphere:
            return "refuted a sphere"
        return None

    return Item(
        name,
        lambda: cs.certify_sphere(cs.from_facets(facets), **kwargs),
        _verdict_plain,
        verify,
        _verdict_decided,
    )


def _ball_item(name, facets) -> Item:
    def verify(plain):
        status, _, trace = plain
        if status == "refuted":
            return "refuted a ball"
        if status == "certified" and len(facets) > 1:
            return checks.replay_problem(checks.capped(checks.fsets(facets)), trace)
        return None

    return Item(
        name,
        lambda: cs.certify_ball(cs.from_facets(facets)),
        _verdict_plain,
        verify,
        _verdict_decided,
    )


def sphere_certify(seed: int) -> tuple[list[Item], list[str]]:
    rng = random.Random(seed)
    items = []
    for dim, sizes in ((3, (32, 40, 50, 60)), (4, (28, 32, 40)), (5, (25, 30))):
        for n in sizes:
            name = f"stacked-S{dim}-n{n}"
            # a baseline row is the same sphere for every seed, so that rows compare across runs
            source = random.Random(BASELINE_SEED) if name in SPHERE_ROWS else rng
            items.append(_sphere_item(name, corpus.stacked_sphere(source, dim, n)))
    for k in (4, 5):
        items.append(_sphere_item(f"cross_polytope({k})",
                                  _catalog_facets(f"cross_polytope({k})", rng)))
    for a, b in ((4, 5), (5, 6)):
        facets = corpus.join(corpus.join(corpus.cycle(a), corpus.cycle(b, a)),
                             corpus.zero_sphere(a + b + 1, a + b + 2))
        # not relabelled: the greedy search's cost on these joins moves up to
        # 2x with the labelling, and they sit near the median latency
        items.append(_sphere_item(f"C{a}*C{b}*S0", facets))
    for name in ("gs_s48", "barnette_join"):
        items.append(_sphere_item(name, _catalog_facets(name, rng)))

    torus = corpus.moebius_torus()
    non_spheres = {
        "suspended-moebius-torus": corpus.join(torus, corpus.zero_sphere(8, 9)),
        "moebius-torus*C4": corpus.join(torus, corpus.cycle(4, 7)),
        "stacked-S3-minus-facet": corpus.stacked_sphere(rng, 3, 30)[1:],
        "wedge-of-stacked-S3": corpus.stacked_sphere(rng, 3, 20) + corpus.shift(
            corpus.stacked_sphere(rng, 3, 20), 19),
    }
    for name, facets in non_spheres.items():
        items.append(_sphere_item(name, corpus.relabel(facets, rng), sphere=False))

    for dim, n in ((3, 20), (3, 30), (4, 25)):
        items.append(_ball_item(f"stacked-B{dim}-n{n}", corpus.stacked_ball(rng, dim, n)))

    items.append(_sphere_item(f"cross_polytope(6)-budget{CROSS6_BUDGET}",
                              _catalog_facets("cross_polytope(6)"), budget=CROSS6_BUDGET))
    return items, [*SPHERE_ROWS, f"cross_polytope(6)-budget{CROSS6_BUDGET}"]


# ---------------------------------------------------------------------------
# small-complex-sweep
# ---------------------------------------------------------------------------


def _stacked_family_item(name, facets, oracle_cache) -> Item:
    def extract(report):
        w = report.witness
        if w is None:
            return report.stacked, None, None
        return (report.stacked, tuple(tuple(f) for f in w.facets),
                tuple((tuple(r), a) for r, a in w.attachments))

    def verify(plain):
        stacked, order, attachments = plain
        key = tuple(facets)
        if key not in oracle_cache:
            oracle_cache[key] = checks.brute_stacked(facets)
        if stacked != oracle_cache[key]:
            return f"stacked={stacked} but the brute-force oracle says {not stacked}"
        if stacked:
            return checks.peeling_problem(facets, order, attachments)
        return None

    return Item(name, lambda: cs.is_stacked_ball(cs.from_facets(facets)), extract, verify)


def _completion_plain(result):
    return result.embedding_check, tuple(tuple(f) for f in result.sphere.facets)


def _completion_problem(plain, facets, dim_step):
    ok, sphere = plain
    return checks.completion_problem(facets, sphere, dim_step) if ok else "embedding_check is false"


def _completion_item(name, facets, call, dim_step) -> Item:
    """call is a library function name, or a function of the built complex."""
    def verify(plain):
        return _completion_problem(plain, facets, dim_step)

    def run():
        fn = getattr(cs, call) if isinstance(call, str) else call
        return fn(cs.from_facets(facets))

    return Item(name, run, _completion_plain, verify)


def _chain_item(n) -> Item:
    facets = corpus.cycle(n)
    return Item(
        f"sphere_chain(cycle({n}))",
        lambda: cs.sphere_chain(cs.from_facets(facets)),
        lambda chain: tuple(tuple(tuple(f) for f in c.facets) for c in chain),
        lambda plain: (checks.chain_problem(plain)
                       or (None if checks.fsets(plain[0]) == checks.fsets(facets)
                           else "chain does not start at the input")),
    )


def _move_item(name, facets, a, b) -> Item:
    """A bistellar move followed by its inverse."""
    def run():
        moved = cs.generalized_bistellar_move(cs.from_facets(facets), a, b)
        return moved, cs.generalized_bistellar_move(moved, b, a)

    def verify(plain):
        moved, back = plain
        if checks.fsets(moved) != checks.flip(checks.fsets(facets), a, b):
            return "the move differs from the definition"
        return None if checks.fsets(back) == checks.fsets(facets) else "the inverse move does not restore the input"

    return Item(name, run, lambda r: tuple(tuple(map(tuple, X.facets)) for X in r), verify)


def _suspension_item(name, facets, rng) -> Item:
    faces = checks.fsets(facets)
    u = rng.choice(sorted(checks.vertices(faces)))
    v = max(checks.vertices(faces)) + 1

    def verify(plain):
        result = checks.fsets(plain)
        if checks.vertices(result) != checks.vertices(faces) | {v}:
            return "wrong vertex set"
        if any(not checks.is_face(f, result) for f in faces):
            return "the suspension does not contain the input"
        if checks.euler(result) != 2 - checks.euler(faces):
            return "Euler characteristic is not 2 - chi(input)"
        return checks.closed_pseudomanifold_problem(result)

    return Item(name, lambda: cs.one_point_suspension(cs.from_facets(facets), u, v),
                lambda X: tuple(map(tuple, X.facets)), verify)


def _join_item(name, a, b) -> Item:
    """The face polynomial of a join is the product of the factors' polynomials."""
    def poly(faces):
        return {0: 1, **checks.face_counts(faces)}

    pa, pb = poly(checks.fsets(a)), poly(checks.fsets(b))
    want = {}
    for i, x in pa.items():
        for j, y in pb.items():
            want[i + j] = want.get(i + j, 0) + x * y

    def verify(plain):
        got = poly(checks.fsets(plain))
        return None if got == want else f"face counts {got}, expected {want}"

    return Item(name, lambda: cs.join(cs.from_facets(a), cs.from_facets(b)),
                lambda X: tuple(map(tuple, X.facets)), verify)


def small_complex_sweep(seed: int) -> tuple[list[Item], list[str]]:
    rng = random.Random(seed)
    oracle: dict = {}
    items = []
    for i in range(2400):
        items.append(_stacked_family_item(
            f"family-{i}", corpus.triangle_family(rng, 1 + i % 5), oracle))
    for i in range(600):
        items.append(_stacked_family_item(
            f"large-family-{i}", corpus.triangle_family(rng, 6 + i % 5), oracle))
    for i in range(600):
        items.append(_stacked_family_item(
            f"stacked-family-{i}", corpus.stacked_triangle_family(rng, 1 + i % 5), oracle))

    comp = []
    for i in range(12):
        dim = 2 + i % 3
        comp.append(("complete_stacked_ball", corpus.stacked_ball(rng, dim, rng.randint(dim + 2, 12)), 0))
    for i in range(12):
        dim = 1 + i % 3
        S = corpus.stacked_sphere(rng, dim, rng.randint(dim + 3, 10))
        comp.append(("complete_stacked_sphere", S, 1))
        comp.append(("complete_degree_d", S, 1))
    for i in range(12):
        dim = 2 + i % 2
        comp.append(("complete_ball_degree_d", corpus.stacked_ball(rng, dim, rng.randint(dim + 2, 10)), 0))
    for i in range(12):
        comp.append(("complete_disc", corpus.random_disc(rng, rng.randint(4, 20)), 0))
    for i in range(10):
        comp.append(("complete_flag", corpus.relabel(corpus.flag_two_sphere(rng, rng.randint(6, 10)), rng), 1))
    for k in (2, 3, 4):
        comp.append(("complete_flag", _catalog_facets(f"cross_polytope({k})", rng), 1))
    for i in range(12):
        a, b = rng.randint(3, 6), rng.randint(3, 6)
        A, B = corpus.cycle(a), corpus.cycle(b, a)
        if i % 3 == 2:
            B = corpus.zero_sphere(a + 1, a + 2)

        def call(X, A=A, B=B):
            return cs.complete_join(X, [cs.from_facets(A), cs.from_facets(B)])

        comp.append((call, corpus.join(A, B), 1))
    for i, (call, facets, step) in enumerate(comp):
        name = call if isinstance(call, str) else "complete_join"
        items.append(_completion_item(f"{name}-{i}", facets, call, step))
    for n in (5, 6, 7):
        items.append(_chain_item(n))

    items.append(_move_item("move-octahedron", _catalog_facets("octahedron"), (1, 3), (5, 6)))
    for i in range(20):
        S = corpus.stacked_sphere(rng, 2 + i % 2, 9)
        items.append(_move_item(f"move-subdivide-{i}", S, S[0], (10,)))
    torus = corpus.moebius_torus()
    for i in range(30):
        kind = i % 5
        if kind == 0:
            X = corpus.cycle(rng.randint(3, 9))
        elif kind == 1:
            X = corpus.stacked_sphere(rng, 1 + i % 3, rng.randint(6, 12))
        elif kind == 2:
            X = _catalog_facets(f"cross_polytope({rng.randint(2, 4)})", rng)
        elif kind == 3:
            X = corpus.relabel(torus, rng)
        else:
            a = rng.randint(3, 5)
            X = corpus.join(corpus.cycle(a), corpus.cycle(rng.randint(3, 5), a))
        items.append(_suspension_item(f"one_point_suspension-{i}", X, rng))
    for i in range(30):
        size_a, size_b = rng.randint(1, 3), rng.randint(1, 3)
        A = rng.sample(list(itertools.combinations(range(1, 5), size_a)), rng.randint(1, 3))
        B = rng.sample(list(itertools.combinations(range(5, 9), size_b)), rng.randint(1, 3))
        items.append(_join_item(f"join-{i}", corpus.canonical(A), corpus.canonical(B)))
    return items, []


# ---------------------------------------------------------------------------
# exact-hull
# ---------------------------------------------------------------------------


def _hull_item(name, points, cyclic=None) -> Item:
    """cyclic = (n, d) when the points lie on the moment curve."""
    pc = cs.PointConfiguration.from_dict(len(next(iter(points.values()))), points)

    def extract(hull):
        return tuple(
            (tuple(f.vertices), tuple(f.normal), f.offset) for f in hull.facets
        ), tuple(tuple(f) for f in hull.boundary_complex.facets)

    def verify(plain):
        facets, complex_facets = plain
        if checks.fsets(complex_facets) != checks.fsets(f[0] for f in facets):
            return "boundary complex differs from the facet list"
        if cyclic is not None and {f[0] for f in facets} != checks.gale_facets(*cyclic):
            return "facets differ from the Gale evenness facets"
        return checks.hull_problem(points, facets)

    return Item(name, lambda: cs.convex_hull(pc), extract, verify)


def _moment_points(n: int, d: int) -> dict[int, tuple[int, ...]]:
    return {t: tuple(t ** j for j in range(1, d + 1)) for t in range(1, n + 1)}


def exact_hull(seed: int) -> tuple[list[Item], list[str]]:
    rng = random.Random(seed)
    items = []
    for d, sizes in ((4, (12, 16, 20, 24, 30)), (5, (8, 10, 12))):
        for n in sizes:
            pc = cs.get(f"cyclic_polytope_points({n},{d})").points
            points = {label: tuple(int(c) for c in vec) for label, vec in pc.points}
            items.append(_hull_item(f"cyclic_polytope_points({n},{d})", points, (n, d)))
    # Every cloud costs well under cyclic_polytope_points(24,4) whatever the
    # seed, so the tail percentile lies among the fixed cyclic inputs.
    for name, d, n in (("cloud-3d-60", 3, 60), ("cloud-3d-120", 3, 120),
                       ("cloud-4d-30a", 4, 30), ("cloud-4d-30b", 4, 30)):
        items.append(_hull_item(name, corpus.integer_cloud(rng, d, n, 10**6)))

    gp_inputs = {
        "cyclic(8,3)": _moment_points(8, 3),
        "cyclic(10,4)": _moment_points(10, 4),
        "cloud-3d-10": corpus.integer_cloud(rng, 3, 10, 10**6),
        "degenerate-3d": {**corpus.integer_cloud(rng, 3, 10, 10**6),
                          11: (0, 0, 0), 12: (1, 1, 1), 13: (2, 2, 2), 14: (5, 5, 5)},
    }
    for name, points in gp_inputs.items():
        pc = cs.PointConfiguration.from_dict(len(next(iter(points.values()))), points)

        def verify_gp(got, points=points):
            expected = checks.general_position(points)
            return None if got == expected else f"got {got}, expected {expected}"

        items.append(Item(f"general_position_check:{name}",
                          lambda pc=pc: cs.general_position_check(pc), bool, verify_gp))

    octa_target = _catalog_facets("octahedron")
    octa = cs.PointConfiguration.from_dict(3, corpus.octahedron_points())

    def verify_perturb(plain):
        points = dict(plain)
        if not checks.general_position(points):
            return "perturbed points are not in general position"
        return checks.realizes_problem(points, octa_target)

    for i in range(2):
        def perturb(perturb_seed=rng.randrange(1 << 16)):
            return cs.perturb_to_general_position(octa, cs.from_facets(octa_target), seed=perturb_seed)

        items.append(Item(f"perturb_to_general_position:octahedron-{i}", perturb,
                          lambda pc: tuple(pc.points), verify_perturb))

    for n, d in ((6, 3), (8, 3), (7, 4)):
        pc = cs.PointConfiguration.from_dict(d, _moment_points(n, d))

        def verify_polytopal(plain, n=n, d=d):
            return _completion_problem(plain, sorted(checks.gale_facets(n, d)), 1)

        items.append(Item(f"polytopal_complete:cyclic({n},{d})", lambda pc=pc: cs.polytopal_complete(pc),
                          _completion_plain, verify_polytopal))
    rows = [f"cyclic_polytope_points({n},4)" for n in (12, 20, 30)]
    return items, rows


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


def cli_call(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def parse_complex_text(text: str) -> list[tuple[int, ...]]:
    facets = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            facets.append(tuple(int(t) for t in line.split()))
    return facets


def _facet_text(facets) -> str:
    return "".join(" ".join(map(str, f)) + "\n" for f in facets)


def _points_json(points) -> str:
    return json.dumps({
        "dim": len(next(iter(points.values()))),
        "points": {str(k): [str(c) for c in v] for k, v in points.items()},
    })


def _info_check(facets):
    """The inputs are closed, so pseudomanifold == closed."""
    def expected():
        faces = checks.fsets(facets)
        counts = checks.face_counts(faces)
        fvec = [counts[k] for k in sorted(counts)]
        closed = checks.closed_pseudomanifold_problem(faces) is None
        return [len(fvec) - 1, fvec[0], fvec[-1], fvec, checks.euler(faces), closed, closed]

    def check(code, out):
        if out.lstrip().startswith("{"):
            obj = json.loads(out)
            got = [obj[k] for k in ("dim", "n_vertices", "n_facets", "f_vector",
                                    "euler_characteristic", "pseudomanifold", "closed")]
        else:
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            got = [int(fields["dim"]), int(fields["vertices"]), int(fields["facets"]),
                   [int(x) for x in fields["f-vector"].split()],
                   int(fields["euler characteristic"]),
                   fields["pseudomanifold"] == "yes", fields["closed"] == "yes"]
        want = expected()
        if code != 0 or got != want:
            return f"info says {got} with exit {code}, expected {want}"
        return None

    return check


def _verdict_check(facets, *, sphere: bool, ball: bool = False):
    def check(code, out):
        if out.lstrip().startswith("{"):
            obj = json.loads(out)
            status, trace = obj["status"], [(tuple(a), tuple(b)) for a, b in obj["trace"]]
        else:
            status, trace = out.split(":", 1)[0], None
        if code != {"certified": 0, "refuted": 1, "unknown": 2}.get(status):
            return f"exit code {code} for status {status}"
        if status == "refuted" and sphere:
            return "refuted a sphere"
        if status == "certified" and not sphere:
            return "certified a non-sphere"
        if status == "certified" and trace is not None:
            faces = checks.fsets(facets)
            return checks.replay_problem(checks.capped(faces) if ball else faces, trace)
        return None

    return check


def _bool_check(expected: bool):
    def check(code, out):
        if out.lstrip().startswith("{"):
            held = next(v for v in json.loads(out).values() if isinstance(v, bool))
        else:
            held = out.startswith("yes:")
        if held != expected or code != (0 if held else 1):
            return f"answer {held} with exit {code}, expected {expected}"
        return None

    return check


def _completion_check(facets, dim_step):
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        if out.lstrip().startswith("{"):
            obj = json.loads(out)
            sphere = obj["sphere"]["facets"]
            if obj["contains_input"] is not True:
                return "contains_input is false"
        else:
            sphere = parse_complex_text(out)
        return checks.completion_problem(facets, sphere, dim_step)

    return check


def _hull_check(points, cyclic=None):
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        obj = json.loads(out)
        facets = [(tuple(f["vertices"]), tuple(Fraction(c) for c in f["normal"]),
                   Fraction(f["offset"])) for f in obj["facets"]]
        if cyclic is not None and {f[0] for f in facets} != checks.gale_facets(*cyclic):
            return "facets differ from the Gale evenness facets"
        return checks.hull_problem(points, facets)

    return check


def _perturb_check(target):
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        obj = json.loads(out)
        points = {int(k): tuple(Fraction(c) for c in v) for k, v in obj["points"].items()}
        if not checks.general_position(points):
            return "perturbed points are not in general position"
        return checks.realizes_problem(points, target)

    return check


def _chain_check(facets):
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        if out.lstrip().startswith("{"):
            chain = json.loads(out)["chain"]
            chain = [c["facets"] for c in chain]
        else:
            chain = []
            for line in out.splitlines():
                if line.startswith("# step"):
                    chain.append([])
                elif line.strip():
                    chain[-1].append(tuple(int(t) for t in line.split()))
        if checks.fsets(chain[0]) != checks.fsets(facets):
            return "chain does not start at the input"
        return checks.chain_problem(chain)

    return check


def _catalog_check(facets):
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        if out.startswith("{"):
            got = json.loads(out)["complex"]["facets"]
        else:
            got = parse_complex_text(out)
        return None if checks.fsets(got) == checks.fsets(facets) else "catalog show gives other facets"

    return check


def _code_check(expected_code):
    def check(code, out):
        if code != expected_code or out:
            return f"exit code {code} with {len(out)} bytes of output, expected {expected_code}"
        return None

    return check


def _list_check(code, out):
    names = out.split() if not out.startswith("[") else json.loads(out)
    return None if code == 0 and "gs_m38" in names and "cycle(n)" in names else "bad catalog list"


def _cli_item(argv, check, decidable=False, *, digests) -> Item:
    key = " ".join(argv)
    want = digests.get(key)

    def verify(plain):
        code, out = plain
        if want is not None:
            got = [code, hashlib.sha256(out.encode()).hexdigest()]
            if got != want:
                return f"output differs from the recorded digest (exit {code})"
        return check(code, out)

    decided = (lambda plain: plain[0] in (0, 1)) if decidable else None
    return Item(key, lambda: cli_call(argv), lambda r: r, verify, decided)


def cli_session(seed: int, workdir: Path, digests: dict) -> tuple[list[Item], list[str]]:
    """Write the seeded input files into workdir and script every verb."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    big = corpus.stacked_sphere(rng, 3, 400)
    sphere = corpus.stacked_sphere(rng, 3, 30)
    ball = corpus.stacked_ball(rng, 3, 20)
    sball = corpus.stacked_ball(rng, 3, 40)
    flag = corpus.flag_two_sphere(rng, 10)
    disc = corpus.random_disc(rng, 20)
    torus = corpus.join(corpus.moebius_torus(), corpus.zero_sphere(8, 9))
    fa, fb = corpus.cycle(4), corpus.cycle(5, 4)
    joined = corpus.join(fa, fb)
    chain_in = corpus.cycle(6)
    cloud = corpus.integer_cloud(rng, 3, 60, 10**6)
    cyc = _moment_points(12, 4)
    octa_target = _catalog_facets("octahedron")
    texts = {
        "big.txt": _facet_text(big),
        "big.json": json.dumps({"dim": 3, "facets": [list(f) for f in big]}),
        "sphere.txt": _facet_text(sphere),
        "ball.txt": _facet_text(ball),
        "sball.txt": _facet_text(sball),
        "flag.txt": _facet_text(flag),
        "disc.txt": _facet_text(disc),
        "torus.txt": _facet_text(torus),
        "joined.txt": _facet_text(joined),
        "fa.txt": _facet_text(fa),
        "fb.txt": _facet_text(fb),
        "chain.txt": _facet_text(chain_in),
        "cloud.json": _points_json(cloud),
        "cyc.json": _points_json(cyc),
        "octa.json": _points_json(corpus.octahedron_points()),
        "bad.txt": "1 2 3\n1 2 x\n",
    }
    for name, text in texts.items():
        (workdir / name).write_text(text, encoding="utf-8")

    def p(name):
        return str(workdir / name)

    gs_s48 = _catalog_facets("gs_s48")
    ex43 = _catalog_facets("example43_ball")
    script = [
        (["info", "--in", p("big.txt")], _info_check(big)),
        (["info", "--in", p("big.json"), "--json"], _info_check(big)),
        (["info", "--catalog", "barnette"], _info_check(_catalog_facets("barnette"))),
        (["verify", "pseudomanifold", "--in", p("big.txt")], _bool_check(True)),
        (["verify", "pseudomanifold", "--in", p("big.json"), "--json"], _bool_check(True)),
        (["verify", "sphere", "--catalog", "gs_s48"], _verdict_check(gs_s48, sphere=True), True),
        (["verify", "sphere", "--catalog", "gs_s48", "--json"], _verdict_check(gs_s48, sphere=True), True),
        (["verify", "sphere", "--in", p("sphere.txt"), "--json"], _verdict_check(sphere, sphere=True), True),
        (["verify", "sphere", "--in", p("torus.txt")], _verdict_check(torus, sphere=False), True),
        (["verify", "sphere", "--catalog", "cross_polytope(4)", "--budget", "1"],
         _verdict_check(_catalog_facets("cross_polytope(4)"), sphere=True), True),
        (["verify", "ball", "--in", p("ball.txt"), "--json"], _verdict_check(ball, sphere=True, ball=True), True),
        (["verify", "ball", "--catalog", "gs_ball_D"],
         _verdict_check(_catalog_facets("gs_ball_D"), sphere=True, ball=True), True),
        (["verify", "stacked-ball", "--in", p("sball.txt")], _bool_check(True)),
        (["verify", "stacked-ball", "--in", p("big.txt"), "--json"], _bool_check(False)),
        (["verify", "stacked-sphere", "--in", p("sphere.txt")], _bool_check(True)),
        (["verify", "stacked-sphere", "--catalog", "cross_polytope(4)"], _bool_check(False)),
        (["verify", "flag", "--in", p("flag.txt")], _bool_check(True)),
        (["verify", "flag", "--catalog", "gs_m38", "--json"], _bool_check(False)),
        (["complete", "join", "--in", p("joined.txt"), "--factor", p("fa.txt"), "--factor", p("fb.txt")],
         _completion_check(joined, 1)),
        (["complete", "degree", "--in", p("sphere.txt")], _completion_check(sphere, 1)),
        (["complete", "flag", "--in", p("flag.txt"), "--json"], _completion_check(flag, 1)),
        (["complete", "stacked-ball", "--in", p("sball.txt")], _completion_check(sball, 0)),
        (["complete", "stacked-sphere", "--in", p("sphere.txt"), "--json"], _completion_check(sphere, 1)),
        (["complete", "ball-degree", "--catalog", "example43_ball", "--vertex", "8"],
         _completion_check(ex43, 0)),
        (["complete", "disc", "--in", p("disc.txt")], _completion_check(disc, 0)),
        (["complete", "polytopal", "--catalog", "cyclic_polytope_points(8,3)"],
         _completion_check(sorted(checks.gale_facets(8, 3)), 1)),
        (["hull", "--points", p("cyc.json"), "--json"], _hull_check(cyc, (12, 4))),
        (["hull", "--points", p("cloud.json"), "--json"], _hull_check(cloud)),
        (["hull", "--points", p("octa.json"), "--perturb", "--target", "octahedron",
          "--seed", str(rng.randrange(1 << 16))], _perturb_check(octa_target)),
        (["catalog", "list"], _list_check),
        (["catalog", "list", "--json"], _list_check),
        (["catalog", "show", "gs_m38"], _catalog_check(_catalog_facets("gs_m38"))),
        (["catalog", "show", "barnette_join", "--json"], _catalog_check(_catalog_facets("barnette_join"))),
        (["chain", "--in", p("chain.txt")], _chain_check(chain_in)),
        (["chain", "--catalog", "cycle(5)", "--json"], _chain_check(corpus.cycle(5))),
        (["verify", "sphere"], _code_check(64)),
        (["info", "--in", p("bad.txt")], _code_check(65)),
        (["info", "--in", p("missing.txt")], _code_check(66)),
    ]
    items = [_cli_item(*entry, digests=digests) for entry in script]
    return items, ["verify sphere --catalog gs_s48"]
