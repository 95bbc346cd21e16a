"""Seeded input generators for the benchmark.

Everything here is written from the definitions and returns plain data:
facet lists as tuples of ints, point sets as dicts of integer tuples.  The
benchmark turns them into library objects inside each timed item, so every
item starts from a freshly built ``Complex``.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

Facets = list[tuple[int, ...]]


def canonical(facets) -> Facets:
    return sorted({tuple(sorted(f)) for f in facets})


def relabel(facets, rng: random.Random) -> Facets:
    """Apply a seeded permutation of the labels actually used."""
    labels = sorted({v for f in facets for v in f})
    image = labels[:]
    rng.shuffle(image)
    perm = dict(zip(labels, image))
    return canonical(tuple(perm[v] for v in f) for f in facets)


def shift(facets, offset: int) -> Facets:
    return canonical(tuple(v + offset for v in f) for f in facets)


def stacked_ball(rng: random.Random, dim: int, n: int) -> Facets:
    """Glue a fresh vertex onto a random boundary ridge, n - dim - 1 times."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    first = frozenset(labels[: dim + 1])
    facets = [first]
    ridges = Counter(first - {v} for v in first)
    for label in labels[dim + 1:]:
        free = sorted((r for r, c in ridges.items() if c == 1), key=sorted)
        new = rng.choice(free) | {label}
        facets.append(new)
        for v in new:
            ridges[new - {v}] += 1
    return canonical(facets)


def boundary_of(facets) -> Facets:
    """Ridges that lie in exactly one facet."""
    count = Counter(
        frozenset(f) - {v} for f in facets for v in f
    )
    return canonical(r for r, c in count.items() if c == 1)


def stacked_sphere(rng: random.Random, dim: int, n: int) -> Facets:
    return boundary_of(stacked_ball(rng, dim + 1, n))


def join(a, b) -> Facets:
    return canonical(tuple(x) + tuple(y) for x in a for y in b)


def cycle(n: int, offset: int = 0) -> Facets:
    return canonical(
        (offset + i, offset + i % n + 1) for i in range(1, n + 1)
    )


def zero_sphere(u: int, v: int) -> Facets:
    return [(u,), (v,)]


def moebius_torus() -> Facets:
    """The 7-vertex torus: orbits of 013 and 023 under i -> i + 1 mod 7."""
    return canonical(
        tuple((v + s) % 7 + 1 for v in base)
        for base in ((0, 1, 3), (0, 2, 3))
        for s in range(7)
    )


def random_disc(rng: random.Random, n: int) -> Facets:
    """A 2-ball on labels 1..n, grown by coning boundary edges and filling
    ears whose skip pair is not yet an edge."""
    facets = [(1, 2, 3)]
    ring = [1, 2, 3]
    edges = {frozenset(e) for e in ((1, 2), (2, 3), (1, 3))}
    label = 4
    while label <= n:
        filled = False
        if len(ring) >= 4 and rng.random() < 0.35:
            k = len(ring)
            starts = list(range(k))
            rng.shuffle(starts)
            for i in starts:
                a, b, c = ring[i], ring[(i + 1) % k], ring[(i + 2) % k]
                if frozenset((a, c)) not in edges:
                    facets.append((a, b, c))
                    edges.add(frozenset((a, c)))
                    ring.pop((i + 1) % k)
                    filled = True
                    break
        if not filled:
            i = rng.randrange(len(ring))
            a, b = ring[i], ring[(i + 1) % len(ring)]
            facets.append((a, b, label))
            edges.update((frozenset((a, label)), frozenset((b, label))))
            ring.insert(i + 1, label)
            label += 1
    return canonical(facets)


def flag_two_sphere(rng: random.Random, n: int) -> Facets:
    """Subdivide octahedron edges whose two opposite apexes are non-adjacent;
    each subdivision keeps a flag 2-sphere."""
    facets = {frozenset(f) for f in itertools.product((1, 2), (3, 4), (5, 6))}
    for w in range(7, n + 1):
        edges = sorted({e for f in facets for e in itertools.combinations(sorted(f), 2)})
        rng.shuffle(edges)
        for u, v in edges:
            star = [f for f in facets if {u, v} <= f]
            (a,) = star[0] - {u, v}
            (b,) = star[1] - {u, v}
            if any({a, b} <= f for f in facets):
                continue
            facets -= set(star)
            facets |= {frozenset(t) for t in ((u, w, a), (w, v, a), (u, w, b), (w, v, b))}
            break
        else:
            raise RuntimeError("no subdividable edge")
    return canonical(facets)


def triangle_family(rng: random.Random, m: int, labels: int = 7) -> Facets:
    return canonical(rng.sample(list(itertools.combinations(range(1, labels + 1), 3)), m))


def stacked_triangle_family(rng: random.Random, m: int, labels: int = 7) -> Facets:
    """A stacked 2-ball with m facets on m + 2 of the given labels."""
    ball = stacked_ball(rng, 2, m + 2)
    image = rng.sample(range(1, labels + 1), m + 2)
    return canonical(tuple(image[v - 1] for v in f) for f in ball)


def integer_cloud(rng: random.Random, dim: int, n: int, spread: int) -> dict[int, tuple[int, ...]]:
    """n integer points in a box; most of them are interior to the hull."""
    return {
        label: tuple(rng.randint(-spread, spread) for _ in range(dim))
        for label in range(1, n + 1)
    }


def octahedron_points() -> dict[int, tuple[int, ...]]:
    return {
        1: (1, 0, 0), 2: (-1, 0, 0),
        3: (0, 1, 0), 4: (0, -1, 0),
        5: (0, 0, 1), 6: (0, 0, -1),
    }
