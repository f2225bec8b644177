"""The sampler's neighbor rule as a plain search, for the tests to hold
the walk against."""
import math


def toggle_neighbors(models):
    """Adjacency by single-member toggles, restricted to the given
    space (hierarchy violations are simply absent from it), as one
    (positions, log count) pair per model; the log count of a model
    with no neighbors is 0.0. Toggles are tried in repr order of the
    member, so covariate 10 precedes 2."""
    models = list(models)
    index = {frozenset(m.members): i for i, m in enumerate(models)}
    assert len(index) == len(models), "models with equal members"
    union = set()
    common = set(models[0].members)
    for m in models:
        union |= set(m.members)
        common &= set(m.members)
    toggles = sorted(union - common, key=repr)
    out = []
    for m in models:
        have = frozenset(m.members)
        nbr = []
        for t in toggles:
            hit = index.get(have ^ {t})
            if hit is not None:
                nbr.append(hit)
        out.append((tuple(nbr), math.log(len(nbr)) if nbr else 0.0))
    return out
