"""Seven- and eight-element models built from formulas, for `relations-n8`.

Each family is one isomorphism class that several formulas describe (a
product of chains in either factor order, a horizontal sum with its chains
in any order).  The seed picks the formula and a zero-fixing relabeling,
never the class, so the amount of work per operation does not depend on
the seed while the canonical key check still sees different labelings.
"""

import itertools
import random


def chain(k):
    """The chain 0 < 1 < ... < k-1 with i + j = i + j when it stays below k."""
    names = ["0"] + [f"c{i}" for i in range(1, k)]
    eqs = [
        (names[i], names[j], names[i + j])
        for i in range(1, k)
        for j in range(i, k)
        if i + j < k
    ]
    return names, eqs


def product(*ks):
    """Coordinatewise sums over a product of chains of the given lengths."""
    def name(t):
        return "0" if not any(t) else "p" + "_".join(map(str, t))

    elems = list(itertools.product(*[range(k) for k in ks]))
    eqs = []
    for a, b in itertools.combinations_with_replacement(elems, 2):
        c = tuple(x + y for x, y in zip(a, b))
        if any(a) and any(b) and all(ci < k for ci, k in zip(c, ks)):
            eqs.append((name(a), name(b), name(c)))
    return [name(t) for t in elems], eqs


def horizontal_sum(*ks, shared_top=False):
    """Chains glued at zero (and at their tops when ``shared_top``); sums
    are defined only inside one chain."""
    names = ["0"]
    eqs = []
    for idx, k in enumerate(ks):
        def name(i, idx=idx, k=k):
            if i == 0:
                return "0"
            if shared_top and i == k - 1:
                return "1"
            return f"h{idx}_{i}"

        for i in range(1, k):
            if name(i) not in names:
                names.append(name(i))
        eqs += [
            (name(i), name(j), name(i + j))
            for i in range(1, k)
            for j in range(i, k)
            if i + j < k
        ]
    return names, eqs


# family -> formulas that all give the same isomorphism class
FAMILIES = {
    "chain-7": [lambda: chain(7)],
    "chain-8": [lambda: chain(8)],
    "product-2x4": [lambda: product(2, 4), lambda: product(4, 2)],
    "cube-2x2x2": [lambda: product(2, 2, 2)],
    "hsum-4+5": [lambda: horizontal_sum(4, 5), lambda: horizontal_sum(5, 4)],
    "hsum-top-4+4+4": [lambda: horizontal_sum(4, 4, 4, shared_top=True)],
}


def pick(seed):
    """(family, names, equations) per family, in a seeded order.

    The seed picks each family's formula, relabels the nonzero elements by
    a random permutation (zero stays first) and shuffles the family order.
    """
    rng = random.Random(seed)
    out = []
    for family, formulas in FAMILIES.items():
        names, eqs = rng.choice(formulas)()
        rest = names[1:]
        rng.shuffle(rest)
        out.append((family, ["0"] + rest, eqs))
    rng.shuffle(out)
    return out
