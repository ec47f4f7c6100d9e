"""Time each kernel in ``geadim._kernels`` on fixed small inputs, and the
property suite over the models up to size 5.

Run from the repository root after installing the package::

    python benchmarks/bench_kernels.py

Every kernel runs ``repeat`` times per round over several rounds; the
table gives the fastest round's time per call, which is the least
disturbed by other load on the machine.  The suite row times
``run_theorem_suite(5)``, which builds each catalog entry as it reaches
it.
"""

import platform
import time

from geadim import _kernels as K
from geadim import core, theorems

ROUNDS = 5


def _chain(n):
    """The n-chain: i + j = i + j when the total stays below n."""
    table = [[i + j if i + j < n else -1 for j in range(n)] for i in range(n)]
    return core.GeaTable([str(i) for i in range(n)], table)


def bench(label, fn, args, repeat):
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(repeat):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / repeat)
    print(f"{label:26s} {best * 1e3:10.3f} ms")


def main():
    print(f"python {platform.python_version()}, {platform.machine()}")
    c5, c6 = _chain(5), _chain(6)
    bench("axiom_violation n=6", K.axiom_violation, (c6.sum,),
          repeat=200)
    bench("enumerate_tables n=5", K.enumerate_tables, (5,), repeat=3)
    bench("enumerate_tables n=6", K.enumerate_tables, (6,), repeat=1)
    bench("enumerate_tables n=7", K.enumerate_tables, (7,), repeat=1)
    bench("brute_exomaps n=5", K.brute_exomaps, (c5.sum, c5.leq), repeat=20)
    bench("brute_exomaps n=6", K.brute_exomaps, (c6.sum, c6.leq), repeat=20)
    cls = [0, 1, 1, 2, 2, 3]
    bench("sk_plan n=6", K.sk_plan, (c6.sum, c6.diff, c6.leq), repeat=20)
    plan = K.sk_plan(c6.sum, c6.diff, c6.leq)
    bench("sk_witnesses n=6", K.sk_witnesses, (plan, cls), repeat=200)
    rows = core.b4().sum
    perms = list(core._candidate_perms(core._refine_colors(rows)))
    bench("min_relabel n=4", K.min_relabel, (rows, perms), repeat=500)
    bench("is_min_relabel n=4", K.is_min_relabel, (rows, perms), repeat=500)
    bench("run_theorem_suite n<=5", theorems.run_theorem_suite, (5,), repeat=1)


if __name__ == "__main__":
    main()
