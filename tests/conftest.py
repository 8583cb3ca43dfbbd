import itertools
import os
from pathlib import Path

from hypothesis import settings

from bundle_census.counting import counting_rule

# property tests do exact bignum work whose per-example time varies wildly
# with the drawn magnitudes; wall-clock deadlines only add flakiness
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env(extra=None):
    """The environment for a child ``python -m bundle_census``.

    pytest's ``pythonpath`` setting reaches only this process, so the
    checkout's ``src`` goes first on the child's PYTHONPATH; ``extra``
    adds or overrides variables.  A copy of ``tests/`` with no ``src``
    beside it puts a missing directory there, so the child runs whatever
    ``bundle_census`` is installed: CI's Packaging step relies on this to
    run these tests against the installed wheel.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def verdict_rows(spec, verdicts):
    """(classes, count code, failing (r, num, den)) of each tuple of a chunk's ``Verdicts``.

    Read back from its keys and its argument list: each tuple's moving
    classes, then num and den of each B_r its key marks as failing; the
    other classes are the one value of their interval.
    """
    rule = counting_rule(spec.rank, spec.dim)
    cells = iter(verdicts.args)
    rows = []
    for key in verdicts.keys:
        classes = [lo for lo, _ in spec.bounds]
        for i in verdicts.moving:
            classes[i] = next(cells)
        terms = [(r, next(cells), next(cells)) for r, fails in zip(itertools.count(3), key[1:]) if fails]
        rows.append((tuple(classes), rule.count(not any(key[1:]), key[0]), terms))
    assert next(cells, None) is None, "arguments left over"
    return rows
