import os
from pathlib import Path

from hypothesis import settings

# property tests do exact bignum work whose per-example time varies wildly
# with the drawn magnitudes; wall-clock deadlines only add flakiness
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env(extra=None):
    """The environment for a child ``python -m bundle_census``.

    pytest's ``pythonpath`` setting reaches only this process, so the
    checkout's ``src`` goes first on the child's PYTHONPATH; ``extra``
    adds or overrides variables.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env

