import pytest
from hypothesis import settings

import gel.dynamics

# Every property draws the same examples on every run, so a pass or a failure
# repeats; no example database carries one run's draws into the next.  Each
# test's own max_examples and deadline still apply.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def product_forms(monkeypatch) -> list[bool]:
    """For each state ``run_trajectory`` offers the product form, whether it
    took it (False: the state fell back to the edge form)."""
    taken = []
    product_state = gel.dynamics._product_state

    def recorded(*args):
        state = product_state(*args)
        taken.append(state is not None)
        return state

    monkeypatch.setattr(gel.dynamics, "_product_state", recorded)
    return taken
