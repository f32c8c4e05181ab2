import pytest

import gel.dynamics


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
