import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact",
    derandomize=True,
    deadline=None,
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def fan36():
    from tropd4.fan import compute_fan_f36
    return compute_fan_f36()


@pytest.fixture(scope="session")
def pseudotriangulations4():
    from tropd4.clusters import enumerate_pseudotriangulations
    return enumerate_pseudotriangulations(4)


@pytest.fixture(scope="session")
def cone_types(fan36):
    from tropd4.correspondence import classify_all_cones
    return classify_all_cones()


@pytest.fixture
def sweep_calls(monkeypatch):
    """A list that records each call of the double-description sweep."""
    import tropd4.geometry as geometry
    calls = []
    sweep = geometry._double_description

    def counted(*args):
        calls.append(args)
        return sweep(*args)
    monkeypatch.setattr(geometry, "_double_description", counted)
    return calls
