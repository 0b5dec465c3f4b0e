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
def cones_holding():
    """``cones_holding(fan, x)``: the indices of the maximal cones of
    ``fan`` that hold the integer point x, read off ``fan.locate([x])``."""
    def held_by(fan, x):
        _, _, held, _ = fan.locate([x])
        return [i for i, h in enumerate(held) if h]
    return held_by


@pytest.fixture(scope="session")
def pseudotriangulations4():
    from tropd4.clusters import enumerate_pseudotriangulations
    return enumerate_pseudotriangulations(4)


@pytest.fixture(scope="session")
def cone_types(fan36):
    from tropd4.correspondence import classify_all_cones
    return classify_all_cones()


class SweepCall(tuple):
    """The positional ``(rows, dim)`` of one sweep, with the ``bits`` it
    was given beside them: None for the coordinate sweep."""


@pytest.fixture
def sweep_calls(monkeypatch):
    """A list that records each call of the double-description sweep, as
    a :class:`SweepCall`; keyword arguments are passed on."""
    import tropd4.geometry as geometry
    calls = []
    sweep = geometry._double_description

    def counted(*args, **kwargs):
        calls.append(SweepCall(args))
        calls[-1].bits = kwargs.get("bits")
        return sweep(*args, **kwargs)
    monkeypatch.setattr(geometry, "_double_description", counted)
    return calls


@pytest.fixture
def swapped_eeff_types(monkeypatch):
    """The plane types of one EEFFa cone and one EEFFb cone of other
    symmetry classes swapped, so that two orbits match no row of Table 2.
    The caches that hold cone types are cleared before and after."""
    import tropd4.correspondence as correspondence
    from tropd4.reference import TABLE1, ray_set
    swap = {ray_set(TABLE1["EEFFa"][3]): "EEFFb",
            ray_set(TABLE1["EEFFb"][2]): "EEFFa"}
    real = correspondence.classify_plane_type
    caches = (correspondence.classify_all_cones,
              correspondence.cluster_classes)
    monkeypatch.setattr(correspondence, "classify_plane_type",
                        lambda rays: swap.get(frozenset(rays)) or real(rays))
    for cache in caches:
        cache.cache_clear()
    yield swap
    monkeypatch.undo()
    for cache in caches:
        cache.cache_clear()
