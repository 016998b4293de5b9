import pytest


@pytest.fixture(autouse=True, scope="session")
def kernel_cache(tmp_path_factory):
    """Compiled kernels are cached under the session's temporary directory,
    never in the user's own cache; child processes inherit the setting."""
    with pytest.MonkeyPatch.context() as patch:
        home = tmp_path_factory.mktemp("xdg-cache")
        patch.setenv("XDG_CACHE_HOME", str(home))
        yield home / "wattcast"


@pytest.fixture(params=["kernel", "python"])
def writer(request, monkeypatch):
    """The CSV writer's two ways through a table: the compiled pass, or the
    Python formatting alone (``_load_kernel`` gives None)."""
    import wattcast.ingest as ingest

    if request.param == "kernel":
        if ingest._load_kernel() is None:
            pytest.skip(f"no C compiler could build {ingest._KERNEL_SOURCE.name}")
    else:
        monkeypatch.setattr(ingest, "_load_kernel", lambda: None)
    return request.param
