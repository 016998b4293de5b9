from types import SimpleNamespace

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


@pytest.fixture(params=["kernel", "python"])
def reader(request, monkeypatch):
    """The energy CSV reader's two ways through a file: the compiled pass,
    which hands every file it declines to ``csv.reader``, or ``csv.reader``
    alone (``_load_kernel`` gives None). Gives the way's name, and the list
    ``served`` of what each run of the compiled pass returned: True where it
    parsed the file, False where it declined it."""
    import wattcast.ingest as ingest

    served = []
    if request.param == "kernel":
        kernel = ingest._load_kernel()
        if kernel is None:
            pytest.skip(f"no C compiler could build {ingest._KERNEL_SOURCE.name}")

        def spy(*args):
            result = kernel.columns(*args)
            served.append(result is not None)
            return result

        monkeypatch.setattr(ingest, "_load_kernel",
                            lambda: SimpleNamespace(columns=spy, write=kernel.write))
    else:
        monkeypatch.setattr(ingest, "_load_kernel", lambda: None)
    return SimpleNamespace(way=request.param, served=served)
