import pytest


@pytest.fixture(autouse=True, scope="session")
def kernel_cache(tmp_path_factory):
    """Compiled kernels are cached under the session's temporary directory,
    never in the user's own cache; child processes inherit the setting."""
    with pytest.MonkeyPatch.context() as patch:
        home = tmp_path_factory.mktemp("xdg-cache")
        patch.setenv("XDG_CACHE_HOME", str(home))
        yield home / "wattcast"
