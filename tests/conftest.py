"""Shared fixtures: small cache geometries that keep scalar tests fast
while exercising the same code paths as the ARM920T configuration."""

import pytest

from repro.cache.core import CacheGeometry
from repro.common.address import AddressLayout


@pytest.fixture
def small_geometry() -> CacheGeometry:
    """A 2 KB, 16-set, 4-way cache with 32-byte lines."""
    return CacheGeometry(total_size=2048, num_ways=4, line_size=32)


@pytest.fixture
def small_layout(small_geometry) -> AddressLayout:
    return small_geometry.layout()


@pytest.fixture
def arm_l1_geometry() -> CacheGeometry:
    """The paper's L1 geometry (16 KB, 128 sets, 4 ways)."""
    return CacheGeometry(total_size=16 * 1024, num_ways=4, line_size=32)


@pytest.fixture(params=["fs", "http"])
def transport(request, tmp_path):
    """Each work-queue transport over one queue directory,
    ``tmp_path / "queue"``: the directory itself (``fs``), and an
    in-process coordinator serving it over HTTP (``http``)."""
    from repro.backends import CoordinatorServer, FsTransport, HttpTransport

    queue_dir = str(tmp_path / "queue")
    if request.param == "fs":
        yield FsTransport(queue_dir)
        return
    with CoordinatorServer(queue_dir) as server:
        yield HttpTransport(server.url, retry_timeout=5.0)
