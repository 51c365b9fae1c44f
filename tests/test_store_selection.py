"""Which delivery store an engine runs on, per ``fastpath`` setting.

``"auto"`` picks the columnar store only where it wins: numpy is
importable, ``t >= 64`` and the protocol declares a columnar fold.
``"on"`` and ``"off"`` force their store whatever the protocol and size.
"""

import pytest

import repro.sim.columnar as columnar
from repro.core.registry import build_processes
from repro.sim.columnar import resolve_fastpath
from repro.sim.engine import Engine
from repro.sim.mailboxes import ListMailboxes

SELECTION = [
    # (protocol, t, fastpath, columnar?)
    ("D", 63, "auto", False),
    ("D", 64, "auto", True),
    ("D-dynamic", 63, "auto", False),
    ("D-dynamic", 64, "auto", True),
    ("D-recovery", 63, "auto", False),
    ("D-recovery", 64, "auto", True),
    ("A", 512, "auto", False),
    ("B", 128, "auto", False),
    ("A", 8, "on", True),
    ("D", 128, "off", False),
]


@pytest.mark.parametrize(
    "protocol,t,fastpath,expected",
    SELECTION,
    ids=[f"{p}-t{t}-{mode}" for p, t, mode, _ in SELECTION],
)
def test_store_selection_rule(protocol, t, fastpath, expected):
    if (expected or fastpath == "on") and not columnar.HAVE_NUMPY:
        pytest.skip("the columnar store needs numpy")
    processes = build_processes(protocol, t, t)
    assert resolve_fastpath(fastpath, processes) is expected


def test_auto_without_numpy_picks_the_list_store(monkeypatch):
    monkeypatch.setattr(columnar, "HAVE_NUMPY", False)
    processes = build_processes("D", 128, 128)
    assert resolve_fastpath("auto", processes) is False
    assert isinstance(Engine(processes)._store, ListMailboxes)


@pytest.mark.skipif(not columnar.HAVE_NUMPY, reason="the columnar store needs numpy")
def test_engine_holds_the_selected_store():
    assert isinstance(Engine(build_processes("D", 64, 64))._store, columnar.ColumnarMailboxes)
    assert isinstance(Engine(build_processes("D", 64, 63))._store, ListMailboxes)
