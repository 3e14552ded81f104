"""The uProcess object.

A uProcess looks like a process to the application — it has an executable,
threads, a heap, descriptors, signals — but its memory lives in an SMAS
slot, its threads are scheduled entirely in userspace (possibly *inside a
different kProcess than the one that booted it*, §5.2.4), and its
descriptor table is kept by the trusted runtime rather than the kernel.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.hardware.mpk import PkruRegister
from repro.kernel.fdtable import FileDescription
from repro.kernel.kprocess import KProcess
from repro.uprocess.allocator import RegionAllocator
from repro.uprocess.smas import Smas, SmasSlot

if TYPE_CHECKING:  # pragma: no cover
    from repro.uprocess.threads import UThread

_uproc_ids = itertools.count(1)


class UProcessState(enum.Enum):
    CREATED = "created"     #: kProcess forked, booting program polling
    LOADED = "loaded"       #: program installed by the loader
    RUNNING = "running"
    TERMINATED = "terminated"


class UProcess:
    """An application living in one SMAS slot."""

    def __init__(self, name: str, slot: SmasSlot, smas: Smas,
                 boot_kprocess: KProcess) -> None:
        self.uid = next(_uproc_ids)
        self.name = name
        self.slot = slot
        self.smas = smas
        self.boot_kprocess = boot_kprocess
        self.state = UProcessState.CREATED
        self.threads: List["UThread"] = []
        #: how many of ``threads`` are RUNNING; kept in step by the
        #: ``UThread.state`` setter, so readers never recount
        self.running = 0
        #: runtime-managed descriptor table: ufd -> file description.
        #: The runtime proxies all file syscalls and checks ownership here
        #: (§5.2.4) — kernel fd numbers never reach application code.
        self.fd_map: Dict[int, FileDescription] = {}
        self._next_ufd = 3  # 0..2 reserved, as in POSIX

        # The heap takes the upper half of the data region; the lower half
        # holds loader-placed segments (data/bss) and thread stacks.
        data = slot.data_region
        half = data.size // 2
        self.static_arena = RegionAllocator(
            data.start, half, name=f"{name}/static")
        self.heap = RegionAllocator(
            data.start + half, data.size - half, name=f"{name}/heap")
        self.text_cursor = slot.text_region.start if slot.text_region else 0
        #: signal handlers the app registered with the runtime proxy (§4.3)
        self.signal_handlers: Dict[int, object] = {}
        self.pending_signals: List[int] = []

    # ------------------------------------------------------------------
    @property
    def pkey(self) -> int:
        return self.slot.pkey

    def pkru(self) -> PkruRegister:
        """The PKRU value a core uses while running this uProcess."""
        return Smas.app_pkru(self.slot.pkey)

    @property
    def alive(self) -> bool:
        return self.state not in (UProcessState.TERMINATED,)

    # ------------------------------------------------------------------
    # Descriptor table (runtime-managed, §5.2.4)
    # ------------------------------------------------------------------
    def install_fd(self, description: FileDescription) -> int:
        ufd = self._next_ufd
        self._next_ufd += 1
        self.fd_map[ufd] = description
        return ufd

    def lookup_fd(self, ufd: int) -> Optional[FileDescription]:
        return self.fd_map.get(ufd)

    def remove_fd(self, ufd: int) -> FileDescription:
        if ufd not in self.fd_map:
            raise KeyError(f"EBADF: ufd {ufd} not owned by {self.name}")
        return self.fd_map.pop(ufd)

    # ------------------------------------------------------------------
    def terminate(self) -> None:
        from repro.uprocess.threads import UThreadState
        self.state = UProcessState.TERMINATED
        for thread in self.threads:
            thread.state = UThreadState.DEAD
        self.fd_map.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<UProcess {self.name} slot={self.slot.index} "
                f"pkey={self.pkey} {self.state.value}>")
