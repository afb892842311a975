"""Virtual-network message classes."""

from __future__ import annotations

from enum import Enum


class MessageClass(Enum):
    """Virtual networks, mirroring Ruby's request/response/data split.

    Separating classes prevents protocol deadlock in real hardware; here
    they mainly size messages (control vs data) and label statistics.
    """

    REQUEST = "request"    # GETS/GETX/upgrade — 8-byte control
    RESPONSE = "response"  # ACK/NACK — 8-byte control
    DATA = "data"          # full cache line + header
    WRITEBACK = "writeback"
    #: a direct-store forward: header + one written word, not a full line
    STORE_FORWARD = "store_forward"

    def size_bytes(self, line_size: int) -> int:
        """Wire size of a message of this class."""
        if self in (MessageClass.DATA, MessageClass.WRITEBACK):
            return line_size + 8
        if self is MessageClass.STORE_FORWARD:
            return 16
        return 8

    @property
    def virtual_network(self) -> str:
        """Which virtual network carries this class.

        Separate request/response/data channels, as in Ruby: they
        prevent protocol deadlock in hardware, and in this model they
        keep future-scheduled data transfers (probe responses,
        writebacks) from serialising ahead of present-time requests on
        one shared link timeline.
        """
        if self is MessageClass.REQUEST:
            return "req"
        if self is MessageClass.RESPONSE:
            return "resp"
        return "data"

